"""Equivalence oracle: the decision tick on the autograd graph, verbatim.

These are the bodies of ``StateEncoder.step_pairs``, ``GaussianActor
.act_batch``, ``Critic.value_batch`` and ``BatchedEpisodeEncoder`` as they
stood before the production tick moved onto plain arrays: every forward wraps
its arrays in ``Tensor``s and walks ``Module.__call__`` under ``no_grad()``
and ``row_consistent_matmul()``, an ``act_batch`` without noise computes the
per-row log-probability of the mean, and the tracker keeps one
``(num_layers, n_envs, hidden)`` slab per stream and steps them apart.  They
are kept only as the reference the bitwise tests in
``tests/test_core_vec_env.py``, ``tests/test_core_rl.py`` and
``tests/test_properties.py`` compare production against -- do not optimise
or "fix" them.  The only edits turn the three methods into functions taking
the module first, so a test can ``monkeypatch.setattr`` them over the
production names, and call the ``forward`` bodies of that time -- the
composed ``Sequential`` walk, now in :mod:`tests.oracles.composed_ppo` --
since the production ``forward`` has become one fused node.
``reference_act_batch`` also follows ``act_batch``'s signature as it is now:
no noise means the mean, and there is no ``deterministic`` flag and no draw
from an actor-owned generator.  For the same reason the
encoder step runs the per-gate ``ComposedGRU.step`` of
:mod:`tests.oracles.composed_recurrent` on slices of the packed weights: the
production GRU has no ``Tensor`` step any more, and its array step is the
code under test.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import nn
from repro.core.state_encoder import StateEncoder

from .composed_ppo import composed_actor_forward, composed_critic_forward
from .composed_recurrent import ComposedGRU
from .encoder_states import split_states, stack_states

__all__ = [
    "reference_step_pairs",
    "reference_act_batch",
    "reference_value_batch",
    "TwoSlabEpisodeEncoder",
]


def composed_copy(gru: nn.GRU) -> ComposedGRU:
    """A per-gate composed GRU holding the packed ``gru``'s current weights."""
    composed = ComposedGRU(gru.input_size, gru.hidden_size, gru.num_layers)
    size = gru.hidden_size
    state = {}
    for name, packed in gru.state_dict().items():
        layer, kind = name.split(".")
        for index, gate in enumerate(nn.GRUCell.GATES):
            leaf = f"b_{gate}" if kind == "b" else f"{kind}{gate}"
            state[f"{layer}.{leaf}"] = packed[..., index * size : (index + 1) * size]
    composed.load_state_dict(state)
    return composed


def reference_step_pairs(self: StateEncoder, pairs: np.ndarray, states):
    if not isinstance(states, np.ndarray):
        return split_states(reference_step_pairs(self, pairs, stack_states(states)))
    pairs = np.asarray(pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"expected (n_envs, 2) pairs, got shape {pairs.shape}")
    if states.shape != (self.num_layers, pairs.shape[0], self.hidden_size):
        raise ValueError(f"one state per row of pairs is required, got a {states.shape} slab")
    with nn.no_grad(), nn.row_consistent_matmul():
        new_hidden = composed_copy(self.gru).step(
            nn.Tensor(pairs), [nn.Tensor(layer) for layer in states]
        )
    return np.array([layer.data for layer in new_hidden])


def reference_act_batch(
    self,
    states: np.ndarray,
    noise: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2:
        raise ValueError(f"states must be a (n, state_dim) array, got {states.shape}")
    with nn.no_grad(), nn.row_consistent_matmul():
        mean, log_std = composed_actor_forward(self, nn.Tensor(states))
    mean = mean.data
    std = np.exp(log_std.data)
    if noise is None:
        actions = mean.copy()
    else:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (len(states), self.action_dim):
            raise ValueError(
                f"noise must have shape {(len(states), self.action_dim)}, got {noise.shape}"
            )
        actions = mean + noise * std
    log_probs = np.sum(
        -0.5 * ((actions - mean) / std) ** 2
        - np.log(std)
        - 0.5 * np.log(2.0 * np.pi),
        axis=1,
    )
    return actions, log_probs


def reference_value_batch(self, states: np.ndarray) -> np.ndarray:
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 2:
        raise ValueError(f"states must be a (n, state_dim) array, got {states.shape}")
    with nn.no_grad(), nn.row_consistent_matmul():
        values = composed_critic_forward(self, nn.Tensor(states))
    return values.data.copy()


class TwoSlabEpisodeEncoder:
    """``BatchedEpisodeEncoder`` with one resident slab per stream and two
    batched GRU steps per tick (one per stream)."""

    def __init__(self, encoder: StateEncoder, n_envs: int) -> None:
        if n_envs < 1:
            raise ValueError("n_envs must be >= 1")
        self._encoder = encoder
        self.n_envs = n_envs
        self._slab_shape = (encoder.num_layers, n_envs, encoder.hidden_size)
        self._observation_hidden = np.zeros(self._slab_shape)
        self._action_hidden = np.zeros(self._slab_shape)

    @property
    def state_dim(self) -> int:
        return 2 * self._encoder.hidden_size

    def states(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        observation, action = self._observation_hidden[-1], self._action_hidden[-1]
        if indices is not None:
            indices = list(indices)
            observation, action = observation[indices], action[indices]
        return np.concatenate([observation, action], axis=1)

    def snapshot(self) -> Dict[str, np.ndarray]:
        return {
            "observation": self._observation_hidden.copy(),
            "action": self._action_hidden.copy(),
        }

    def restore(self, snapshot: Dict[str, np.ndarray]) -> None:
        slabs = [
            np.array(snapshot[stream], dtype=np.float64) for stream in ("observation", "action")
        ]
        if any(slab.shape != self._slab_shape for slab in slabs):
            raise ValueError(
                f"snapshot states have shapes {[slab.shape for slab in slabs]}, this tracker "
                f"holds (num_layers, n_envs, hidden_size) = {self._slab_shape} per stream"
            )
        self._observation_hidden, self._action_hidden = slabs

    def reset_all(self, observations: np.ndarray) -> np.ndarray:
        self._observation_hidden = self._encoder.step_pairs(
            observations, np.zeros(self._slab_shape)
        )
        self._action_hidden = np.zeros(self._slab_shape)
        return self.states()

    def step(
        self, pairs: np.ndarray, dones: np.ndarray, indices: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        dones = np.asarray(dones, dtype=bool).reshape(-1)
        rows = list(range(self.n_envs) if indices is None else indices)
        next_observations, recorded_actions = pairs[: len(rows)], pairs[len(rows) :]
        if not (len(rows) == len(recorded_actions) == len(next_observations) == len(dones)):
            raise ValueError("indices, actions, observations and dones must align")

        action_hidden = self._encoder.step_pairs(recorded_actions, self._action_hidden[:, rows])
        observation_hidden = self._observation_hidden[:, rows]
        if dones.any():
            # New episode: both histories restart from the empty state.
            action_hidden[:, dones] = 0.0
            observation_hidden = np.where(dones[:, None], 0.0, observation_hidden)
        self._action_hidden[:, rows] = action_hidden
        self._observation_hidden[:, rows] = self._encoder.step_pairs(
            next_observations, observation_hidden
        )
        return self.states(rows)

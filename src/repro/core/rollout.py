"""Rollout buffer and generalized advantage estimation (Appendix A.1).

PPO trains on fixed-length rollouts collected from ``N`` parallel
environments (Algorithm 1, line 4).  The buffer holds one whole collected
rollout — states, actions, log-probabilities, rewards, value estimates and
episode-boundary flags, all ``(T, N, ...)`` arrays written at once by
:meth:`RolloutBuffer.load` — and computes advantages via GAE(λ):

    A_t = Σ_l (γλ)^l [ r_{t+l} + γ V(s_{t+l+1}) − V(s_{t+l}) ].

:func:`compute_gae` computes every step's TD error and decay at once and
loops only over the recurrence, bit-identical to the per-step loop kept in
``tests/oracles/gae_reference.py``; it refuses a ``gamma``, ``gae_lambda``
or ``last_values`` that ``AmoebaConfig`` would not produce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from ..utils.rng import ensure_rng
from ..utils.validation import check_probability

__all__ = ["RolloutBuffer", "compute_gae"]


def compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    last_values: np.ndarray,
    gamma: float,
    gae_lambda: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute GAE advantages and returns.

    Parameters
    ----------
    rewards, values, dones:
        Arrays of shape ``(T, N)`` — T timesteps, N environments.  ``dones``
        marks steps that *terminate* an episode.
    last_values:
        Value estimates of the state following the final step: ``N`` values.
    gamma, gae_lambda:
        Within ``AmoebaConfig``'s bounds, ``(0, 1]`` and ``[0, 1]``.

    Returns
    -------
    advantages, returns:
        Arrays of shape ``(T, N)``; returns are ``advantages + values``.

    Every step's ``δ_t`` and decay ``γλ(1 − done_t)`` are computed at once;
    only ``A_t = δ_t + decay_t · A_{t+1}`` runs step by step.  A bad argument
    raises ``ValueError`` naming it before any arithmetic.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    if rewards.shape != values.shape or rewards.shape != dones.shape:
        raise ValueError("rewards, values and dones must share the same (T, N) shape")
    steps, n_envs = rewards.shape
    last_values = np.asarray(last_values, dtype=np.float64)
    if last_values.size != n_envs:
        raise ValueError(f"last_values must hold N = {n_envs} values, got shape {last_values.shape}")
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be within (0, 1], got {gamma}")
    gae_lambda = check_probability(gae_lambda, "gae_lambda")

    non_terminal = 1.0 - dones.astype(np.float64)
    next_values = np.concatenate([values[1:], last_values.reshape(1, n_envs)])
    bootstrap = gamma * next_values * non_terminal
    delta = rewards + bootstrap - values
    # Which of two NaNs an add keeps depends on numpy's loop (its vector
    # tail swaps the operands), so steps where a reward and its bootstrap
    # are both NaN are added again as (N,) rows, as the per-step loop did.
    for t in np.flatnonzero((np.isnan(rewards) & np.isnan(bootstrap)).any(axis=1)):
        delta[t] = rewards[t] + bootstrap[t] - values[t]
    decay = gamma * gae_lambda * non_terminal
    advantages = np.empty_like(rewards)
    last = np.zeros(n_envs)
    for t in range(steps - 1, -1, -1):
        last = delta[t] + decay[t] * last
        advantages[t] = last

    returns = advantages + values
    return advantages, returns


@dataclass
class _Batch:
    """One minibatch handed to the PPO update."""

    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


class RolloutBuffer:
    """Fixed-size (T × N) storage of environment interactions."""

    def __init__(self, rollout_length: int, n_envs: int, state_dim: int, action_dim: int) -> None:
        if rollout_length < 1 or n_envs < 1:
            raise ValueError("rollout_length and n_envs must be >= 1")
        self.rollout_length = rollout_length
        self.n_envs = n_envs
        self.state_dim = state_dim
        self.action_dim = action_dim
        # Minibatch gather targets, built on first use and kept across
        # reset(): their shapes depend only on (T·N, n_minibatches), so one
        # set serves every epoch of every update this buffer feeds.
        self._slots: List[_Batch] = []
        self._normalised_advantages = np.empty(rollout_length * n_envs)
        shape = (rollout_length, n_envs)
        self.states = np.zeros(shape + (state_dim,))
        self.actions = np.zeros(shape + (action_dim,))
        self.log_probs = np.zeros(shape)
        self.rewards = np.zeros(shape)
        self.values = np.zeros(shape)
        self.dones = np.zeros(shape, dtype=bool)
        self._loaded = False
        self._finalized = False

    def load(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        log_probs: np.ndarray,
        rewards: np.ndarray,
        values: np.ndarray,
        dones: np.ndarray,
    ) -> None:
        """Fill the whole buffer from collected ``(T, N, ...)`` arrays.

        The only way data enters the buffer: every collection path returns
        a whole rollout (one :class:`~repro.distrib.shard.ShardResult`),
        which replaces the previous one and leaves the buffer ready for
        :meth:`finalize`.  Every array must have exactly its slot's shape —
        nothing is broadcast — or ``ValueError`` names it and the buffer is
        left as it was.
        """
        arrays = {
            "states": states,
            "actions": actions,
            "log_probs": log_probs,
            "rewards": rewards,
            "values": values,
            "dones": dones,
        }
        for name, array in arrays.items():
            expected = getattr(self, name).shape
            shape = np.shape(array)
            if shape != expected:
                raise ValueError(f"{name} must have shape {expected}, got {shape}")
        for name, array in arrays.items():
            getattr(self, name)[:] = array
        self._loaded = True
        self._finalized = False

    def finalize(self, last_values: np.ndarray, gamma: float, gae_lambda: float) -> None:
        """Compute advantages and returns of the loaded rollout (a
        :func:`compute_gae` ``ValueError`` leaves the buffer as it was)."""
        if not self._loaded:
            raise RuntimeError("cannot finalize a buffer nothing was loaded into")
        self.advantages, self.returns = compute_gae(
            self.rewards, self.values, self.dones, last_values, gamma, gae_lambda
        )
        self._finalized = True

    def _minibatch_slots(self, n_splits: int) -> List[_Batch]:
        """Per-slot gather buffers for an ``n_splits``-way partition."""
        if len(self._slots) != n_splits:
            total = self.rollout_length * self.n_envs
            sizes = [len(split) for split in np.array_split(np.arange(total), n_splits)]
            self._slots = [
                _Batch(
                    states=np.empty((size, self.state_dim)),
                    actions=np.empty((size, self.action_dim)),
                    log_probs=np.empty(size),
                    advantages=np.empty(size),
                    returns=np.empty(size),
                )
                for size in sizes
            ]
        return self._slots

    def minibatches(self, n_minibatches: int, rng=None) -> Iterator[_Batch]:
        """Yield shuffled minibatches over the flattened (T*N) samples.

        The ``T·N`` samples are partitioned into exactly ``n_minibatches``
        near-equal batches (sizes differ by at most one), so per-update
        statistics are never skewed by a runt batch when ``n_minibatches``
        does not divide ``T·N``.  When there are fewer samples than
        requested batches, each sample forms its own batch.  Advantages are
        normalised over the whole rollout, once per call.

        Every batch is gathered into buffers the rollout buffer owns and
        reuses (fancy indexing would allocate five fresh arrays per
        minibatch per epoch on the PPO update's critical path), so a yielded
        batch is only valid until ``minibatches`` is called again — the PPO
        update finishes forward, backward and optimizer step on each batch
        before asking for the next.  The contents equal ``array[index]`` bit
        for bit (``tests/test_nn_backend.py``).

        The loaded rollout must be finalized first (:meth:`finalize`):
        otherwise the first batch raises ``RuntimeError`` before ``rng`` draws
        anything.
        """
        if not self._finalized:
            raise RuntimeError(
                "minibatches needs advantages and returns: call finalize() after load()"
            )
        rng = ensure_rng(rng)
        if n_minibatches < 1:
            raise ValueError("n_minibatches must be >= 1")
        total = self.rollout_length * self.n_envs
        states = self.states.reshape(total, self.state_dim)
        actions = self.actions.reshape(total, self.action_dim)
        log_probs = self.log_probs.reshape(total)
        returns = self.returns.reshape(total)
        slots = self._minibatch_slots(min(n_minibatches, total))

        raw = self.advantages.reshape(total)
        advantages = self._normalised_advantages
        np.subtract(raw, raw.mean(), out=advantages)
        advantages /= raw.std() + 1e-8

        order = rng.permutation(total)
        for batch, index in zip(slots, np.array_split(order, len(slots))):
            # mode="clip" selects numpy's unchecked gather path (the default
            # "raise" mode bounds-checks in a second pass and is measurably
            # slower); permutation indices are always in range so clipping
            # never actually engages.  The ndarray method is used rather
            # than np.take — the functional wrapper adds two dispatch hops
            # per call on this per-minibatch hot path.
            states.take(index, axis=0, out=batch.states, mode="clip")
            actions.take(index, axis=0, out=batch.actions, mode="clip")
            log_probs.take(index, out=batch.log_probs, mode="clip")
            advantages.take(index, out=batch.advantages, mode="clip")
            returns.take(index, out=batch.returns, mode="clip")
            yield batch

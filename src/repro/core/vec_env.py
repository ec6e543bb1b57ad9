"""Vectorized environment stepping: one censor query batch per tick.

The seed training loop stepped ``n_envs`` :class:`AdversarialFlowEnv`
instances one at a time, issuing one ``censor.predict_score`` call per
environment per step.  :class:`VectorFlowEnv` drives the same environments
through their two-phase step API instead:

1. **propose** — every environment advances its (deterministic) emulator and
   reports which flows the censor still has to score (the adversarial prefix
   of every unmasked step, plus the finished adversarial flow of every
   terminating episode);
2. **score** — all pending flows across all environments go through a single
   batched ``predict_scores`` call;
3. **apply** — each environment folds its slice of the scores back into the
   reward and (when finished) its episode summary.

Per-flow query-count semantics are preserved exactly (one query per scored
flow, Figures 7–9): batching changes *how many calls* reach the censor, not
*how many flows* it scores.  Masked steps never contribute a prefix, so
reward masking still suppresses queries (Section 5.5.3).

:class:`BatchedEpisodeEncoder` is the companion state tracker: it maintains
per-environment incremental :class:`~repro.core.state_encoder.EncoderState`
pairs (observation stream and action stream) and folds only the newest
(size, delay) pair per tick as one ``(n_envs, 2)`` GRU step, replacing the
seed's O(T²)-per-episode full-history re-encode with O(T).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .env import AdversarialFlowEnv, PendingStep
from .state_encoder import StateEncoder

__all__ = ["VectorFlowEnv", "BatchedEpisodeEncoder", "build_envs_from_seed_tree"]


def build_envs_from_seed_tree(
    censor, normalizer, config, flows, seed_tree
) -> List[AdversarialFlowEnv]:
    """One :class:`AdversarialFlowEnv` per ``(env, noise)`` seed pair.

    The single construction point for every collection path (in-process
    training, benchmarks, sharded workers): slot ``i`` gets a generator from
    the *env* stream of pair ``i`` of a
    :func:`repro.utils.rng.collection_seed_tree`, so environments built from
    the same tree behave bit-identically wherever they are hosted.
    """
    return [
        AdversarialFlowEnv(
            censor, normalizer, config, flows, rng=np.random.default_rng(env_seq)
        )
        for env_seq, _ in seed_tree
    ]


class VectorFlowEnv:
    """Steps N adversarial environments with one censor batch per tick.

    Parameters
    ----------
    envs:
        The environments to drive.  They must all share the same censor
        instance (per-environment configs and RNG streams may differ).
    auto_reset:
        When ``True`` (the training default), an environment that finishes
        its episode is reset immediately and the returned observation is the
        new episode's initial observation; the pre-reset observation is kept
        in ``info["terminal_observation"]``.
    """

    def __init__(self, envs: Sequence[AdversarialFlowEnv], auto_reset: bool = True) -> None:
        envs = list(envs)
        if not envs:
            raise ValueError("VectorFlowEnv needs at least one environment")
        censor = envs[0].censor
        if any(env.censor is not censor for env in envs):
            raise ValueError("all environments must share the same censor instance")
        self._envs = envs
        self._censor = censor
        self._auto_reset = auto_reset

    # ------------------------------------------------------------------ #
    @property
    def n_envs(self) -> int:
        return len(self._envs)

    @property
    def envs(self) -> List[AdversarialFlowEnv]:
        return self._envs

    @property
    def observation_dim(self) -> int:
        return self._envs[0].observation_dim

    @property
    def action_dim(self) -> int:
        return self._envs[0].action_dim

    # ------------------------------------------------------------------ #
    def reset(self) -> np.ndarray:
        """Reset every environment; returns the (N, obs_dim) observations."""
        return np.stack([env.reset() for env in self._envs])

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict]]:
        """Advance all environments by one tick.

        Returns ``(observations, rewards, dones, infos)`` with shapes
        ``(N, obs_dim)``, ``(N,)``, ``(N,)`` and a list of N info dicts.
        """
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (self.n_envs, self.action_dim):
            raise ValueError(
                f"actions must have shape {(self.n_envs, self.action_dim)}, got {actions.shape}"
            )
        observations, rewards, dones, infos = self._step_envs(
            list(range(self.n_envs)), actions
        )
        return observations, rewards, dones, infos

    def step_subset(
        self, indices: Sequence[int], actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict]]:
        """Advance only the environments named by ``indices``.

        Used by batched evaluation, where episodes finish at different times
        and finished environments simply drop out of the batch (auto-reset is
        never applied on this path).  Results align with ``indices``.
        """
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (len(indices), self.action_dim):
            raise ValueError(
                f"actions must have shape {(len(indices), self.action_dim)}, got {actions.shape}"
            )
        return self._step_envs(list(indices), actions, allow_auto_reset=False)

    # ------------------------------------------------------------------ #
    def _step_envs(
        self,
        indices: List[int],
        actions: np.ndarray,
        allow_auto_reset: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict]]:
        # Phase 1: deterministic transitions, collecting flows to score.
        pendings: List[PendingStep] = []
        flows = []
        counts = []
        for row, index in enumerate(indices):
            pending = self._envs[index].propose(actions[row])
            pendings.append(pending)
            to_score = pending.flows_to_score
            counts.append(len(to_score))
            flows.extend(to_score)

        # Phase 2: one batched censor call for the whole tick (an all-masked
        # tick scores nothing and performs no queries).
        scores = self._censor.predict_scores(flows)

        # Phase 3: fold scores back into rewards, summaries and resets.
        observations = np.zeros((len(indices), self.observation_dim))
        rewards = np.zeros(len(indices))
        dones = np.zeros(len(indices), dtype=bool)
        infos: List[Dict] = []
        cursor = 0
        for row, index in enumerate(indices):
            env = self._envs[index]
            env_scores = scores[cursor : cursor + counts[row]]
            cursor += counts[row]
            observation, reward, done, info = env.apply(pendings[row], env_scores)
            if done and self._auto_reset and allow_auto_reset:
                info["terminal_observation"] = observation
                observation = env.reset()
            observations[row] = observation
            rewards[row] = reward
            dones[row] = done
            infos.append(info)
        return observations, rewards, dones, infos


class BatchedEpisodeEncoder:
    """Incremental dual-stream state tracker for N parallel environments.

    The RL state is ``s_t = E(x_1:t) || E(a_1:t)`` (Section 4.3): one GRU
    encoding of the observation history and one of the action history.  This
    tracker holds the hidden state of every environment as two resident
    ``(num_layers, n_envs, hidden_size)`` slabs, one per stream, and
    advances all environments per tick with exactly two batched GRU steps
    (one per stream) regardless of episode length.
    """

    def __init__(self, encoder: StateEncoder, n_envs: int) -> None:
        if n_envs < 1:
            raise ValueError("n_envs must be >= 1")
        self._encoder = encoder
        self.n_envs = n_envs
        self._slab_shape = (encoder.num_layers, n_envs, encoder.hidden_size)
        self._observation_hidden = np.zeros(self._slab_shape)
        self._action_hidden = np.zeros(self._slab_shape)

    # ------------------------------------------------------------------ #
    @property
    def state_dim(self) -> int:
        return 2 * self._encoder.hidden_size

    def states(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Current ``s_t`` for the given environments (all when omitted)."""
        observation, action = self._observation_hidden[-1], self._action_hidden[-1]
        if indices is not None:
            indices = list(indices)
            observation, action = observation[indices], action[indices]
        return np.concatenate([observation, action], axis=1)

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Copy of the two tracked hidden-state slabs (picklable)."""
        return {
            "observation": self._observation_hidden.copy(),
            "action": self._action_hidden.copy(),
        }

    def restore(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`snapshot`."""
        slabs = [
            np.array(snapshot[stream], dtype=np.float64) for stream in ("observation", "action")
        ]
        if any(slab.shape != self._slab_shape for slab in slabs):
            raise ValueError(
                f"snapshot states have shapes {[slab.shape for slab in slabs]}, this tracker "
                f"holds (num_layers, n_envs, hidden_size) = {self._slab_shape} per stream"
            )
        self._observation_hidden, self._action_hidden = slabs

    # ------------------------------------------------------------------ #
    def reset_all(self, observations: np.ndarray) -> np.ndarray:
        """Start fresh episodes everywhere from the initial observations."""
        self._observation_hidden = self._encoder.step_pairs(
            observations, np.zeros(self._slab_shape)
        )
        self._action_hidden = np.zeros(self._slab_shape)
        return self.states()

    def step(
        self,
        recorded_actions: np.ndarray,
        next_observations: np.ndarray,
        dones: np.ndarray,
        indices: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Fold one tick into the tracked states; returns the new ``s_t``.

        ``recorded_actions`` are the environments' *emitted* normalised
        actions (what :class:`AdversarialFlowEnv` appends to its action
        history, not the raw policy output).  For environments flagged done,
        both streams are reset and ``next_observations`` is interpreted as
        the auto-reset episode's initial observation, mirroring what a full
        re-encode of the fresh histories would produce.
        """
        dones = np.asarray(dones, dtype=bool).reshape(-1)
        rows = list(range(self.n_envs) if indices is None else indices)
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

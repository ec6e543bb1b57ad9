"""Vectorized environment stepping: propose every tick, settle the censor once.

The seed training loop stepped ``n_envs`` :class:`AdversarialFlowEnv`
instances one at a time, issuing one ``censor.predict_score`` call per
environment per step (that loop is now the reference in
``tests/oracles/sequential_collection.py``).  :class:`VectorFlowEnv` drives
the same environments through their two-phase step instead, and keeps the
two phases apart; it is the only driver an environment has:

1. :meth:`VectorFlowEnv.propose` — every environment advances its
   (deterministic) emulator — masking draw, emitted packet, termination,
   next observation, and on the all-environments path the reset onto the
   next flow — and returns a
   :class:`~repro.core.env.PendingStep` saying what the censor still has to
   score: the adversarial prefix of every unmasked step, plus the finished
   adversarial flow of every terminating episode;
2. :meth:`VectorFlowEnv.settle` — the distinct inputs of all pending flows
   of any number of proposed ticks go through ``predict_scores`` in
   fixed-size blocks, and each environment folds its scores back into
   rewards and episode summaries, in proposal order.

Nothing the policy needs for the next tick depends on the censor (paper
§4.2: its verdict only shapes the reward) and PPO reads rewards when the
rollout is complete, so the collection kernel
(:class:`repro.distrib.shard.ShardRunner`) proposes a whole rollout and
settles it once: a handful of large censor batches per PPO iteration instead
of one small one per tick.  :meth:`VectorFlowEnv.step` and
:meth:`~VectorFlowEnv.step_subset` are the same two calls on a single tick,
plus per-step ``info`` dicts, which collection never builds: ``step``
auto-resets every finished environment (what training needs),
``step_subset`` never does (what batched evaluation needs, as its finished
environments drop out of the batch).

The tick allocates per tick, not per environment: ``propose`` turns the
action batch into Python floats with one ``tolist()`` and hands each
emulator its two components; each emulator returns its observation and
emitted-action pairs as tuples on a slotted :class:`PendingStep`, from which
the caller builds one ``(n, 2)`` array of each; and ``settle`` turns the
censor's scores into one list and returns plain ``(rewards, finished)``
pairs.

An episode's packets live in one per-episode record shared by the
environment and its pending steps; ``settle`` turns each record into one
validated :class:`~repro.flows.flow.Flow` and hands the censor read-only
prefix views of it, so scoring ``T`` growing prefixes of an episode costs one
array and one validation instead of ``T`` copies and ``T`` validations.

Per-flow query-count semantics are preserved exactly (one query per step's
flow, Figures 7–9): batching changes *how many calls* reach the censor, and
scoring each distinct input once changes *how many rows* it computes, not
*how many queries* are counted.  A censor reads at most its
``packet_window`` leading packets, so an episode's prefixes past the window
(and its finished flow, which is its last step's prefix) share one score.
Masked steps never contribute a prefix, so reward masking still suppresses
queries (Section 5.5.3).

:class:`BatchedEpisodeEncoder` is the companion state tracker: it keeps the
incremental GRU state of every environment's two histories (observation
stream and action stream) in one resident slab and folds only the newest
(size, delay) pair of each per tick — both streams as one ``(2·n_envs, 2)``
GRU step, since they share the encoder's weights — replacing the seed's
O(T²)-per-episode full-history re-encode with O(T).
"""

from __future__ import annotations

import operator
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..flows.flow import Flow
from .env import AdversarialFlowEnv, EpisodeSummary, PendingStep
from .state_encoder import StateEncoder

__all__ = ["VectorFlowEnv", "BatchedEpisodeEncoder", "build_envs_from_seed_tree"]

# Distinct inputs per ``predict_scores`` call in ``VectorFlowEnv.settle``.  A
# neural censor's forward allocates activations proportional to its batch,
# so the block bounds what deferring a whole rollout's scoring may add to the
# process's peak: on ``train-neural`` (DF censor, ~1 100 flows per rollout
# before steps sharing an input were scored once) scoring the rollout in one
# call raised ``peak_rss_mb`` 63.0 -> 71.3 MiB, past the benchmark's 0.10
# bound, while blocks of 128 leave it at the 63.0 per-tick scoring had (and
# blocks of 32 / 64 are no faster).
_SCORE_BLOCK = 128


def _checked_indices(indices: Sequence[int], n_envs: int) -> List[int]:
    """``indices`` as a list of environment slots, refused unless distinct,
    non-negative and below ``n_envs``.

    A repeated slot would advance one environment twice in a tick (and fold
    two rows into one tracker slot), a negative one would wrap around to the
    last environments; either way the tracked encoder state would silently
    part from the environment's history.
    """
    rows = [operator.index(index) for index in indices]
    if any(index < 0 for index in rows):
        raise ValueError(f"environment indices must be non-negative, got {rows}")
    if len(set(rows)) != len(rows):
        raise ValueError(f"environment indices must be distinct, got {rows}")
    if rows and max(rows) >= n_envs:
        raise IndexError(f"environment index {max(rows)} out of range for {n_envs} environments")
    return rows


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
    """Steps N adversarial environments; censor scoring is a separate call.

    Parameters
    ----------
    envs:
        The environments to drive.  They must all share the same censor
        instance (per-environment configs and RNG streams may differ).

    A tick over all environments resets every one that finishes its episode
    at once, and the step's observation is the new episode's first; a tick
    over named environments (``indices``) never resets one.
    """

    def __init__(self, envs: Sequence[AdversarialFlowEnv]) -> None:
        envs = list(envs)
        if not envs:
            raise ValueError("VectorFlowEnv needs at least one environment")
        censor = envs[0].censor
        if any(env.censor is not censor for env in envs):
            raise ValueError("all environments must share the same censor instance")
        self._envs = envs
        self._env_ids = frozenset(map(id, envs))
        self._censor = censor
        #: rows the censor has scored for :meth:`settle` — at most the
        #: queries counted, as steps sharing an input share its score
        self.flows_scored = 0

    # ------------------------------------------------------------------ #
    @property
    def n_envs(self) -> int:
        return len(self._envs)

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

    def propose(
        self, actions: np.ndarray, indices: Optional[Sequence[int]] = None
    ) -> List[PendingStep]:
        """First half of a tick: advance the emulators, score nothing.

        Every environment named by ``indices`` (all when omitted; distinct,
        non-negative, in range — checked before any environment advances)
        takes its row of ``actions``: masking draw, emitted packet,
        termination and — on the all-environments path only — the reset
        onto the next flow, whose first observation becomes the step's
        ``next_observation``.  The action batch becomes Python floats once
        (one ``tolist()``), and each row goes to the emulator as two
        floats.  The returned :class:`PendingStep` s carry
        everything the actor and encoder need for the next tick; rewards and
        episode summaries follow from :meth:`settle`.
        """
        rows = range(self.n_envs) if indices is None else _checked_indices(indices, self.n_envs)
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (len(rows), self.action_dim):
            raise ValueError(
                f"actions must have shape {(len(rows), self.action_dim)}, got {actions.shape}"
            )
        envs = self._envs
        pendings = []
        for (size_action, delay_action), index in zip(actions.tolist(), rows):
            env = envs[index]
            pending = env._propose(size_action, delay_action)
            if pending.done and indices is None:
                pending.next_observation = env._begin()
            pendings.append(pending)
        return pendings

    def settle(
        self, ticks: Sequence[Sequence[PendingStep]]
    ) -> List[Tuple[np.ndarray, List[Tuple[int, EpisodeSummary]]]]:
        """Second half: score every pending flow of ``ticks``, apply in order.

        ``ticks`` are :meth:`propose` results, oldest first — one for a
        classic step, a whole rollout for deferred collection.  A step's
        input is its episode's first ``min(prefix_length, packet_window)``
        packets (the censor's :attr:`~repro.censors.base.CensorClassifier.packet_window`;
        the whole prefix when it is ``None``), and a finished episode's
        flow is its last step's prefix, so every scored step reads one key
        ``(episode, clipped length)``.  Each distinct key is scored once, in
        order of first appearance, as a read-only prefix view of the
        episode's one materialised flow, ``_SCORE_BLOCK`` flows per
        ``predict_scores`` call; every step reads its key's score and is
        applied in proposal order.  Steps whose key was already scored
        still count as queries (:meth:`~repro.censors.base.CensorClassifier.record_external_queries`):
        the attacker sent every step's flow.  No score outlives the call.

        Returns one ``(rewards, finished)`` per tick: the ``(len(tick),)``
        rewards and a ``(row, summary)`` for every step that ended its
        episode.  Nothing pending means no censor call and no query.
        """
        window = self._censor.packet_window
        # Gather first, so that misuse is reported before any query is spent.
        episode_flows: Dict[int, Flow] = {}
        key_positions: Dict[Tuple[int, int], int] = {}
        flows: List[Flow] = []
        step_positions: List[int] = []  # where each scored step's score is
        queries = 0
        for tick in ticks:
            for pending in tick:
                if id(pending.env) not in self._env_ids:
                    raise ValueError("PendingStep proposed outside this VectorFlowEnv")
                if pending.applied:
                    raise RuntimeError("PendingStep was already applied")
                if not pending.n_scores:
                    continue
                queries += pending.n_scores
                episode = id(pending.episode)
                length = pending.prefix_length
                if window is not None:
                    length = min(length, window)
                position = key_positions.get((episode, length))
                if position is None:
                    flow = episode_flows.get(episode)
                    if flow is None:
                        flow = episode_flows[episode] = pending.episode.flow()
                    position = key_positions[episode, length] = len(flows)
                    flows.append(flow.prefix_view(length))
                step_positions.append(position)
        scores = np.empty(len(flows))
        for start in range(0, len(flows), _SCORE_BLOCK):
            block = slice(start, start + _SCORE_BLOCK)
            scores[block] = self._censor.predict_scores(flows[block])
        self._censor.record_external_queries(queries - len(flows))
        self.flows_scored += len(flows)
        scores = scores.tolist()

        results = []
        step_positions = iter(step_positions)
        for tick in ticks:
            rewards = []
            finished = []
            for row, pending in enumerate(tick):
                score = scores[next(step_positions)] if pending.n_scores else None
                reward, summary = pending.env._settle(
                    pending,
                    None if pending.masked else score,
                    score if pending.done else None,
                )
                rewards.append(reward)
                if summary is not None:
                    finished.append((row, summary))
            results.append((np.array(rewards, dtype=np.float64), finished))
        return results

    def step(
        self, actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict]]:
        """Advance all environments by one tick and score it at once.

        Returns ``(observations, rewards, dones, infos)`` with shapes
        ``(N, obs_dim)``, ``(N,)``, ``(N,)`` and a list of N info dicts.  A
        finished environment is reset: its row of ``observations`` is the
        new episode's first, and its info carries the finished episode's
        summary (``"episode"``) and a ``"terminal_observation"``.
        """
        return self._step(self.propose(actions))

    def step_subset(
        self, indices: Sequence[int], actions: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict]]:
        """Advance only the environments named by ``indices``.

        Used by batched evaluation, where episodes finish at different times
        and finished environments simply drop out of the batch (a finished
        environment is never reset on this path; its observation row is
        zero).  Results align with ``indices``, which must be distinct,
        non-negative and in range.
        """
        return self._step(self.propose(actions, indices))

    def _step(
        self, tick: List[PendingStep]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, List[Dict]]:
        """``settle([tick])`` in the step form, info dicts and all."""
        [(rewards, finished)] = self.settle([tick])
        summaries = dict(finished)
        observations = []
        infos = []
        for row, pending in enumerate(tick):
            info = pending.info()
            observation = pending.next_observation
            if pending.done:
                info["episode"] = summaries[row]
                if observation is None:
                    observation = (0.0, 0.0)
                else:
                    info["terminal_observation"] = np.zeros(self.observation_dim)
            observations.append(observation)
            infos.append(info)
        return (
            np.array(observations, dtype=np.float64).reshape(len(tick), self.observation_dim),
            rewards,
            np.array([pending.done for pending in tick], dtype=bool),
            infos,
        )


class BatchedEpisodeEncoder:
    """Incremental dual-stream state tracker for N parallel environments.

    The RL state is ``s_t = E(x_1:t) || E(a_1:t)`` (Section 4.3): one GRU
    encoding of the observation history and one of the action history, by
    the same encoder.  This tracker holds the hidden state of every
    environment's two streams in one resident slab — ``(num_layers, 2,
    n_envs, hidden_size)``, which the encoder steps as ``(num_layers,
    2 * n_envs, hidden_size)``: observation rows first, then action rows —
    and advances all of them per tick with exactly one batched GRU step
    regardless of episode length.  The step is row-consistent, so the
    ``2n``-row step is bit-identical to stepping the two streams apart
    (``tests/oracles/tensor_inference.py::TwoSlabEpisodeEncoder``).
    """

    def __init__(self, encoder: StateEncoder, n_envs: int) -> None:
        if n_envs < 1:
            raise ValueError("n_envs must be >= 1")
        self._encoder = encoder
        self.n_envs = n_envs
        self._stream_shape = (encoder.num_layers, n_envs, encoder.hidden_size)
        self._hidden = np.zeros((encoder.num_layers, 2, n_envs, encoder.hidden_size))

    # ------------------------------------------------------------------ #
    def states(self, indices: Optional[Sequence[int]] = None) -> np.ndarray:
        """Current ``s_t`` for the given environments (all when omitted)."""
        top = self._hidden[-1]
        observation, action = top[0], top[1]
        if indices is not None:
            indices = list(indices)
            observation, action = observation[indices], action[indices]
        return np.concatenate([observation, action], axis=1)

    def snapshot(self) -> Dict[str, np.ndarray]:
        """Copy of the tracked hidden state, one slab per stream (picklable)."""
        return {
            "observation": self._hidden[:, 0].copy(),
            "action": self._hidden[:, 1].copy(),
        }

    def restore(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`snapshot`."""
        slabs = [
            np.asarray(snapshot[stream], dtype=np.float64) for stream in ("observation", "action")
        ]
        if any(slab.shape != self._stream_shape for slab in slabs):
            raise ValueError(
                f"snapshot states have shapes {[slab.shape for slab in slabs]}, this tracker "
                f"holds (num_layers, n_envs, hidden_size) = {self._stream_shape} per stream"
            )
        self._hidden = np.stack(slabs, axis=1)

    # ------------------------------------------------------------------ #
    def reset_all(self, observations: np.ndarray) -> np.ndarray:
        """Start fresh episodes everywhere from the initial observations."""
        empty = np.zeros(self._stream_shape)
        self._hidden = np.stack([self._encoder.step_pairs(observations, empty), empty], axis=1)
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
        actions (each step's ``recorded_action``, not the raw policy
        output).  For environments flagged done, both streams are reset and
        ``next_observations`` is interpreted as the reset episode's initial
        observation, mirroring what a full re-encode of the fresh histories
        would produce.  ``indices`` must be distinct, non-negative and in
        range.
        """
        dones = np.asarray(dones, dtype=bool).reshape(-1)
        num_layers, _, hidden_size = self._stream_shape
        # The whole-slab step reads the slab as (num_layers, 2 * n, hidden)
        # and replaces it with the step's output; a subset gathers its rows
        # (a copy) and scatters the result back.  Either way the tracker
        # changes only once the step has succeeded.
        if indices is None:
            rows = None
            count = self.n_envs
            hidden = self._hidden.reshape(num_layers, 2 * count, hidden_size)
        else:
            rows = _checked_indices(indices, self.n_envs)
            count = len(rows)
            hidden = self._hidden[:, :, rows].reshape(num_layers, 2 * count, hidden_size)
        if not (count == len(recorded_actions) == len(next_observations) == len(dones)):
            raise ValueError("indices, actions, observations and dones must align")

        # New episode: the observation history restarts *before* it takes
        # the fresh episode's first observation, the action history *after*
        # the step (nothing emitted yet).
        ended = np.flatnonzero(dones)
        if len(ended):
            if rows is None:
                hidden = hidden.copy()
            hidden[:, ended] = 0.0
        hidden = self._encoder.step_pairs(
            np.concatenate([next_observations, recorded_actions]), hidden
        )
        hidden[:, count + ended] = 0.0
        if rows is None:
            self._hidden = hidden.reshape(num_layers, 2, count, hidden_size)
        else:
            self._hidden[:, :, rows] = hidden.reshape(num_layers, 2, count, hidden_size)
        return np.concatenate([hidden[-1, :count], hidden[-1, count:]], axis=1)

"""Vectorized environment stepping: step every tick, settle the censor once.

:class:`VectorFlowEnv` is the only driver of :class:`AdversarialFlowEnv`
(the seed's per-environment loop, one ``predict_score`` per step, is the
reference in ``tests/oracles/sequential_collection.py``).  A tick has two
halves:

1. :meth:`VectorFlowEnv.step` (all environments; a finished episode's slot
   begins its next flow at once) or :meth:`VectorFlowEnv.step_subset` (the
   named environments; a finished one is never restarted) advances the
   emulators — masking draw, emitted packet, termination, next observation —
   and returns one :class:`TickRecord`: parallel per-slot tuples (episode,
   prefix length, masked, penalties, ...), the dones and the ``(2n, 2)``
   slab of next observations and emitted actions the encoder steps, with no
   per-step object;
2. :meth:`VectorFlowEnv.settle` scores the distinct inputs of any number of
   records in fixed-size ``predict_scores`` blocks and computes every
   reward as one array expression; only finished episodes are visited one
   by one, for their summaries.

The censor's verdict only shapes the reward (paper §4.2), so both callers
step every tick and settle once: the collection kernel
(:class:`repro.distrib.shard.ShardRunner`) a whole rollout, batched
evaluation (``Amoeba.attack_many``) a whole attack.

One query is counted per step's flow (Figures 7–9) however the scoring is
batched; a censor reads at most its ``packet_window`` leading packets, so
an episode's prefixes past the window (and its finished flow, its last
prefix) share one score, and masked steps never reach it (Section 5.5.3).
An episode's packets live in its environment's preallocated rows until it
ends and copies them into one validated flow, of which the censor sees
read-only prefix views.

:class:`BatchedEpisodeEncoder` keeps every environment's two GRU histories
(observations, emitted actions) in one resident slab and folds each tick's
newest pairs in one ``(2·n_envs, 2)`` step: O(T) per episode, where the
seed re-encoded the whole history every step.
"""

from __future__ import annotations

import operator
from itertools import accumulate, chain, groupby
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .env import AdversarialFlowEnv, EpisodeSummary
from .state_encoder import StateEncoder

__all__ = ["VectorFlowEnv", "BatchedEpisodeEncoder", "build_envs_from_seed_tree"]

# Distinct inputs per ``predict_scores`` call in ``VectorFlowEnv.settle``: a
# neural censor's activations grow with its batch, and on ``train-neural``
# one call per rollout raised ``peak_rss_mb`` 63.0 -> 71.3 MiB (past the 0.10
# bound) where blocks of 128 keep per-tick scoring's 63.0 (32 / 64: no faster).
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


class TickRecord:
    """One stepped tick as parallel per-slot tuples and arrays.

    Entry ``i`` belongs to slot ``rows[i]``: its ``episodes`` record,
    ``prefix_lengths`` (the censor reads that many of the episode's packets),
    ``action_kinds``, ``masked``, ``dones`` (an array) and the reward's
    ``data_penalties`` / ``time_penalties``.  ``pairs`` stacks the next
    observations (zeros after a finished step not restarted) on the emitted
    actions.  ``settle`` sets ``scores`` (NaN when masked) and ``applied``.
    """

    __slots__ = (
        "owner", "rows", "episodes", "prefix_lengths", "action_kinds", "masked", "dones",
        "data_penalties", "time_penalties", "pairs", "scores", "applied",
    )  # fmt: skip

    def __init__(self, owner: "VectorFlowEnv", rows: Sequence[int], steps: List[Tuple]) -> None:
        self.owner = owner
        self.rows = rows
        (
            self.episodes, self.prefix_lengths, self.action_kinds, self.masked, dones,
            self.data_penalties, self.time_penalties, observations, recorded,
        ) = list(zip(*steps)) or [()] * 9  # fmt: skip
        self.dones = np.array(dones, dtype=bool)
        self.pairs = np.fromiter(
            chain.from_iterable(observations + recorded), np.float64, 4 * len(steps)
        ).reshape(-1, 2)
        self.scores: Optional[np.ndarray] = None
        self.applied = False


class VectorFlowEnv:
    """Steps N adversarial environments; censor scoring is a separate call.

    Parameters
    ----------
    envs:
        The environments to drive.  They must all share the same censor
        instance and the same reward coefficients (``masked_reward_value``,
        ``lambda_data``, ``lambda_time``, bit for bit); masking rates, step
        budgets and RNG streams may differ.

    :meth:`step` ticks every environment and restarts each one that
    finishes its episode, so the step's observation is the new episode's
    first; :meth:`step_subset` ticks the named environments and never
    restarts one.  Neither scores anything: :meth:`settle` does, for any
    number of ticks at once.
    """

    def __init__(self, envs: Sequence[AdversarialFlowEnv]) -> None:
        envs = list(envs)
        if not envs:
            raise ValueError("VectorFlowEnv needs at least one environment")
        censor = envs[0].censor
        if any(env.censor is not censor for env in envs):
            raise ValueError("all environments must share the same censor instance")
        # One (masked reward value, lambda_data, lambda_time) triple for all
        # slots, compared bitwise so that -0.0 and 0.0 differ too.
        coefficients = np.array(
            [(e.config.masked_reward_value, e.config.lambda_data, e.config.lambda_time) for e in envs]
        )
        if (coefficients.view(np.uint64) != coefficients[:1].view(np.uint64)).any():
            raise ValueError(
                "all environments must share masked_reward_value, lambda_data and lambda_time"
            )
        self._envs = envs
        self._censor = censor
        self._coefficients = coefficients[0]
        #: rows the censor has scored for :meth:`settle` — at most the
        #: queries counted, as steps sharing an input share its score
        self.flows_scored = 0

    # ------------------------------------------------------------------ #
    @property
    def n_envs(self) -> int:
        return len(self._envs)

    @property
    def action_dim(self) -> int:
        return self._envs[0].action_dim

    # ------------------------------------------------------------------ #
    def reset(self) -> np.ndarray:
        """Reset every environment; returns the (N, obs_dim) observations."""
        return np.stack([env.reset() for env in self._envs])

    def step(self, actions: np.ndarray) -> TickRecord:
        """Advance every environment one tick; score nothing.

        Row ``i`` of ``actions`` drives environment ``i``; a finished
        episode's slot begins the next flow at once, so its next
        observation in the record is the new episode's first.
        """
        return self._tick(actions, range(self.n_envs), restart=True)

    def step_subset(self, indices: Sequence[int], actions: np.ndarray) -> TickRecord:
        """Advance only the environments named by ``indices``; score nothing.

        ``indices`` must be distinct, non-negative and in range (checked
        before any environment advances); record entry ``i`` belongs to
        ``indices[i]``.  A finished environment is never restarted (its
        next observation is zero), so batched evaluation drops it by the
        record's ``dones``.
        """
        return self._tick(actions, _checked_indices(indices, self.n_envs), restart=False)

    def _tick(self, actions: np.ndarray, rows: Sequence[int], restart: bool) -> TickRecord:
        """Each row of ``actions`` as two Python floats of one ``tolist()``."""
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (len(rows), self.action_dim):
            raise ValueError(
                f"actions must have shape {(len(rows), self.action_dim)}, got {actions.shape}"
            )
        envs = self._envs
        steps = [
            envs[index]._propose(size_action, delay_action, restart)
            for (size_action, delay_action), index in zip(actions.tolist(), rows)
        ]
        return TickRecord(self, rows, steps)

    def settle(
        self, ticks: Sequence[TickRecord]
    ) -> Tuple[np.ndarray, List[Tuple[int, int, EpisodeSummary]]]:
        """Second half: score every pending flow of ``ticks``, reward every step.

        ``ticks`` are :meth:`step` / :meth:`step_subset` records, oldest
        first.  Each distinct input ``(episode, min(prefix_length,
        packet_window))`` of a scored step (unmasked, or finished) is scored
        once, in order of first appearance, ``_SCORE_BLOCK`` flows per
        ``predict_scores`` call; the steps sharing it still count as
        queries, and no score outlives the call.  Returns the rewards of
        all steps, tick after tick, as one array expression, and ``(tick,
        row, summary)`` for every step that ended its episode.
        """
        ticks = list(ticks)
        # Refuse misuse first, so that it is reported before any query is spent.
        for tick in ticks:
            if tick.owner is not self:
                raise ValueError("tick stepped outside this VectorFlowEnv")
            if tick.applied:
                raise RuntimeError("tick was already applied")
        if len(set(map(id, ticks))) != len(ticks):
            raise RuntimeError("tick was already applied: it is listed twice")

        if not ticks:
            return np.zeros(0), []

        def column(name, dtype):
            return np.fromiter(chain.from_iterable(getattr(t, name) for t in ticks), dtype, n_steps)

        episodes = list(chain.from_iterable(tick.episodes for tick in ticks))
        n_steps = len(episodes)
        lengths = column("prefix_lengths", np.intp)
        masked = column("masked", bool)
        dones = np.concatenate([tick.dones for tick in ticks])
        # The call's episodes, numbered in order of first appearance.
        distinct = list(dict.fromkeys(episodes))
        numbers = dict(zip(distinct, range(len(distinct))))
        episode_numbers = np.fromiter(map(numbers.__getitem__, episodes), np.intp, n_steps)

        # The unmasked steps and the finished ones read a score each.
        scored = ~masked | dones
        step_scores = np.full(n_steps, np.nan)
        n_scored = 0
        if scored.any():
            step_scores[scored], n_scored = self._score(
                distinct, episode_numbers[scored], lengths[scored]
            )
        queries = n_steps - int(np.count_nonzero(masked)) + int(np.count_nonzero(dones))
        self._censor.record_external_queries(queries - n_scored)

        masked_value, lambda_data, lambda_time = self._coefficients
        # r_adv: the masked value, else 1.0 / 0.0 by the 0.5 threshold.
        adversarial = np.where(masked, masked_value, step_scores >= 0.5)
        rewards = (
            adversarial
            - lambda_data * column("data_penalties", np.float64)
            - lambda_time * column("time_penalties", np.float64)
        )

        # Each episode's running reward: ``add.at`` adds the steps' rewards
        # one at a time, in order, as the seed's per-step sum did.
        totals = np.array([episode.reward for episode in distinct])
        np.add.at(totals, episode_numbers, rewards)
        for episode, total in zip(distinct, totals.tolist()):
            episode.reward = total

        sizes = [len(tick.episodes) for tick in ticks]
        ends = list(accumulate(sizes))
        finished = []
        if dones.any():
            # A finished step is always scored: its score is the final flow's.
            positions = dones.nonzero()[0]
            at = np.searchsorted(ends, positions, side="right")
            rows = positions - np.subtract(ends, sizes)[at]
            finished = [
                (index, row, episodes[position].summary(step_scores[position]))
                for index, row, position in zip(at.tolist(), rows.tolist(), positions.tolist())
            ]
        step_scores[masked] = np.nan
        for tick, stop, size in zip(ticks, ends, sizes):
            tick.scores = step_scores[stop - size : stop]
            tick.applied = True
        return rewards, finished

    def _score(
        self, episodes: List, numbers: np.ndarray, lengths: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """The steps' scores, and how many distinct inputs were scored.
        Sorted, the keys run episode by episode: one ``prefix_views`` call
        per episode."""
        window = self._censor.packet_window
        if window is not None:
            lengths = np.minimum(lengths, window)
        stride = int(lengths.max()) + 1
        step_keys = (numbers * stride + lengths).tolist()
        first_seen = dict.fromkeys(step_keys)
        views = {}
        for number, keys in groupby(sorted(first_seen), lambda key: key // stride):
            keys = list(keys)
            prefixes = episodes[number].flow().prefix_views([key - number * stride for key in keys])
            views.update(zip(keys, prefixes))
        flows = [views[key] for key in first_seen]
        scores = []
        for start in range(0, len(flows), _SCORE_BLOCK):
            scores += self._censor.predict_scores(flows[start : start + _SCORE_BLOCK]).tolist()
        self.flows_scored += len(flows)
        key_scores = dict(zip(first_seen, scores))
        step_scores = np.fromiter(map(key_scores.__getitem__, step_keys), np.float64, len(step_keys))
        return step_scores, len(flows)


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
        """Current ``s_t`` for the given environments (all when omitted;
        distinct, non-negative and in range)."""
        top = self._hidden[-1]
        observation, action = top[0], top[1]
        if indices is not None:
            rows = _checked_indices(indices, self.n_envs)
            observation, action = observation[rows], action[rows]
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
        self, pairs: np.ndarray, dones: np.ndarray, indices: Optional[Sequence[int]] = None
    ) -> np.ndarray:
        """Fold one tick into the tracked states; returns the new ``s_t``.

        ``pairs`` is the tick's ``(2n, 2)`` slab as a :class:`TickRecord`
        holds it: next observations, then the *emitted* normalised actions
        (not the raw policy output).  For environments flagged done both
        streams restart, the observation being the new episode's first, as
        a re-encode of the fresh histories would.  ``indices`` must be
        distinct, non-negative and in range.
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
        if not (2 * count == len(pairs) and count == len(dones)):
            raise ValueError("indices, pairs (two per environment) and dones must align")

        # New episode: the observation history restarts *before* it takes
        # the fresh episode's first observation, the action history *after*
        # the step (nothing emitted yet).
        ended = dones.nonzero()[0]
        if len(ended):
            if rows is None:
                hidden = hidden.copy()
            hidden[:, ended] = 0.0
        hidden = self._encoder.step_pairs(pairs, hidden)
        if len(ended):
            hidden[:, count + ended] = 0.0
        if rows is None:
            self._hidden = hidden.reshape(num_layers, 2, count, hidden_size)
        else:
            self._hidden[:, :, rows] = hidden.reshape(num_layers, 2, count, hidden_size)
        return np.concatenate([hidden[-1, :count], hidden[-1, count:]], axis=1)

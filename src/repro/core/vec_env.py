"""The adversarial environment: every slot stepped per tick, the censor settled once.

:class:`VectorFlowEnv` is the environment of paper §4.2: one censor, one
normalizer, one config and one flow pool, driving ``n_envs`` slots.  Each
slot keeps only its own state — its generator (flow order, masking draws),
its flow-order cursor, its episode in flight and the rows its episodes
write their emitted packets into; each episode steps one
:class:`~repro.core.env.PacketShaper`.  The seed's per-environment loop,
one ``predict_score`` per step, is the reference in
``tests/oracles/sequential_collection.py``.  A tick has two halves:

1. :meth:`VectorFlowEnv.step` (all slots; a finished episode's slot begins
   its next flow at once) or :meth:`VectorFlowEnv.step_subset` (the named
   slots; a finished one is never restarted) advances the emulators —
   masking draw, emitted packet, termination, next observation — on Python
   floats and returns one :class:`TickRecord`: parallel per-slot tuples
   (episode, prefix length, masked, penalties, ...), the dones and the
   ``(2n, 2)`` slab of next observations and emitted actions the encoder
   steps, with no per-step object;
2. :meth:`VectorFlowEnv.settle` scores the distinct inputs of any number of
   records in fixed-size ``predict_scores`` blocks and computes every
   reward as one array expression; only finished episodes are visited one
   by one, for their summaries.

The censor's verdict only shapes the reward (paper §4.2), so both callers
step every tick and settle once: the collection kernel
(:class:`repro.distrib.shard.ShardRunner`) a whole rollout, batched
evaluation (``Amoeba.attack_many``) a whole attack.

The reward combines the censor's decision on the adversarial prefix with the
data-overhead and time-overhead penalties,
``r(s_t, a_t) = r_adv − λ_d · p_data − λ_t · p_time``; reward masking
(Section 5.5.3) replaces ``r_adv`` with an "unknown" value (0.5) with a
configurable probability, and a masked step does not query the censor,
which is how the paper counts "actual queries" in Figures 8 and 9.  One
query is counted per step's flow (Figures 7–9) however the scoring is
batched; a censor reads at most its ``packet_window`` leading packets, so
an episode's prefixes past the window (and its finished flow, its last
prefix) share one score.
An episode's packets live in its slot's preallocated rows until it ends
and copies them into one validated flow, of which the censor sees
read-only prefix views.

:class:`BatchedEpisodeEncoder` keeps every slot's two GRU histories
(observations, emitted actions) in one resident slab and folds each tick's
newest pairs in one ``(2·n_envs, 2)`` step: O(T) per episode, where the
seed re-encoded the whole history every step.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass, field
from itertools import accumulate, chain, groupby
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..censors.base import CensorClassifier
from ..features.representation import FlowNormalizer
from ..flows.flow import Flow
from .config import AmoebaConfig
from .env import ActionKind, EpisodeSummary, PacketShaper
from .state_encoder import StateEncoder

__all__ = ["VectorFlowEnv", "BatchedEpisodeEncoder"]

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


@dataclass(eq=False)
class _Episode:
    """One episode of a slot, shared by the slot and by the tick records
    holding its steps: the original flow's packets as Python floats, the
    index of the one being shaped and the episode's :class:`PacketShaper`,
    which ``VectorFlowEnv._propose`` advances, and the accounting it and
    ``VectorFlowEnv.settle`` (the running reward) write.  Its packets are
    the first ``shaper.steps`` entries of ``sizes`` / ``delays``, the slot's
    rows until it ends (then its own copy) or is abandoned (then the rows)."""

    original: Flow
    sizes: np.ndarray = field(repr=False)
    delays: np.ndarray = field(repr=False)
    shaper: PacketShaper = field(repr=False)
    original_sizes: List[float] = field(repr=False)
    original_delays: List[float] = field(repr=False)
    packet_index: int = 0
    reward: float = 0.0
    n_truncations: int = 0
    n_paddings: int = 0
    n_delays: int = 0
    adversarial: Optional[Flow] = None  # flow() of the episode, once it has ended

    def flow(self) -> Flow:
        """The packets emitted so far as one validated flow: over the rows
        while in flight (rebuilt per call), built once by :meth:`finish`
        (the summary's ``adversarial_flow``, owning its arrays)."""
        if self.adversarial is not None:
            return self.adversarial
        return Flow(
            sizes=self.sizes[: self.shaper.steps],
            delays=self.delays[: self.shaper.steps],
            label=self.original.label,
            protocol=f"{self.original.protocol}-adv",
            metadata={"original_packets": self.original.n_packets},
        )

    def finish(self) -> None:
        """End the episode: its flow owns a copy of the packets in the rows."""
        length = self.shaper.steps
        self.sizes = self.sizes[:length].copy()
        self.delays = self.delays[:length].copy()
        self.adversarial = self.flow()

    def summary(self, final_score: float) -> EpisodeSummary:
        """The finished episode's statistics, once ``reward`` holds every step's."""
        adversarial = self.flow()
        payload = float(self.shaper.consumed_payload)
        padding = max(0.0, float(np.abs(adversarial.sizes).sum()) - payload)
        duration = float(adversarial.delays.sum())
        return EpisodeSummary(
            adversarial_flow=adversarial,
            original_flow=self.original,
            success=bool(final_score >= 0.5),
            final_score=float(final_score),
            data_overhead=float(padding / (payload + padding) if (payload + padding) > 0 else 0.0),
            time_overhead=float(self.shaper.added_delay / duration if duration > 0 else 0.0),
            n_truncations=self.n_truncations,
            n_paddings=self.n_paddings,
            n_delays=self.n_delays,
            n_steps=adversarial.n_packets,
            episode_reward=float(self.reward),
        )


class _Slot:
    """One slot's own state: its generator (flow order, masking draws), its
    order of the flow pool and the cursor into it, its current episode and
    the rows its episodes write their emitted packets into."""

    __slots__ = ("rng", "order", "cursor", "episode", "sizes", "delays")

    def __init__(self, rng) -> None:
        self.rng = np.random.default_rng(rng)
        self.order: List[int] = []
        self.cursor = 0
        self.episode: Optional[_Episode] = None
        self.sizes = np.empty(0)
        self.delays = np.empty(0)


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
    """The adversarial environment: ``len(rngs)`` slots over one flow pool.

    Parameters
    ----------
    censor:
        Trained censoring classifier; :meth:`settle` turns its scores into
        the rewards.
    normalizer:
        Maps between bytes/milliseconds and the normalised action space.
    config:
        :class:`~repro.core.config.AmoebaConfig` of every slot: reward
        coefficients, shaping bounds, masking rate and step budget.
    flows:
        Pool of original (censored) flows; a slot begins each episode on the
        next flow of its own shuffled order of the pool.
    rngs:
        One seed, :class:`~numpy.random.SeedSequence` or generator per slot
        (what :func:`numpy.random.default_rng` takes; a generator is used as
        it is): the slot's flow order and reward-masking draws.

    :meth:`reset` begins an episode in every slot.  :meth:`step` ticks every
    slot and restarts each one that finishes its episode, so the step's
    observation is the new episode's first; :meth:`step_subset` ticks the
    named slots and never restarts one.  Neither scores anything:
    :meth:`settle` does, for any number of ticks at once.
    """

    def __init__(
        self,
        censor: CensorClassifier,
        normalizer: FlowNormalizer,
        config: AmoebaConfig,
        flows: Sequence[Flow],
        rngs: Sequence,
    ) -> None:
        if not flows:
            raise ValueError("the environment needs at least one flow to attack")
        slots = [_Slot(rng) for rng in rngs]
        if not slots:
            raise ValueError("VectorFlowEnv needs at least one slot")
        self._censor = censor
        self._normalizer = normalizer
        self._config = config
        self._flows = list(flows)
        self._slots = slots
        #: rows the censor has scored for :meth:`settle` — at most the
        #: queries counted, as steps sharing an input share its score
        self.flows_scored = 0

    # ------------------------------------------------------------------ #
    @property
    def n_envs(self) -> int:
        return len(self._slots)

    def snapshot(self) -> List[_Slot]:
        """Picklable deep copy of every slot's state: generator, flow-order
        cursor, episode in flight and rows — everything needed to resume
        this engine bit-identically in another process.  The censor,
        normalizer, config and flow pool are not in it; the restoring
        engine brings its own identical ones."""
        return copy.deepcopy(self._slots)

    def restore(self, snapshot: List[_Slot]) -> None:
        """Inverse of :meth:`snapshot` (deep-copies, so the caller's snapshot
        survives this engine's later steps)."""
        if len(snapshot) != self.n_envs:
            raise ValueError(f"snapshot holds {len(snapshot)} slots, this engine {self.n_envs}")
        self._slots = copy.deepcopy(snapshot)

    # ------------------------------------------------------------------ #
    def reset(self, flows: Optional[Sequence[Flow]] = None) -> np.ndarray:
        """Begin an episode in every slot; returns the ``(n_envs, 2)`` first
        observations.  Slot ``i`` attacks ``flows[i]`` when ``flows`` are
        given (and draws nothing), else the next flow of its own order."""
        if flows is None:
            flows = [None] * self.n_envs
        elif len(flows) != self.n_envs:
            raise ValueError(f"reset needs one flow per slot ({self.n_envs}), got {len(flows)}")
        return np.array([self._begin(slot, flow) for slot, flow in zip(self._slots, flows)])

    def step(self, actions: np.ndarray) -> TickRecord:
        """Advance every slot one tick; score nothing.

        Row ``i`` of ``actions`` drives slot ``i``; a finished episode's slot
        begins the next flow at once, so its next observation in the record
        is the new episode's first.
        """
        return self._tick(actions, range(self.n_envs), restart=True)

    def step_subset(self, indices: Sequence[int], actions: np.ndarray) -> TickRecord:
        """Advance only the slots named by ``indices``; score nothing.

        ``indices`` must be distinct, non-negative and in range (checked
        before any slot advances); record entry ``i`` belongs to
        ``indices[i]``.  A finished slot is never restarted (its next
        observation is zero), so batched evaluation drops it by the
        record's ``dones``.
        """
        return self._tick(actions, _checked_indices(indices, self.n_envs), restart=False)

    def _tick(self, actions: np.ndarray, rows: Sequence[int], restart: bool) -> TickRecord:
        """Each row of ``actions`` as two Python floats of one ``tolist()``."""
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != (len(rows), 2):
            raise ValueError(f"actions must have shape {(len(rows), 2)}, got {actions.shape}")
        slots, propose = self._slots, self._propose
        steps = [
            propose(slots[index], size_action, delay_action, restart)
            for (size_action, delay_action), index in zip(actions.tolist(), rows)
        ]
        return TickRecord(self, rows, steps)

    # ------------------------------------------------------------------ #
    # One slot's episode
    # ------------------------------------------------------------------ #
    def _next_flow(self, slot: _Slot) -> Flow:
        if slot.cursor >= len(slot.order):
            slot.order = slot.rng.permutation(len(self._flows)).tolist()
            slot.cursor = 0
        flow = self._flows[slot.order[slot.cursor]]
        slot.cursor += 1
        return flow

    def _begin(self, slot: _Slot, flow: Optional[Flow] = None) -> Tuple[float, float]:
        """Start the slot's next episode (on ``flow`` when given); returns
        its first observation as a pair."""
        original = (flow or self._next_flow(slot)).copy()
        config = self._config
        # A packet closes after max_truncations_per_packet truncations at most.
        # An episode abandoned in flight keeps its rows for settling.
        most_steps = min(
            config.max_episode_steps,
            original.n_packets * (1 + config.max_truncations_per_packet),
        )
        abandoned = slot.episode is not None and slot.episode.adversarial is None
        if abandoned or len(slot.sizes) < most_steps:
            slot.sizes, slot.delays = np.empty(most_steps), np.empty(most_steps)
        shaper = PacketShaper(
            self._normalizer.size_scale,
            config.min_packet_bytes,
            config.max_delay_ms,
            config.max_truncations_per_packet,
            config.max_episode_steps,
        )
        sizes, delays = original.sizes.tolist(), original.delays.tolist()
        slot.episode = _Episode(original, slot.sizes, slot.delays, shaper, sizes, delays)
        shaper.begin(sizes[0], delays[0])
        return shaper.observation()

    def _propose(self, slot: _Slot, size_action: float, delay_action: float, restart: bool) -> Tuple:
        """One slot's step: advance the emulator, defer censor scoring.

        Applies the action (two Python floats) — emitted packet, masking
        draw, emulator advance, termination — and returns ``(episode,
        prefix_length, action_kind, masked, done, data_penalty,
        time_penalty, next_observation, recorded_action)``, the pairs as
        tuples.  The censor still has to score the episode's first
        ``prefix_length`` packets (unless masked), which after the last
        step are the finished flow.  After a finished step the next
        observation is the next episode's first with ``restart`` (begun
        here), else ``(0.0, 0.0)``.
        """
        episode = slot.episode
        if episode is None or episode.adversarial is not None:
            raise RuntimeError("a step was taken on a finished episode; call reset() first")
        shaper = episode.shaper
        config = self._config
        step = shaper.steps
        remaining = shaper.remaining_bytes
        kind, emitted_size, emitted_delay, added_delay, time_penalty, recorded_action = (
            shaper.apply(size_action, delay_action)
        )
        if kind == ActionKind.TRUNCATION:
            episode.n_truncations += 1
            data_penalty = (
                shaper.remaining_bytes / shaper.size_scale
                + config.lambda_split * shaper.truncations
            )
        else:
            data_penalty = (abs(emitted_size) - remaining) / shaper.size_scale
            if kind == ActionKind.PADDING:
                episode.n_paddings += 1
        # The added delay is a whole number of milliseconds: 0.0 adds nothing.
        if added_delay >= 1.0:
            episode.n_delays += 1
        episode.sizes[step] = emitted_size
        episode.delays[step] = emitted_delay
        steps = step + 1

        # Reward masking (Section 5.5.3): masked steps never reach the censor.
        # A rate of 0 or 1 fixes the outcome and draws nothing (evaluation
        # masks every step and so leaves the eval stream where it was).
        rate = config.reward_mask_rate
        masked = rate >= 1.0 or (rate > 0.0 and slot.rng.random() < rate)

        # Advance the emulator; termination does not depend on the score.  A
        # truncation leaves the shaper on the remainder; anything else sends
        # the packet and moves on to the next one.
        done = steps >= config.max_episode_steps
        if kind != ActionKind.TRUNCATION:
            index = episode.packet_index = episode.packet_index + 1
            if index == len(episode.original_sizes):
                done = True
            elif not done:
                shaper.begin(episode.original_sizes[index], episode.original_delays[index])
        if done:
            episode.finish()
            next_observation = self._begin(slot) if restart else (0.0, 0.0)
        else:
            next_observation = shaper.observation()

        # time_penalty is the clipped delay component: already normalised.
        return (
            episode, steps, kind, masked, done, data_penalty, time_penalty,
            next_observation, recorded_action,
        )  # fmt: skip

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

        config = self._config
        masked_value, lambda_data, lambda_time = (
            config.masked_reward_value, config.lambda_data, config.lambda_time
        )
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

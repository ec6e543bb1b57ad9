"""Adversarial network environment: transport-layer emulator + reward function.

This module implements Section 4.2 of the paper.  The environment reads
payload-sized "packets" from the original (censored) flow as a transport
layer would, hands them to the agent as observations, and turns the agent's
actions into adversarial packets:

* **truncation** — the adversarial packet is smaller than the remaining
  payload, so the remainder is re-offered as the next observation;
* **padding** — the adversarial packet is at least as large as the remaining
  payload; the excess bytes are dummy padding and the emulator moves on to
  the next original packet;
* **delay** — every action may add extra delay on top of the original
  inter-packet delay, satisfying constraint (2) by construction.

The payload constraint (1) is satisfied *by design*: a packet's payload is
only considered sent once the cumulative adversarial bytes cover it.

The environment has no single-step protocol of its own: a
:class:`~repro.core.vec_env.VectorFlowEnv` drives it in two phases.
``AdversarialFlowEnv._propose`` advances the emulator on Python floats (the
transition never depends on the censor) and returns the step as a plain
tuple, which the caller transposes into one tick record for all its slots;
``VectorFlowEnv.settle`` later turns the censor's scores into rewards, as
arrays.  Emitted packets go into the environment's preallocated rows; an
episode copies its own out when it ends.  Observations and emitted-action
records are :func:`normalised_pair`'s ``(size, delay)`` float pairs, in
training and in serving (:class:`~repro.serve.session.FlowSession`) alike;
neither tier builds an array per step, only one per tick or flush.

The reward combines the censor's decision on the adversarial prefix with the
data-overhead and time-overhead penalties:

    r(s_t, a_t) = r_adv − λ_d · p_data − λ_t · p_time.

Reward masking (Section 5.5.3) replaces ``r_adv`` with an "unknown" value
(0.5) with a configurable probability; masked steps do not query the censor,
which is how the paper counts "actual queries" in Figures 8 and 9.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..censors.base import CensorClassifier
from ..features.representation import FlowNormalizer
from ..flows.flow import Flow
from ..utils.rng import ensure_rng
from .config import AmoebaConfig

__all__ = [
    "AdversarialFlowEnv",
    "EpisodeSummary",
    "ActionKind",
    "packet_direction",
    "shape_packet_core",
    "normalised_pair",
]


class ActionKind:
    """Labels for the per-step action analysis of Figure 14."""

    TRUNCATION = "truncation"
    PADDING = "padding"
    DELAY = "delay"


def _clip(value: float, low: float, high: float) -> float:
    """``np.clip`` on one Python float, bit for bit: a value equal to a bound
    (``-0.0`` against ``0.0`` included) is returned as is, NaN propagates."""
    if value < low:
        return low
    if value > high:
        return high
    return value


def packet_direction(size: float) -> float:
    """``np.sign`` of a signed packet size (``+1.0`` upstream, ``-1.0``
    downstream) as a plain float comparison."""
    if size > 0:
        return 1.0
    if size < 0:
        return -1.0
    return 0.0 if size == 0 else float(size)  # NaN stays NaN, as np.sign


def shape_packet_core(
    size_action: float,
    delay_action: float,
    remaining_bytes: float,
    truncations_current_packet: int,
    steps_taken: int,
    size_scale: float,
    min_packet_bytes: int,
    max_delay_ms: float,
    max_truncations_per_packet: int,
    max_steps: Optional[int],
) -> Tuple[int, float, float, bool]:
    """The paper's truncation/padding/delay action semantics, in one place.

    Takes the two action components as Python floats and returns the plain
    tuple ``(emitted_bytes, added_delay, delay_action, is_truncation)``: the
    unsigned bytes put on the wire, the policy-added delay in ms
    (integer-discretised), the clipped normalised delay component (the time
    penalty) and whether the remainder is re-offered as the next
    observation.  Every decision of
    both tiers ends here, called directly with a row of ``actions.tolist()``:
    the training emulator (``AdversarialFlowEnv._propose``) and the
    online serving tier (:meth:`repro.serve.session.FlowSession.apply_action`).
    That is what keeps served decisions bit-identical to training-time
    shaping: truncation when the requested packet is smaller than the
    remaining payload (unless the per-packet truncation cap or the step
    budget forces the packet closed), padding up to the requested size
    otherwise, integer byte / millisecond discretisation, and the
    ``min_packet_bytes`` floor.  ``max_steps`` may be ``None`` for an
    unbounded live stream.

    The arithmetic is plain Python floats — bit-equal to the ``np.clip`` /
    ``np.ceil`` formulation kept as the oracle in
    ``tests/oracles/emulator_reference.py``.  Infinite components clamp like
    any other out-of-range value; a NaN component raises ``ValueError`` here
    instead of failing as ``int(nan)`` further down.
    """
    if size_action != size_action or delay_action != delay_action:
        raise ValueError(f"non-finite action {[size_action, delay_action]}")
    size_action = _clip(size_action, -1.0, 1.0)
    delay_action = _clip(delay_action, 0.0, 1.0)

    requested_bytes = max(min_packet_bytes, abs(int(size_action * size_scale)))
    added_delay = float(int(delay_action * max_delay_ms))

    force_close = truncations_current_packet >= max_truncations_per_packet or (
        max_steps is not None and steps_taken + 1 >= max_steps
    )
    is_truncation = requested_bytes < remaining_bytes and not force_close
    if is_truncation:
        emitted_bytes = requested_bytes
    else:
        emitted_bytes = max(requested_bytes, math.ceil(remaining_bytes))
    return emitted_bytes, added_delay, delay_action, is_truncation


def normalised_pair(
    direction: float, size_bytes: float, delay_ms: float, size_scale: float, max_delay_ms: float
) -> Tuple[float, float]:
    """The normalised ``(size, delay)`` pair of one packet, as two Python floats.

    Signed size clipped to the size scale, delay clipped to the delay bound
    (each clip is :func:`_clip`'s, written out).  It is the one definition of
    both encoder streams' inputs, in both tiers: the observation of the
    pending (sub-)packet (remaining payload, original delay — zero for a
    follow-up sub-packet) and the record of the emitted adversarial packet
    (emitted bytes and delay).  Callers keep the pairs as tuples and build
    one array per tick or flush from them.
    """
    size = direction * size_bytes / size_scale
    if size < -1.0:
        size = -1.0
    elif size > 1.0:
        size = 1.0
    delay = delay_ms / max_delay_ms
    if delay < 0.0:
        delay = 0.0
    elif delay > 1.0:
        delay = 1.0
    return size, delay


@dataclass
class EpisodeSummary:
    """Statistics of one finished episode (one adversarial flow)."""

    adversarial_flow: Flow
    original_flow: Flow
    success: bool
    final_score: float
    data_overhead: float
    time_overhead: float
    n_truncations: int
    n_paddings: int
    n_delays: int
    n_steps: int
    episode_reward: float

    def action_counts(self) -> Dict[str, int]:
        return {
            ActionKind.TRUNCATION: self.n_truncations,
            ActionKind.PADDING: self.n_paddings,
            ActionKind.DELAY: self.n_delays,
        }


@dataclass(eq=False)
class _Episode:
    """Accounting of one episode, shared by its environment and by the tick
    records holding its steps: ``_propose`` writes the emulator's side,
    ``VectorFlowEnv.settle`` the running reward.  Its packets are the first
    ``length`` entries of ``sizes`` / ``delays``, the environment's rows
    until it ends (then its own copy) or is abandoned (then the rows)."""

    original: Flow
    sizes: np.ndarray = field(repr=False)
    delays: np.ndarray = field(repr=False)
    length: int = 0
    reward: float = 0.0
    consumed_payload: float = 0.0
    added_delay: float = 0.0
    n_truncations: int = 0
    n_paddings: int = 0
    n_delays: int = 0
    adversarial: Optional[Flow] = None  # flow() of the finished episode

    def flow(self) -> Flow:
        """The packets emitted so far as one validated flow: over the rows
        while in flight (rebuilt per call), built once by :meth:`finish`
        (the summary's ``adversarial_flow``, owning its arrays)."""
        if self.adversarial is not None:
            return self.adversarial
        return Flow(
            sizes=self.sizes[: self.length],
            delays=self.delays[: self.length],
            label=self.original.label,
            protocol=f"{self.original.protocol}-adv",
            metadata={"original_packets": self.original.n_packets},
        )

    def finish(self) -> None:
        """End the episode: its flow owns a copy of the packets in the rows."""
        self.sizes = self.sizes[: self.length].copy()
        self.delays = self.delays[: self.length].copy()
        self.adversarial = self.flow()

    def summary(self, final_score: float) -> EpisodeSummary:
        """The finished episode's statistics, once ``reward`` holds every step's."""
        adversarial = self.flow()
        payload = float(self.consumed_payload)
        padding = max(0.0, float(np.abs(adversarial.sizes).sum()) - payload)
        duration = float(adversarial.delays.sum())
        return EpisodeSummary(
            adversarial_flow=adversarial,
            original_flow=self.original,
            success=bool(final_score >= 0.5),
            final_score=float(final_score),
            data_overhead=float(padding / (payload + padding) if (payload + padding) > 0 else 0.0),
            time_overhead=float(self.added_delay / duration if duration > 0 else 0.0),
            n_truncations=self.n_truncations,
            n_paddings=self.n_paddings,
            n_delays=self.n_delays,
            n_steps=adversarial.n_packets,
            episode_reward=float(self.reward),
        )


class AdversarialFlowEnv:
    """Single-flow adversarial sequence-generation environment.

    Parameters
    ----------
    censor:
        Trained censoring classifier providing the (possibly masked) reward.
    normalizer:
        Maps between bytes/milliseconds and the normalised action space.
    config:
        :class:`AmoebaConfig` with reward coefficients and action bounds.
    flows:
        Pool of original (censored) flows; each ``reset`` picks the next one.
    rng:
        Seed or generator (flow order, reward masking).
    """

    def __init__(
        self,
        censor: CensorClassifier,
        normalizer: FlowNormalizer,
        config: AmoebaConfig,
        flows: Sequence[Flow],
        rng=None,
    ) -> None:
        if not flows:
            raise ValueError("the environment needs at least one flow to attack")
        self.censor = censor
        self.normalizer = normalizer
        self.config = config
        self._flows = list(flows)
        self._rng = ensure_rng(rng)
        self._flow_order: List[int] = []
        self._flow_cursor = 0

        # Emulator state, initialised by reset(); what settling needs of an
        # episode lives in its _Episode record instead.  The current flow's
        # packets are Python floats; the emitted ones go into two rows that
        # the episodes of this environment reuse.
        self._original_sizes: List[float] = []
        self._original_delays: List[float] = []
        self._episode: Optional[_Episode] = None
        self._sizes = np.empty(0)
        self._delays = np.empty(0)
        self._packet_index = 0
        self._remaining_bytes = 0.0
        self._direction = 0.0
        self._packet_delay = 0.0
        self._truncations_current_packet = 0
        self._steps = 0
        self._done = True

    # Attributes shared with the driver and identical in every process fork;
    # everything else in __dict__ is per-episode / per-stream mutable state
    # and belongs in a state snapshot.
    _STATIC_ATTRS = frozenset({"censor", "normalizer", "config", "_flows"})

    def state_snapshot(self) -> Dict[str, object]:
        """Picklable deep copy of all mutable episode and stream state.

        Covers the RNG stream, flow-order cursor and in-flight episode
        bookkeeping — everything needed to resume this environment
        bit-identically in another process (used by the sharded rollout
        engine's restart snapshots).  Static collaborators (censor,
        normalizer, config, flow pool) are excluded; the restoring side
        supplies its own identical copies.
        """
        return copy.deepcopy(
            {
                key: value
                for key, value in self.__dict__.items()
                if key not in self._STATIC_ATTRS
            }
        )

    def state_restore(self, snapshot: Dict[str, object]) -> None:
        """Inverse of :meth:`state_snapshot` (deep-copies, so the caller's
        snapshot survives this environment's subsequent mutations)."""
        self.__dict__.update(copy.deepcopy(snapshot))

    # ------------------------------------------------------------------ #
    # Flow pool management
    # ------------------------------------------------------------------ #
    def _next_flow(self) -> Flow:
        if self._flow_cursor >= len(self._flow_order):
            self._flow_order = self._rng.permutation(len(self._flows)).tolist()
            self._flow_cursor = 0
        flow = self._flows[self._flow_order[self._flow_cursor]]
        self._flow_cursor += 1
        return flow

    # ------------------------------------------------------------------ #
    # Observation helpers
    # ------------------------------------------------------------------ #
    @property
    def observation_dim(self) -> int:
        return 2

    @property
    def action_dim(self) -> int:
        return 2

    def _start_packet(self) -> Tuple[float, float]:
        """Read the packet at ``_packet_index`` off the original flow and
        return its first sub-packet's observation pair."""
        size = self._original_sizes[self._packet_index]
        remaining = self._remaining_bytes = abs(size)
        direction = self._direction = packet_direction(size)
        delay = self._packet_delay = self._original_delays[self._packet_index]
        return normalised_pair(
            direction, remaining, delay, self.normalizer.size_scale, self.config.max_delay_ms
        )

    # ------------------------------------------------------------------ #
    # The two phases of a step
    # ------------------------------------------------------------------ #
    def reset(self, flow: Optional[Flow] = None) -> np.ndarray:
        """Start a new episode, optionally on a caller-provided flow."""
        return np.array(self._begin(flow), dtype=np.float64)

    def _begin(self, flow: Optional[Flow] = None) -> Tuple[float, float]:
        """:meth:`reset`, returning the first observation as a pair."""
        original = (flow or self._next_flow()).copy()
        self._original_sizes = original.sizes.tolist()
        self._original_delays = original.delays.tolist()
        config = self.config
        # A packet closes after max_truncations_per_packet truncations at most.
        # An episode abandoned in flight keeps its rows for settling.
        most_steps = min(
            config.max_episode_steps,
            original.n_packets * (1 + config.max_truncations_per_packet),
        )
        abandoned = self._episode is not None and self._episode.adversarial is None
        if abandoned or len(self._sizes) < most_steps:
            self._sizes, self._delays = np.empty(most_steps), np.empty(most_steps)
        self._episode = _Episode(original, self._sizes, self._delays)
        self._packet_index = 0
        self._truncations_current_packet = 0
        self._steps = 0
        self._done = False
        return self._start_packet()

    def _propose(self, size_action: float, delay_action: float, restart: bool = False) -> Tuple:
        """Phase 1 of a step: advance the emulator, defer censor scoring.

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
        if self._done:
            raise RuntimeError("a step was proposed on a finished episode; call reset() first")
        episode = self._episode
        config = self.config
        size_scale = self.normalizer.size_scale
        max_delay_ms = config.max_delay_ms
        max_steps = config.max_episode_steps
        remaining = self._remaining_bytes
        truncations = self._truncations_current_packet
        steps = self._steps
        emitted_bytes, added_delay, time_penalty, is_truncation = shape_packet_core(
            size_action,
            delay_action,
            remaining,
            truncations,
            steps,
            size_scale,
            config.min_packet_bytes,
            max_delay_ms,
            config.max_truncations_per_packet,
            max_steps,
        )
        direction = self._direction
        emitted_delay = (0.0 if truncations > 0 else self._packet_delay) + added_delay

        if is_truncation:
            remaining -= emitted_bytes
            truncations += 1
            episode.consumed_payload += emitted_bytes
            episode.n_truncations += 1
            data_penalty = remaining / size_scale + config.lambda_split * truncations
            action_kind = ActionKind.TRUNCATION
        else:
            padding_bytes = emitted_bytes - remaining
            episode.consumed_payload += remaining
            data_penalty = padding_bytes / size_scale
            if padding_bytes > 0:
                episode.n_paddings += 1
                action_kind = ActionKind.PADDING
            else:
                action_kind = "exact"
        # The added delay is a whole number of milliseconds: 0.0 adds nothing.
        if added_delay >= 1.0:
            episode.n_delays += 1
            episode.added_delay += added_delay

        # Record the emitted adversarial packet.
        recorded_action = normalised_pair(
            direction, emitted_bytes, emitted_delay, size_scale, max_delay_ms
        )
        self._sizes[steps] = direction * emitted_bytes
        self._delays[steps] = emitted_delay
        steps += 1
        self._steps = episode.length = steps

        # Reward masking (Section 5.5.3): masked steps never reach the censor.
        # A rate of 0 or 1 fixes the outcome and draws nothing (evaluation
        # masks every step and so leaves the eval stream where it was).
        rate = config.reward_mask_rate
        masked = rate >= 1.0 or (rate > 0.0 and self._rng.random() < rate)

        # Advance the emulator; termination does not depend on the score.  A
        # truncation re-offers the remainder, without the original delay;
        # anything else sends the packet and moves on to the next one.
        done = steps >= max_steps
        if is_truncation:
            self._remaining_bytes = remaining
            self._truncations_current_packet = truncations
            next_observation = normalised_pair(direction, remaining, 0.0, size_scale, max_delay_ms)
        else:
            self._truncations_current_packet = 0
            self._packet_index += 1
            if self._packet_index < len(self._original_sizes):
                next_observation = self._start_packet()
            else:
                self._remaining_bytes = 0.0
                done = True
        if done:
            self._done = True
            episode.finish()
            next_observation = self._begin() if restart else (0.0, 0.0)

        # time_penalty is the clipped delay component: already normalised.
        return (
            episode, steps, action_kind, masked, done, data_penalty, time_penalty,
            next_observation, recorded_action,
        )  # fmt: skip

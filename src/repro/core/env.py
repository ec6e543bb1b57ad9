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
``AdversarialFlowEnv._propose`` advances the emulator (the transition never
depends on the censor) and ``AdversarialFlowEnv._settle`` folds the censor's
scores into the reward, at any later time.  The emulator runs on Python
floats end to end: the action's two components go straight into
:func:`shape_packet_core`, and the observation and emitted-action pairs stay
tuples, from which the vectorized caller builds one ``(n, 2)`` array per
tick.

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
    "PendingStep",
    "packet_direction",
    "shape_packet_core",
    "make_observation",
    "record_action",
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


def _normalised_pair(
    direction: float, size_bytes: float, delay_ms: float, size_scale: float, max_delay_ms: float
) -> Tuple[float, float]:
    """Signed size clipped to the size scale, delay clipped to the delay
    bound — the arithmetic of both :func:`make_observation` and
    :func:`record_action`, as a tuple of Python floats (the training
    emulator keeps its pairs in this form and builds one ``(n, 2)`` array
    per tick from them)."""
    return (
        _clip(direction * size_bytes / size_scale, -1.0, 1.0),
        _clip(delay_ms / max_delay_ms, 0.0, 1.0),
    )


def make_observation(
    direction: float,
    remaining_bytes: float,
    base_delay: float,
    size_scale: float,
    max_delay_ms: float,
) -> np.ndarray:
    """Normalised (size, delay) observation of the pending (sub-)packet.

    Shared by the training environment and the serving tier so the policy
    input is one definition: signed remaining payload clipped to the size
    scale, original delay (zero for follow-up sub-packets) clipped to the
    delay bound.
    """
    return np.array(
        _normalised_pair(direction, remaining_bytes, base_delay, size_scale, max_delay_ms),
        dtype=np.float64,
    )


def record_action(
    direction: float,
    emitted_bytes: float,
    emitted_delay: float,
    size_scale: float,
    max_delay_ms: float,
) -> np.ndarray:
    """Normalised record of the *emitted* adversarial packet.

    This is what enters the action-history encoder stream — shared between
    environment and serving tier for the same reason as
    :func:`make_observation`.
    """
    return np.array(
        _normalised_pair(direction, emitted_bytes, emitted_delay, size_scale, max_delay_ms),
        dtype=np.float64,
    )


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


@dataclass
class _Episode:
    """Accounting of one episode, shared by the environment running it and
    by every :class:`PendingStep` it issued.

    ``_propose`` writes the emulator's side (emitted packets, payload, delay
    and action counters), ``_settle`` the censor's (running reward).  Because
    the record outlives :meth:`AdversarialFlowEnv.reset`, ``_settle`` reads
    the same numbers whether it runs right after ``_propose`` or at the end
    of a rollout, long after the environment moved on to its next flow.
    """

    original: Flow
    sizes: List[float] = field(default_factory=list)
    delays: List[float] = field(default_factory=list)
    reward: float = 0.0
    consumed_payload: float = 0.0
    added_delay: float = 0.0
    n_truncations: int = 0
    n_paddings: int = 0
    n_delays: int = 0
    adversarial: Optional[Flow] = None  # flow() of the finished episode

    def flow(self) -> Flow:
        """The adversarial packets emitted so far as one validated flow.

        An in-flight episode is rebuilt on every call; ``_propose`` builds a
        finished one once and keeps it here — it is the summary's
        ``adversarial_flow`` and owns its arrays, and every step's prefix is
        a view into it.
        """
        if self.adversarial is not None:
            return self.adversarial
        return Flow(
            sizes=np.asarray(self.sizes),
            delays=np.asarray(self.delays),
            label=self.original.label,
            protocol=f"{self.original.protocol}-adv",
            metadata={"original_packets": self.original.n_packets},
        )


@dataclass(eq=False, slots=True)
class PendingStep:
    """Deterministic outcome of ``AdversarialFlowEnv._propose``.

    The environment's transition is fully determined by the action — the
    censor's score only shapes the *reward* — so a step can be split into a
    deterministic ``_propose`` phase (emulator advance, masking draw, episode
    termination) and a ``_settle`` phase that consumes externally computed
    censor scores, at any later time and after any number of further
    ``_propose`` / ``reset`` calls on the same environment.  The censor must
    score, in order: the adversarial prefix of ``prefix_length`` packets
    (unless the reward is masked), then the finished adversarial flow (when
    the episode ended) — which is that same prefix, so a driver may score
    it once.  A vectorized driver gathers these across environments and
    ticks into batched ``predict_scores`` calls, preserving the exact
    one-query-per-flow accounting of the sequential reference
    (``tests/oracles/sequential_collection.py``).

    ``recorded_action`` and ``next_observation`` are ``(size, delay)``
    pairs of Python floats — a vectorized caller builds one ``(n, 2)``
    array per tick from them.  ``next_observation`` is what the policy acts
    on next: the pending (sub-)packet, or — filled in by an auto-resetting
    :class:`~repro.core.vec_env.VectorFlowEnv` — the first observation of
    the episode that replaced a finished one; ``None`` after a finished step
    otherwise.  ``score`` is the prefix's censor score once the step is
    applied (NaN while pending and for a masked step).
    """

    env: "AdversarialFlowEnv" = field(repr=False)
    episode: _Episode = field(repr=False)
    prefix_length: int
    action_kind: str
    masked: bool
    done: bool
    data_penalty: float
    time_penalty: float
    recorded_action: Tuple[float, float]
    next_observation: Optional[Tuple[float, float]]
    applied: bool = False
    score: float = math.nan

    @property
    def n_scores(self) -> int:
        """How many censor queries this step costs: the prefix (unless
        masked) plus the finished flow (when the step ended the episode)."""
        return (not self.masked) + self.done

    def info(self) -> Dict:
        """The per-step ``info`` dict of :meth:`VectorFlowEnv.step
        <repro.core.vec_env.VectorFlowEnv.step>` (without ``"episode"``,
        which the caller adds for a finished step).  Collection never
        builds it."""
        return {
            "action_kind": self.action_kind,
            "masked": self.masked,
            "score": self.score,
            "data_penalty": self.data_penalty,
            "time_penalty": self.time_penalty,
            "recorded_action": self.recorded_action,
        }


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

        # Emulator state, initialised by reset(); what _settle() needs of an
        # episode lives in its _Episode record instead.  The current packet's
        # direction and original delay are read off the flow once per packet.
        self._original: Optional[Flow] = None
        self._episode: Optional[_Episode] = None
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

    def _start_packet(self) -> None:
        """Read the packet at ``_packet_index`` off the original flow."""
        size = self._original.sizes[self._packet_index]
        self._remaining_bytes = float(abs(size))
        self._direction = packet_direction(size)
        self._packet_delay = float(self._original.delays[self._packet_index])

    def _observation(self) -> Tuple[float, float]:
        """The pending (sub-)packet as a :func:`make_observation` pair; the
        original delay counts only for its first sub-packet."""
        return _normalised_pair(
            self._direction,
            self._remaining_bytes,
            0.0 if self._truncations_current_packet > 0 else self._packet_delay,
            self.normalizer.size_scale,
            self.config.max_delay_ms,
        )

    # ------------------------------------------------------------------ #
    # The two phases of a step
    # ------------------------------------------------------------------ #
    def reset(self, flow: Optional[Flow] = None) -> np.ndarray:
        """Start a new episode, optionally on a caller-provided flow."""
        return np.array(self._begin(flow), dtype=np.float64)

    def _begin(self, flow: Optional[Flow] = None) -> Tuple[float, float]:
        """:meth:`reset`, returning the first observation as a pair."""
        self._original = (flow or self._next_flow()).copy()
        self._episode = _Episode(self._original)
        self._packet_index = 0
        self._start_packet()
        self._truncations_current_packet = 0
        self._steps = 0
        self._done = False
        return self._observation()

    def _propose(self, size_action: float, delay_action: float) -> PendingStep:
        """Phase 1 of a step: advance the emulator, defer censor scoring.

        Applies the action's deterministic effects (packet emission,
        reward-masking draw, emulator advance, episode termination) to the
        two action components as Python floats — what
        :class:`~repro.core.vec_env.VectorFlowEnv` passes from the rows of
        one ``actions.tolist()`` per tick — and returns a
        :class:`PendingStep` naming what the censor still has to score.
        Complete the step with :meth:`_settle`, now or after any number of
        further steps and resets.
        """
        if self._done:
            raise RuntimeError("a step was proposed on a finished episode; call reset() first")
        episode = self._episode
        config = self.config
        size_scale = self.normalizer.size_scale
        max_delay_ms = config.max_delay_ms
        remaining = self._remaining_bytes
        truncations = self._truncations_current_packet
        emitted_bytes, added_delay, time_penalty, is_truncation = shape_packet_core(
            size_action,
            delay_action,
            remaining,
            truncations,
            self._steps,
            size_scale,
            config.min_packet_bytes,
            max_delay_ms,
            config.max_truncations_per_packet,
            config.max_episode_steps,
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
            remaining = 0.0
        self._remaining_bytes = remaining
        self._truncations_current_packet = truncations

        if added_delay >= 1.0:
            episode.n_delays += 1

        # Record the emitted adversarial packet.
        recorded_action = _normalised_pair(
            direction, emitted_bytes, emitted_delay, size_scale, max_delay_ms
        )
        episode.sizes.append(direction * emitted_bytes)
        episode.delays.append(emitted_delay)
        episode.added_delay += added_delay
        self._steps += 1

        # Reward masking (Section 5.5.3): masked steps never reach the censor.
        # A rate of 0 or 1 fixes the outcome and draws nothing (evaluation
        # masks every step and so leaves the eval stream where it was).
        rate = config.reward_mask_rate
        masked = rate >= 1.0 or (rate > 0.0 and self._rng.random() < rate)

        # Advance the emulator; termination does not depend on the score.
        done = False
        if remaining <= 0:
            self._packet_index += 1
            self._truncations_current_packet = 0
            if self._packet_index >= self._original.n_packets:
                done = True
            else:
                self._start_packet()
        if self._steps >= config.max_episode_steps:
            done = True

        if done:
            self._done = True
            episode.adversarial = episode.flow()
            next_observation = None
        else:
            next_observation = self._observation()

        return PendingStep(
            self,
            episode,
            self._steps,
            action_kind,
            masked,
            done,
            data_penalty,
            time_penalty,  # the clipped delay component: already normalised
            recorded_action,
            next_observation,
        )

    def _settle(
        self,
        pending: PendingStep,
        prefix_score: Optional[float],
        final_score: Optional[float],
    ) -> Tuple[float, Optional[EpisodeSummary]]:
        """Phase 2 of a step: fold censor scores into reward and summary.

        The scores are already taken out of the censor's array: the
        prefix's (``None`` when masked) and the finished flow's (``None``
        unless the step ended the episode).  The steps of one episode must
        be settled in the order they were proposed, each once.  Returns the
        reward and, for a finished episode, its summary."""
        pending.applied = True
        config = self.config
        if prefix_score is None:
            adversarial_reward = config.masked_reward_value
        else:
            pending.score = prefix_score
            adversarial_reward = 1.0 if prefix_score >= 0.5 else 0.0
        reward = (
            adversarial_reward
            - config.lambda_data * pending.data_penalty
            - config.lambda_time * pending.time_penalty
        )
        pending.episode.reward += reward
        if final_score is None:
            return reward, None
        return reward, self._finalise_episode(pending.episode, final_score)

    def _finalise_episode(self, episode: _Episode, final_score: float) -> EpisodeSummary:
        adversarial = episode.flow()
        success = final_score >= 0.5

        original_payload = float(episode.consumed_payload)
        adversarial_bytes = float(np.abs(adversarial.sizes).sum())
        padding = max(0.0, adversarial_bytes - original_payload)
        data_overhead = padding / (original_payload + padding) if (original_payload + padding) > 0 else 0.0

        adversarial_duration = float(adversarial.delays.sum())
        time_overhead = (
            episode.added_delay / adversarial_duration if adversarial_duration > 0 else 0.0
        )

        summary = EpisodeSummary(
            adversarial_flow=adversarial,
            original_flow=episode.original,
            success=bool(success),
            final_score=float(final_score),
            data_overhead=float(data_overhead),
            time_overhead=float(time_overhead),
            n_truncations=episode.n_truncations,
            n_paddings=episode.n_paddings,
            n_delays=episode.n_delays,
            n_steps=adversarial.n_packets,
            episode_reward=float(episode.reward),
        )
        return summary

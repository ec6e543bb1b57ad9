"""Transport-layer emulator of the adversarial environment (paper §4.2).

The environment reads payload-sized "packets" from the original (censored)
flow as a transport layer would, hands them to the agent as observations,
and turns the agent's actions into adversarial packets:

* **truncation** — the adversarial packet is smaller than the remaining
  payload, so the remainder is re-offered as the next observation;
* **padding** — the adversarial packet is at least as large as the remaining
  payload; the excess bytes are dummy padding and the emulator moves on to
  the next original packet;
* **delay** — every action may add extra delay on top of the original
  inter-packet delay, satisfying constraint (2) by construction.

The payload constraint (1) is satisfied *by design*: a packet's payload is
only considered sent once the cumulative adversarial bytes cover it.

The per-packet state machine is :class:`PacketShaper`, the one emulator:
the environment, :class:`~repro.core.vec_env.VectorFlowEnv`, builds one
per episode of each of its slots, and each serving session
(:class:`~repro.serve.session.FlowSession`) steps one too.  The transition
is plain Python floats and never depends on the censor, so the
environment steps whole ticks first and turns the censor's scores into
rewards later, as arrays (``VectorFlowEnv.settle``).  Observations and
emitted-action records are :func:`normalised_pair`'s ``(size, delay)``
float pairs, in training and in serving alike; neither tier builds an
array per step, only one per tick or flush.  A finished episode reports
an :class:`EpisodeSummary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..flows.flow import Flow

__all__ = [
    "EpisodeSummary",
    "ActionKind",
    "packet_direction",
    "PacketShaper",
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


class PacketShaper:
    """The emulator's per-packet state machine (§4.2), one per flow.

    The one definition of the paper's truncation / padding / delay action
    semantics, stepped alike by the training environment (one shaper per
    episode) and by the online serving tier (one per
    :class:`~repro.serve.session.FlowSession`), which is what keeps served
    decisions bit-identical to training-time shaping.  It holds the shaping
    bounds, the packet being shaped — its direction, remaining payload
    bytes, original delay (``delay_ms``: ``0.0`` once the packet has been
    truncated, as a follow-up sub-packet adds none) and truncations so far
    — and the flow's step count, consumed payload and policy-added delay.
    ``max_steps`` may be ``None`` for an unbounded live stream.

    :meth:`begin` reads one original packet, :meth:`observation` is the
    pending (sub-)packet's :func:`normalised_pair`, and :meth:`apply` turns
    one action into the emitted packet.  The arithmetic is plain Python
    floats, bit-equal to the ``np.clip`` / ``np.ceil`` formulation kept as
    the oracle in ``tests/oracles/emulator_reference.py``.
    """

    __slots__ = (
        "size_scale", "min_packet_bytes", "max_delay_ms", "max_truncations_per_packet",
        "max_steps", "direction", "remaining_bytes", "delay_ms", "truncations", "steps",
        "consumed_payload", "added_delay",
    )  # fmt: skip

    def __init__(
        self,
        size_scale: float,
        min_packet_bytes: int = 64,
        max_delay_ms: float = 100.0,
        max_truncations_per_packet: int = 8,
        max_steps: Optional[int] = None,
    ) -> None:
        self.size_scale = size_scale
        self.min_packet_bytes = min_packet_bytes
        self.max_delay_ms = max_delay_ms
        self.max_truncations_per_packet = max_truncations_per_packet
        self.max_steps = max_steps
        self.direction = 0.0
        self.remaining_bytes = 0.0
        self.delay_ms = 0.0
        self.truncations = 0
        self.steps = 0
        self.consumed_payload = 0.0
        self.added_delay = 0.0

    def begin(self, size: float, delay_ms: float) -> None:
        """Start shaping one original packet (signed size, original delay)."""
        self.direction = packet_direction(size)
        self.remaining_bytes = abs(size)
        self.delay_ms = delay_ms
        self.truncations = 0

    def observation(self) -> Tuple[float, float]:
        """The pending (sub-)packet's normalised ``(size, delay)`` pair."""
        return normalised_pair(
            self.direction, self.remaining_bytes, self.delay_ms, self.size_scale, self.max_delay_ms
        )

    def apply(self, size_action: float, delay_action: float) -> Tuple:
        """Shape the pending (sub-)packet with one action.

        Returns ``(kind, emitted_size, emitted_delay, added_delay,
        time_penalty, recorded_action)``: the :class:`ActionKind` label (or
        ``"exact"``), the signed bytes put on the wire, their delay in ms
        (original plus policy-added), the policy-added delay
        (integer-discretised), the clipped normalised delay component and
        the emitted packet's :func:`normalised_pair`.  A truncation — the
        requested packet is smaller than the remaining payload, unless the
        per-packet truncation cap or the step budget forces the packet
        closed — re-offers the remainder, with no original delay; anything
        else pads up to the requested size and closes the packet.  Bytes
        and milliseconds are integers, and no packet is smaller than
        ``min_packet_bytes``.  Infinite components clamp like any other
        out-of-range value; a NaN one raises ``ValueError`` before any
        state changes.
        """
        if size_action != size_action or delay_action != delay_action:
            raise ValueError(f"non-finite action {[size_action, delay_action]}")
        size_action = _clip(size_action, -1.0, 1.0)
        delay_action = _clip(delay_action, 0.0, 1.0)
        requested_bytes = max(self.min_packet_bytes, abs(int(size_action * self.size_scale)))
        added_delay = float(int(delay_action * self.max_delay_ms))

        remaining = self.remaining_bytes
        emitted_delay = self.delay_ms + added_delay
        steps = self.steps = self.steps + 1
        max_steps = self.max_steps
        if (
            requested_bytes < remaining
            and self.truncations < self.max_truncations_per_packet
            and (max_steps is None or steps < max_steps)
        ):
            emitted_bytes = requested_bytes
            self.remaining_bytes = remaining - requested_bytes
            self.delay_ms = 0.0
            self.truncations += 1
            self.consumed_payload += requested_bytes
            kind = ActionKind.TRUNCATION
        else:
            emitted_bytes = max(requested_bytes, math.ceil(remaining))
            self.remaining_bytes = 0.0
            self.consumed_payload += remaining
            kind = ActionKind.PADDING if emitted_bytes > remaining else "exact"
        self.added_delay += added_delay
        direction = self.direction
        return (
            kind, direction * emitted_bytes, emitted_delay, added_delay, delay_action,
            normalised_pair(direction, emitted_bytes, emitted_delay, self.size_scale, self.max_delay_ms),
        )  # fmt: skip


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

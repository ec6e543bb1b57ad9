"""Per-flow serving session: incremental state + the online shaping emulator.

A :class:`FlowSession` is the serving-tier counterpart of one episode of a
:class:`~repro.core.vec_env.VectorFlowEnv` slot: the packet queue,
emitted packets, accounting and deadline tracking of one live tunnelled
flow.  Its two incremental encoder streams (observation history and action
history) are *not* stored on the session: they are one slot of the server's
resident :class:`SessionTable`, which the flush gathers from and scatters
to by row, so a per-packet policy decision costs one batched GRU step
instead of re-encoding the whole history (the PR 1 O(T) contract, now spent
on inference serving) and no per-session array is built or split on the way.
Nor is one built per decision: observations and recorded actions are
``(size, delay)`` float pairs and the records are named tuples, so the flush
stacks one array per encoder stream and nothing else.

The deterministic shaping rules — truncation / padding / minimum packet
size / per-packet truncation cap / step budget — are the state machine the
training emulator steps: each session owns a
:class:`~repro.core.env.PacketShaper`, built by the server with its shaping
bounds, and only what is reward- or censor-related stays in training (a
proxy shaping live traffic never sees the censor's verdict).  Driving a
session with a deterministic policy therefore emits bit-identical
adversarial packets to :meth:`Amoeba.attack` on the same flow, which is
asserted in ``tests/test_serve.py``.

Sessions also carry the latency bookkeeping of the paper's deployment
argument (Section 5.6, Figure 11): every decision is stamped with the time
from request to answer, and a sliding window of deadline misses demotes the
session to the offline :class:`~repro.core.profiles.ProfileDatabase` tier
when the online path cannot beat the flow's inter-packet-delay budget.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.env import ActionKind, PacketShaper
from ..core.profiles import ProfileEmbeddingResult
from ..flows.flow import Flow, FlowLabel

__all__ = [
    "SessionStatus",
    "PendingPacket",
    "ShapingDecision",
    "SessionReport",
    "SessionTable",
    "FlowSession",
]

# Slots a fresh table starts with; an exhausted free-list doubles it.
_INITIAL_CAPACITY = 64


class SessionStatus:
    """Lifecycle states of a serving session."""

    OPEN = "open"          # online tier: per-packet policy inference
    DEMOTED = "demoted"    # offline tier: payload embedded into profiles
    CLOSED = "closed"


class PendingPacket(NamedTuple):
    """One original (payload) packet waiting to be shaped."""

    size: float      # signed bytes (positive upstream, negative downstream)
    delay_ms: float  # original inter-packet delay


class ShapingDecision(NamedTuple):
    """One emitted adversarial packet (the answer to one decision request);
    ``recorded_action`` is the float pair the action stream folds."""

    session_id: str
    step: int
    kind: str                 # ActionKind.TRUNCATION / PADDING / "exact"
    emitted_size: float       # signed bytes actually sent on the wire
    emitted_delay_ms: float   # original + policy-added delay
    recorded_action: Tuple[float, float]
    latency_ms: float = 0.0
    deadline_missed: bool = False


@dataclass(frozen=True)
class SessionReport:
    """Final accounting of one closed session."""

    session_id: str
    status: str
    demoted: bool
    n_decisions: int
    n_packets_in: int
    payload_bytes: float
    emitted_bytes: float
    added_delay_ms: float
    deadline_misses: int
    # The emitted adversarial packets; None when the session closed before
    # any decision was served (a flow must contain at least one packet).
    shaped_flow: Optional[Flow]
    profile_result: Optional[ProfileEmbeddingResult] = None
    unserved_packets: int = 0


class SessionTable:
    """Encoder state of every live session, resident in one slab.

    ``hidden`` is a ``(num_layers, 2, capacity, hidden_size)`` float64 array
    — the layout :class:`~repro.core.vec_env.BatchedEpisodeEncoder` trains
    on — where stream 0 is the observation history, stream 1 the action
    history and each session owns one *slot* along the third axis.  A flush
    gathers its batch's rows (``hidden[:, 0, slots]``, a copy), steps them
    and scatters the result back (``hidden[:, 0, slots] = folded``); nothing
    per session is allocated in between.

    Slot life cycle: :meth:`acquire` pops a free slot and zeroes its rows (an
    empty history encodes to zeros, and a reused slot must not remember its
    previous flow), :meth:`release` returns it.  When no slot is free the
    slab doubles — one copy, amortised over the sessions that fill it; live
    slots keep their index, and ``hidden`` is rebound, which is why sessions
    hold the table and not the array.
    """

    def __init__(self, num_layers: int, hidden_size: int) -> None:
        self.hidden = np.zeros((num_layers, 2, _INITIAL_CAPACITY, hidden_size))
        self._free = list(range(_INITIAL_CAPACITY - 1, -1, -1))  # pops 0 first

    @property
    def capacity(self) -> int:
        return self.hidden.shape[2]

    def acquire(self) -> int:
        if not self._free:
            old, capacity = self.hidden, self.capacity
            self.hidden = np.zeros((old.shape[0], 2, 2 * capacity, old.shape[3]))
            self.hidden[:, :, :capacity] = old
            self._free = list(range(2 * capacity - 1, capacity - 1, -1))
        slot = self._free.pop()
        self.hidden[:, :, slot] = 0.0
        return slot

    def release(self, slot: int) -> None:
        self._free.append(slot)


class FlowSession:
    """Serving state of one live tunnelled flow.

    The session is driven by the :class:`~repro.serve.server.PolicyServer`:
    packets arrive via :meth:`enqueue`, decision requests are armed via
    :meth:`arm_next`, and the scheduler's flush applies the policy action via
    :meth:`apply_action`.  The packet being shaped, the step count and the
    payload and delay accounting are the session's ``shaper`` (a
    :class:`~repro.core.env.PacketShaper` with the server's shaping bounds;
    ``max_steps`` is the session's step budget, ``None`` for an unbounded
    live stream).  Encoder-state folding is owned by the server so it can
    batch GRU steps across sessions; the state itself lives in ``slot`` of
    the server's :class:`SessionTable`, and the session only reads it
    (:meth:`state_vector` hands out a copy).
    """

    def __init__(
        self,
        session_id: str,
        table: SessionTable,
        slot: int,
        shaper: PacketShaper,
        deadline_ms: Optional[float] = None,
        miss_window: int = 8,
        miss_threshold: float = 0.5,
        protocol: str = "live",
    ) -> None:
        self.session_id = session_id
        self.shaper = shaper
        self.deadline_ms = None if deadline_ms is None else float(deadline_ms)
        self.miss_threshold = float(miss_threshold)
        self.status = SessionStatus.OPEN
        self.protocol = protocol

        # Incremental dual-stream encoder state (s_t = E(x_1:t) || E(a_1:t)):
        # rows ``[:, 0, slot]`` and ``[:, 1, slot]`` of the server's table.
        self._table: Optional[SessionTable] = table
        self.slot = slot

        # Packets waiting to be shaped (the one being shaped is the shaper's).
        self._inbox: Deque[PendingPacket] = deque()
        self._observation_armed = False  # current packet's obs awaiting fold

        # Emitted adversarial packets and accounting (latency percentiles
        # live server-side, in PolicyServer.stats()).
        self._out_sizes: List[float] = []
        self._out_delays: List[float] = []
        self._n_packets_in = 0
        self._deadline_misses = 0
        self._recent_misses: Deque[bool] = deque(maxlen=max(1, int(miss_window)))

        # Offline-tier payload (packets that arrived after demotion).
        self._profile_sizes: List[float] = []
        self._profile_delays: List[float] = []
        self.profile_result: Optional[ProfileEmbeddingResult] = None

    # ------------------------------------------------------------------ #
    # Packet intake
    # ------------------------------------------------------------------ #
    @property
    def online(self) -> bool:
        return self.status == SessionStatus.OPEN

    @property
    def closed(self) -> bool:
        return self.status == SessionStatus.CLOSED

    @property
    def in_flight(self) -> bool:
        """A packet is currently being shaped (decision pending)."""
        return self.shaper.remaining_bytes > 0 or self._observation_armed

    @property
    def backlog(self) -> int:
        return len(self._inbox)

    @property
    def n_decisions(self) -> int:
        return self.shaper.steps

    @property
    def deadline_misses(self) -> int:
        return self._deadline_misses

    def enqueue(self, size: float, delay_ms: float) -> None:
        """Accept one original packet for shaping (or profile fallback).

        A packet no flow could carry — zero or non-finite size (the sign
        encodes direction, as in :class:`~repro.flows.flow.Flow`), negative
        or non-finite delay — is refused here, before it is counted or
        queued: let through, it would wedge or split a later flush, or sink
        the session's report at close.
        """
        if self.closed:
            raise RuntimeError(f"session {self.session_id!r} is closed")
        size = float(size)
        delay_ms = float(delay_ms)
        if size == 0.0:
            raise ValueError("packet size must be non-zero (sign encodes direction)")
        if not math.isfinite(size):
            raise ValueError(f"packet size must be finite, got {size}")
        if not 0.0 <= delay_ms < math.inf:
            raise ValueError(f"packet delay must be finite and >= 0, got {delay_ms}")
        self._n_packets_in += 1
        if self.status == SessionStatus.DEMOTED:
            self._profile_sizes.append(size)
            self._profile_delays.append(delay_ms)
            return
        self._inbox.append(PendingPacket(size, delay_ms))

    def arm_next(self) -> bool:
        """Start shaping the next queued packet; True if a decision is now due.

        The shaper begins the packet, as the environment begins each
        packet of its flow.
        """
        if not self.online or self.in_flight or not self._inbox:
            return False
        packet = self._inbox.popleft()
        self.shaper.begin(packet.size, packet.delay_ms)
        self._observation_armed = True
        return True

    # ------------------------------------------------------------------ #
    # Observation / action folding hooks (called by the server)
    # ------------------------------------------------------------------ #
    def current_observation(self) -> Tuple[float, float]:
        """Normalised ``(size, delay)`` float pair of the pending sub-packet
        (:meth:`PacketShaper.observation <repro.core.env.PacketShaper.observation>`,
        as in training).  The flush stacks its batch's pairs into one array.
        """
        return self.shaper.observation()

    @property
    def observation_pending_fold(self) -> bool:
        """The pending (sub-)packet's observation is not in the table yet;
        every request the scheduler holds is for such a session."""
        return self._observation_armed

    def _stream(self, stream: int) -> np.ndarray:
        if self._table is None:
            raise RuntimeError(f"session {self.session_id!r} is closed; its slot was returned")
        return self._table.hidden[:, stream, self.slot]

    def state_vector(self) -> np.ndarray:
        """Current policy input ``s_t = E(x_1:t) || E(a_1:t)``.

        A copy: the caller owns it, and writing to it reaches neither the
        table nor a sibling.  A closed session has returned its slot and
        raises.
        """
        return np.concatenate([self._stream(0)[-1], self._stream(1)[-1]])

    # ------------------------------------------------------------------ #
    # Decision application (the training emulator's PacketShaper.apply)
    # ------------------------------------------------------------------ #
    def apply_action(
        self, action: Sequence[float], latency_ms: float = 0.0
    ) -> ShapingDecision:
        """Turn one policy action into the emitted adversarial packet.

        ``action`` is the ``(size, delay)`` pair — a row of the flush's
        ``actions.tolist()``, or any other 2-sequence of floats such as an
        array row.  The shaping is :meth:`PacketShaper.apply
        <repro.core.env.PacketShaper.apply>` — the *same* state machine the
        training emulator steps — so a deterministic policy served here
        emits the same packets ``VectorFlowEnv._propose`` would, bit
        for bit.  The observation the action answered counts as folded from
        here on (the server commits its table rows just before this call);
        a truncation re-offers the remainder as the next one.
        """
        if self.status != SessionStatus.OPEN:
            raise RuntimeError(f"session {self.session_id!r} is not online")
        shaper = self.shaper
        if shaper.remaining_bytes <= 0:
            raise RuntimeError("no packet armed; call arm_next() first")
        size_action, delay_action = action
        kind, emitted_size, emitted_delay, _, _, recorded_action = shaper.apply(
            size_action, delay_action
        )
        self._observation_armed = kind == ActionKind.TRUNCATION
        self._out_sizes.append(emitted_size)
        self._out_delays.append(emitted_delay)
        steps = shaper.steps

        missed = self.deadline_ms is not None and self._record_latency(latency_ms)
        decision = ShapingDecision(
            self.session_id,
            steps,
            kind,
            emitted_size,
            emitted_delay,
            recorded_action,
            float(latency_ms),
            missed,
        )

        if shaper.max_steps is not None and steps >= shaper.max_steps:
            # Step budget exhausted: the session leaves the online tier with
            # whatever is still queued unserved (mirrors the episode cap).
            self.status = SessionStatus.CLOSED
        elif missed and self._should_demote():
            self.demote()
        return decision

    # ------------------------------------------------------------------ #
    # Deadline tracking and demotion
    # ------------------------------------------------------------------ #
    def _record_latency(self, latency_ms: float) -> bool:
        missed = latency_ms > self.deadline_ms
        if missed:
            self._deadline_misses += 1
        self._recent_misses.append(missed)
        return missed

    def _should_demote(self) -> bool:
        window = self._recent_misses
        if window.maxlen is None or len(window) < window.maxlen:
            return False
        return float(np.mean(window)) >= self.miss_threshold

    def demote(self) -> None:
        """Fall back to the offline profile tier (Section 5.6.1).

        The online path stops: the pending (sub-)packet and every queued or
        future packet are routed to the profile payload, to be embedded into
        pre-stored adversarial shapes at close time.  The pending one keeps
        the delay the shaper would have charged it: its original delay,
        ``0.0`` only after a truncation.
        """
        if self.closed:
            raise RuntimeError(f"session {self.session_id!r} is closed")
        if self.status == SessionStatus.DEMOTED:
            return
        self.status = SessionStatus.DEMOTED
        shaper = self.shaper
        if shaper.remaining_bytes > 0:
            self._profile_sizes.append(shaper.direction * shaper.remaining_bytes)
            self._profile_delays.append(shaper.delay_ms)
            shaper.remaining_bytes = 0.0
        self._observation_armed = False
        while self._inbox:
            packet = self._inbox.popleft()
            self._profile_sizes.append(packet.size)
            self._profile_delays.append(packet.delay_ms)

    def profile_payload(self) -> Optional[Flow]:
        """Payload awaiting offline embedding, as a flow (None when empty)."""
        if not self._profile_sizes:
            return None
        return Flow(
            sizes=np.asarray(self._profile_sizes, dtype=np.float64),
            delays=np.asarray(self._profile_delays, dtype=np.float64),
            label=FlowLabel.CENSORED,
            protocol=f"{self.protocol}-fallback",
        )

    # ------------------------------------------------------------------ #
    # Close
    # ------------------------------------------------------------------ #
    def close(self) -> SessionReport:
        """Finalise the session and return its accounting report."""
        demoted = self.status == SessionStatus.DEMOTED
        shaper = self.shaper
        unserved = len(self._inbox) + (1 if shaper.remaining_bytes > 0 else 0)
        self.status = SessionStatus.CLOSED
        self._table = None  # the server returns the slot; never read it again
        shaped = None
        if self._out_sizes:
            shaped = Flow(
                sizes=np.asarray(self._out_sizes, dtype=np.float64),
                delays=np.asarray(self._out_delays, dtype=np.float64),
                label=FlowLabel.CENSORED,
                protocol=f"{self.protocol}-adv",
                metadata={"session_id": self.session_id},
            )
        return SessionReport(
            session_id=self.session_id,
            status=SessionStatus.DEMOTED if demoted else SessionStatus.CLOSED,
            demoted=demoted,
            n_decisions=shaper.steps,
            n_packets_in=self._n_packets_in,
            payload_bytes=float(shaper.consumed_payload),
            emitted_bytes=float(np.sum(np.abs(self._out_sizes))) if self._out_sizes else 0.0,
            added_delay_ms=float(shaper.added_delay),
            deadline_misses=self._deadline_misses,
            shaped_flow=shaped,
            profile_result=self.profile_result,
            unserved_packets=unserved,
        )

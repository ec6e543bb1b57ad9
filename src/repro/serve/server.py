"""PolicyServer: online policy serving with continuous batching.

The deployment story of Section 5.6: a proxy pair shapes live tunnelled
flows with the trained policy, per packet, and must answer faster than the
inter-packet gaps (Figure 11) or fall back to the offline profile database
(Table 2).  The :class:`PolicyServer` is that online tier:

* it loads an actor/encoder checkpoint written by ``Amoeba.save_policy``
  (architecture inferred from the state-dict shapes, so any historical
  checkpoint serves; one that records its training-time shaping bounds is
  refused under a config that differs);
* it manages thousands of concurrent flow **sessions**, whose incremental
  encoder state (observation stream, action stream) is one slot each of a
  resident :class:`~repro.serve.session.SessionTable`, so one per-packet
  decision costs one batched GRU step + one MLP forward;
* a :class:`~repro.serve.scheduler.ContinuousBatchScheduler` coalesces
  pending decisions across sessions into single ``act_batch`` /
  ``step_pairs`` forwards (flush on full batch or timeout), which gather
  the batch's table rows and scatter the stepped rows back; sessions hand
  it float pairs and named-tuple records, so it builds one array per
  stream, and its counters take the batch at once;
* per-session deadline tracking demotes flows the online path cannot serve
  in time to the :class:`~repro.core.profiles.ProfileDatabase` offline tier,
  whose embedding overhead is reported per session at close.

Determinism contract: ``act_batch`` and ``step_pairs`` multiply on the
row-consistent :mod:`repro.nn.backend` kernel, so every session's decision stream
is bit-identical regardless of how requests are batched — ``max_batch=1``
is the sequential reference the serving benchmark compares against, and a
deterministic policy served here emits the same adversarial packets as
``Amoeba.attack`` on the same flow.  A flush is all-or-nothing: if the
policy answers any row of the batch with a non-finite action, nothing is
committed, the batch returns to the queue and the error names the sessions.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..core.actor_critic import GaussianActor
from ..core.config import AmoebaConfig
from ..core.env import PacketShaper
from ..core.profiles import ProfileDatabase
from ..core.state_encoder import StateEncoder
from ..nn.serialization import CheckpointError, load_metadata, load_state_dict
from ..nn.serialization import split_prefixed_state
from ..utils.rng import ensure_rng
from ..utils.validation import check_integer, check_non_negative, check_positive
from .scheduler import ContinuousBatchScheduler, DecisionRequest
from .session import FlowSession, SessionReport, SessionStatus, SessionTable, ShapingDecision

__all__ = ["ServeConfig", "PolicyServer", "build_policy_from_state", "summarize_stats"]


@dataclass(frozen=True)
class ServeConfig:
    """Serving-tier configuration.

    The shaping bounds (``size_scale``, ``min_packet_bytes``,
    ``max_delay_ms``, ``max_truncations_per_packet``) must match the
    training-time :class:`~repro.core.config.AmoebaConfig` /
    :class:`~repro.features.representation.FlowNormalizer`; use
    :meth:`from_amoeba` to derive them.  ``deadline_ms`` is the per-decision
    latency budget (the Figure 11 inter-packet-delay argument): a session
    whose recent decisions miss it too often (``miss_threshold`` over a
    ``miss_window`` sliding window) is demoted to the offline profile tier.
    ``deadline_ms=None`` disables demotion (pure throughput serving).
    Every bound is checked at construction, as :class:`AmoebaConfig` checks
    its own: a bad one raises ``ValueError`` before a session opens.
    """

    size_scale: float = 1460.0
    min_packet_bytes: int = 64
    max_delay_ms: float = 100.0
    max_truncations_per_packet: int = 8
    max_steps_per_session: Optional[int] = None

    max_batch: int = 16
    flush_timeout_ms: float = 2.0

    deadline_ms: Optional[float] = None
    miss_window: int = 8
    miss_threshold: float = 0.5

    # Recent decision latencies retained for stats()/percentiles.  Bounded:
    # a long-running server must not grow memory linearly in decisions
    # served (and stats() copies this window on every call).
    latency_history: int = 4096

    def __post_init__(self) -> None:
        for name in (
            "min_packet_bytes",
            "max_truncations_per_packet",
            "max_batch",
            "miss_window",
            "latency_history",
        ):
            check_integer(getattr(self, name), name, minimum=1)
        if self.max_steps_per_session is not None:
            check_integer(self.max_steps_per_session, "max_steps_per_session", minimum=1)
        check_positive(self.size_scale, "size_scale", finite=True)
        check_positive(self.max_delay_ms, "max_delay_ms", finite=True)
        check_non_negative(self.flush_timeout_ms, "flush_timeout_ms")
        _check_deadline(self.deadline_ms)
        if not 0.0 < self.miss_threshold <= 1.0:
            raise ValueError("miss_threshold must be in (0, 1]")

    @classmethod
    def from_amoeba(cls, config: AmoebaConfig, size_scale: float, **overrides) -> "ServeConfig":
        """Derive the serving bounds from a training configuration."""
        return cls(
            size_scale=float(size_scale),
            min_packet_bytes=config.min_packet_bytes,
            max_delay_ms=config.max_delay_ms,
            max_truncations_per_packet=config.max_truncations_per_packet,
            **overrides,
        )

    def with_overrides(self, **overrides) -> "ServeConfig":
        return replace(self, **overrides)


_SHAPING_BOUNDS = ("size_scale", "min_packet_bytes", "max_delay_ms", "max_truncations_per_packet")


def _check_shaping_bounds(metadata: dict, config: ServeConfig) -> None:
    """Refuse a serving config whose shaping bounds differ from the ones a
    checkpoint was trained under: the same action would emit other bytes."""
    for key in _SHAPING_BOUNDS:
        if key in metadata and float(metadata[key]) != float(getattr(config, key)):
            raise ValueError(
                f"checkpoint was trained with {key}={metadata[key]!r}, "
                f"but the serving config has {key}={getattr(config, key)!r}"
            )


def _check_deadline(deadline_ms: Optional[float]) -> None:
    """Refuse a decision deadline that is neither ``None`` nor a finite
    number of milliseconds ``>= 0``: a negative one misses every decision
    and a NaN one never misses."""
    if deadline_ms is not None and not 0.0 <= float(deadline_ms) < math.inf:
        raise ValueError(f"deadline_ms must be None or finite and >= 0, got {deadline_ms}")


def build_policy_from_state(
    state: Dict[str, np.ndarray]
) -> Tuple[GaussianActor, StateEncoder]:
    """Reconstruct the actor and state encoder from a policy checkpoint.

    The combined ``actor.* / critic.* / encoder.*`` layout written by
    ``Amoeba.save_policy`` carries enough shape information to rebuild both
    serving-relevant modules without metadata: the encoder's hidden size and
    layer count from the packed GRU parameters, the actor's MLP widths from
    the ``body.layerK.weight`` matrices.  (The critic is training-only and
    ignored.)  Legacy per-gate checkpoints work too — ``load_state_dict``
    packs them before this function sees the arrays.
    """
    groups = split_prefixed_state(state)
    missing = {"actor", "encoder"} - set(groups)
    if missing:
        raise ValueError(f"checkpoint lacks required prefixes: {sorted(missing)}")
    # Refused before any session opens: a dtype cast silently, NaN / inf.
    for prefix in ("actor", "encoder"):
        for name, value in groups[prefix].items():
            value = np.asarray(value)
            if not np.issubdtype(value.dtype, np.floating):
                raise CheckpointError(
                    f"checkpoint parameter {prefix}.{name} has dtype {value.dtype}"
                )
            if not np.isfinite(value).all():
                raise CheckpointError(f"checkpoint parameter {prefix}.{name} is not finite")

    encoder_state = groups["encoder"]
    cell_names = {key.split(".")[1] for key in encoder_state if key.startswith("gru.cell")}
    if not cell_names:
        raise ValueError("encoder state carries no gru.cell* parameters")
    num_layers = len(cell_names)
    hidden_size = int(np.asarray(encoder_state["gru.cell0.w_h"]).shape[0])
    encoder = StateEncoder(
        hidden_size=hidden_size, num_layers=num_layers, rng=np.random.default_rng(0)
    )
    encoder.load_state_dict(encoder_state)

    actor_state = groups["actor"]
    layer_indices = sorted(
        int(key.split(".")[1][len("layer"):])
        for key in actor_state
        if key.startswith("body.layer") and key.endswith(".weight")
    )
    if not layer_indices:
        raise ValueError("actor state carries no body.layer*.weight parameters")
    weights = [np.asarray(actor_state[f"body.layer{i}.weight"]) for i in layer_indices]
    state_dim = int(weights[0].shape[0])
    action_dim = int(weights[-1].shape[1])
    if state_dim != 2 * hidden_size:
        raise ValueError(
            f"checkpoint inconsistent: actor expects state_dim={state_dim}, "
            f"encoder produces {2 * hidden_size}"
        )
    actor = GaussianActor(
        state_dim=state_dim,
        action_dim=action_dim,
        hidden_dims=tuple(int(w.shape[1]) for w in weights[:-1]),
        rng=np.random.default_rng(0),
    )
    actor.load_state_dict(actor_state)
    encoder.eval()
    return actor, encoder


def _pair_slab(pairs: List[Tuple[float, float]]) -> np.ndarray:
    """``np.array(pairs)`` for a list of ``(float, float)`` pairs, read in one
    flat pass (at a full batch of 16 pairs it takes half the time)."""
    flat = np.fromiter(itertools.chain.from_iterable(pairs), np.float64, 2 * len(pairs))
    return flat.reshape(-1, 2)


def summarize_stats(stats: Dict[str, object]) -> Dict[str, float]:
    """Percentile / rate summary of a :meth:`PolicyServer.stats` dict.

    Works on several servers' stats merged by summing scalars and
    concatenating lists.
    """
    latencies = np.asarray(stats.get("latencies_ms", ()), dtype=np.float64)
    opened = int(stats.get("sessions_opened", 0))
    decisions = int(stats.get("decisions", 0))
    overheads = list(stats.get("fallback_data_overheads", ()))
    embedded = list(stats.get("fallback_fully_embedded", ()))
    return {
        "decisions": float(decisions),
        "p50_latency_ms": float(np.percentile(latencies, 50)) if latencies.size else 0.0,
        "p99_latency_ms": float(np.percentile(latencies, 99)) if latencies.size else 0.0,
        "deadline_miss_rate": (
            float(stats.get("deadline_misses", 0)) / decisions if decisions else 0.0
        ),
        "profile_fallback_rate": (
            float(stats.get("sessions_demoted", 0)) / opened if opened else 0.0
        ),
        "fallback_data_overhead": float(np.mean(overheads)) if overheads else 0.0,
        "fallback_fully_embedded_rate": float(np.mean(embedded)) if embedded else 1.0,
    }


class PolicyServer:
    """Online serving tier: concurrent sessions + continuous batching.

    Parameters
    ----------
    actor, encoder:
        The policy being served (typically reconstructed from a checkpoint
        via :meth:`from_checkpoint`).  Decisions are deterministic (the
        Gaussian mean) — serving never explores.
    config:
        :class:`ServeConfig` shaping bounds and scheduler knobs.
    profile_db:
        Optional :class:`~repro.core.profiles.ProfileDatabase` backing the
        offline fallback tier.  Demoted sessions have their remaining
        payload embedded into stored profiles at close time; without a
        database demotion is still tracked (fallback rate), the embedding
        overhead just goes unreported.
    clock:
        Monotonic-seconds callable (injectable for deterministic tests).
    """

    def __init__(
        self,
        actor: GaussianActor,
        encoder: StateEncoder,
        config: Optional[ServeConfig] = None,
        profile_db: Optional[ProfileDatabase] = None,
        clock: Callable[[], float] = time.perf_counter,
        rng=None,
    ) -> None:
        self.actor = actor
        self.encoder = encoder
        self.config = config or ServeConfig()
        self.profile_db = profile_db
        self._clock = clock
        self._rng = ensure_rng(rng if rng is not None else 0)
        self._scheduler = ContinuousBatchScheduler(
            max_batch=self.config.max_batch,
            flush_timeout_ms=self.config.flush_timeout_ms,
        )
        self._sessions: Dict[str, FlowSession] = {}
        self._table = SessionTable(encoder.num_layers, encoder.hidden_size)
        self._session_counter = itertools.count()
        self._outbox: List[ShapingDecision] = []
        self._reports: List[SessionReport] = []

        # Lifetime counters (the stats() payload).  Demotions are not
        # counted here: stats() derives them from session/report status so
        # the metric stays authoritative however a session was demoted
        # (deadline tracker or an operator calling FlowSession.demote()).
        self._sessions_opened = 0
        self._sessions_closed = 0
        self._decisions = 0
        self._deadline_misses = 0
        self._flushes = 0
        self._latencies_ms: Deque[float] = deque(maxlen=self.config.latency_history)

    # ------------------------------------------------------------------ #
    # Construction from a checkpoint
    # ------------------------------------------------------------------ #
    @classmethod
    def from_checkpoint(
        cls,
        path,
        config: Optional[ServeConfig] = None,
        profile_db: Optional[ProfileDatabase] = None,
        clock: Callable[[], float] = time.perf_counter,
        rng=None,
    ) -> "PolicyServer":
        """Build a server from an ``Amoeba.save_policy`` checkpoint.

        A checkpoint that records its training-time shaping bounds is
        refused under a ``config`` whose bounds differ, before any session
        opens; one that records none (every archive written before the
        bounds were) serves under any ``config``.
        """
        config = config or ServeConfig()
        _check_shaping_bounds(load_metadata(path), config)
        actor, encoder = build_policy_from_state(load_state_dict(path))
        return cls(
            actor, encoder, config=config, profile_db=profile_db, clock=clock, rng=rng
        )

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #
    @property
    def pending_decisions(self) -> int:
        return self._scheduler.pending

    def session(self, session_id: str) -> FlowSession:
        return self._sessions[session_id]

    def open_session(
        self,
        session_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        protocol: str = "live",
    ) -> str:
        """Admit a new flow; returns its session id.

        ``deadline_ms`` overrides the server-wide decision deadline for this
        flow (e.g. its observed inter-packet gap); ``None`` inherits
        ``config.deadline_ms``.  It is checked as ``ServeConfig`` checks its
        own.
        """
        _check_deadline(deadline_ms)
        if session_id is None:
            session_id = f"s{next(self._session_counter)}"
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already open")
        config = self.config
        self._sessions[session_id] = FlowSession(
            session_id,
            self._table,
            self._table.acquire(),
            PacketShaper(
                config.size_scale,
                config.min_packet_bytes,
                config.max_delay_ms,
                config.max_truncations_per_packet,
                config.max_steps_per_session,
            ),
            deadline_ms=config.deadline_ms if deadline_ms is None else deadline_ms,
            miss_window=config.miss_window,
            miss_threshold=config.miss_threshold,
            protocol=protocol,
        )
        self._sessions_opened += 1
        return session_id

    def submit(self, session_id: str, size: float, delay_ms: float) -> None:
        """Offer one original packet of a live flow for shaping.

        Enqueues a decision request when the session is idle; a full queue
        triggers an immediate flush (the batch-size admission rule), while
        timeout-based flushing happens in :meth:`poll`.
        """
        session = self._sessions[session_id]
        session.enqueue(size, delay_ms)
        if session.arm_next():
            self._scheduler.submit(
                DecisionRequest(session_id, self._clock())
            )
        if self._scheduler.pending >= self.config.max_batch:
            self.flush()

    def close_session(self, session_id: str) -> SessionReport:
        """Close a flow: drain nothing, drop pending work, embed fallbacks."""
        session = self._sessions.pop(session_id)
        self._scheduler.drop_session(session_id)
        if session.status != SessionStatus.CLOSED:
            payload = session.profile_payload()
            if payload is not None and self.profile_db is not None and len(self.profile_db):
                session.profile_result = self.profile_db.embed_flow(payload, rng=self._rng)
        report = session.close()
        self._table.release(session.slot)
        self._sessions_closed += 1
        self._reports.append(report)
        return report

    def close_all(self) -> List[SessionReport]:
        """Drain pending decisions, then close every remaining session."""
        self.drain()
        return [self.close_session(sid) for sid in list(self._sessions)]

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #
    def poll(self) -> List[ShapingDecision]:
        """Flush if the batch is full or the oldest request timed out."""
        if self._scheduler.ready(self._clock()):
            return self.flush()
        return []

    def drain(self) -> List[ShapingDecision]:
        """Flush until no decision is pending (end-of-run barrier)."""
        decisions: List[ShapingDecision] = []
        while self._scheduler.pending:
            decisions.extend(self.flush())
        return decisions

    def take_decisions(self) -> List[ShapingDecision]:
        """Decisions accumulated since the last call (streaming consumers)."""
        outbox, self._outbox = self._outbox, []
        return outbox

    def flush(self) -> List[ShapingDecision]:
        """Serve one batch: fold observations, one actor forward, apply.

        The whole batch shares one ``step_pairs`` call per encoder stream
        and one deterministic ``act_batch`` forward; row-consistent matmuls
        make each session's row independent of the batch composition.  The
        streams are rows of the resident session table: gathered by slot
        (a copy), stepped, scattered back.  There are two encoder steps and
        not one ``2n``-row step because the action fold needs the actor's
        answer; it runs after the decisions are stamped, so it is not part
        of their latency.

        All-or-nothing: a batch that names a session twice or a session
        whose observation is not armed (``RuntimeError``), or that the
        policy answers with a non-finite action (``ValueError``), is put
        back at the front of the queue with table and sessions untouched.
        """
        batch = self._scheduler.take_batch()
        # One pass over the batch: sessions may have left the online tier
        # (demotion, close) between enqueue and flush; their requests are
        # dropped silently.
        open_sessions = self._sessions
        live = [
            (request, session)
            for request in batch
            if (session := open_sessions.get(request.session_id)) is not None
            and session.online
            and session.in_flight
        ]
        if not live:
            return []
        requests, sessions = zip(*live)
        slots = [session.slot for session in sessions]
        # What the scatter rests on: distinct slots (a duplicate would keep
        # one of two rows, silently) and one unfolded observation per row.
        if len(set(slots)) != len(slots):
            self._scheduler.put_back(batch)
            raise RuntimeError(
                f"a batch names a session twice: {[request.session_id for request in requests]}"
            )
        unarmed = [s.session_id for s in sessions if not s.observation_pending_fold]
        if unarmed:
            self._scheduler.put_back(batch)
            raise RuntimeError(f"a pending request's session has no armed observation: {unarmed}")
        slots = np.array(slots)
        hidden = self._table.hidden

        # 1) Fold the newly armed observations: one batched GRU step on the
        # batch's rows of stream 0, from one array of the sessions' float
        # pairs.  The fancy index is the copy (the table is untouched until
        # the commit below); it comes back slot-major, so it is made
        # row-contiguous once here instead of once per GEMM.  (``take`` on
        # the strided stream view would copy the whole stream first.)
        observations = _pair_slab([s.current_observation() for s in sessions])
        folded = self.encoder.step_pairs(observations, np.ascontiguousarray(hidden[:, 0, slots]))

        # 2) One deterministic policy forward for the whole batch, from the
        # top GRU layer of each stream (s_t = E(x_1:t) || E(a_1:t)).
        states = np.concatenate([folded[-1], hidden[-1, 1, slots]], axis=1)
        actions, _ = self.actor.act_batch(states)
        if not np.isfinite(actions).all():
            self._scheduler.put_back(batch)
            bad = np.flatnonzero(~np.isfinite(actions).all(axis=1))
            raise ValueError(
                f"non-finite action for sessions {[sessions[row].session_id for row in bad]}; "
                "nothing was committed and the batch is back in the queue"
            )

        # Every check passed: commit.
        self._flushes += 1

        # 3+4) Apply actions through the per-session emulator, then fold the
        # emitted actions (one batched GRU step on one array of the
        # decisions' recorded pairs).  The answer is stamped first; both
        # scatters sit behind it.  The counters and the latency window take
        # the whole batch at once.
        now = self._clock()
        hidden[:, 0, slots] = folded
        latencies = [max(0.0, (now - request.enqueued_at) * 1000.0) for request in requests]
        decisions = [
            session.apply_action(action, latency_ms)
            for session, action, latency_ms in zip(sessions, actions.tolist(), latencies)
        ]
        self._decisions += len(decisions)
        self._latencies_ms.extend(latencies)
        self._deadline_misses += sum([decision.deadline_missed for decision in decisions])

        recorded = _pair_slab([decision.recorded_action for decision in decisions])
        hidden[:, 1, slots] = self.encoder.step_pairs(
            recorded, np.ascontiguousarray(hidden[:, 1, slots])
        )

        # 5) Re-arm follow-up work: truncation remainders continue the same
        #    packet; completed packets pull the next one from the backlog.
        requeue_at = self._clock()
        for session in sessions:
            if session.online and (session.in_flight or session.arm_next()):
                self._scheduler.submit(DecisionRequest(session.session_id, requeue_at))
        self._outbox.extend(decisions)
        return decisions

    # ------------------------------------------------------------------ #
    # Stats
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Raw counters (mergeable across servers; see :func:`summarize_stats`).

        Scalars sum and lists concatenate under a merge of several servers'
        stats, which is why the fallback embedding results are kept as raw
        per-result lists rather than pre-averaged rates (averages of
        averages would weight empty servers).  ``latencies_ms`` is the recent window of
        ``config.latency_history`` decisions, so long-running servers keep
        stats() cheap; the counters cover the full lifetime.
        """
        profile_results = [
            report.profile_result
            for report in self._reports
            if report.profile_result is not None
        ]
        demoted = sum(1 for report in self._reports if report.demoted) + sum(
            1
            for session in self._sessions.values()
            if session.status == SessionStatus.DEMOTED
        )
        return {
            "sessions_opened": self._sessions_opened,
            "sessions_closed": self._sessions_closed,
            "sessions_demoted": demoted,
            "sessions_live": len(self._sessions),
            "decisions": self._decisions,
            "deadline_misses": self._deadline_misses,
            "flushes": self._flushes,
            "latencies_ms": list(self._latencies_ms),
            "fallback_data_overheads": [r.data_overhead for r in profile_results],
            "fallback_fully_embedded": [bool(r.fully_embedded) for r in profile_results],
        }

    def reports(self) -> List[SessionReport]:
        return list(self._reports)

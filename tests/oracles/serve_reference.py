"""Equivalence oracle: the stack / split serving flush, verbatim.

This is ``PolicyServer.flush`` and the per-session ``EncoderState`` storage
as they stood before the serving tier moved its encoder state into one
resident :class:`~repro.serve.session.SessionTable`: every session holds an
``observation_state`` / ``action_state`` pair of its own, and every flush
stacks each stream into a ``(num_layers, n, hidden)`` slab, steps it, and
splits the result back into owning copies.  It is kept only as the reference
the bitwise tests in ``tests/test_serve_table.py`` and the schedule property
in ``tests/test_properties.py`` compare production against -- do not optimise
or "fix" it (in particular it is *not* all-or-nothing: a non-finite action
raises from the middle of its apply loop, which is the hang the production
flush was changed to prevent).

``ReferencePolicyServer.flush`` and the three ``ReferenceFlowSession``
members are the parent's bodies, unedited except that the telemetry spans
and instruments they once fed are gone and the lifetime counters are plain
integers, as in production; ``open_session`` / ``close_session`` are the
parent's too, except that they build the reference session, have no slot
to take or return, and hand the session the
:class:`~repro.core.env.PacketShaper` production's ``open_session`` builds
(the parent passed the retired ``SessionLimits``).
``ReferenceFlowSession._stream`` is new: it hands out the session's own
states, so :func:`hidden_states` reads a reference and a production session
alike.  Everything else -- the emulator, the scheduler, deadline tracking,
reports -- is inherited from production,
which is the point: only the state storage and the flush differ.

:class:`LockstepServers` is the harness both test modules drive: one
production server and one reference server behind identical fake clocks,
every operation applied to both, decision streams and per-session hidden
state compared bit for bit after each.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.env import PacketShaper
from repro.core.state_encoder import EncoderState
from repro.serve.scheduler import DecisionRequest
from repro.serve.server import PolicyServer, ServeConfig
from repro.serve.session import FlowSession, SessionReport, SessionStatus, ShapingDecision

from .encoder_states import split_states, stack_states

__all__ = [
    "ReferenceFlowSession",
    "ReferencePolicyServer",
    "LockstepServers",
    "assert_same_decision",
    "assert_same_report",
    "bits",
    "hidden_states",
]


class ReferenceFlowSession(FlowSession):
    """A session that stores its two encoder states itself."""

    def __init__(self, session_id, encoder, shaper, **kwargs) -> None:
        super().__init__(session_id, None, None, shaper, **kwargs)
        # Incremental dual-stream encoder state (s_t = E(x_1:t) || E(a_1:t)).
        self.observation_state = encoder.initial_state()
        self.action_state = encoder.initial_state()

    def mark_observation_folded(self, state: EncoderState) -> None:
        self.observation_state = state
        self._observation_armed = False

    def state_vector(self) -> np.ndarray:
        """Current policy input ``s_t = E(x_1:t) || E(a_1:t)``."""
        return np.concatenate(
            [self.observation_state.representation, self.action_state.representation]
        )

    def mark_action_folded(self, state: EncoderState) -> None:
        self.action_state = state

    def _stream(self, stream: int) -> np.ndarray:
        return (self.observation_state, self.action_state)[stream].hidden


class ReferencePolicyServer(PolicyServer):
    """``PolicyServer`` with the parent's stack / split flush."""

    def open_session(
        self,
        session_id: Optional[str] = None,
        deadline_ms: Optional[float] = None,
        protocol: str = "live",
    ) -> str:
        if session_id is None:
            session_id = f"s{next(self._session_counter)}"
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already open")
        config = self.config
        self._sessions[session_id] = ReferenceFlowSession(
            session_id,
            self.encoder,
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

    def close_session(self, session_id: str) -> SessionReport:
        session = self._sessions.pop(session_id)
        self._scheduler.drop_session(session_id)
        if session.status != SessionStatus.CLOSED:
            payload = session.profile_payload()
            if payload is not None and self.profile_db is not None and len(self.profile_db):
                session.profile_result = self.profile_db.embed_flow(payload, rng=self._rng)
        report = session.close()
        self._sessions_closed += 1
        self._reports.append(report)
        return report

    def flush(self) -> List[ShapingDecision]:
        """Serve one batch: fold observations, one actor forward, apply.

        The whole batch shares one ``step_pairs`` call per encoder stream
        and one deterministic ``act_batch`` forward; row-consistent matmuls
        make each session's row independent of the batch composition.
        """
        batch = self._scheduler.take_batch()
        # Sessions may have left the online tier (demotion, close) between
        # enqueue and flush; their requests are dropped silently.
        live: List[Tuple[DecisionRequest, FlowSession]] = [
            (request, self._sessions[request.session_id])
            for request in batch
            if request.session_id in self._sessions
        ]
        live = [
            (request, session)
            for request, session in live
            if session.online and session.in_flight
        ]
        if not live:
            return []
        self._flushes += 1
        # Sessions own their encoder state; the flush stacks each stream
        # once into a (num_layers, n, hidden) slab, steps the slab, and
        # copies the new rows back out (see ``split_states``).
        sessions = [session for _, session in live]

        # 1) Fold the newly armed observations (one batched GRU step).
        observation_hidden = stack_states([s.observation_state for s in sessions])
        fold_rows = [row for row, s in enumerate(sessions) if s.observation_pending_fold]
        if fold_rows:
            observations = np.array([sessions[row].current_observation() for row in fold_rows])
            folded = self.encoder.step_pairs(observations, observation_hidden[:, fold_rows])
            observation_hidden[:, fold_rows] = folded
            for row, state in zip(fold_rows, split_states(folded)):
                sessions[row].mark_observation_folded(state)

        # 2) One deterministic policy forward for the whole batch, from the
        # top GRU layer of each stream (s_t = E(x_1:t) || E(a_1:t)).
        action_hidden = stack_states([s.action_state for s in sessions])
        states = np.concatenate([observation_hidden[-1], action_hidden[-1]], axis=1)
        actions, _ = self.actor.act_batch(states)

        # 3+4) Apply actions through the per-session emulator, then fold the
        # emitted actions (one batched GRU step).
        now = self._clock()
        decisions: List[ShapingDecision] = []
        for row, (request, session) in enumerate(live):
            latency_ms = max(0.0, (now - request.enqueued_at) * 1000.0)
            decision = session.apply_action(actions[row], latency_ms=latency_ms)
            decisions.append(decision)
            self._decisions += 1
            self._latencies_ms.append(decision.latency_ms)
            if decision.deadline_missed:
                self._deadline_misses += 1

        recorded = np.array([decision.recorded_action for decision in decisions])
        folded_actions = split_states(self.encoder.step_pairs(recorded, action_hidden))
        for session, state in zip(sessions, folded_actions):
            session.mark_action_folded(state)

        # 5) Re-arm follow-up work: truncation remainders continue the same
        #    packet; completed packets pull the next one from the backlog.
        requeue_at = self._clock()
        for _, session in live:
            if not session.online:
                continue
            if session.in_flight or session.arm_next():
                self._scheduler.submit(
                    DecisionRequest(session_id=session.session_id, enqueued_at=requeue_at)
                )
        self._outbox.extend(decisions)
        return decisions


def bits(array) -> np.ndarray:
    return np.ascontiguousarray(array, dtype=np.float64).view(np.uint64)


class _FakeClock:
    """Advances a fixed amount per read, so latencies (and with a deadline,
    demotions) are a function of how often each server reads it."""

    def __init__(self, tick_s: float) -> None:
        self.t = 0.0
        self.tick_s = tick_s

    def __call__(self) -> float:
        self.t += self.tick_s
        return self.t


class LockstepServers:
    """The table server and the reference server, driven as one.

    Every method applies the same operation to both and then asserts that
    they agree: the decisions the operation produced (session, step, kind,
    emitted size and delay, recorded action, latency, deadline verdict --
    floats by ``view(np.uint64)``), every open session's two hidden states,
    its ``state_vector()`` and its life-cycle flags, the queue depth and the
    ``stats()`` counters.  ``decisions`` accumulates the stream.
    """

    def __init__(self, policy, config: ServeConfig, tick_s: float = 0.0, **kwargs) -> None:
        actor, encoder = policy
        self.table = PolicyServer(actor, encoder, config=config, clock=_FakeClock(tick_s), **kwargs)
        self.reference = ReferencePolicyServer(
            actor, encoder, config=config, clock=_FakeClock(tick_s), **kwargs
        )
        self.decisions: List[ShapingDecision] = []

    # -- operations ---------------------------------------------------- #
    def open(self, session_id: str, **kwargs) -> None:
        self.table.open_session(session_id, **kwargs)
        self.reference.open_session(session_id, **kwargs)
        self.check()

    def submit(self, session_id: str, size: float, delay_ms: float) -> None:
        self.table.submit(session_id, size, delay_ms)
        self.reference.submit(session_id, size, delay_ms)
        self.check()

    def poll(self) -> None:
        self.table.poll()
        self.reference.poll()
        self.check()

    def drain(self) -> None:
        self.table.drain()
        self.reference.drain()
        self.check()

    def demote(self, session_id: str) -> None:
        self.table.session(session_id).demote()
        self.reference.session(session_id).demote()
        self.check()

    def close(self, session_id: str) -> Tuple[SessionReport, SessionReport]:
        got = self.table.close_session(session_id)
        want = self.reference.close_session(session_id)
        assert_same_report(got, want)
        self.check()
        return got, want

    # -- comparison ---------------------------------------------------- #
    def check(self) -> None:
        got, want = self.table.take_decisions(), self.reference.take_decisions()
        assert len(got) == len(want)
        for ours, theirs in zip(got, want):
            assert_same_decision(ours, theirs)
        self.decisions.extend(got)
        assert self.table.pending_decisions == self.reference.pending_decisions
        assert sorted(self.table._sessions) == sorted(self.reference._sessions)
        for session_id, ours in self.table._sessions.items():
            theirs = self.reference._sessions[session_id]
            for got, want in zip(hidden_states(ours), hidden_states(theirs)):
                assert np.array_equal(bits(got), bits(want)), session_id
            assert np.array_equal(bits(ours.state_vector()), bits(theirs.state_vector()))
            assert (ours.status, ours.in_flight, ours.backlog, ours.n_decisions) == (
                theirs.status,
                theirs.in_flight,
                theirs.backlog,
                theirs.n_decisions,
            ), session_id
        ours, theirs = self.table.stats(), self.reference.stats()
        for key in ours:
            if key == "latencies_ms":
                assert np.array_equal(bits(ours[key]), bits(theirs[key]))
            else:
                assert ours[key] == theirs[key], key


def hidden_states(session: FlowSession) -> Tuple[np.ndarray, np.ndarray]:
    """A session's ``(observation, action)`` hidden stacks, every layer, as copies.

    Production reads them out of its table slot (a closed session raises);
    the reference session holds them itself.
    """
    return session._stream(0).copy(), session._stream(1).copy()


def assert_same_decision(got: ShapingDecision, want: ShapingDecision) -> None:
    assert (got.session_id, got.step, got.kind, got.deadline_missed) == (
        want.session_id,
        want.step,
        want.kind,
        want.deadline_missed,
    )
    assert np.array_equal(
        bits([got.emitted_size, got.emitted_delay_ms, got.latency_ms]),
        bits([want.emitted_size, want.emitted_delay_ms, want.latency_ms]),
    )
    assert np.array_equal(bits(got.recorded_action), bits(want.recorded_action))


def assert_same_report(got: SessionReport, want: SessionReport) -> None:
    for name in (
        "session_id",
        "status",
        "demoted",
        "n_decisions",
        "n_packets_in",
        "deadline_misses",
        "unserved_packets",
    ):
        assert getattr(got, name) == getattr(want, name), name
    assert np.array_equal(
        bits([got.payload_bytes, got.emitted_bytes, got.added_delay_ms]),
        bits([want.payload_bytes, want.emitted_bytes, want.added_delay_ms]),
    )
    assert (got.shaped_flow is None) == (want.shaped_flow is None)
    if got.shaped_flow is not None:
        assert np.array_equal(bits(got.shaped_flow.sizes), bits(want.shaped_flow.sizes))
        assert np.array_equal(bits(got.shaped_flow.delays), bits(want.shaped_flow.delays))
    assert (got.profile_result is None) == (want.profile_result is None)
    if got.profile_result is not None:
        assert got.profile_result.data_overhead == want.profile_result.data_overhead

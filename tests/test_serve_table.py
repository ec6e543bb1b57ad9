"""The serving tier's resident session table, bit for bit.

``PolicyServer`` keeps every live session's encoder state in one
``(num_layers, 2, capacity, hidden)`` slab and its flush gathers and scatters
rows by slot.  The contract under test: decision streams and per-session
hidden state are **bit-identical** (``view(np.uint64)``) to the stack / split
flush kept verbatim in ``tests/oracles/serve_reference.py`` — across batch
sizes, slot reuse, slab growth, demotion, step-budget closure and a close
with a request pending — and a flush is all-or-nothing when the policy
answers with a non-finite action or the batch violates what the scatter
rests on.
"""

import numpy as np
import pytest

from oracles.serve_reference import LockstepServers, assert_same_decision, bits, hidden_states
from repro.core import GaussianActor, StateEncoder
from repro.serve import (
    DecisionRequest,
    PolicyServer,
    ServeConfig,
    SessionStatus,
    SyntheticWorkload,
)
from repro.serve import session as session_module

ENCODER_HIDDEN = 8


@pytest.fixture(scope="module")
def policy():
    rng = np.random.default_rng(0)
    encoder = StateEncoder(hidden_size=ENCODER_HIDDEN, num_layers=2, rng=rng)
    actor = GaussianActor(state_dim=2 * ENCODER_HIDDEN, hidden_dims=(16,), rng=rng)
    return actor, encoder


@pytest.fixture(scope="module")
def workload():
    """The default Tor / HTTPS / V2Ray mix (all three protocols present)."""
    generated = SyntheticWorkload.generate(
        n_sessions=12, arrival_rate_pps=800.0, max_packets=12, rng=23
    )
    assert set(generated.protocols.values()) == {"tor", "https", "v2ray"}
    return generated


def config(**overrides):
    return ServeConfig(size_scale=1460.0, flush_timeout_ms=0.0, **overrides)


def make_server(policy, **overrides):
    """A table server on a frozen clock (latencies are then comparable too)."""
    actor, encoder = policy
    return PolicyServer(actor, encoder, config=config(**overrides), clock=lambda: 0.0)


def run_lockstep(servers, workload, close=True):
    for session_id in workload.flows:
        servers.open(session_id, protocol=workload.protocols[session_id])
    for event in workload.events:
        servers.submit(event.session_id, event.size, event.delay_ms)
        servers.poll()
    servers.drain()
    if close:
        for session_id in list(workload.flows):
            servers.close(session_id)
    return servers.decisions


def serve_alone(policy, packets, session_id="s", **overrides):
    """One session on a fresh server: its decisions and final hidden states."""
    server = make_server(policy, max_batch=4, **overrides)
    server.open_session(session_id)
    for size, delay in packets:
        server.submit(session_id, size, delay)
    decisions = server.drain()
    return (decisions, *hidden_states(server.session(session_id)))


PACKETS = [(900.0, 0.0), (-1460.0, 3.0), (300.0, 1.5), (-80.0, 0.25), (5000.0, 12.0)]


# --------------------------------------------------------------------- #
# The numpy behaviour the table rests on
# --------------------------------------------------------------------- #
def test_fancy_gather_copies_and_scatter_writes_rows():
    """Pins the indexing facts ``PolicyServer.flush`` relies on, checked on
    numpy 1.24 through 2.4.  Gathering slots out of one stream of the table,
    ``table[:, 0, slots]``, yields a ``(num_layers, n, hidden)`` array with
    memory of its own whose row *i* is slot ``slots[i]`` (not necessarily
    C-contiguous: the flush passes it through ``np.ascontiguousarray``, which
    must not bring the table back either); ``table[:, 0, slots] = x`` with
    distinct slots writes row *i* of ``x`` to slot ``slots[i]`` and touches no
    other slot and not the other stream.  If the gather ever returned a view,
    stepping a batch would corrupt the table when a flush is rejected; if
    the scatter reordered or skipped rows, sessions would swap or lose
    encoder state silently."""
    rng = np.random.default_rng(0)
    table = rng.normal(size=(2, 2, 16, 5))
    before = table.copy()
    slots = np.array([9, 2, 15, 0, 7])

    for stream in (0, 1):
        for gathered in (
            table[:, stream, slots],
            np.ascontiguousarray(table[:, stream, slots]),
            table[-1, stream, slots][None],
        ):
            assert gathered.shape[1:] == (5, 5)
            assert not np.shares_memory(gathered, table)
            for row, slot in enumerate(slots):
                assert np.array_equal(
                    bits(gathered[:, row]), bits(before[-len(gathered) :, stream, slot])
                )
            gathered[:] = 99.0
            assert np.array_equal(bits(table), bits(before))
        assert np.ascontiguousarray(table[:, stream, slots]).flags.c_contiguous

    fresh = rng.normal(size=(2, 5, 5))
    table[:, 0, slots] = fresh
    for row, slot in enumerate(slots):
        assert np.array_equal(bits(table[:, 0, slot]), bits(fresh[:, row]))
    untouched = np.setdiff1d(np.arange(16), slots)
    assert np.array_equal(bits(table[:, 0, untouched]), bits(before[:, 0, untouched]))
    assert np.array_equal(bits(table[:, 1]), bits(before[:, 1]))


# --------------------------------------------------------------------- #
# Table server ≡ stack / split oracle
# --------------------------------------------------------------------- #
class TestTableMatchesOracle:
    @pytest.mark.parametrize("max_batch", [1, 4, 16])
    def test_default_mix_streams_and_states(self, policy, workload, max_batch):
        """Decision streams (sizes, delays, recorded action, kind, step) and
        every session's hidden state, after every operation."""
        decisions = run_lockstep(LockstepServers(policy, config(max_batch=max_batch)), workload)
        assert len(decisions) >= workload.n_packets
        assert {decision.kind for decision in decisions} >= {"truncation", "padding"}

    def test_demotion_mid_stream(self, policy, workload):
        """Deadline misses demote sessions while others stay online; the
        profile payloads and reports match too."""
        servers = LockstepServers(
            policy,
            config(max_batch=4, deadline_ms=6.0, miss_window=3, miss_threshold=0.6),
            tick_s=0.002,
        )
        run_lockstep(servers, workload)
        stats = servers.table.stats()
        assert 0 < stats["sessions_demoted"]
        assert stats["deadline_misses"] > 0

    def test_operator_demotion_with_request_pending(self, policy):
        servers = LockstepServers(policy, config(max_batch=8))
        for name in ("a", "b", "c"):
            servers.open(name)
            servers.submit(name, 1200.0, 1.0)
        assert servers.table.pending_decisions == 3
        servers.demote("b")  # its queued request is dropped at flush
        servers.drain()
        servers.submit("b", 500.0, 1.0)  # goes to the profile payload
        servers.submit("a", -700.0, 2.0)
        servers.drain()
        assert servers.table.session("b").n_decisions == 0
        for name in ("a", "b", "c"):
            servers.close(name)

    def test_step_budget_closure(self, policy, workload):
        servers = LockstepServers(policy, config(max_batch=4, max_steps_per_session=5))
        for session_id in workload.flows:
            servers.open(session_id)
        for event in workload.events:
            if not servers.table.session(event.session_id).closed:  # else: rejects packets
                servers.submit(event.session_id, event.size, event.delay_ms)
        servers.drain()
        closed = [
            session
            for session in servers.table._sessions.values()
            if session.status == SessionStatus.CLOSED
        ]
        assert closed and all(session.n_decisions == 5 for session in closed)
        for session_id in list(workload.flows):
            got, _ = servers.close(session_id)
            assert got.n_decisions <= 5

    def test_close_with_request_pending(self, policy):
        servers = LockstepServers(policy, config(max_batch=8))
        for name in ("a", "b", "c"):
            servers.open(name)
            servers.submit(name, 2000.0, 1.0)
        slot = servers.table.session("b").slot
        got, _ = servers.close("b")
        assert got.unserved_packets == 1 and got.n_decisions == 0
        servers.open("d")  # takes b's slot while a and c are still queued
        assert servers.table.session("d").slot == slot
        servers.submit("d", -900.0, 0.5)
        servers.drain()
        for name in ("a", "c", "d"):
            servers.close(name)

    def test_growth_past_the_initial_capacity_mid_stream(self, policy):
        """More sessions than slots, opened while others are in flight: the
        slab doubles (twice here) and no bit changes."""
        capacity = session_module._INITIAL_CAPACITY
        servers = LockstepServers(policy, config(max_batch=16))
        rng = np.random.default_rng(5)
        names = [f"g{index}" for index in range(2 * capacity + 3)]
        for index, name in enumerate(names):
            servers.open(name)
            servers.submit(name, float(rng.choice([-1, 1]) * rng.integers(64, 4000)), 1.0)
            if index % 7 == 0:  # earlier sessions keep receiving packets
                servers.submit(names[index // 2], float(rng.integers(64, 3000)), 0.5)
        assert servers.table._table.capacity == 4 * capacity
        assert servers.table.pending_decisions > 0  # grown with requests in flight
        servers.drain()
        for name in names:
            servers.close(name)


# --------------------------------------------------------------------- #
# Slot life cycle
# --------------------------------------------------------------------- #
class TestSlotLifeCycle:
    def test_reused_slot_serves_the_bits_of_a_fresh_server(self, policy):
        """``close_session`` returns the slot and the next ``open_session``
        takes it: stale rows of the previous flow would show in the first
        decision already."""
        server = make_server(policy, max_batch=4)
        first = server.open_session("first")
        for size, delay in PACKETS:
            server.submit(first, -size, delay + 1.0)
        server.drain()
        slot = server.session(first).slot
        assert hidden_states(server.session(first))[0].any()
        server.close_session(first)

        second = server.open_session("second")
        assert server.session(second).slot == slot
        assert not any(state.any() for state in hidden_states(server.session(second)))
        for size, delay in PACKETS:
            server.submit(second, size, delay)
        reused = server.drain()
        fresh, observation, action = serve_alone(policy, PACKETS, session_id="second")
        assert len(reused) == len(fresh)
        for got, want in zip(reused, fresh):
            assert_same_decision(got, want)
        got_observation, got_action = hidden_states(server.session(second))
        assert np.array_equal(bits(got_observation), bits(observation))
        assert np.array_equal(bits(got_action), bits(action))

    def test_slots_are_distinct_and_recycled(self, policy):
        server = make_server(policy)
        ids = [server.open_session() for _ in range(10)]
        slots = [server.session(sid).slot for sid in ids]
        assert len(set(slots)) == 10
        for sid in ids[2:5]:
            server.close_session(sid)
        reopened = [server.session(server.open_session()).slot for _ in range(3)]
        assert sorted(reopened) == sorted(slots[2:5])
        assert server._table.capacity == session_module._INITIAL_CAPACITY

    def test_closed_session_no_longer_reads_the_table(self, policy):
        """Its slot may belong to another flow by now."""
        server = make_server(policy)
        sid = server.open_session()
        session = server.session(sid)
        server.close_session(sid)
        for read in (lambda: hidden_states(session), session.state_vector):
            with pytest.raises(RuntimeError, match="closed"):
                read()


# --------------------------------------------------------------------- #
# All-or-nothing flush
# --------------------------------------------------------------------- #
class TestFlushIsAllOrNothing:
    SIZES = (700.0, -1300.0, 2500.0, -400.0)

    def _server(self, policy, monkeypatch, poison_row=None):
        """Four sessions, ``max_batch=4``; optionally ``act_batch`` answers
        row ``poison_row`` with NaN, once."""
        actor = policy[0]
        server = make_server(policy, max_batch=4)
        if poison_row is not None:
            real = actor.act_batch
            calls = []

            def act_batch(states, **kwargs):
                actions, log_probs = real(states, **kwargs)
                if not calls:
                    actions = actions.copy()
                    actions[poison_row, 0] = np.nan
                calls.append(len(states))
                return actions, log_probs

            monkeypatch.setattr(actor, "act_batch", act_batch)
        ids = [server.open_session(f"s{index}") for index in range(4)]
        return server, ids

    def test_non_finite_action_commits_nothing_and_hangs_nobody(self, policy, monkeypatch):
        """At the parent this hung all four sessions: the fourth ``submit``
        flushed, row 2's ``apply_action`` raised after the queue had been
        emptied and rows 0-1 had advanced, their decisions never reached the
        outbox, and every session stayed ``in_flight`` with no request
        pending."""
        server, ids = self._server(policy, monkeypatch, poison_row=2)
        for sid, size in zip(ids[:3], self.SIZES):
            server.submit(sid, size, 1.0)
        table_before = server._table.hidden.copy()
        queue_before = list(server._scheduler._queue)
        with pytest.raises(ValueError, match="non-finite action"):
            server.submit(ids[3], self.SIZES[3], 1.0)  # fills the batch: flushes

        # The hang, stated: nobody may be in flight without a request pending.
        stranded = [
            sid
            for sid in ids
            if server.session(sid).in_flight
            and sid not in {request.session_id for request in server._scheduler._queue}
        ]
        assert not stranded
        # Table, sessions and queue are as before the flush.
        assert server.pending_decisions == 4
        assert list(server._scheduler._queue)[:3] == queue_before
        assert [request.session_id for request in server._scheduler._queue] == ids
        assert np.array_equal(bits(server._table.hidden), bits(table_before))
        assert server.take_decisions() == []
        for sid in ids:
            session = server.session(sid)
            assert session.n_decisions == 0 and session.in_flight and session.online
            assert session.observation_pending_fold
        assert server.stats()["flushes"] == 0 and server.stats()["decisions"] == 0

    def test_error_names_the_offending_sessions(self, policy, monkeypatch):
        server, ids = self._server(policy, monkeypatch, poison_row=2)
        for sid, size in zip(ids[:3], self.SIZES):
            server.submit(sid, size, 1.0)
        with pytest.raises(ValueError, match=r"non-finite action for sessions \['s2'\]"):
            server.submit(ids[3], self.SIZES[3], 1.0)

    def test_closing_the_offender_serves_the_rest_undisturbed(self, policy, monkeypatch):
        server, ids = self._server(policy, monkeypatch, poison_row=2)
        for sid, size in zip(ids[:3], self.SIZES):
            server.submit(sid, size, 1.0)
        with pytest.raises(ValueError):
            server.submit(ids[3], self.SIZES[3], 1.0)
        server.close_session(ids[2])
        served = server.drain()

        clean, clean_ids = self._server(policy, monkeypatch)
        for index in (0, 1, 3):
            clean.submit(clean_ids[index], self.SIZES[index], 1.0)
        expected = clean.drain()
        assert len(served) == len(expected) > 0
        for got, want in zip(served, expected):
            assert_same_decision(got, want)
        for index in (0, 1, 3):
            ours, theirs = server.session(ids[index]), clean.session(clean_ids[index])
            for got, want in zip(hidden_states(ours), hidden_states(theirs)):
                assert np.array_equal(bits(got), bits(want))
            assert not ours.in_flight

    def test_infinite_action_is_rejected_by_the_flush_too(self, policy, monkeypatch):
        """The emulator clamps ±inf, but a policy that emits it is broken:
        the flush refuses the batch instead of serving a saturated packet."""
        server, ids = self._server(policy, monkeypatch)
        actor = policy[0]
        real = actor.act_batch
        monkeypatch.setattr(
            actor,
            "act_batch",
            lambda states, **kw: (np.full((len(states), 2), np.inf), real(states, **kw)[1]),
        )
        server.submit(ids[0], 500.0, 1.0)
        with pytest.raises(ValueError, match=r"non-finite action for sessions \['s0'\]"):
            server.flush()
        assert server.pending_decisions == 1

    def test_duplicate_request_is_refused(self, policy, monkeypatch):
        """Nothing but the server's own discipline keeps the scheduler at one
        request per session; with a scatter a duplicate would silently keep
        one of two rows, so the flush checks."""
        server, ids = self._server(policy, monkeypatch)
        server.submit(ids[0], 900.0, 1.0)
        server.submit(ids[1], 900.0, 1.0)
        server._scheduler.submit(DecisionRequest(session_id=ids[0], enqueued_at=0.0))
        with pytest.raises(RuntimeError, match="names a session twice"):
            server.flush()
        assert server.pending_decisions == 3  # the batch went back
        assert server.session(ids[0]).n_decisions == 0
        server._scheduler._queue.pop()  # the operator removes the duplicate
        assert len(server.drain()) >= 2

    def test_request_without_an_armed_observation_is_refused(self, policy, monkeypatch):
        server, ids = self._server(policy, monkeypatch)
        server.submit(ids[0], 4000.0, 1.0)
        session = server.session(ids[0])
        session._observation_armed = False  # remaining bytes, but nothing to fold
        assert session.in_flight
        with pytest.raises(RuntimeError, match="no armed observation"):
            server.flush()
        assert server.pending_decisions == 1 and session.n_decisions == 0


# --------------------------------------------------------------------- #
# Scheduler put-back
# --------------------------------------------------------------------- #
def test_put_back_restores_order_ahead_of_later_requests():
    from repro.serve import ContinuousBatchScheduler

    scheduler = ContinuousBatchScheduler(max_batch=3, flush_timeout_ms=0.0)
    for name in "abcde":
        scheduler.submit(DecisionRequest(session_id=name, enqueued_at=0.0))
    batch = scheduler.take_batch()
    scheduler.put_back(batch)
    assert [request.session_id for request in scheduler._queue] == list("abcde")
    scheduler.put_back([])
    assert scheduler.pending == 5

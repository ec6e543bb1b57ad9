"""Tests for the online policy-serving subsystem (``repro.serve``).

Covers the session lifecycle (admit -> decide -> demote-to-profile ->
close), the scheduler's batching invariants — a session's decisions are
bit-identical regardless of which batch they land in, thanks to
``nn.row_consistent_matmul`` — the checkpoint reconstruction path,
equivalence of the serving emulator with the training-time environment
(``Amoeba.attack``), and the per-server ``stats()`` counters and their
``summarize_stats`` summary.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import Amoeba, AmoebaConfig, GaussianActor, StateEncoder
from repro.core.profiles import AdversarialProfile, ProfileDatabase
from repro.flows import Flow, FlowLabel
from repro.nn.serialization import save_state_dict, split_prefixed_state
from repro.serve import (
    ContinuousBatchScheduler,
    DecisionRequest,
    PolicyServer,
    ServeConfig,
    SessionStatus,
    SyntheticWorkload,
    build_policy_from_state,
    run_workload,
    summarize_stats,
)

ENCODER_HIDDEN = 8


class FakeClock:
    """Deterministic clock: advances a fixed amount per read (seconds)."""

    def __init__(self, tick_s: float = 0.0) -> None:
        self.t = 0.0
        self.tick_s = tick_s

    def __call__(self) -> float:
        self.t += self.tick_s
        return self.t


@pytest.fixture(scope="module")
def policy():
    rng = np.random.default_rng(0)
    encoder = StateEncoder(hidden_size=ENCODER_HIDDEN, num_layers=2, rng=rng)
    actor = GaussianActor(state_dim=2 * ENCODER_HIDDEN, hidden_dims=(16,), rng=rng)
    return actor, encoder


@pytest.fixture(scope="module")
def serve_config():
    return ServeConfig(size_scale=1460.0, max_batch=4, flush_timeout_ms=0.0)


def make_server(policy, config, **kwargs):
    actor, encoder = policy
    return PolicyServer(actor, encoder, config=config, **kwargs)


def serve_flow(server, flow, session_id="s"):
    sid = server.open_session(session_id)
    for size, delay in zip(flow.sizes, flow.delays):
        server.submit(sid, size, delay)
        server.poll()
    server.drain()
    return server.close_session(sid)


# --------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------- #
class TestScheduler:
    def test_flushes_on_full_batch(self):
        scheduler = ContinuousBatchScheduler(max_batch=3, flush_timeout_ms=1000.0)
        for index in range(3):
            assert not scheduler.ready(now=0.0)
            scheduler.submit(DecisionRequest(session_id=f"s{index}", enqueued_at=0.0))
        assert scheduler.ready(now=0.0)
        batch = scheduler.take_batch()
        assert [request.session_id for request in batch] == ["s0", "s1", "s2"]
        assert scheduler.pending == 0

    def test_flushes_on_timeout(self):
        scheduler = ContinuousBatchScheduler(max_batch=8, flush_timeout_ms=5.0)
        scheduler.submit(DecisionRequest(session_id="s", enqueued_at=0.0))
        assert not scheduler.ready(now=0.004)
        assert scheduler.ready(now=0.0051)

    def test_take_batch_caps_at_max_batch(self):
        scheduler = ContinuousBatchScheduler(max_batch=2, flush_timeout_ms=0.0)
        for index in range(5):
            scheduler.submit(DecisionRequest(session_id=f"s{index}", enqueued_at=0.0))
        assert len(scheduler.take_batch()) == 2
        assert scheduler.pending == 3

    def test_drop_session(self):
        scheduler = ContinuousBatchScheduler(max_batch=8, flush_timeout_ms=0.0)
        scheduler.submit(DecisionRequest(session_id="a", enqueued_at=0.0))
        scheduler.submit(DecisionRequest(session_id="b", enqueued_at=0.0))
        assert scheduler.drop_session("a") == 1
        assert [request.session_id for request in scheduler.take_batch()] == ["b"]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(max_batch=0)
        with pytest.raises(ValueError):
            ContinuousBatchScheduler(flush_timeout_ms=-1.0)
        with pytest.raises(ValueError, match="flush_timeout_ms"):
            ContinuousBatchScheduler(flush_timeout_ms=float("nan"))

    def test_empty_queue_is_never_ready_and_has_no_age(self):
        scheduler = ContinuousBatchScheduler(max_batch=1, flush_timeout_ms=0.0)
        assert scheduler.oldest_age_ms(now=100.0) is None
        assert not scheduler.ready(now=100.0)
        assert scheduler.take_batch() == []

    def test_zero_timeout_flushes_a_lone_request_at_once(self):
        scheduler = ContinuousBatchScheduler(max_batch=8, flush_timeout_ms=0.0)
        scheduler.submit(DecisionRequest(session_id="s", enqueued_at=2.0))
        assert scheduler.oldest_age_ms(now=2.0) == 0.0
        assert scheduler.ready(now=2.0)

    def test_age_is_the_oldest_request_s(self):
        scheduler = ContinuousBatchScheduler(max_batch=8, flush_timeout_ms=10.0)
        scheduler.submit(DecisionRequest(session_id="old", enqueued_at=1.0))
        scheduler.submit(DecisionRequest(session_id="new", enqueued_at=1.009))
        assert scheduler.oldest_age_ms(now=1.010) == pytest.approx(10.0)
        assert scheduler.ready(now=1.010)

    def test_drop_unknown_session_drops_nothing(self):
        scheduler = ContinuousBatchScheduler(max_batch=8, flush_timeout_ms=0.0)
        scheduler.submit(DecisionRequest(session_id="a", enqueued_at=0.0))
        assert scheduler.drop_session("zzz") == 0
        assert scheduler.pending == 1

    def test_drop_session_keeps_the_rest_in_fifo_order(self):
        scheduler = ContinuousBatchScheduler(max_batch=8, flush_timeout_ms=0.0)
        for session_id in ("a", "b", "a", "c", "b"):
            scheduler.submit(DecisionRequest(session_id=session_id, enqueued_at=0.0))
        assert scheduler.drop_session("a") == 2
        assert [request.session_id for request in scheduler.take_batch()] == ["b", "c", "b"]

    @pytest.mark.parametrize("max_batch", [1, 3, 4])
    def test_batches_partition_the_queue_in_fifo_order(self, max_batch):
        scheduler = ContinuousBatchScheduler(max_batch=max_batch, flush_timeout_ms=0.0)
        ids = [f"s{index}" for index in range(10)]
        for session_id in ids:
            scheduler.submit(DecisionRequest(session_id=session_id, enqueued_at=0.0))
        batches = []
        while scheduler.pending:
            batches.append([request.session_id for request in scheduler.take_batch()])
        assert [session_id for batch in batches for session_id in batch] == ids
        assert all(len(batch) == max_batch for batch in batches[:-1])
        assert 1 <= len(batches[-1]) <= max_batch


# --------------------------------------------------------------------- #
# Session lifecycle
# --------------------------------------------------------------------- #
class TestSessionLifecycle:
    def test_admit_decide_close(self, policy, serve_config, simple_flow):
        server = make_server(policy, serve_config)
        report = serve_flow(server, simple_flow)
        assert report.status == SessionStatus.CLOSED
        assert not report.demoted
        assert report.n_decisions >= simple_flow.n_packets
        assert report.n_packets_in == simple_flow.n_packets
        # Constraint (1): the full payload is delivered.
        assert report.emitted_bytes >= report.payload_bytes
        assert report.shaped_flow.n_packets == report.n_decisions
        assert report.unserved_packets == 0

    def test_deadline_misses_demote_to_profile_tier(self, policy, simple_flow):
        # Every clock read advances 5 ms against a 1 ms decision deadline:
        # after miss_window decisions the session must leave the online tier.
        db = ProfileDatabase([AdversarialProfile.from_flow(simple_flow)])
        config = ServeConfig(
            size_scale=1460.0,
            max_batch=1,
            flush_timeout_ms=0.0,
            deadline_ms=1.0,
            miss_window=2,
            miss_threshold=1.0,
        )
        server = make_server(policy, config, profile_db=db, clock=FakeClock(0.005))
        sid = server.open_session("doomed")
        for size, delay in zip(simple_flow.sizes, simple_flow.delays):
            server.submit(sid, size, delay)
            server.drain()
        session = server.session(sid)
        assert session.status == SessionStatus.DEMOTED
        assert session.n_decisions >= 2  # the miss window had to fill first

        # Packets submitted after demotion bypass the policy entirely.
        decisions_at_demotion = session.n_decisions
        server.submit(sid, 400.0, 3.0)
        server.drain()
        assert session.n_decisions == decisions_at_demotion

        report = server.close_session(sid)
        assert report.demoted
        assert report.status == SessionStatus.DEMOTED
        assert report.deadline_misses >= 2
        # The undelivered payload was embedded into stored profiles.
        assert report.profile_result is not None
        assert report.profile_result.payload_bytes > 0
        stats = summarize_stats(server.stats())
        assert stats["profile_fallback_rate"] == 1.0
        assert stats["deadline_miss_rate"] == 1.0

    def test_demotion_without_database_still_tracks_fallback(self, policy, simple_flow):
        config = ServeConfig(
            size_scale=1460.0,
            max_batch=1,
            flush_timeout_ms=0.0,
            deadline_ms=1.0,
            miss_window=1,
            miss_threshold=1.0,
        )
        server = make_server(policy, config, clock=FakeClock(0.005))
        sid = server.open_session("x")
        server.submit(sid, 600.0, 0.0)
        server.drain()
        report = server.close_session(sid)
        assert report.demoted
        assert report.profile_result is None
        assert summarize_stats(server.stats())["profile_fallback_rate"] == 1.0

    def test_sustained_deadline_misses_demote_without_database(self, policy, simple_flow):
        config = ServeConfig(
            size_scale=1460.0,
            max_batch=1,
            flush_timeout_ms=0.0,
            deadline_ms=1.0,
            miss_window=2,
            miss_threshold=1.0,
        )
        server = make_server(policy, config, clock=FakeClock(0.005))
        sid = server.open_session("doomed")
        for size, delay in zip(simple_flow.sizes, simple_flow.delays):
            server.submit(sid, size, delay)
            server.drain()
        assert server.session(sid).status == SessionStatus.DEMOTED
        assert summarize_stats(server.stats())["profile_fallback_rate"] == 1.0

    def test_operator_demotion_counts_in_stats(self, policy, serve_config):
        # Demotion via the public FlowSession.demote() (not the deadline
        # tracker) must show up in the fallback rate, both while the
        # session is live and after it closes.
        server = make_server(policy, serve_config)
        sid = server.open_session("op")
        server.submit(sid, 600.0, 0.0)
        server.drain()
        server.session(sid).demote()
        assert summarize_stats(server.stats())["profile_fallback_rate"] == 1.0
        report = server.close_session(sid)
        assert report.demoted
        assert summarize_stats(server.stats())["profile_fallback_rate"] == 1.0

    def test_step_budget_closes_session(self, policy, simple_flow):
        config = ServeConfig(
            size_scale=1460.0, max_batch=2, flush_timeout_ms=0.0, max_steps_per_session=2
        )
        server = make_server(policy, config)
        sid = server.open_session("b")
        for size, delay in zip(simple_flow.sizes, simple_flow.delays):
            server.submit(sid, size, delay)
        server.drain()
        report = server.close_session(sid)
        assert report.n_decisions == 2
        assert report.unserved_packets > 0

    def test_closed_session_rejects_packets(self, policy, serve_config):
        server = make_server(policy, serve_config)
        sid = server.open_session()
        session = server.session(sid)
        server.close_session(sid)
        with pytest.raises(RuntimeError):
            session.enqueue(100.0, 0.0)
        with pytest.raises(KeyError):
            server.submit(sid, 100.0, 0.0)

    def test_duplicate_session_id_rejected(self, policy, serve_config):
        server = make_server(policy, serve_config)
        server.open_session("dup")
        with pytest.raises(ValueError):
            server.open_session("dup")

    def test_zero_size_packet_rejected_at_ingestion(self, policy, serve_config):
        # A zero-size packet would arm a payload-less decision that blows
        # up mid-flush and disturbs its batch-mates; reject it at submit.
        server = make_server(policy, serve_config)
        sid = server.open_session()
        with pytest.raises(ValueError, match="non-zero"):
            server.submit(sid, 0.0, 1.0)
        server.submit(sid, 500.0, 0.0)  # session still serviceable
        server.drain()
        assert server.session(sid).n_decisions >= 1

    @pytest.mark.parametrize(
        "size,delay,message",
        [
            (np.nan, 1.0, "size must be finite"),
            (np.inf, 1.0, "size must be finite"),
            (-np.inf, 1.0, "size must be finite"),
            (500.0, np.nan, "delay must be finite and >= 0"),
            (500.0, -5.0, "delay must be finite and >= 0"),
            (-500.0, np.inf, "delay must be finite and >= 0"),
        ],
    )
    @pytest.mark.parametrize("demoted", [False, True])
    def test_unusable_packet_refused_at_the_door(
        self, policy, serve_config, simple_flow, size, delay, message, demoted
    ):
        """A NaN would wedge every later flush, an infinite size would fail
        mid-flush after committing its batch-mates, and a negative or
        infinite delay would be emitted and then sink the reports at close:
        ``submit`` refuses each before anything moves, and the neighbouring
        session is served exactly as it is alone."""
        alone = serve_flow(make_server(policy, serve_config), simple_flow, "good")
        server = make_server(policy, serve_config)
        good, bad = server.open_session("good"), server.open_session("bad")
        server.submit(bad, 900.0, 2.0)
        if demoted:
            server.session(bad).demote()
        for step, (packet_size, packet_delay) in enumerate(zip(simple_flow.sizes, simple_flow.delays)):
            server.submit(good, packet_size, packet_delay)
            if step == 1:
                stats, pending = server.stats(), server.pending_decisions
                session = server.session(bad)
                before = (session.status, session.backlog, session.in_flight, session.n_decisions)
                with pytest.raises(ValueError, match=message):
                    server.submit(bad, size, delay)
                assert server.stats() == stats and server.pending_decisions == pending
                after = (session.status, session.backlog, session.in_flight, session.n_decisions)
                assert after == before
            server.poll()
        reports = {report.session_id: report for report in server.close_all()}
        assert reports["bad"].n_packets_in == 1
        served = reports["good"]
        assert (served.n_decisions, served.unserved_packets) == (alone.n_decisions, 0)
        assert np.array_equal(served.shaped_flow.sizes, alone.shaped_flow.sizes)
        assert np.array_equal(served.shaped_flow.delays, alone.shaped_flow.delays)


class TestConfigBounds:
    """Bounds that would break serving are refused where they are given —
    ``ServeConfig`` at construction, ``open_session`` per flow — not found
    out later inside a flush."""

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(deadline_ms=-1.0),
            dict(deadline_ms=float("nan")),
            dict(deadline_ms=float("inf")),
            dict(max_delay_ms=0.0),
            dict(max_delay_ms=-5.0),
            dict(max_delay_ms=float("nan")),
            dict(min_packet_bytes=0),
            dict(max_truncations_per_packet=0),
            # An infinite shaping bound would overflow mid-flush, after the
            # batch's table rows are written; a NaN timeout never fires.
            dict(size_scale=float("inf")),
            dict(size_scale=float("nan")),
            dict(max_delay_ms=float("inf")),
            dict(flush_timeout_ms=float("nan")),
            dict(flush_timeout_ms=-1.0),
            dict(max_steps_per_session=0),
            dict(max_steps_per_session=-2),
            # Counts are integers: a fractional floor would put a
            # fractional byte count on the wire.
            dict(min_packet_bytes=64.5),
            dict(max_truncations_per_packet=1.5),
            dict(max_batch=2.5),
            dict(max_batch=True),
            dict(miss_window=2.5),
            dict(latency_history=10.5),
        ],
    )
    def test_bad_bound_raises_at_construction(self, overrides):
        (name,) = overrides
        with pytest.raises(ValueError, match=name):
            ServeConfig(**overrides)
        with pytest.raises(ValueError, match=name):
            ServeConfig().with_overrides(**overrides)

    def test_good_deadlines_construct(self):
        for deadline in (None, 0.0, 2.5, 1e9):
            assert ServeConfig(deadline_ms=deadline).deadline_ms == deadline

    def test_unbounded_flush_timeout_and_step_budget_construct(self):
        assert ServeConfig(flush_timeout_ms=float("inf")).flush_timeout_ms == float("inf")
        assert ServeConfig(max_steps_per_session=None).max_steps_per_session is None
        assert ServeConfig(max_steps_per_session=1).max_steps_per_session == 1

    def test_training_config_refuses_an_infinite_delay_bound(self):
        with pytest.raises(ValueError, match="max_delay_ms"):
            AmoebaConfig(max_delay_ms=float("inf"))

    @pytest.mark.parametrize("deadline", [-5.0, float("nan"), float("-inf")])
    def test_open_session_refuses_a_bad_deadline(self, policy, serve_config, deadline):
        server = make_server(policy, serve_config)
        with pytest.raises(ValueError, match="deadline_ms"):
            server.open_session("s", deadline_ms=deadline)
        assert server.stats()["sessions_opened"] == 0
        # Nothing was admitted: the id is still free.
        server.open_session("s", deadline_ms=3.0)


class TestStatsCounters:
    """``stats()``'s lifetime counters are each server's own: two servers in
    one process count what each did, and a new server starts at zero."""

    COUNTERS = ("sessions_opened", "sessions_closed", "decisions", "deadline_misses", "flushes")

    @staticmethod
    def _counting_flushes(server):
        """Record the decision count of every flush that committed, including
        the ones ``submit`` and ``drain`` run."""
        committed = []
        flush = server.flush

        def counting():
            decisions = flush()
            if decisions:
                committed.append(len(decisions))
            return decisions

        server.flush = counting
        return committed

    def _script(self, server, flow, session_ids, close):
        committed = self._counting_flushes(server)
        for sid in session_ids:
            server.open_session(sid)
        for size, delay in zip(flow.sizes, flow.delays):
            for sid in session_ids:
                server.submit(sid, size, delay)
            server.poll()
        server.drain()
        for sid in close:
            server.close_session(sid)
        decisions = server.take_decisions()
        assert sum(committed) == len(decisions)
        return {
            "sessions_opened": len(session_ids),
            "sessions_closed": len(close),
            "decisions": len(decisions),
            "deadline_misses": sum(decision.deadline_missed for decision in decisions),
            "flushes": len(committed),
        }

    def _counters(self, server):
        return {key: server.stats()[key] for key in self.COUNTERS}

    def test_each_server_counts_its_own_work(self, policy, simple_flow):
        late = ServeConfig(
            size_scale=1460.0, max_batch=2, flush_timeout_ms=0.0, deadline_ms=12.0, miss_window=64
        )
        first = make_server(policy, late, clock=FakeClock(0.005))
        first_did = self._script(first, simple_flow, ["a", "b", "c"], close=["a", "c"])
        assert first_did["deadline_misses"] > 0
        assert first_did["flushes"] > 1
        assert self._counters(first) == first_did

        second = make_server(
            policy, ServeConfig(size_scale=1460.0, max_batch=4, flush_timeout_ms=0.0)
        )
        assert self._counters(second) == dict.fromkeys(self.COUNTERS, 0)
        second_did = self._script(second, simple_flow, ["a", "b"], close=["a", "b"])
        assert second_did["deadline_misses"] == 0
        assert self._counters(second) == second_did
        assert second.stats()["sessions_live"] == 0
        # The second server's work did not reach the first's counters.
        assert self._counters(first) == first_did
        assert first.stats()["sessions_live"] == 1

    @pytest.mark.parametrize("max_batch", [1, 2, 3, 5, 8])
    def test_counters_match_a_scripted_run(self, policy, simple_flow, max_batch):
        server = make_server(
            policy, ServeConfig(size_scale=1460.0, max_batch=max_batch, flush_timeout_ms=0.0)
        )
        did = self._script(server, simple_flow, ["a", "b", "c"], close=["b"])
        assert self._counters(server) == did
        assert did["decisions"] >= 3 * simple_flow.n_packets
        # A flush commits at most ``max_batch`` decisions.
        assert did["flushes"] >= -(-did["decisions"] // max_batch)
        if max_batch == 1:
            assert did["flushes"] == did["decisions"]

    def test_close_all_closes_and_counts_every_live_session(self, policy, simple_flow):
        server = make_server(policy, ServeConfig(max_batch=4, flush_timeout_ms=0.0))
        for sid in ("a", "b", "c"):
            server.open_session(sid)
            server.submit(sid, simple_flow.sizes[0], simple_flow.delays[0])
        reports = server.close_all()
        assert [report.session_id for report in reports] == ["a", "b", "c"]
        stats = server.stats()
        assert stats["sessions_opened"] == stats["sessions_closed"] == 3
        assert stats["sessions_live"] == 0
        assert stats["decisions"] == sum(report.n_decisions for report in reports) >= 3

    def test_latency_window_is_bounded_but_counters_cover_the_lifetime(
        self, policy, simple_flow
    ):
        server = make_server(
            policy, ServeConfig(max_batch=1, flush_timeout_ms=0.0, latency_history=3)
        )
        serve_flow(server, simple_flow)
        stats = server.stats()
        assert stats["decisions"] > 3
        assert len(stats["latencies_ms"]) == 3

    def test_stats_hands_out_copies(self, policy, simple_flow):
        server = make_server(policy, ServeConfig(max_batch=2, flush_timeout_ms=0.0))
        serve_flow(server, simple_flow)
        stats = server.stats()
        stats["latencies_ms"].clear()
        stats["decisions"] = -1
        assert len(server.stats()["latencies_ms"]) == server.stats()["decisions"] > 0

    def test_a_server_s_decisions_ignore_other_servers(self, policy, simple_flow, benign_flow):
        config = ServeConfig(max_batch=4, flush_timeout_ms=0.0)
        before = serve_flow(make_server(policy, config), simple_flow)
        busy = make_server(policy, config)
        for index in range(3):
            serve_flow(busy, benign_flow, session_id=f"b{index}")
        after = serve_flow(make_server(policy, config), simple_flow)
        assert after.n_decisions == before.n_decisions
        assert np.array_equal(after.shaped_flow.sizes, before.shaped_flow.sizes)
        assert np.array_equal(after.shaped_flow.delays, before.shaped_flow.delays)

    def test_starts_no_thread_under_the_old_telemetry_port_variable(self, policy, monkeypatch):
        import threading

        monkeypatch.setenv("REPRO_TELEMETRY_PORT", "0")
        before = set(threading.enumerate())
        make_server(policy, ServeConfig(max_batch=2))
        assert set(threading.enumerate()) - before == set()


def _merge_stats(*stats):
    """Merge several servers' stats the way ``summarize_stats`` documents:
    scalars sum, lists concatenate."""
    merged = {}
    for one in stats:
        for key, value in one.items():
            if isinstance(value, list):
                merged[key] = merged.get(key, []) + value
            else:
                merged[key] = merged.get(key, 0) + value
    return merged


class TestSummarizeStats:
    def test_empty_stats_summarize_to_zero_rates(self):
        assert summarize_stats({}) == {
            "decisions": 0.0,
            "p50_latency_ms": 0.0,
            "p99_latency_ms": 0.0,
            "deadline_miss_rate": 0.0,
            "profile_fallback_rate": 0.0,
            "fallback_data_overhead": 0.0,
            "fallback_fully_embedded_rate": 1.0,
        }

    def test_rates_are_ratios_of_the_counters(self):
        summary = summarize_stats(
            {"decisions": 8, "deadline_misses": 2, "sessions_opened": 4, "sessions_demoted": 1}
        )
        assert summary["decisions"] == 8.0
        assert summary["deadline_miss_rate"] == 0.25
        assert summary["profile_fallback_rate"] == 0.25

    def test_percentiles_come_from_the_latency_window(self):
        summary = summarize_stats({"latencies_ms": [float(v) for v in range(1, 101)]})
        assert summary["p50_latency_ms"] == pytest.approx(50.5)
        assert summary["p99_latency_ms"] == pytest.approx(99.01)

    def test_fallback_results_average_over_results(self):
        summary = summarize_stats(
            {
                "fallback_data_overheads": [0.5, 1.5, 1.0],
                "fallback_fully_embedded": [True, False, True, True],
            }
        )
        assert summary["fallback_data_overhead"] == 1.0
        assert summary["fallback_fully_embedded_rate"] == 0.75

    def test_merged_servers_weight_by_decisions_not_by_server(self):
        busy = {"decisions": 90, "deadline_misses": 9, "sessions_opened": 9, "sessions_demoted": 0}
        idle = {"decisions": 10, "deadline_misses": 10, "sessions_opened": 1, "sessions_demoted": 1}
        summary = summarize_stats(_merge_stats(busy, idle))
        # 19 of 100 decisions, not the mean of 10% and 100%.
        assert summary["deadline_miss_rate"] == pytest.approx(0.19)
        assert summary["profile_fallback_rate"] == pytest.approx(0.1)

    def test_summary_of_two_served_servers(self, policy, simple_flow, benign_flow):
        servers = [
            make_server(policy, ServeConfig(max_batch=2, flush_timeout_ms=0.0)) for _ in range(2)
        ]
        serve_flow(servers[0], simple_flow)
        serve_flow(servers[1], benign_flow)
        stats = [server.stats() for server in servers]
        summary = summarize_stats(_merge_stats(*stats))
        assert summary["decisions"] == stats[0]["decisions"] + stats[1]["decisions"]
        assert summary["p99_latency_ms"] >= summary["p50_latency_ms"] >= 0.0
        assert summary["deadline_miss_rate"] == 0.0
        assert summary["profile_fallback_rate"] == 0.0


# --------------------------------------------------------------------- #
# Batching invariants
# --------------------------------------------------------------------- #
class TestBatchingInvariants:
    @pytest.fixture(scope="class")
    def workload(self):
        return SyntheticWorkload.generate(
            n_sessions=6, arrival_rate_pps=800.0, max_packets=10, rng=21
        )

    def _shaped_flows(self, policy, workload, **overrides):
        config = ServeConfig(size_scale=1460.0, flush_timeout_ms=0.0, **overrides)
        server = make_server(policy, config)
        run_workload(server, workload)
        return {report.session_id: report.shaped_flow for report in server.reports()}

    def test_decisions_invariant_to_batch_size(self, policy, workload):
        """The acceptance contract: batched serving is bit-identical to the
        one-session-at-a-time sequential path (row-consistent matmuls)."""
        sequential = self._shaped_flows(policy, workload, max_batch=1)
        for max_batch in (3, 16):
            batched = self._shaped_flows(policy, workload, max_batch=max_batch)
            assert set(batched) == set(sequential)
            for session_id, flow in sequential.items():
                assert np.array_equal(flow.sizes, batched[session_id].sizes)
                assert np.array_equal(flow.delays, batched[session_id].delays)

    def test_serving_matches_training_emulator(self, trained_dt_censor, normalizer, tor_splits, fast_config):
        """Serving a flow emits bit-identically to ``Amoeba.attack``: the
        deployment tier implements the same shaping the policy was trained
        under, packet for packet, byte for byte."""
        agent = Amoeba(
            trained_dt_censor,
            normalizer,
            fast_config,
            rng=0,
            encoder_pretrain_kwargs={"n_flows": 20, "epochs": 1, "max_length": 10},
        )
        for index, flow in enumerate(tor_splits.test.censored_flows[:3]):
            attack_result = agent.attack(flow, deterministic=True)
            step_budget = max(
                fast_config.max_episode_steps,
                flow.n_packets * (1 + fast_config.max_truncations_per_packet),
            )
            config = ServeConfig.from_amoeba(
                fast_config,
                normalizer.size_scale,
                max_batch=4,
                flush_timeout_ms=0.0,
                max_steps_per_session=step_budget,
            )
            server = PolicyServer(agent.actor, agent.state_encoder, config=config)
            report = serve_flow(server, flow, session_id=f"flow{index}")
            assert np.array_equal(
                attack_result.adversarial_flow.sizes, report.shaped_flow.sizes
            )
            assert np.array_equal(
                attack_result.adversarial_flow.delays, report.shaped_flow.delays
            )


class TestServingGolden:
    """One pinned end-to-end serving run, beside the golden training run in
    ``tests/test_censors.py``: the checked-in benchmark fixture policy
    serving a 20-session default-mix workload.  The value was computed at
    the commit *before* the emulator helpers and the encoder step were
    rewritten (PR 13), so it pins what they must keep producing."""

    FIXTURE_POLICY = Path(__file__).resolve().parents[1] / "benchmarks/perf/fixtures/policy.npz"
    GOLDEN = "390182fb5e1062d68968fa2cbccfda933fd18c88217c6f79f4d712a16baaac34"
    DECISIONS = 1621

    def test_fixture_policy_serves_the_pinned_flows(self):
        workload = SyntheticWorkload.generate(
            n_sessions=20, arrival_rate_pps=2000.0, max_packets=40, rng=20230913
        )
        server = PolicyServer.from_checkpoint(self.FIXTURE_POLICY)
        run_workload(server, workload)
        assert server.stats()["decisions"] == self.DECISIONS
        digest = hashlib.sha256()
        for report in sorted(server.reports(), key=lambda r: r.session_id):
            flow = report.shaped_flow
            assert np.array_equal(np.rint(flow.sizes), flow.sizes)  # whole bytes
            digest.update(report.session_id.encode())
            # Bytes are integers and policy delays whole milliseconds; the
            # original delays under them come out of libm, so they are pinned
            # to a nanosecond rather than to the last bit of another host.
            digest.update(np.rint(flow.sizes).astype(np.int64).tobytes())
            digest.update(np.rint(flow.delays * 1e6).astype(np.int64).tobytes())
        assert digest.hexdigest() == self.GOLDEN


class TestSessionStateOwnership:
    def test_flush_hands_each_session_its_own_state(self, policy):
        """What a session hands out owns its memory: ``state_vector`` copies
        the session's rows out of the server's table, never a view that pins
        or aliases it — and what it copies is the *stepped* state, not a
        stale initial one."""
        server = make_server(
            policy, ServeConfig(size_scale=1460.0, max_batch=4, flush_timeout_ms=0.0)
        )
        ids = [server.open_session(f"s{i}") for i in range(4)]
        for i, sid in enumerate(ids):
            server.submit(sid, 400.0 + 100.0 * i, 1.0)
        assert server.stats()["flushes"] == 1
        sessions = [server.session(sid) for sid in ids]
        hidden = policy[1].hidden_size
        table = server._table.hidden
        for session in sessions:
            vector = session.state_vector()
            assert vector.shape == (2 * hidden,)
            assert vector.base is None and vector.flags.owndata
            assert not np.shares_memory(vector, table)
            # The flush stepped both streams: zeros would be a stale state.
            assert vector[:hidden].any() and vector[hidden:].any()
            assert np.array_equal(
                vector.view(np.uint64),
                np.concatenate([table[-1, 0, session.slot], table[-1, 1, session.slot]]).view(
                    np.uint64
                ),
            )
        # Writing to a handed-out copy reaches neither the table, nor a
        # second read of the same session, nor a sibling.
        before = table.copy()
        others = [s.state_vector() for s in sessions[1:]]
        first = sessions[0].state_vector()
        first[:] = 3.0
        assert np.array_equal(table, before)
        assert not np.array_equal(sessions[0].state_vector(), first)
        for session, expected in zip(sessions[1:], others):
            assert np.array_equal(session.state_vector(), expected)

    def test_nan_action_is_a_named_error(self, policy, serve_config):
        """A non-finite policy output surfaces as ``ValueError("non-finite
        action ...")`` from the shared emulator helper, not as ``int(nan)``."""
        server = make_server(policy, serve_config)
        sid = server.open_session("s")
        session = server.session(sid)
        session.enqueue(500.0, 1.0)
        assert session.arm_next()
        with pytest.raises(ValueError, match="non-finite action"):
            session.apply_action(np.array([np.nan, 0.2]))
        # Nothing was emitted or consumed by the rejected action.
        assert session.n_decisions == 0 and session.in_flight
        decision = session.apply_action(np.array([1.0, 0.2]))
        assert decision.emitted_size == 1460.0


# --------------------------------------------------------------------- #
# Checkpoint reconstruction
def _flip(data: bytes, position: int) -> bytes:
    """``data`` with one bit of the byte at ``position`` flipped."""
    return data[:position] + bytes([data[position] ^ 0x01]) + data[position + 1 :]


# --------------------------------------------------------------------- #
class TestCheckpointServing:
    def _checkpoint(self, policy, tmp_path):
        actor, encoder = policy
        state = {}
        for prefix, module in (("actor", actor), ("encoder", encoder)):
            for name, value in module.state_dict().items():
                state[f"{prefix}.{name}"] = value
        path = tmp_path / "policy.npz"
        save_state_dict(state, path)
        return path, state

    def test_from_checkpoint_serves_identically(self, policy, serve_config, tmp_path, simple_flow):
        path, _ = self._checkpoint(policy, tmp_path)
        direct = serve_flow(make_server(policy, serve_config), simple_flow)
        loaded = PolicyServer.from_checkpoint(path, config=serve_config)
        reloaded = serve_flow(loaded, simple_flow)
        assert np.array_equal(direct.shaped_flow.sizes, reloaded.shaped_flow.sizes)
        assert np.array_equal(direct.shaped_flow.delays, reloaded.shaped_flow.delays)

    def test_architecture_inferred_from_shapes(self, policy, tmp_path):
        path, state = self._checkpoint(policy, tmp_path)
        actor, encoder = build_policy_from_state(state)
        assert encoder.hidden_size == ENCODER_HIDDEN
        assert encoder.num_layers == 2
        assert actor.state_dim == 2 * ENCODER_HIDDEN
        assert actor.action_dim == 2

    def _agent_checkpoint(self, tmp_path, size_scale):
        """A policy saved by ``Amoeba.save_policy`` under a ``size_scale``."""
        from repro.censors import DecisionTreeCensor
        from repro.features import FlowNormalizer

        flows = [
            Flow(sizes=[500.0, -500.0], delays=[0.0, 1.0], label=FlowLabel.CENSORED),
            Flow(sizes=[100.0], delays=[0.0], label=FlowLabel.BENIGN),
        ]
        config = AmoebaConfig(
            encoder_hidden=ENCODER_HIDDEN, actor_hidden=(8,), critic_hidden=(8,), n_envs=1
        )
        agent = Amoeba(
            DecisionTreeCensor(rng=0).fit(flows),
            FlowNormalizer(size_scale, 100.0),
            config,
            rng=0,
            encoder_pretrain_kwargs={"n_flows": 10, "epochs": 1, "max_length": 6},
        )
        path = tmp_path / "policy.npz"
        agent.save_policy(path)
        return path, config

    def test_checkpoint_refuses_other_shaping_bounds(self, tmp_path, simple_flow):
        """A V2Ray policy served under the Tor size scale would emit packets
        11x too small; the checkpoint's recorded bounds refuse it."""
        path, config = self._agent_checkpoint(tmp_path, 16384.0)
        for bad in (ServeConfig(), ServeConfig(size_scale=16384.0, max_delay_ms=50.0)):
            with pytest.raises(ValueError, match="checkpoint was trained with"):
                PolicyServer.from_checkpoint(path, config=bad)
        with pytest.raises(ValueError, match="size_scale=16384.0"):
            PolicyServer.from_checkpoint(path)
        served = serve_flow(
            PolicyServer.from_checkpoint(path, config=ServeConfig(size_scale=16384.0)), simple_flow
        )
        assert served.n_decisions >= simple_flow.n_packets
        matched = ServeConfig.from_amoeba(config, 16384.0)
        assert PolicyServer.from_checkpoint(path, config=matched).config is matched

    def test_checkpoint_without_recorded_bounds_serves_any_config(self, policy, tmp_path):
        path, _ = self._checkpoint(policy, tmp_path)
        for config in (ServeConfig(), ServeConfig(size_scale=16384.0, max_delay_ms=7.0)):
            assert PolicyServer.from_checkpoint(path, config=config).config is config

    @pytest.mark.parametrize(
        "damage,message",
        [
            (lambda data: data[: len(data) // 2], "BadZipFile"),
            (lambda data: b"", "EOFError"),
            (lambda data: _flip(data, len(data) // 2), "Bad CRC-32"),
            (lambda data: np.lib.format.magic(1, 0) + b"{}", "not a readable checkpoint"),
            (lambda data: b"not a checkpoint at all", "not a readable checkpoint"),
        ],
    )
    def test_unreadable_checkpoint_is_one_named_error(self, policy, tmp_path, damage, message):
        from repro.nn.serialization import CheckpointError

        path, _ = self._checkpoint(policy, tmp_path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(CheckpointError, match=re.escape(str(path))) as raised:
            PolicyServer.from_checkpoint(path)
        assert message in str(raised.value)
        assert isinstance(raised.value, ValueError)

    @pytest.mark.parametrize(
        "name,spoil,message",
        [
            ("actor.body.layer0.weight", lambda v: np.where(v == v.flat[3], np.nan, v), "is not finite"),
            ("encoder.gru.cell0.w_h", lambda v: np.where(v == v.flat[0], -np.inf, v), "is not finite"),
            ("actor.log_std", lambda v: v.astype(np.int64), "dtype int64"),
            ("encoder.gru.cell1.b", lambda v: v.astype(bool), "dtype bool"),
        ],
    )
    def test_unservable_parameters_are_refused_before_any_session(
        self, policy, tmp_path, name, spoil, message
    ):
        from repro.nn.serialization import CheckpointError

        path, state = self._checkpoint(policy, tmp_path)
        save_state_dict({**state, name: spoil(np.asarray(state[name]))}, path)
        with pytest.raises(CheckpointError, match=re.escape(f"checkpoint parameter {name}")) as raised:
            PolicyServer.from_checkpoint(path)
        assert message in str(raised.value)

    def test_float32_parameters_serve_identically(self, policy, serve_config, tmp_path, simple_flow):
        """Widening float32 to float64 is exact, so such a checkpoint loads."""
        path, state = self._checkpoint(policy, tmp_path)
        narrow = {name: np.asarray(value, np.float32) for name, value in state.items()}
        served = []
        for checkpoint in (narrow, {name: value.astype(np.float64) for name, value in narrow.items()}):
            save_state_dict(checkpoint, path)
            served.append(serve_flow(PolicyServer.from_checkpoint(path, config=serve_config), simple_flow))
        assert np.array_equal(served[0].shaped_flow.sizes, served[1].shaped_flow.sizes)
        assert np.array_equal(served[0].shaped_flow.delays, served[1].shaped_flow.delays)
        assert served[0].n_decisions >= simple_flow.n_packets

    def test_checkpoint_without_prefixes_rejected(self):
        with pytest.raises(ValueError):
            build_policy_from_state({"actor.log_std": np.zeros(2)})

    def test_split_prefixed_state(self):
        groups = split_prefixed_state({"a.x": 1, "a.y.z": 2, "b.w": 3})
        assert groups == {"a": {"x": 1, "y.z": 2}, "b": {"w": 3}}
        with pytest.raises(ValueError):
            split_prefixed_state({"noprefix": 1})


# --------------------------------------------------------------------- #
# Load generator
# --------------------------------------------------------------------- #
class TestLoadgen:
    def test_workload_schedule_is_sorted_and_complete(self):
        workload = SyntheticWorkload.generate(
            n_sessions=4, arrival_rate_pps=100.0, max_packets=6, rng=1
        )
        times = [event.time_ms for event in workload.events]
        assert times == sorted(times)
        assert workload.n_packets == sum(f.n_packets for f in workload.flows.values())
        assert all(f.n_packets <= 6 for f in workload.flows.values())

    def test_workload_is_a_function_of_its_seed(self):
        def generate(seed):
            return SyntheticWorkload.generate(
                n_sessions=3, arrival_rate_pps=200.0, max_packets=5, rng=seed
            )

        first, again, other = generate(7), generate(7), generate(8)
        assert first.events == again.events
        assert first.protocols == again.protocols
        assert first.events != other.events

    def test_workload_rejects_bad_mix(self):
        with pytest.raises(ValueError):
            SyntheticWorkload.generate(n_sessions=2, mix={"smtp": 1.0}, rng=0)
        with pytest.raises(ValueError):
            SyntheticWorkload.generate(n_sessions=0, rng=0)

    @pytest.mark.parametrize(
        "overrides",
        [
            # A negative cap would slice packets off each flow's end.
            dict(max_packets=-3),
            dict(max_packets=0),
            dict(max_packets=2.5),
            # NaN passes ``nan <= 0``.
            dict(arrival_rate_pps=float("nan")),
            dict(arrival_rate_pps=0.0),
        ],
    )
    def test_workload_refuses_bad_sizes(self, overrides):
        (name,) = overrides
        with pytest.raises(ValueError, match=name):
            SyntheticWorkload.generate(n_sessions=2, rng=0, **overrides)

    def test_run_workload_report(self, policy, serve_config):
        workload = SyntheticWorkload.generate(
            n_sessions=3, arrival_rate_pps=400.0, max_packets=6, rng=5
        )
        server = make_server(policy, serve_config)
        report = run_workload(server, workload)
        assert report.decisions >= workload.n_packets
        assert report.decisions_per_s > 0
        assert report.p99_latency_ms >= report.p50_latency_ms >= 0.0
        assert report.profile_fallback_rate == 0.0
        assert len(server.reports()) == workload.n_sessions  # all sessions closed

    def test_impossible_deadline_demotes_sessions_to_profiles(self, policy):
        """No decision meets a 1 ns deadline, so every session whose miss
        window fills is demoted and served from the offline profile tier,
        here a database built from the workload's own flows."""
        workload = SyntheticWorkload.generate(
            n_sessions=12, arrival_rate_pps=4000.0, max_packets=16, rng=13
        )
        profile_db = ProfileDatabase()
        profile_db.add_flows(list(workload.flows.values()))
        config = ServeConfig(
            size_scale=1460.0, flush_timeout_ms=0.5, max_batch=16, deadline_ms=1e-6, miss_window=4
        )
        report = run_workload(make_server(policy, config, profile_db=profile_db), workload)
        summary = summarize_stats(report.stats)
        assert report.profile_fallback_rate > 0.5
        assert report.deadline_miss_rate > 0.5
        assert report.profile_fallback_rate == summary["profile_fallback_rate"]
        assert report.deadline_miss_rate == summary["deadline_miss_rate"]

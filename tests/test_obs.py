"""Tests for the unified telemetry tier (``repro.obs``).

Covers the metrics registry (instrument identity, label addressing,
log-scale histogram bucket semantics), the tracing spans (nesting,
exception paths, the disabled-mode no-op singleton), the fork-boundary
snapshot/merge fold, the JSONL and Prometheus exporters (round-trip), the
registry-backed ``TrainingLogger``/``get_logger`` behaviour, and — the
standing contract — that observing never changes behaviour: rollout
buffers and served decision streams are bit-identical with telemetry on
or off.
"""

import logging
import sys

import numpy as np
import pytest

from repro import obs
from repro.core import Amoeba, AmoebaConfig, GaussianActor, StateEncoder
from repro.distrib import ShardedRolloutEngine, ShardRunner
from repro.nn import backend as nn_backend
from repro.nn.serialization import state_dict_to_bytes
from repro.obs.metrics import Histogram, MetricsRegistry, log_bucket_edges
from repro.obs.trace import NULL_SPAN, Tracer, render_spans
from repro.serve import PolicyServer, ServeConfig
from repro.utils.logging import TrainingLogger, get_logger
from repro.utils.rng import collection_seed_tree

ENCODER_HIDDEN = 8


def parse_prometheus_text(text):
    """Parse exposition text back into ``{series: value}``.

    The series key is the full ``name{labels}`` string as rendered; type
    comments are skipped.  A small parser for the repo's own output, not a
    general Prometheus client.
    """
    series = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        series[key] = float(value)
    return series


@pytest.fixture(autouse=True)
def clean_obs():
    """Every test starts disabled with an empty registry, and leaves so."""
    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


# --------------------------------------------------------------------- #
# Registry semantics
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_instruments_returned_by_identity(self):
        registry = MetricsRegistry()
        counter = registry.counter("train.iterations")
        assert registry.counter("train.iterations") is counter
        counter.inc(3.0)
        assert registry.counter("train.iterations").value == 3.0

    def test_labels_address_distinct_instruments(self):
        registry = MetricsRegistry()
        a = registry.counter("collect.ticks", worker="0")
        b = registry.counter("collect.ticks", worker="1")
        assert a is not b
        # Label order is irrelevant: the key is sorted.
        assert registry.counter("x", a="1", b="2") is registry.counter("x", b="2", a="1")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("serve.decisions")
        with pytest.raises(TypeError, match="is a counter"):
            registry.gauge("serve.decisions")

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("c").inc(-1.0)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("serve.queue_depth")
        gauge.set(5)
        gauge.set(2)
        assert gauge.value == 2.0
        gauge.inc(3)
        assert gauge.value == 5.0

    def test_series_and_get(self):
        registry = MetricsRegistry()
        registry.counter("nn.gemm", kernel="compiled").inc()
        registry.counter("nn.gemm", kernel="einsum")
        assert len(registry.series("nn.gemm")) == 2
        assert registry.get("nn.gemm", kernel="compiled").value == 1.0
        assert registry.get("nn.gemm", kernel="avx") is None

    def test_reset_bumps_generation_snapshot_does_not(self):
        registry = MetricsRegistry()
        generation = registry.generation
        registry.counter("c").inc()
        registry.take_snapshot()
        assert registry.generation == generation  # identities survived
        registry.reset()
        assert registry.generation == generation + 1
        assert len(registry) == 0


# --------------------------------------------------------------------- #
# Histograms
# --------------------------------------------------------------------- #
class TestHistogram:
    def test_default_edges_are_log_scale(self):
        edges = log_bucket_edges()
        assert len(edges) == 36
        assert edges[0] == pytest.approx(1e-3)
        ratios = [b / a for a, b in zip(edges, edges[1:])]
        assert all(r == pytest.approx(2.0) for r in ratios)

    def test_bucket_assignment_inclusive_upper_edges(self):
        hist = Histogram("h", (), edges=[1.0, 2.0, 4.0, 8.0])
        hist.observe(1.0)  # exact edge -> its own bucket (le semantics)
        hist.observe(2.5)  # first edge >= 2.5 is 4.0
        hist.observe(100.0)  # beyond the last edge -> overflow
        hist.observe(-5.0)  # non-positive -> first bucket
        assert hist.bucket_counts == [2, 0, 1, 0, 1]
        assert hist.count == 4
        assert hist.min == -5.0 and hist.max == 100.0
        assert hist.sum == pytest.approx(98.5)

    def test_memory_is_fixed(self):
        hist = Histogram("h", ())
        for value in range(10_000):
            hist.observe(float(value))
        assert len(hist.bucket_counts) == len(hist.edges) + 1
        assert hist.count == 10_000

    def test_percentile_upper_edge_estimate(self):
        hist = Histogram("h", (), edges=[1.0, 2.0, 4.0])
        for _ in range(99):
            hist.observe(0.5)
        hist.observe(3.0)
        # Bucket upper-edge estimates: p50 lands in the first bucket (upper
        # edge 1.0), p100 in the third, capped at the observed max.
        assert hist.percentile(50) == 1.0
        assert hist.percentile(100) == 3.0
        assert Histogram("empty", ()).percentile(50) == 0.0

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("h", (), edges=[1.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            Histogram("h", (), edges=[])
        with pytest.raises(ValueError):
            log_bucket_edges(lo=0.0)
        with pytest.raises(ValueError):
            log_bucket_edges(growth=1.0)

    def test_recreate_with_different_edges_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=[1.0, 2.0])
        assert registry.histogram("h") is registry.histogram("h", edges=[1.0, 2.0])
        with pytest.raises(ValueError, match="different bucket edges"):
            registry.histogram("h", edges=[1.0, 3.0])

    def test_merge_requires_identical_edges(self):
        a = Histogram("h", (), edges=[1.0, 2.0])
        b = Histogram("h", (), edges=[1.0, 3.0])
        with pytest.raises(ValueError, match="different bucket edges"):
            a.merge(b)


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
class TestSpans:
    def test_disabled_returns_shared_noop(self):
        assert not obs.enabled()
        span = obs.span("anything", batch=3)
        assert span is NULL_SPAN
        with span:
            span.annotate(extra=1)
        assert obs.tracer().records() == []

    def test_nesting_parent_and_depth(self):
        obs.enable()
        with obs.span("outer", phase="test"):
            with obs.span("inner"):
                pass
            with obs.span("inner2"):
                pass
        records = {r.name: r for r in obs.tracer().records()}
        assert records["outer"].parent_id is None
        assert records["outer"].depth == 0
        assert records["outer"].meta == {"phase": "test"}
        assert records["inner"].parent_id == records["outer"].span_id
        assert records["inner"].depth == 1
        assert records["inner2"].parent_id == records["outer"].span_id
        # Children finish first, the parent's duration covers them.
        assert records["outer"].duration_ms >= records["inner"].duration_ms

    def test_exception_recorded_and_reraised(self):
        obs.enable()
        with pytest.raises(KeyError):
            with obs.span("failing"):
                raise KeyError("boom")
        (record,) = obs.tracer().records()
        assert record.error == "KeyError"
        assert record.duration_ms >= 0.0

    def test_annotate_mid_span(self):
        obs.enable()
        with obs.span("work") as span:
            span.annotate(batch=7)
        (record,) = obs.tracer().records()
        assert record.meta == {"batch": 7}

    def test_span_durations_feed_histograms(self):
        obs.enable()
        with obs.span("train.iteration"):
            pass
        hist = obs.registry().get("span.train.iteration")
        assert hist is not None and hist.count == 1

    def test_ring_buffer_bounded_and_take_drains(self):
        tracer = Tracer(max_spans=3)
        for index in range(5):
            with tracer.start(f"s{index}"):
                pass
        assert [r.name for r in tracer.records()] == ["s2", "s3", "s4"]
        assert len(tracer.take()) == 3
        assert tracer.records() == []

    def test_render_spans_tree(self):
        obs.enable()
        with obs.span("parent", batch=2):
            with obs.span("child"):
                pass
        text = render_spans(obs.tracer().records())
        lines = text.splitlines()
        assert lines[0].startswith("parent") and "batch=2" in lines[0]
        assert lines[1].startswith("  child")
        assert render_spans([]) == "(no spans recorded)"


# --------------------------------------------------------------------- #
# Snapshot / merge (the fork-boundary fold)
# --------------------------------------------------------------------- #
class TestSnapshotFold:
    def test_take_snapshot_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        hist = registry.histogram("h")
        counter.inc(4)
        gauge.set(2.5)
        hist.observe(1.0)
        payload = {entry["name"]: entry for entry in registry.take_snapshot()}
        assert payload["c"]["value"] == 4.0
        assert payload["h"]["count"] == 1
        # Counters/histograms restart; gauges keep their last write; every
        # instrument keeps its identity (hot paths hold references).
        assert registry.counter("c") is counter and counter.value == 0.0
        assert registry.histogram("h") is hist and hist.count == 0
        assert registry.gauge("g") is gauge and gauge.value == 2.5

    def test_merge_sums_counters_adds_buckets_labels_workers(self):
        worker = MetricsRegistry()
        worker.counter("collect.ticks").inc(8)
        worker.gauge("g").set(7.0)
        worker.histogram("h", edges=[1.0, 2.0]).observe(1.5)
        driver = MetricsRegistry()
        driver.merge_snapshot(worker.take_snapshot(), extra_labels={"worker": "0"})
        driver.merge_snapshot(worker.snapshot(), extra_labels={"worker": "1"})
        assert driver.get("collect.ticks", worker="0").value == 8.0
        assert driver.get("collect.ticks", worker="1").value == 0.0  # zeroed above
        assert driver.get("g", worker="0").value == 7.0
        merged_hist = driver.get("h", worker="0")
        assert merged_hist.count == 1 and merged_hist.bucket_counts == [0, 1, 0]
        # Folding twice accumulates.
        worker.counter("collect.ticks").inc(3)
        driver.merge_snapshot(worker.take_snapshot(), extra_labels={"worker": "0"})
        assert driver.get("collect.ticks", worker="0").value == 11.0

    def test_jsonl_round_trip(self, tmp_path):
        obs.enable()
        obs.counter("serve.decisions").inc(12)
        obs.histogram("serve.flush_size").observe(4.0)
        with obs.span("serve.flush", batch=4):
            pass
        path = tmp_path / "trace.jsonl"
        with obs.JsonlSink(path) as sink:
            sink.write_metrics(obs.registry().snapshot())
            sink.write_spans(obs.tracer().records())
        events = obs.read_jsonl(path)
        assert [event["type"] for event in events] == ["metrics", "spans"]
        rebuilt = MetricsRegistry()
        rebuilt.merge_snapshot(events[0]["metrics"])
        assert rebuilt.get("serve.decisions").value == 12.0
        assert rebuilt.get("serve.flush_size").count == 1
        (span,) = events[1]["spans"]
        assert span["name"] == "serve.flush" and span["meta"] == {"batch": 4}

    def test_prometheus_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("serve.decisions", server="0").inc(5)
        registry.gauge("serve.queue_depth").set(3)
        hist = registry.histogram("lat", edges=[1.0, 2.0])
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(9.0)
        text = obs.prometheus_text(registry.snapshot())
        series = parse_prometheus_text(text)
        assert series['serve_decisions_total{server="0"}'] == 5.0
        assert series["serve_queue_depth"] == 3.0
        # Cumulative le buckets plus +Inf, _sum and _count.
        assert series['lat_bucket{le="1"}'] == 1.0
        assert series['lat_bucket{le="2"}'] == 2.0
        assert series['lat_bucket{le="+Inf"}'] == 3.0
        assert series["lat_count"] == 3.0
        assert series["lat_sum"] == pytest.approx(11.0)

    def test_global_take_snapshot_and_merge(self):
        obs.counter("c").inc(2)
        payload = obs.take_snapshot()
        assert obs.counter("c").value == 0.0
        obs.merge_snapshot(payload, extra_labels={"worker": "3"})
        assert obs.registry().get("c", worker="3").value == 2.0


# --------------------------------------------------------------------- #
# Backend kernel timers (stride-sampled)
# --------------------------------------------------------------------- #
class TestBackendTimers:
    def test_disabled_mode_records_nothing(self):
        backend = nn_backend.BlockedBackend()
        a = np.ones((4, 8))
        b = np.ones((8, 8))
        for _ in range(64):
            backend.matmul2d(a, b)
        assert obs.registry().series("nn.gemm_ms") == []

    def test_enabled_mode_samples_one_in_stride(self):
        backend = nn_backend.BlockedBackend()
        a = np.ones((4, 8))
        b = np.ones((8, 8))
        obs.enable()
        reference = backend.matmul2d(a, b)
        before = sum(h.count for h in obs.registry().series("nn.gemm_ms"))
        for _ in range(4 * nn_backend._OBS_STRIDE):
            out = backend.matmul2d(a, b)
            # Observing never changes the result bits.
            assert np.array_equal(out, reference)
        after = sum(h.count for h in obs.registry().series("nn.gemm_ms"))
        assert after - before == 4


# --------------------------------------------------------------------- #
# TrainingLogger / get_logger satellites
# --------------------------------------------------------------------- #
class TestLoggingHelpers:
    def test_get_logger_level_applied_once(self):
        logger = get_logger("repro.test.level_once", level=logging.DEBUG)
        assert logger.level == logging.DEBUG
        again = get_logger("repro.test.level_once", level=logging.WARNING)
        assert again is logger
        assert again.level == logging.DEBUG  # later levels must not mutate

    def test_max_history_bounds_series(self):
        logger = TrainingLogger("t", logger=logging.getLogger("repro.test.tl"), max_history=3)
        for step in range(10):
            logger.log(loss=float(step))
        assert logger.series("loss") == [7.0, 8.0, 9.0]
        assert logger.latest("loss") == 9.0

    def test_default_history_unbounded(self):
        logger = TrainingLogger("t", logger=logging.getLogger("repro.test.tl"))
        for step in range(10):
            logger.log(loss=float(step))
        assert len(logger.series("loss")) == 10

    def test_rejects_bad_max_history(self):
        with pytest.raises(ValueError):
            TrainingLogger(max_history=0)

    def test_metrics_land_in_registry(self):
        logger = TrainingLogger("probe", logger=logging.getLogger("repro.test.tl"))
        logger.log(loss=0.5, reward=1.25)
        logger.log(loss=0.25)
        gauges = {g.labels_dict.get("logger"): g for g in obs.registry().series("train.log.loss")}
        assert gauges["probe"].value == 0.25
        (steps,) = [
            c for c in obs.registry().series("train.log.steps")
            if c.labels_dict.get("logger") == "probe"
        ]
        assert steps.value == 2.0

    def test_summary_reports_only_current_step(self, caplog):
        logger = logging.getLogger("repro.test.tl_summary")
        logger.propagate = True
        training = TrainingLogger("t", report_every=2, logger=logger)
        with caplog.at_level(logging.INFO, logger="repro.test.tl_summary"):
            training.log(loss=1.0, test_asr=0.9)
            training.log(loss=0.5)
        (record,) = caplog.records
        assert "loss=0.5000" in record.getMessage()
        # test_asr was not logged this step; a stale value must not repeat.
        assert "test_asr" not in record.getMessage()


# --------------------------------------------------------------------- #
# Bit-equivalence: observing never changes behaviour
# --------------------------------------------------------------------- #
class FakeClock:
    """Deterministic clock: advances a fixed amount per read (seconds)."""

    def __init__(self, tick_s: float = 0.001) -> None:
        self.t = 0.0
        self.tick_s = tick_s

    def __call__(self) -> float:
        self.t += self.tick_s
        return self.t


class TestBitEquivalence:
    def _serve_flow(self, enabled: bool, flow):
        if enabled:
            obs.enable()
        else:
            obs.disable()
        obs.reset()
        rng = np.random.default_rng(0)
        encoder = StateEncoder(hidden_size=ENCODER_HIDDEN, num_layers=2, rng=rng)
        actor = GaussianActor(state_dim=2 * ENCODER_HIDDEN, hidden_dims=(16,), rng=rng)
        server = PolicyServer(
            actor,
            encoder,
            config=ServeConfig(max_batch=4, flush_timeout_ms=0.0),
            clock=FakeClock(0.001),
        )
        sid = server.open_session("s")
        for size, delay in zip(flow.sizes, flow.delays):
            server.submit(sid, size, delay)
            server.poll()
        server.drain()
        report = server.close_session(sid)
        recorded = sum(h.count for h in obs.registry().series("serve.flush_size"))
        obs.disable()
        return report, recorded

    def test_decision_stream_identical_on_and_off(self, simple_flow):
        baseline, baseline_recorded = self._serve_flow(False, simple_flow)
        observed, observed_recorded = self._serve_flow(True, simple_flow)
        assert observed.n_decisions == baseline.n_decisions
        assert np.array_equal(observed.shaped_flow.sizes, baseline.shaped_flow.sizes)
        assert np.array_equal(observed.shaped_flow.delays, baseline.shaped_flow.delays)
        # The enabled run actually recorded telemetry (it wasn't a no-op).
        assert baseline_recorded == 0 and observed_recorded > 0

    def test_rollouts_identical_on_and_off(
        self, trained_dt_censor, normalizer, tor_splits
    ):
        config = AmoebaConfig.for_tor(
            n_envs=2,
            rollout_length=8,
            max_episode_steps=16,
            encoder_hidden=ENCODER_HIDDEN,
            actor_hidden=(16,),
            critic_hidden=(16,),
        )
        flows = tor_splits.attack_train.censored_flows

        def collect(enabled: bool):
            if enabled:
                obs.enable()
            else:
                obs.disable()
            obs.reset()
            agent = Amoeba(
                trained_dt_censor,
                normalizer,
                config,
                rng=42,
                encoder_pretrain_kwargs=dict(n_flows=10, max_length=10, epochs=1),
            )
            runner = ShardRunner(
                agent.actor,
                agent.critic,
                agent.state_encoder,
                trained_dt_censor,
                normalizer,
                config,
                flows,
                collection_seed_tree(agent._rng, config.n_envs),
            )
            result = runner.collect(config.rollout_length)
            obs.disable()
            return result

        baseline = collect(False)
        observed = collect(True)
        for name in ("states", "actions", "log_probs", "values", "rewards", "dones"):
            assert np.array_equal(getattr(observed, name), getattr(baseline, name)), name
        assert np.array_equal(observed.final_states, baseline.final_states)


# --------------------------------------------------------------------- #
# Sharded engines: telemetry fold + health in merged stats
# --------------------------------------------------------------------- #
@pytest.mark.skipif(sys.platform == "win32", reason="requires POSIX fork")
class TestShardedTelemetry:
    def test_engine_stats_and_worker_fold(
        self, trained_dt_censor, normalizer, tor_splits
    ):
        config = AmoebaConfig.for_tor(
            n_envs=2,
            rollout_length=4,
            max_episode_steps=8,
            encoder_hidden=ENCODER_HIDDEN,
            actor_hidden=(16,),
            critic_hidden=(16,),
        )
        flows = tor_splits.attack_train.censored_flows
        obs.enable()  # before forking, so workers inherit the flag
        agent = Amoeba(
            trained_dt_censor,
            normalizer,
            config,
            rng=42,
            encoder_pretrain_kwargs=dict(n_flows=10, max_length=10, epochs=1),
        )
        obs.reset()
        seed_tree = collection_seed_tree(agent._rng, config.n_envs)
        engine = ShardedRolloutEngine.for_agent(agent, flows, seed_tree, 2)
        try:
            engine.broadcast(state_dict_to_bytes(agent._policy_state()))
            engine.collect(config.rollout_length)
            stats = engine.stats()
        finally:
            engine.close()
            obs.disable()

        assert stats["n_workers"] == 2
        assert stats["worker_restarts"] == [0, 0]
        assert stats["worker_replayed"] == [0, 0]
        ages = stats["worker_heartbeat_age_s"]
        assert len(ages) == 2 and all(age is not None and age >= 0.0 for age in ages)

        # Worker-side counters were folded across the fork boundary into
        # the driver registry, labelled by worker index; each worker hosts
        # one env shard, so the per-worker tick counters sum to the total.
        per_worker = [
            obs.registry().get("collect.ticks", worker=str(index))
            for index in range(2)
        ]
        assert all(counter is not None for counter in per_worker)
        assert sum(counter.value for counter in per_worker) == 2 * config.rollout_length

    def test_sharded_collect_identical_on_and_off(
        self, trained_dt_censor, normalizer, tor_splits
    ):
        """Acceptance: tracing the frames never perturbs the science.

        The same 2-worker sharded collect, with telemetry (and therefore
        trace-context frame stamping) on versus off, must produce
        bit-identical merged rollout arrays.
        """
        config = AmoebaConfig.for_tor(
            n_envs=2,
            rollout_length=4,
            max_episode_steps=8,
            encoder_hidden=ENCODER_HIDDEN,
            actor_hidden=(16,),
            critic_hidden=(16,),
        )
        flows = tor_splits.attack_train.censored_flows

        def collect(enabled: bool):
            if enabled:
                obs.enable()  # before forking, so workers inherit the flag
            else:
                obs.disable()
            obs.reset()
            agent = Amoeba(
                trained_dt_censor,
                normalizer,
                config,
                rng=42,
                encoder_pretrain_kwargs=dict(n_flows=10, max_length=10, epochs=1),
            )
            seed_tree = collection_seed_tree(agent._rng, config.n_envs)
            engine = ShardedRolloutEngine.for_agent(agent, flows, seed_tree, 2)
            try:
                engine.broadcast(state_dict_to_bytes(agent._policy_state()))
                result = engine.collect(config.rollout_length)
            finally:
                engine.close()
                obs.disable()
            return result

        baseline = collect(False)
        observed = collect(True)
        for name in ("states", "actions", "log_probs", "values", "rewards", "dones"):
            assert np.array_equal(getattr(observed, name), getattr(baseline, name)), name
        assert np.array_equal(observed.final_states, baseline.final_states)


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
class TestTelemetryCli:
    def test_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["telemetry"])
        assert args.mode == "train"
        assert args.max_spans == 60
        args = build_parser().parse_args(["telemetry", "--mode", "serve", "--seed", "3"])
        assert args.mode == "serve"
        assert args.seed == 3

    def test_serve_mode_renders_summary_and_exports(self, tmp_path, capsys):
        from repro.cli import main

        trace = tmp_path / "trace.jsonl"
        prom = tmp_path / "metrics.prom"
        code = main(
            [
                "telemetry",
                "--mode",
                "serve",
                "--trace-jsonl",
                str(trace),
                "--prometheus",
                str(prom),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serve.flush" in out  # the span tree rendered
        assert "serve.decision_latency_ms" in out  # histograms populated
        events = obs.read_jsonl(trace)
        assert {event["type"] for event in events} == {"metrics", "spans"}
        assert "serve_decisions_total" in prom.read_text()
        assert not obs.enabled()  # the CLI disables telemetry on exit


# --------------------------------------------------------------------- #
# Distributed tracing: context propagation and stitched trees
# --------------------------------------------------------------------- #
class TestTraceContext:
    def test_root_span_starts_its_own_trace(self):
        obs.enable()
        with obs.span("root"):
            trace_id, span_id = obs.trace_context()
        (record,) = obs.tracer().records()
        assert record.trace_id == record.span_id == span_id == trace_id

    def test_children_inherit_the_trace_id(self):
        obs.enable()
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        records = {r.name: r for r in obs.tracer().records()}
        assert records["inner"].trace_id == records["outer"].trace_id
        assert records["inner"].trace_id == records["outer"].span_id

    def test_trace_context_none_outside_spans(self):
        obs.enable()
        assert obs.trace_context() is None

    def test_remote_span_keeps_propagated_parent_and_trace(self):
        obs.enable()
        with obs.remote_span("worker.collect", trace_id=77, parent_span_id=42):
            pass
        (record,) = obs.tracer().records()
        assert record.trace_id == 77
        assert record.parent_id == 42

    def test_remote_span_without_context_becomes_a_root(self):
        obs.enable()
        with obs.remote_span("worker.collect", trace_id=None, parent_span_id=None):
            pass
        (record,) = obs.tracer().records()
        assert record.parent_id is None
        assert record.trace_id == record.span_id

    def test_local_parent_wins_over_remote_context(self):
        tracer = Tracer()
        with tracer.start("local-parent"):
            with tracer.start_span("child", {}, parent_id=999, trace_id=888):
                pass
        records = {r.name: r for r in tracer.records()}
        assert records["child"].parent_id == records["local-parent"].span_id
        assert records["child"].trace_id == records["local-parent"].trace_id

    def test_span_ids_are_pid_prefixed(self):
        import os as _os

        tracer = Tracer()
        with tracer.start("a"):
            pass
        (record,) = tracer.records()
        assert record.span_id >> 32 == _os.getpid()

    def test_take_snapshot_drains_in_place(self):
        tracer = Tracer()
        for name in ("a", "b", "c"):
            with tracer.start(name):
                pass
        batch = tracer.take_snapshot()
        assert [entry["name"] for entry in batch] == ["a", "b", "c"]
        assert tracer.records() == []  # drained in place
        assert tracer.take_snapshot() == []  # nothing re-shipped
        # The tracer identity survives: new spans keep recording.
        with tracer.start("d"):
            pass
        assert [r.name for r in tracer.records()] == ["d"]

    def test_take_snapshot_bounds_the_batch_most_recent_wins(self):
        tracer = Tracer()
        for index in range(6):
            with tracer.start(f"s{index}"):
                pass
        batch = tracer.take_snapshot(max_spans=2)
        assert [entry["name"] for entry in batch] == ["s4", "s5"]
        assert tracer.records() == []

    def test_ingest_applies_extra_meta_and_skips_histograms(self):
        obs.enable()
        worker = Tracer()
        with worker.start("worker.collect"):
            pass
        obs.merge_spans(worker.take_snapshot(), extra_meta={"worker": "1"})
        (record,) = obs.tracer().records()
        assert record.name == "worker.collect"
        assert record.meta["worker"] == "1"
        # Ingest bypasses on_finish: worker histograms arrive via the
        # metrics fold, never from re-observing folded spans.
        assert obs.registry().get("span.worker.collect") is None

    def test_span_record_dict_round_trip(self):
        from repro.obs.trace import SpanRecord

        tracer = Tracer()
        with tracer.start_span("x", {"k": 1}, parent_id=5, trace_id=9):
            pass
        (record,) = tracer.records()
        clone = SpanRecord.from_dict(record.as_dict())
        assert clone.as_dict() == record.as_dict()

    def test_render_spans_stitches_cross_process_parents(self):
        from repro.obs.trace import SpanRecord

        driver = SpanRecord(
            span_id=1, parent_id=None, name="distrib.collect", depth=0,
            start_s=0.0, duration_ms=5.0, trace_id=1,
        )
        workers = [
            SpanRecord(
                span_id=100 + index, parent_id=1, name="worker.collect", depth=0,
                start_s=0.1, duration_ms=4.0, meta={"worker": str(index)}, trace_id=1,
            )
            for index in range(2)
        ]
        text = render_spans([driver, *workers])
        lines = text.splitlines()
        assert lines[0].startswith("distrib.collect")
        assert lines[1].startswith("  worker.collect") and "worker=0" in lines[1]
        assert lines[2].startswith("  worker.collect") and "worker=1" in lines[2]


class TestTracedFrames:
    def test_frames_byte_identical_when_telemetry_off(self):
        from repro.distrib import transport as transport_mod

        class Capture(transport_mod.Transport):
            def __init__(self):
                self.frames = []

            def send_encoded(self, frame):
                self.frames.append(frame)

        capture = Capture()
        message = ("collect", 16)
        capture.send_command(message)
        # With telemetry off the command frame is exactly the pre-tracing
        # encoding: no envelope, no extra bytes on the wire.
        assert capture.frames == [transport_mod.encode_message(message)]
        assert transport_mod.traced_message(message) is message

    def test_envelope_rides_the_frame_when_telemetry_on(self):
        from repro.distrib import transport as transport_mod

        class Capture(transport_mod.Transport):
            def __init__(self):
                self.frames = []

            def send_encoded(self, frame):
                self.frames.append(frame)

        obs.enable()
        capture = Capture()
        with obs.span("driver.step"):
            context = obs.trace_context()
            capture.send_command(("collect", 16))
        shipped = transport_mod.decode_message(capture.frames[0])
        assert shipped[0] == transport_mod.TRACE_ENVELOPE
        message, trace_id, parent_id = transport_mod.untraced_message(shipped)
        assert message == ("collect", 16)
        assert (trace_id, parent_id) == context

    def test_envelope_without_open_span_carries_none_ids(self):
        from repro.distrib import transport as transport_mod

        obs.enable()
        wrapped = transport_mod.traced_message(("snapshot",))
        message, trace_id, parent_id = transport_mod.untraced_message(wrapped)
        assert message == ("snapshot",)
        assert trace_id is None and parent_id is None

    def test_untraced_message_passes_bare_messages_through(self):
        from repro.distrib.transport import untraced_message

        assert untraced_message(("collect", 4)) == (("collect", 4), None, None)


class _ScriptedTransport:
    """In-memory transport: scripted incoming frames, captured replies."""

    def __init__(self, messages):
        from repro.distrib.transport import TransportError

        self._incoming = list(messages)
        self._error = TransportError
        self.sent = []
        self.closed = False

    def send(self, message):
        self.sent.append(message)

    def recv(self):
        if not self._incoming:
            raise self._error("script exhausted")
        return self._incoming.pop(0)

    def close(self):
        self.closed = True


class TestWorkerCommandLoopTracing:
    def test_traced_command_opens_a_child_span(self):
        from repro.distrib.transport import TRACE_ENVELOPE, worker_command_loop

        obs.enable()
        transport = _ScriptedTransport(
            [(TRACE_ENVELOPE, 70, 7, ("work", 3)), ("close",)]
        )
        worker_command_loop(transport, {"work": lambda n: ("result", n * 2)})
        assert ("result", 6) in transport.sent
        records = [r for r in obs.tracer().records() if r.name == "worker.work"]
        (record,) = records
        assert record.parent_id == 7
        assert record.trace_id == 70

    def test_bare_command_still_works_and_opens_no_span_when_off(self):
        from repro.distrib.transport import worker_command_loop

        transport = _ScriptedTransport([("work", 5), ("close",)])
        worker_command_loop(transport, {"work": lambda n: ("result", n + 1)})
        assert ("result", 6) in transport.sent
        assert obs.tracer().records() == []

    def test_builtin_telemetry_command(self):
        from repro.distrib.transport import worker_command_loop

        obs.enable()
        obs.counter("collect.ticks").inc(4)
        transport = _ScriptedTransport([("__telemetry__",), ("close",)])
        worker_command_loop(transport, {})
        kind, payload = transport.sent[0]
        assert kind == "result"
        assert {entry["name"] for entry in payload["metrics"]} >= {"collect.ticks"}
        assert isinstance(payload["spans"], list)

    def test_error_reply_still_sent_and_span_records_the_failure(self):
        from repro.distrib.transport import TRACE_ENVELOPE, worker_command_loop

        obs.enable()

        def boom():
            raise ValueError("no")

        transport = _ScriptedTransport([(TRACE_ENVELOPE, 1, 1, ("boom",)), ("close",)])
        worker_command_loop(transport, {"boom": boom})
        assert transport.sent[0][0] == "error"
        (record,) = [r for r in obs.tracer().records() if r.name == "worker.boom"]
        assert record.error == "ValueError"


def _stitch_echo_factory(index):
    class Runner:
        def load_weights(self, payload):
            self.payload = payload

        def collect(self, n_ticks):
            return index * 100 + n_ticks

        def snapshot(self):
            return {"index": index}

        def restore(self, state):
            pass

    return Runner()


@pytest.mark.skipif(sys.platform == "win32", reason="requires POSIX fork")
class TestDistributedStitching:
    def test_two_worker_tree_has_worker_children_per_command(self):
        obs.enable()
        engine = ShardedRolloutEngine(_stitch_echo_factory, 2)
        try:
            engine.broadcast(b"weights")
            engine._command(("collect", 3))
            engine._command(("snapshot",))
            engine._collect_worker_telemetry()
        finally:
            engine.close()
        records = obs.tracer().records()
        driver_ids = {r.span_id for r in records if r.name.startswith("distrib.")}
        driver_names = {r.name for r in records if r.name.startswith("distrib.")}
        assert driver_names >= {"distrib.load", "distrib.collect", "distrib.snapshot"}
        workers = [r for r in records if r.name.startswith("worker.")]
        # Every dispatched command produced one child span per worker,
        # parented on the driver-side span that sent it.
        by_name = {}
        for record in workers:
            by_name.setdefault(record.name, set()).add(record.meta.get("worker"))
            assert record.parent_id in driver_ids, record.name
        assert by_name["worker.load"] == {"0", "1"}
        assert by_name["worker.collect"] == {"0", "1"}
        assert by_name["worker.snapshot"] == {"0", "1"}
        # One stitched tree per driver command: render places the worker
        # spans beneath their driver parents.
        text = render_spans(records)
        assert "  worker.collect" in text


# --------------------------------------------------------------------- #
# JsonlSink
# --------------------------------------------------------------------- #
class TestJsonlSink:
    def test_append_only_never_rotates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.JsonlSink(path) as sink:
            for _ in range(50):
                sink.write_metrics([{"kind": "counter", "name": "c", "labels": {}, "value": 1.0}])
        assert len(obs.read_jsonl(path)) == 50
        assert [p.name for p in tmp_path.iterdir()] == ["events.jsonl"]


# --------------------------------------------------------------------- #
# Prometheus conformance
# --------------------------------------------------------------------- #
class TestPrometheusConformance:
    def test_labelled_histogram_round_trips(self):
        obs.enable()
        hist = obs.histogram("serve.decision_latency_ms", server="0")
        for value in (0.5, 2.0, 2.0, 40.0):
            hist.observe(value)
        text = obs.prometheus_text(obs.registry().snapshot())
        series = parse_prometheus_text(text)
        base = "serve_decision_latency_ms"
        assert series[f'{base}_sum{{server="0"}}'] == pytest.approx(44.5)
        assert series[f'{base}_count{{server="0"}}'] == 4
        bucket_lines = [
            (key, value) for key, value in series.items() if key.startswith(f"{base}_bucket")
        ]
        assert bucket_lines, "no le bucket lines rendered"
        # Buckets are cumulative and end at +Inf == _count.
        inf_key = next(key for key, _ in bucket_lines if 'le="+Inf"' in key)
        assert series[inf_key] == 4
        finite = sorted(
            (float(key.split('le="', 1)[1].split('"')[0]), value)
            for key, value in bucket_lines
            if 'le="+Inf"' not in key
        )
        counts = [value for _, value in finite]
        assert counts == sorted(counts), "bucket counts must be cumulative"
        assert counts[-1] <= 4

    def test_counter_and_gauge_round_trip(self):
        obs.counter("serve.decisions", server="0").inc(7)
        obs.gauge("serve.queue_depth", server="0").set(3)
        series = parse_prometheus_text(obs.prometheus_text(obs.registry().snapshot()))
        assert series['serve_decisions_total{server="0"}'] == 7
        assert series['serve_queue_depth{server="0"}'] == 3


# --------------------------------------------------------------------- #
# No live service: telemetry is read after a run, never served
# --------------------------------------------------------------------- #
class TestRetiredLiveService:
    REMOVED_NAMES = (
        "serve_telemetry",
        "maybe_serve_telemetry",
        "active_telemetry",
        "shutdown_telemetry",
        "TelemetryService",
        "SloRule",
        "SloAlert",
        "SloWatchdog",
        "default_slo_rules",
        "parse_prometheus_text",
    )

    def test_obs_exposes_no_service_names(self):
        for name in self.REMOVED_NAMES:
            assert name not in obs.__all__, name
            assert not hasattr(obs, name), name

    @pytest.mark.parametrize("module", ["service", "slo", "top"])
    def test_service_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module(f"repro.obs.{module}")

    def test_jsonl_sink_has_no_rotation_or_alerts(self, tmp_path):
        with pytest.raises(TypeError):
            obs.JsonlSink(tmp_path / "x.jsonl", max_bytes=10)
        assert not hasattr(obs.JsonlSink, "write_alerts")

    def test_policy_server_starts_no_thread_under_the_old_port_variable(
        self, monkeypatch
    ):
        import threading

        monkeypatch.setenv("REPRO_TELEMETRY_PORT", "0")
        rng = np.random.default_rng(0)
        encoder = StateEncoder(hidden_size=ENCODER_HIDDEN, num_layers=1, rng=rng)
        actor = GaussianActor(state_dim=2 * ENCODER_HIDDEN, hidden_dims=(8,), rng=rng)
        before = set(threading.enumerate())
        PolicyServer(actor, encoder, config=ServeConfig(max_batch=2))
        assert set(threading.enumerate()) - before == set()

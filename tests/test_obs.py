"""Tests for the unified telemetry tier (``repro.obs``).

Covers the metrics registry (instrument identity, label addressing,
log-scale histogram bucket semantics), the tracing spans (nesting,
exception paths, the disabled-mode no-op singleton), the JSONL and
Prometheus exporters (round-trip), the registry-backed
``TrainingLogger``/``get_logger`` behaviour, that telemetry stays in the
process that records it (no worker fold, no trace-context envelope), and —
the standing contract — that observing never changes behaviour: rollout
buffers and served decision streams are bit-identical with telemetry on
or off.
"""

import inspect
import json
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
from repro.obs.trace import NULL_SPAN, SpanRecord, Tracer, render_spans
from repro.serve import PolicyServer, ServeConfig
from repro.utils.logging import TrainingLogger, get_logger
from repro.utils.rng import collection_seed_tree

ENCODER_HIDDEN = 8


def series(name):
    """Every instrument the global registry holds under ``name``."""
    return [i for i in obs.registry().instruments() if i.name == name]


def read_events(path):
    """The JSONL events a :class:`obs.JsonlSink` wrote, in order."""
    return [json.loads(line) for line in path.read_text().splitlines() if line]


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

    def test_reset_bumps_generation_snapshot_does_not(self):
        registry = MetricsRegistry()
        generation = registry.generation
        registry.counter("c").inc()
        registry.snapshot()
        assert registry.generation == generation  # identities survived
        registry.reset()
        assert registry.generation == generation + 1
        assert registry.instruments() == []

    def test_snapshot_is_sorted_and_json_ready(self):
        registry = MetricsRegistry()
        registry.gauge("b.depth").set(2)
        registry.counter("a.count", worker="1").inc()
        registry.counter("a.count", worker="0").inc(4)
        registry.histogram("c.lat", edges=[1.0]).observe(0.5)
        snapshot = registry.snapshot()
        assert [(e["name"], e["labels"]) for e in snapshot] == [
            ("a.count", {"worker": "0"}),
            ("a.count", {"worker": "1"}),
            ("b.depth", {}),
            ("c.lat", {}),
        ]
        assert [e["kind"] for e in snapshot] == ["counter", "counter", "gauge", "histogram"]
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_empty_histogram_snapshot_reports_zero_extremes(self):
        snapshot = Histogram("h", (), edges=[1.0]).snapshot()
        assert snapshot["count"] == 0
        assert snapshot["min"] == 0.0 and snapshot["max"] == 0.0
        assert snapshot["counts"] == [0, 0]


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
        assert hist.snapshot()["counts"] == [2, 0, 1, 0, 1]
        assert hist.count == 4
        assert hist.min == -5.0 and hist.max == 100.0
        assert hist.sum == pytest.approx(98.5)

    def test_memory_is_fixed(self):
        hist = Histogram("h", ())
        for value in range(10_000):
            hist.observe(float(value))
        assert len(hist.snapshot()["counts"]) == len(hist.edges) + 1
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
        (hist,) = series("span.train.iteration")
        assert hist.count == 1

    def test_ring_buffer_bounded(self):
        tracer = Tracer(max_spans=3)
        for index in range(5):
            with tracer.start_span(f"s{index}", {}):
                pass
        assert [r.name for r in tracer.records()] == ["s2", "s3", "s4"]
        tracer.reset()
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

    def test_span_ids_are_unique_and_increasing(self):
        tracer = Tracer()
        with tracer.start_span("a", {}):
            with tracer.start_span("b", {}):
                pass
        with tracer.start_span("c", {}):
            pass
        ids = {r.name: r.span_id for r in tracer.records()}
        assert ids["a"] < ids["b"] < ids["c"]

    def test_sequential_top_level_spans_are_separate_roots(self):
        obs.enable()
        with obs.span("first"):
            pass
        with obs.span("second"):
            pass
        first, second = obs.tracer().records()
        assert first.parent_id is None and second.parent_id is None
        assert first.depth == second.depth == 0
        assert second.start_s >= first.start_s

    def test_as_dict_is_json_ready_and_copies_meta(self):
        obs.enable()
        with obs.span("work", batch=3):
            pass
        (record,) = obs.tracer().records()
        payload = record.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert set(payload) == {
            "span_id", "parent_id", "name", "depth", "start_s",
            "duration_ms", "meta", "error",
        }
        payload["meta"]["batch"] = 99
        assert record.meta == {"batch": 3}

    def test_reset_mid_span_makes_the_next_span_a_root(self):
        tracer = Tracer()
        with tracer.start_span("outer", {}):
            tracer.reset()
            with tracer.start_span("after_reset", {}):
                pass
        records = {r.name: r for r in tracer.records()}
        assert records["after_reset"].parent_id is None
        assert records["after_reset"].depth == 0
        # The span open across the reset still finishes and is recorded.
        assert set(records) == {"outer", "after_reset"}

    def test_tracer_rejects_nonpositive_max_spans(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)

    def test_on_finish_sees_children_before_parents(self):
        finished = []
        tracer = Tracer(on_finish=lambda record: finished.append(record.name))
        with tracer.start_span("parent", {}):
            with tracer.start_span("child", {}):
                pass
        assert finished == ["child", "parent"]

    def test_span_histograms_follow_a_registry_reset(self):
        obs.enable()
        with obs.span("train.iteration"):
            pass
        obs.reset()
        with obs.span("train.iteration"):
            pass
        # The cached histogram was dropped with the registry: the new one
        # is registered and holds only the post-reset span.
        (hist,) = series("span.train.iteration")
        assert hist.count == 1

    def test_disabled_spans_feed_no_histogram(self):
        with obs.span("train.iteration"):
            pass
        assert obs.registry().instruments() == []


# --------------------------------------------------------------------- #
# Span-tree rendering
# --------------------------------------------------------------------- #
def _record(span_id, parent_id, name, start_s, **extra):
    return SpanRecord(
        span_id=span_id,
        parent_id=parent_id,
        name=name,
        depth=0 if parent_id is None else 1,
        start_s=start_s,
        duration_ms=1.0,
        **extra,
    )


class TestRenderSpans:
    def test_max_spans_keeps_the_most_recent(self):
        records = [_record(i, None, f"s{i}", float(i)) for i in range(1, 6)]
        lines = render_spans(records, max_spans=2).splitlines()
        assert [line.split()[0] for line in lines] == ["s4", "s5"]

    def test_orphan_whose_parent_left_the_ring_is_a_root(self):
        records = [_record(7, 3, "orphan", 1.0), _record(8, 7, "child", 2.0)]
        lines = render_spans(records).splitlines()
        assert lines[0].startswith("orphan")
        assert lines[1].startswith("  child")

    def test_error_marker_and_sorted_meta(self):
        record = _record(1, None, "failing", 0.0, meta={"z": 1, "a": 2}, error="KeyError")
        (line,) = render_spans([record]).splitlines()
        assert line.endswith("a=2 z=1 !KeyError")

    def test_roots_render_in_start_order(self):
        records = [_record(2, None, "late", 5.0), _record(1, None, "early", 1.0)]
        lines = render_spans(records).splitlines()
        assert [line.split()[0] for line in lines] == ["early", "late"]


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #
class TestExporters:
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
        events = read_events(path)
        assert [event["type"] for event in events] == ["metrics", "spans"]
        assert events[0]["metrics"] == obs.registry().snapshot()
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

    def test_jsonl_sink_opens_lazily_and_skips_empty_span_batches(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.JsonlSink(path) as sink:
            sink.write_spans([])
        assert not path.exists()

    def test_jsonl_sink_appends_across_sinks_and_takes_plain_dicts(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.JsonlSink(path) as sink:
            sink.write_metrics([])
        with obs.JsonlSink(path) as sink:
            sink.write_spans([{"name": "from.dict", "span_id": 1}])
        events = read_events(path)
        assert [event["type"] for event in events] == ["metrics", "spans"]
        assert events[1]["spans"] == [{"name": "from.dict", "span_id": 1}]

    def test_prometheus_sanitises_names_and_label_keys(self):
        registry = MetricsRegistry()
        registry.counter("serve.decisions-total", **{"server.id": "0"}).inc()
        text = obs.prometheus_text(registry.snapshot())
        assert 'serve_decisions_total_total{server_id="0"} 1' in text.splitlines()

    def test_prometheus_one_type_line_per_metric(self):
        registry = MetricsRegistry()
        registry.counter("serve.decisions", server="0").inc()
        registry.counter("serve.decisions", server="1").inc()
        registry.histogram("lat", edges=[1.0], server="0").observe(0.5)
        registry.histogram("lat", edges=[1.0], server="1").observe(0.5)
        lines = obs.prometheus_text(registry.snapshot()).splitlines()
        assert lines.count("# TYPE serve_decisions_total counter") == 1
        assert lines.count("# TYPE lat histogram") == 1

    def test_prometheus_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown metric kind"):
            obs.prometheus_text([{"kind": "summary", "name": "x"}])


# --------------------------------------------------------------------- #
# summary_text (the CLI's rendering)
# --------------------------------------------------------------------- #
class TestSummaryText:
    def test_lists_every_kind_and_the_span_tree(self):
        obs.enable()
        obs.counter("serve.decisions", server="0").inc(3)
        obs.gauge("serve.queue_depth").set(2)
        with obs.span("serve.flush", batch=4):
            pass
        text = obs.summary_text()
        lines = text.splitlines()
        assert lines[0] == "telemetry: enabled"
        assert "  serve.decisions{server=0} = 3" in lines
        assert "  serve.queue_depth = 2" in lines
        assert any(line.startswith("  span.serve.flush: count=1") for line in lines)
        assert lines.index("counters:") < lines.index("gauges:") < lines.index("histograms:")
        assert lines[lines.index("spans:") + 1].startswith("serve.flush")

    def test_nothing_recorded(self):
        assert obs.summary_text().splitlines() == [
            "telemetry: disabled",
            "(no metrics recorded)",
            "spans:",
            "(no spans recorded)",
        ]

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
        assert series("nn.gemm_ms") == []

    def test_enabled_mode_samples_one_in_stride(self):
        backend = nn_backend.BlockedBackend()
        a = np.ones((4, 8))
        b = np.ones((8, 8))
        obs.enable()
        reference = backend.matmul2d(a, b)
        before = sum(h.count for h in series("nn.gemm_ms"))
        for _ in range(4 * nn_backend._OBS_STRIDE):
            out = backend.matmul2d(a, b)
            # Observing never changes the result bits.
            assert np.array_equal(out, reference)
        after = sum(h.count for h in series("nn.gemm_ms"))
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
        assert obs.registry().gauge("train.log.loss", logger="probe").value == 0.25
        assert obs.registry().counter("train.log.steps", logger="probe").value == 2.0

    def test_loggers_do_not_grow_the_registry(self):
        for _ in range(1000):
            TrainingLogger(logger=logging.getLogger("repro.test.tl")).log(loss=1.0, reward=0.5)
        assert len(obs.registry().instruments()) <= 3

    def test_same_name_loggers_keep_separate_latest(self):
        first = TrainingLogger("shared", logger=logging.getLogger("repro.test.tl"))
        second = TrainingLogger("shared", logger=logging.getLogger("repro.test.tl"))
        first.log(loss=1.0)
        second.log(loss=2.0)
        assert first.latest("loss") == 1.0
        assert second.latest("loss") == 2.0
        assert first.latest("reward", default=-1.0) == -1.0

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
        recorded = sum(h.count for h in series("serve.flush_size"))
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
# Sharded engines: telemetry stays in the process that records it
# --------------------------------------------------------------------- #
@pytest.mark.skipif(sys.platform == "win32", reason="requires POSIX fork")
class TestShardedTelemetry:
    def test_worker_telemetry_stays_in_the_worker(
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
        obs.enable()  # before forking, so the workers record too
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
        finally:
            engine.close()
            obs.disable()

        names = {record.name for record in obs.tracer().records()}
        assert {"distrib.load", "distrib.collect", "distrib.snapshot"} <= names
        # The workers' collect.shard spans and collect.* counters stay in
        # the workers; nothing is folded back or labelled by worker.
        assert not any(name.startswith(("worker.", "collect.")) for name in names)
        instruments = obs.registry().instruments()
        assert not any(i.name.startswith("collect.") for i in instruments)
        assert not any("worker" in i.labels_dict for i in instruments)
        # Only the bare protocol crossed the pipes: load, collect, snapshot
        # and close, one frame per worker each.
        assert obs.registry().counter("transport.frames_sent").value == 4 * 2

    def test_sharded_collect_identical_on_and_off(
        self, trained_dt_censor, normalizer, tor_splits
    ):
        """Acceptance: observing the workers never perturbs the science.

        The same 2-worker sharded collect, with telemetry on versus off,
        must produce bit-identical merged rollout arrays.
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
        events = read_events(trace)
        assert {event["type"] for event in events} == {"metrics", "spans"}
        assert "serve_decisions_total" in prom.read_text()
        assert not obs.enabled()  # the CLI disables telemetry on exit


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
    @pytest.mark.parametrize("enabled", [False, True])
    def test_bare_command_still_works_and_opens_no_span(self, enabled):
        from repro.distrib.transport import worker_command_loop

        if enabled:
            obs.enable()
        transport = _ScriptedTransport([("work", 5), ("close",)])
        worker_command_loop(transport, {"work": lambda n: ("result", n + 1)})
        assert ("result", 6) in transport.sent
        assert obs.tracer().records() == []


# --------------------------------------------------------------------- #
# JsonlSink
# --------------------------------------------------------------------- #
class TestJsonlSink:
    def test_append_only_never_rotates(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with obs.JsonlSink(path) as sink:
            for _ in range(50):
                sink.write_metrics([{"kind": "counter", "name": "c", "labels": {}, "value": 1.0}])
        assert len(read_events(path)) == 50
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
# Retired: the worker fold, the trace-context envelope, engine stats()
# --------------------------------------------------------------------- #
class TestRetiredFold:
    """Telemetry stays in the process that records it: the worker fold,
    the trace-context envelope and the engine's liveness table are gone."""

    def test_obs_exposes_no_fold_names(self):
        for name in (
            "remote_span", "trace_context", "take_snapshot", "merge_snapshot",
            "take_span_snapshot", "merge_spans", "take_worker_telemetry",
            "merge_worker_telemetry", "read_jsonl",
        ):
            assert name not in obs.__all__, name
            assert not hasattr(obs, name), name
        for owner, name in (
            (MetricsRegistry, "take_snapshot"),
            (MetricsRegistry, "merge_snapshot"),
            (Histogram, "merge"),
            (Tracer, "take_snapshot"),
            (Tracer, "ingest"),
            (Tracer, "current_context"),
        ):
            assert not hasattr(owner, name), name

    def test_transport_and_engine_expose_no_envelope(self):
        from repro.distrib import transport

        for name in ("TRACE_ENVELOPE", "traced_message", "untraced_message"):
            assert not hasattr(transport, name), name
        assert not hasattr(transport.Transport, "send_command")
        assert not hasattr(ShardedRolloutEngine, "stats")
        assert not hasattr(ShardedRolloutEngine, "_collect_worker_telemetry")


class TestRetiredSweep:
    """``distrib`` serves one driver, the sharded engine: the sweep
    orchestrator, its separate worker module and the options only the
    sweep set are gone."""

    def test_distrib_exposes_no_sweep_names(self):
        import repro.distrib

        for name in ("SweepOrchestrator", "SweepTask", "SweepTaskRecord", "amoeba_grid_task"):
            assert name not in repro.distrib.__all__, name
            assert not hasattr(repro.distrib, name), name

    @pytest.mark.parametrize("module", ["sweep", "worker"])
    def test_sweep_and_worker_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module(f"repro.distrib.{module}")

    def test_arms_race_has_no_workers_parameter(self):
        from repro.core import run_arms_race

        assert "workers" not in inspect.signature(run_arms_race).parameters

    def test_command_loop_has_no_close_reply_parameter(self):
        from repro.distrib.transport import worker_command_loop

        assert "close_reply" not in inspect.signature(worker_command_loop).parameters


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

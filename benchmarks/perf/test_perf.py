"""Self-tests of the benchmark harness (not of the program).

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Tier-1's ``testpaths`` does not include this directory.
"""

from __future__ import annotations

import inspect
import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bootstrap
import gauge
import layers
import report
import run
import workloads
from spans import SpanRecorder, Wrap
from workloads import percentile

PERF_DIR = Path(__file__).resolve().parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """Advances only when told to, so self-time arithmetic is exact."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, ms: float) -> None:
        self.now += ms / 1000.0


class Layer:
    """A stand-in program layer for the wrappers to instrument."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def outer(self) -> str:
        self.clock.spend(2)
        self.inner()
        self.clock.spend(3)
        self.inner()
        return "done"

    def inner(self) -> None:
        self.clock.spend(5)

    def fails(self) -> None:
        self.clock.spend(1)
        self.inner()
        raise KeyError("boom")

    def items(self):
        for _ in range(3):
            self.clock.spend(4)
            yield self.clock.now

    @classmethod
    def build(cls, clock: FakeClock) -> "Layer":
        clock.spend(7)
        return cls(clock)


class Derived(Layer):
    pass


def is_traced(attribute) -> bool:
    return hasattr(getattr(attribute, "__func__", attribute), "span_family")


def layer_wraps(owner=Layer):
    return [
        Wrap(owner, "outer", "layer.outer"),
        Wrap(Layer, "inner", "layer.inner", lambda args, kwargs, result: 2.0),
        Wrap(Layer, "fails", "layer.fails"),
        Wrap(Layer, "items", "layer.items"),
        Wrap(Layer, "build", "layer.build"),
    ]


# --------------------------------------------------------------------------- #
# Span recorder
# --------------------------------------------------------------------------- #
def test_self_time_is_busy_minus_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.install(layer_wraps()):
        recorder.begin_group("pass")
        with recorder.span("root"):
            assert Layer(clock).outer() == "done"
            clock.spend(1)
    totals = recorder.totals()["pass"]
    assert totals["layer.outer"].calls == 1
    assert totals["layer.outer"].busy_ms == pytest.approx(15)
    assert totals["layer.outer"].self_ms == pytest.approx(5)
    assert totals["layer.inner"].calls == 2
    assert totals["layer.inner"].self_ms == pytest.approx(10)
    assert totals["layer.inner"].work == pytest.approx(4)  # counted where the work happens
    assert totals["root"].self_ms == pytest.approx(1)
    # Self times under a root add up to the root's duration.
    assert sum(t.self_ms for t in totals.values()) == pytest.approx(recorder.root_ms()["pass"])


def test_exception_closes_its_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.install(layer_wraps()):
        recorder.begin_group("pass")
        with pytest.raises(KeyError):
            Layer(clock).fails()
        Layer(clock).inner()  # must not be parented on the failed span
    totals = recorder.totals()["pass"]  # raises if a span were left open
    assert totals["layer.fails"].busy_ms == pytest.approx(6)
    assert totals["layer.fails"].self_ms == pytest.approx(1)
    assert totals["layer.inner"].calls == 2
    assert recorder.root_ms()["pass"] == pytest.approx(11)


def test_generator_is_charged_per_resume_not_for_its_consumer():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.install(layer_wraps()):
        recorder.begin_group("pass")
        with recorder.span("consumer"):
            for _ in Layer(clock).items():
                clock.spend(10)  # the consumer's own work between items
    totals = recorder.totals()["pass"]
    assert totals["layer.items"].busy_ms == pytest.approx(12)
    assert totals["consumer"].self_ms == pytest.approx(30)


def test_groups_keep_setups_and_passes_apart(tmp_path):
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.install(layer_wraps()):
        recorder.begin_group("setup0")
        Layer.build(clock)
        recorder.begin_group("pass1")
        Layer(clock).inner()
        with recorder.suspended():
            Layer(clock).inner()  # untimed work inside a pass records nothing
        assert recorder.enabled
        recorder.enabled = False
        with recorder.suspended():
            pass
        assert not recorder.enabled
        Layer(clock).inner()  # the untraced reference pass records nothing
    totals = recorder.totals()
    assert set(totals["setup0"]) == {"layer.build"}
    assert totals["pass1"]["layer.inner"].calls == 1
    written = recorder.write_jsonl(tmp_path / "spans.jsonl", groups=["pass1"])
    lines = [json.loads(line) for line in open(tmp_path / "spans.jsonl")]
    assert written == len(lines) == 1
    assert lines[0]["name"] == "layer.inner" and lines[0]["pass"] == "pass1"
    assert set(lines[0]) == {"id", "name", "start", "end", "parent", "pass", "work"}


def test_install_restores_every_attribute():
    clock = FakeClock()
    before = {name: inspect.getattr_static(Layer, name) for name in ("outer", "inner", "build")}
    recorder = SpanRecorder(clock)
    # ``outer`` is wrapped on a subclass that only inherits it.
    with recorder.install(layer_wraps(owner=Derived)):
        assert "outer" in vars(Derived)
        assert is_traced(inspect.getattr_static(Layer, "inner"))
        assert isinstance(inspect.getattr_static(Layer, "build"), classmethod)
        assert isinstance(Layer.build(clock), Layer)
    assert "outer" not in vars(Derived)
    for name, original in before.items():
        assert inspect.getattr_static(Layer, name) is original
    with pytest.raises(RuntimeError):
        with recorder.install(layer_wraps()):
            raise RuntimeError("a failing run must restore the classes too")
    assert inspect.getattr_static(Layer, "inner") is before["inner"]


def test_program_wrappers_are_removed_on_exit():
    bootstrap.bootstrap()
    table = layers.wrap_table()
    before = [inspect.getattr_static(w.owner, w.attr) for w in table]
    assert not any(is_traced(original) for original in before)
    owned = [w.attr in vars(w.owner) for w in table]
    with SpanRecorder().install(table):
        assert all(is_traced(inspect.getattr_static(w.owner, w.attr)) for w in table)
    for wrap, original, was_owned in zip(table, before, owned):
        assert inspect.getattr_static(wrap.owner, wrap.attr) is original
        assert (wrap.attr in vars(wrap.owner)) == was_owned
    families = {w.family for w in table}
    assert families == set(layers.PASS_FAMILIES)


def test_untraced_run_installs_no_wrapper(monkeypatch, tmp_path):
    bootstrap.bootstrap()

    def forbidden(self, wraps):
        raise AssertionError("an untraced run must not wrap anything")

    monkeypatch.setattr(SpanRecorder, "install", forbidden)
    result = run.measure("serve-saturated", 3, 0.2, False, "smoke", tmp_path)
    assert result["correct"] and "layers" not in result


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(range(1000), 99) == pytest.approx(989.01)
    assert percentile(range(20), 50) == pytest.approx(9.5)
    with pytest.raises(ValueError, match="samples beyond"):
        percentile(range(999), 99)
    with pytest.raises(ValueError):
        percentile(range(19), 50)


# --------------------------------------------------------------------------- #
# Host gauge and the best-of-passes statistic
# --------------------------------------------------------------------------- #
def outcome(wall_parts, slowdown, decisions=1000):
    wall_parts, slowdown = np.asarray(wall_parts, float), np.asarray(slowdown, float)
    return workloads.PassOutcome(
        main_wall_s=float(wall_parts.sum()), decisions=decisions, wall_parts_s=wall_parts,
        latency_parts_ms=wall_parts[1:-1] * 1000.0, latency_samples=len(wall_parts) - 2,
        wall_slowdown=slowdown, latency_slowdown=slowdown[1:-1], exact={}, info={},
        timed_s=float(wall_parts.sum()),
    )  # fmt: skip


def test_gauge_divides_out_the_hosts_slowdown():
    clock = FakeClock()
    host_gauge = gauge.HostGauge(clock)
    assert host_gauge.sample() == 0.0 and len(host_gauge.unit_ms) == 3
    nominal = gauge.NOMINAL_UNIT_MS
    assert gauge.slowdown_between([nominal, nominal, 3 * nominal]) == pytest.approx([1.0, 2.0])
    # The same work on a host twice as slow reads the same.
    quiet = [outcome([1.0, 2.0, 2.0, 0.5], [1, 1, 1, 1])]
    slow = [outcome([2.0, 4.0, 4.0, 1.0], [2, 2, 2, 2])]
    assert run.steady_metrics(slow) == pytest.approx(run.steady_metrics(quiet))
    assert run.steady_metrics(quiet) == {
        "decisions_per_s": pytest.approx(1000 / 5.5),
        "latency_ms_p50": pytest.approx(2000.0),
    }


def test_a_stall_the_gauge_missed_is_left_out():
    ones = [1, 1, 1, 1]
    clean = [outcome([1.0, 2.0, 2.0, 0.5], ones) for _ in range(5)]
    # Each pass but one stalls in a different piece; no piece stalls in most.
    stalled = [
        outcome([4.0, 2.0, 2.0, 0.5], ones),
        outcome([1.0, 9.0, 2.0, 0.5], ones),
        outcome([1.0, 2.0, 7.0, 0.5], ones),
        outcome([1.0, 2.0, 2.0, 3.5], ones),
        outcome([1.0, 2.0, 2.0, 0.5], ones),
    ]
    assert run.steady_metrics(stalled) == pytest.approx(run.steady_metrics(clean))


# --------------------------------------------------------------------------- #
# Manifest and names
# --------------------------------------------------------------------------- #
def test_manifest_matches_the_harness():
    manifest = report.load_manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }  # fmt: skip
    gated = {k: v for k, v in workloads.WORKLOAD_WHY.items() if k not in workloads.UNGATED}
    assert [w["name"] for w in manifest["workloads"]] == list(gated)
    assert {w["name"]: w["why"] for w in manifest["workloads"]} == gated
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]] == layers.PER_LAYER
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    units = [m["unit"] for key in ("end_to_end", "per_layer") for m in manifest[key]]
    assert all(UNIT.fullmatch(unit) for unit in units)
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])


def test_every_layer_metric_has_a_source():
    derived = set(layers.SETUP_FAMILIES.values()) | set(layers.ROOT_FAMILIES.values())
    derived |= {family + "_ms" for family in layers.PASS_FAMILIES}
    declared = {name for name, _, _ in layers.PER_LAYER}
    assert derived <= declared


def test_behaviour_overrides_are_refused(monkeypatch):
    assert bootstrap.behaviour_overrides({"REPRO_NN_KERNEL_CACHE": "/x", "HOME": "/root"}) == []
    assert bootstrap.behaviour_overrides(
        {"REPRO_NN_THREADS": "2", "REPRO_TRANSPORT": "tcp", "REPRO_TELEMETRY_PORT": "1"}
    ) == ["REPRO_NN_THREADS", "REPRO_TELEMETRY_PORT", "REPRO_TRANSPORT"]
    monkeypatch.setenv("REPRO_NN_BACKEND", "reference")
    with pytest.raises(bootstrap.BenchmarkRefused, match="REPRO_NN_BACKEND"):
        bootstrap.bootstrap()


# --------------------------------------------------------------------------- #
# compare / spread / check
# --------------------------------------------------------------------------- #
def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [value * 0.9 for value in parent]
    assert report.verdict(parent, faster, "lower", 0.10)["verdict"] == "improved"
    assert report.verdict(parent, faster, "higher", 0.05)["verdict"] == "regressed"
    assert report.verdict(parent, parent[::-1], "lower", 0.10)["verdict"] == "unchanged"
    # Ahead in every pair, but by less than the parent's own quartile distance.
    barely = [value - 0.1 for value in parent]
    assert report.verdict(parent, barely, "lower", 0.10)["verdict"] == "unchanged"
    # Beyond the quartiles of a metric that repeats almost exactly, but far
    # below what a 10 % bound claims to resolve.
    exact = [100.0 + 0.001 * i for i in range(10)]
    assert report.verdict(exact, [v - 0.2 for v in exact], "lower", 0.10)["verdict"] == "unchanged"
    # Ahead on the median but in too few of the pairs.
    mixed = faster[:7] + [value * 1.05 for value in parent[7:]]
    assert report.verdict(parent, mixed, "lower", 0.10)["verdict"] == "unchanged"
    noisy = [100.0, 140.0, 70.0, 130.0, 60.0, 150.0, 80.0, 120.0, 90.0, 110.0]
    assert report.verdict(noisy, noisy[::-1], "lower", 0.10)["verdict"] == "unresolved"
    row = report.verdict(parent, faster, "lower", 0.10)
    assert row["wins"] == row["pairs"] == 10 and row["worse_by"] == pytest.approx(-0.1)
    # An ungated metric can improve, but never regresses a change.
    assert report.verdict(parent, faster, "lower", None)["verdict"] == "improved"
    assert report.verdict(parent, faster, "higher", None)["verdict"] == "ungated"


def fake_result(workload, seed, started_at, value, digest="d", correct=True):
    metrics = {name: {"value": value, "unit": unit} for name, unit in run.END_TO_END_UNITS.items()}
    return {
        "workload": workload, "seed": seed, "inputs": f"in/seed{seed}", "trace": 0,
        "started_at": started_at, "metrics": metrics, "exact": {"digest": digest},
        "informational": {"attack_steps_per_s": {"value": value, "unit": "1/s", "better": "higher"}},
        "correct": correct, "failed": 0 if correct else 1, "failures": [], "path": f"{workload}-{seed}",
    }  # fmt: skip


def test_compare_pairs_in_run_order_and_reports_digests():
    manifest = report.load_manifest()
    parent = [fake_result("train-tree", s, 10 + s, 100.0 + s) for s in range(10)]
    change = [fake_result("train-tree", s, 50 + s, 70.0 + s) for s in range(10)]
    rows = report.compare_rows(parent, change[::-1], manifest)
    by_metric = {row["metric"]: row for row in rows}
    assert by_metric["latency_ms_p50"]["verdict"] == "improved"
    assert by_metric["decisions_per_s"]["verdict"] == "regressed"
    assert by_metric["attack_steps_per_s"]["verdict"] == "ungated"
    assert by_metric["digest"]["verdict"] == "equal" and by_metric["digest"]["pairs"] == 10
    assert "improved" in report.format_rows(rows, ["workload", "metric", "parent", "verdict"])


def test_spread_and_check():
    manifest = report.load_manifest()
    steady = [fake_result("serve-paced", s, s, 100.0 + 0.1 * s) for s in range(10)]
    rows = report.spread_rows(steady, manifest)
    assert len(rows) == len(manifest["end_to_end"]) and all(row["steady"] for row in rows)
    assert report.check_set(steady) == []
    twins = [
        fake_result("train-neural", 1, 1, 1.0, digest="a"),
        fake_result("train-sharded", 1, 2, 1.0, digest="b"),
        fake_result("train-neural", 1, 3, 1.0, digest="c"),
        fake_result("serve-paced", 2, 4, 1.0, correct=False),
    ]
    problems = report.check_set(twins)
    assert len(problems) == 3
    assert any("digest(train-sharded) != digest(train-neural)" in p for p in problems)
    assert any("disagree on exact outputs" in p for p in problems)


# --------------------------------------------------------------------------- #
# The command itself
# --------------------------------------------------------------------------- #
def run_command(*arguments, cwd=bootstrap.REPO_ROOT, script=PERF_DIR / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *arguments], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def last_line(done) -> dict:
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_scale_runs_all_five_workloads_with_checks(tmp_path):
    manifest = report.load_manifest()
    started = time.perf_counter()
    paths = []
    for name in workloads.WORKLOAD_WHY:
        line = last_line(
            run_command("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0",
                        "--scale", "smoke", "--out", str(tmp_path))
        )  # fmt: skip
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in manifest["end_to_end"]]
        for metric in manifest["end_to_end"]:
            entry = line["metrics"][metric["name"]]
            assert entry["unit"] == metric["unit"] and entry["value"] > 0
        paths.append(tmp_path / f"{name}-seed5-trace0.json")
    assert time.perf_counter() - started < 15.0
    results = report.load_results(paths)
    assert report.check_set(results) == []
    digests = {r["workload"]: r["exact"]["digest"] for r in results}
    assert digests["train-sharded"] == digests["train-neural"]
    assert digests["serve-paced"] == digests["serve-saturated"]
    assert all(r["host"]["nproc"] and r["program"]["backend"]["kernel"] == "compiled" for r in results)


@pytest.mark.parametrize("name", ["train-sharded", "serve-paced"])
def test_traced_smoke_run_reports_every_layer(name, tmp_path):
    manifest = report.load_manifest()
    line = last_line(
        run_command("--workload", name, "--seed", "6", "--seconds", "1", "--trace", "1",
                    "--scale", "smoke", "--out", str(tmp_path))
    )  # fmt: skip
    assert line["correct"] is True
    assert list(line["metrics"]) == [m["name"] for m in manifest["per_layer"]]
    result = json.load(open(tmp_path / f"{name}-seed6-trace1.json"))
    assert result["spans_written"] > 0 and Path(result["spans_path"]).parent == tmp_path
    own = "distrib.collect_ms" if name == "train-sharded" else "serve.flush_ms"
    other = "serve.flush_ms" if name == "train-sharded" else "distrib.collect_ms"
    assert line["metrics"][own]["value"] > 0 and line["metrics"][other]["value"] == 0


def test_refuses_where_there_is_no_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: nothing to measure."""
    shutil.copy(bootstrap.REPO_ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        PERF_DIR, tmp_path / "benchmarks" / "perf", ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    done = run_command(
        "--workload", "train-tree", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "benchmarks" / "perf" / "run.py",
    )  # fmt: skip
    assert done.returncode != 0
    assert "no program to measure" in done.stderr
    assert not done.stdout.strip()

"""One attributable benchmark: five workloads, end to end and layer by layer.

    python3 benchmarks/perf/run.py --workload train-neural --seed 1 --seconds 30 --trace 0
    python3 benchmarks/perf/run.py set --seeds 1 2 3 --out benchmarks/perf/out/a
    python3 benchmarks/perf/run.py spread benchmarks/perf/out/a/*.json
    python3 benchmarks/perf/run.py compare --parent out/a/*.json --change out/b/*.json
    python3 benchmarks/perf/run.py check benchmarks/perf/out/a/*.json
    python3 benchmarks/perf/run.py baseline --first ... --second ... --traced ...

A run prints its metrics by name and, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bootstrap import OUT_DIR, PERF_DIR, REPO_ROOT, BenchmarkRefused, bootstrap

END_TO_END_UNITS = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MiB",
}
# Reported by every untraced run that has them and compared by ``compare``,
# but never gated: each is undefined on some workload, can read 0, or is too
# noisy on this class of host to bound (see README).  name -> (unit, better)
INFORMATIONAL = {
    "latency_ms_p99": ("ms", "lower"),
    "over_limit_share": ("share", "lower"),
    "decisions_per_packet": ("ratio", "lower"),
    "attack_steps_per_s": ("1/s", "higher"),
}
# The traced passes' attributed wall must match what the harness timed.
RESIDUAL_TOLERANCE = {"train": 0.05, "serve": 0.10}


def host_metadata() -> Dict[str, object]:
    import numpy

    model = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    sha = "unknown"
    # Only where the checkout is a repository: elsewhere git would go looking
    # for one in the directories above it.
    if (REPO_ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
            )
            if probe.returncode == 0:
                sha = probe.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "load_average": list(os.getloadavg()),
    }


def load_program() -> Dict[str, object]:
    """Import the program and load its kernel pack before anything is timed.

    Fails closed: with the compiled kernels missing the ``blocked`` backend
    silently runs an einsum fallback, which is a different program.
    """
    started = time.perf_counter()
    from repro import nn

    imported = time.perf_counter()
    description = nn.backend.active_backend().describe()
    loaded = time.perf_counter()
    if description.get("kernel") != "compiled" or description.get("fused_cells") != "compiled":
        raise BenchmarkRefused(
            f"compiled kernels unavailable ({description.get('kernel_error')}; "
            f"{description.get('fused_cells_error')}): refusing to measure the fallback"
        )
    return {
        "backend": description,
        "import_s": imported - started,
        "kernel_load_s": loaded - imported,
    }


def steady_metrics(outcomes) -> Dict[str, float]:
    """Throughput and typical latency of a run's identical passes.

    The host is shared: its speed drifts by tens of per cent over minutes
    and drops by half for seconds at a time.  Each piece of each pass is
    therefore divided by the slowdown the gauge read around it, and, since
    the passes repeat the same work, each piece is taken at the lower
    quartile of its values across the passes: what the gauge missed only
    ever added time.  The pieces' sum is the wall of one pass at the
    reference host's speed.
    """
    import numpy as np

    def across_passes(pieces) -> "np.ndarray":
        return np.percentile(pieces, 25, axis=0)

    wall_s = across_passes([o.wall_parts_s / o.wall_slowdown for o in outcomes]).sum()
    latency_ms = across_passes([o.latency_parts_ms / o.latency_slowdown for o in outcomes])
    return {
        "decisions_per_s": float(outcomes[0].decisions / wall_s),
        "latency_ms_p50": float(np.median(latency_ms)),
    }


def trace_report(recorder, workload, outcomes, setup_groups, checks, measured_elsewhere) -> dict:
    """Per-layer metrics of a traced run: pass 0 untraced, passes 1.. traced."""
    import numpy as np

    import layers

    traced = outcomes[1:]
    pass_groups = [f"pass{i}" for i in range(1, len(outcomes))]
    totals = recorder.totals()
    roots = recorder.root_ms()
    tolerance = RESIDUAL_TOLERANCE[workload.kind]
    for group, outcome in zip(pass_groups, traced):
        timed_ms = outcome.timed_s * 1000.0
        checks.expect(
            abs(roots[group] - timed_ms) <= tolerance * timed_ms,
            f"{group}: self times account for the timed wall within {tolerance:.0%}",
        )

    def over_traced(value) -> float:
        return float(np.median([value(o) for o in traced]))

    layer = dict.fromkeys((metric for metric, _, _ in layers.PER_LAYER), 0.0)
    layer.update(layers.family_metrics(totals, setup_groups, pass_groups))
    layer.update(measured_elsewhere)
    if workload.kind == "train":
        iterations = np.concatenate([o.latency_parts_ms for o in traced])
        layer["core.agent.iter_ms_p90"] = float(np.percentile(iterations, 90))
        layer["core.agent.attack_steps_per_s"] = over_traced(lambda o: o.info["attack_steps_per_s"])
    else:
        for key in layers.SERVE_INFO:
            if key in traced[0].info:
                layer["serve." + key] = over_traced(lambda o: o.info[key])
    if "reference" in totals:
        in_process = totals["reference"]["core.collect"].busy_ms
        sharded = float(np.median([totals[g]["distrib.collect"].busy_ms for g in pass_groups]))
        # Time not hidden behind worker compute: W workers would take 1/W of
        # the in-process collect time if sharding were free.
        layer["distrib.overhead_share"] = 1.0 - (in_process / workload.workers) / sharded

    # The open-loop pacer's wall is its schedule; tracing shows as busy time.
    def cost(outcome) -> float:
        return outcome.info["busy_s"] if workload.paced else outcome.timed_s

    layer["trace_overhead_share"] = over_traced(cost) / cost(outcomes[0]) - 1.0
    units = {metric: unit for metric, unit, _ in layers.PER_LAYER}
    return {
        "layers": {k: {"value": v, "unit": units[k]} for k, v in layer.items()},
        "families": {
            group: {family: vars(t) for family, t in row.items()} for group, row in totals.items()
        },
        "attributed_ms": roots,
    }


def measure(
    name: str, seed: int, seconds: float, trace: bool, scale_name: str, out_dir: Path = OUT_DIR
) -> dict:
    """Run one workload; returns the result record.

    A traced run also writes the spans of its first traced pass as JSONL
    under ``out_dir``, which must exist.
    """
    import numpy as np

    import layers
    from gauge import NOMINAL_UNIT_MS, HostGauge, slowdown_between
    from spans import SpanRecorder
    from workloads import SCALES, Checks, make_workload

    started_at = time.time()
    host = host_metadata()
    program = load_program()
    scale = SCALES[scale_name]
    checks = Checks()
    recorder = SpanRecorder()
    # A traced run reports self times as recorded; only end-to-end times are
    # brought to the reference host's speed.
    gauge = None if trace else HostGauge()
    workload = make_workload(name, seed, scale, checks, gauge)
    clock = time.perf_counter

    install = recorder.install(layers.wrap_table()) if trace else contextlib.nullcontext()
    with install:
        setup_s: List[float] = []
        setup_groups = [f"setup{repeat}" for repeat in range(scale.setup_repeats)]
        setup_gauge_ms: List[float] = [gauge.sample()] if gauge else []
        for group in setup_groups:
            recorder.begin_group(group)
            start = clock()
            workload.set_up(recorder)
            setup_s.append(clock() - start)
            if gauge:
                setup_gauge_ms.append(gauge.sample())
        setup_slowdown = slowdown_between(setup_gauge_ms) if gauge else np.ones(len(setup_s))

        reference = None
        if name == "train-sharded":
            # The bit-equivalence contract, checked by this same command:
            # sharded collection must reproduce in-process collection.
            recorder.begin_group("reference")
            reference = workload.run_pass(recorder, in_process=True)

        outcomes = []
        began = clock()
        least = 2 if trace else 1
        pass_s = 0.0
        # Whole passes only, and none that would end after ``seconds``.
        while len(outcomes) < least or clock() - began + pass_s <= seconds:
            recorder.enabled = trace and len(outcomes) > 0
            recorder.begin_group(f"pass{len(outcomes)}")
            pass_began = clock()
            outcomes.append(workload.run_pass(recorder))
            pass_s = clock() - pass_began
        recorder.enabled = False
        measured_elsewhere = {"nn.kernel_load_s": program["kernel_load_s"]}
        if trace:
            measured_elsewhere.update(
                {
                    "nn.gemm_us.rollout": layers.gemm_probe_us(8, 64, 96, row_consistent=True),
                    "nn.gemm_us.minibatch": layers.gemm_probe_us(128, 64, 64, row_consistent=False),
                }
            )
            if name == "train-sharded":
                measured_elsewhere["distrib.frame_codec_us"] = layers.frame_codec_probe_us(
                    workload.codec_probe_message()
                )

    for key in outcomes[0].exact:
        checks.expect(
            all(o.exact[key] == outcomes[0].exact[key] for o in outcomes),
            f"{key} identical across the run's passes",
        )
    if reference is not None:
        checks.expect(
            reference.exact == outcomes[0].exact,
            "sharded collection reproduces in-process collection (digest, queries)",
        )

    measured = outcomes[:1] if trace else outcomes  # untraced passes only
    values = {
        "setup_s": float(np.median(np.asarray(setup_s) / setup_slowdown)),
        **steady_metrics(measured),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    walls = [o.timed_s for o in outcomes]
    result = {
        "workload": name,
        "inputs": workload.inputs,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale_name,
        "started_at": started_at,
        "host": host,
        "program": program,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "informational": {
            key: {
                "value": float(np.median([o.info[key] for o in measured])),
                "unit": unit,
                "better": better,
            }
            for key, (unit, better) in INFORMATIONAL.items()
            if key in measured[0].info
        },
        "samples": {
            "passes": len(measured),
            "setups": len(setup_s),
            "latency": sum(o.latency_samples for o in measured),
        },
        "setups": {"wall_s": setup_s, "slowdown": setup_slowdown.tolist()},
        # The median reading says what kind of host the run had.
        "host_slowdown": float(np.median(gauge.unit_ms)) / NOMINAL_UNIT_MS if gauge else None,
        "pass_spread": (max(walls) - min(walls)) / float(np.median(walls)),
        "exact": outcomes[0].exact,
        "passes": [
            {
                "timed_s": o.timed_s,
                "main_wall_s": o.main_wall_s,
                "info": o.info,
                "wall_parts_s": o.wall_parts_s.tolist(),
                "wall_slowdown": o.wall_slowdown.tolist(),
                "latency_parts_ms": o.latency_parts_ms.tolist(),
                "latency_slowdown": o.latency_slowdown.tolist(),
            }
            for o in outcomes
        ],
    }
    if trace:
        result.update(
            trace_report(recorder, workload, outcomes, setup_groups, checks, measured_elsewhere)
        )
        spans_path = out_dir / f"{name}-seed{seed}-spans.jsonl"
        result["spans_written"] = recorder.write_jsonl(spans_path, groups=["pass1"])
        result["spans_path"] = str(spans_path)
    result["attempted"] = checks.attempted
    result["failed"] = len(checks.failures)
    result["failures"] = checks.failures[:20]
    result["correct"] = not checks.failures
    return result


def command_run(args: argparse.Namespace) -> int:
    out_dir = Path(args.out) if args.out else OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        bootstrap()
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.scale, out_dir
        )
    except BenchmarkRefused as refusal:
        print(refusal, file=sys.stderr)
        return 2
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)

    reported = result["layers"] if args.trace else result["metrics"]
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} -> {path}")
    for name, entry in reported.items():
        print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']}")
    print(
        f"  passes={len(result['passes'])} pass_spread={result['pass_spread']:.3f} "
        f"samples={result['samples']} exact={result['exact']}"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": reported,
            }
        )
    )
    return 0 if result["correct"] else 1


def command_set(args: argparse.Namespace) -> int:
    """Run every workload once per seed, each in its own process, then check."""
    from workloads import WORKLOAD_WHY

    names = list(WORKLOAD_WHY)  # the gated workloads and the ungated ones
    if args.reverse:
        names.reverse()
    out_dir = Path(args.out) if args.out else OUT_DIR
    paths = []
    for seed in args.seeds:
        for name in names:
            command = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--scale", args.scale,
                "--out", str(out_dir),
            ]  # fmt: skip
            started = time.perf_counter()
            done = subprocess.run(command, capture_output=True, text=True, timeout=600)
            print(
                f"{name} seed={seed}: exit {done.returncode} in "
                f"{time.perf_counter() - started:.1f} s",
                flush=True,
            )
            if done.returncode != 0:
                print(done.stdout[-2000:] + done.stderr[-2000:])
                return done.returncode
            paths.append(out_dir / f"{name}-seed{seed}-trace{args.trace}.json")
    return command_check(argparse.Namespace(files=paths))


def command_check(args: argparse.Namespace) -> int:
    import report

    problems = report.check_set(report.load_results(args.files))
    for problem in problems:
        print("PROBLEM:", problem)
    print(f"check: {len(args.files)} result files, {len(problems)} problems")
    return 1 if problems else 0


def command_spread(args: argparse.Namespace) -> int:
    import report

    rows = report.spread_rows(report.load_results(args.files), report.load_manifest())
    print(
        report.format_rows(
            rows, ["workload", "metric", "unit", "n", "q1", "median", "q3", "spread", "bound", "steady"]
        )
    )
    return 0 if all(row["steady"] for row in rows) else 1


def command_compare(args: argparse.Namespace) -> int:
    import report

    rows = report.compare_rows(
        report.load_results(args.parent), report.load_results(args.change), report.load_manifest()
    )
    print(
        report.format_rows(
            rows, ["workload", "metric", "unit", "parent", "change", "wins", "pairs", "worse_by", "bound", "verdict"]
        )
    )
    return 1 if any(row["verdict"] in ("regressed", "DIFFERENT") for row in rows) else 0


def command_baseline(args: argparse.Namespace) -> int:
    import report

    record = report.baseline(
        report.load_results(args.first),
        report.load_results(args.second),
        report.load_results(args.traced),
        report.load_manifest(),
    )
    path = PERF_DIR / "baseline.json"
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    print(f"wrote {path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    from workloads import SCALES, WORKLOAD_WHY

    def add_run_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--seconds", type=float, default=30.0, help="how long to measure")
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
        parser.add_argument("--scale", choices=sorted(SCALES), default="full")
        parser.add_argument("--out", default=None, help="directory for result files")

    if argv and argv[0] in {"set", "check", "spread", "compare", "baseline"}:
        parser = argparse.ArgumentParser(prog="run.py")
        sub = parser.add_subparsers(dest="command", required=True)
        run_set = sub.add_parser("set", help="run all workloads per seed, then check")
        run_set.add_argument("--seeds", type=int, nargs="+", default=[1])
        run_set.add_argument("--reverse", action="store_true", help="run the workloads in reverse order")
        add_run_options(run_set)
        for name in ("check", "spread"):
            sub.add_parser(name).add_argument("files", nargs="+")
        compare = sub.add_parser("compare", help="pair parent and change result files in run order")
        compare.add_argument("--parent", nargs="+", required=True)
        compare.add_argument("--change", nargs="+", required=True)
        record = sub.add_parser("baseline", help="write baseline.json from two sets and a traced set")
        for option in ("--first", "--second", "--traced"):
            record.add_argument(option, nargs="+", required=True)
        args = parser.parse_args(argv)
        commands = {
            "set": command_set,
            "check": command_check,
            "spread": command_spread,
            "compare": command_compare,
            "baseline": command_baseline,
        }
        return commands[args.command](args)

    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_WHY))
    parser.add_argument("--seed", type=int, required=True)
    add_run_options(parser)
    return command_run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())

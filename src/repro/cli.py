"""Command-line interface for the Amoeba reproduction.

Provides a small operational surface for users who want to run the system
without writing Python:

* ``repro-amoeba generate`` — synthesise a Tor or V2Ray dataset and write it
  to JSONL;
* ``repro-amoeba evaluate-censors`` — train the selected censors and report
  detection accuracy/F1 on a held-out split;
* ``repro-amoeba attack`` — train Amoeba against one censor and report
  ASR / data overhead / time overhead (optionally saving the policy and the
  adversarial flows);
* ``repro-amoeba serve`` — load a saved policy and serve it to a synthetic
  live-traffic workload through the continuous-batching serving tier,
  reporting decisions/s, decision-latency percentiles and the
  profile-fallback rate;
* ``repro-amoeba backends`` — print the execution-backend diagnostic: which
  backends are registered, whether the compiled GEMM / fused-cell kernels
  loaded, and the compile error if they did not;
* ``repro-amoeba info`` — print the library version and experiment index.

Examples
--------
::

    repro-amoeba generate --dataset tor --flows 200 --output tor.jsonl
    repro-amoeba evaluate-censors --dataset tor --censors DT RF DF
    repro-amoeba attack --dataset tor --censor DF --timesteps 5000 --save-policy policy.npz
    repro-amoeba serve --policy policy.npz --sessions 64 --max-batch 16
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from . import __version__
from .eval import format_table
from .eval.metrics import classifier_detection_report
from .flows import save_dataset, save_flows_jsonl
from .pipeline import CENSOR_NAMES, ExperimentSpec, run_experiment

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-amoeba",
        description="Amoeba (CoNEXT 2023) reproduction: adversarial RL against ML censorship.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="synthesise a dataset and write it to JSONL")
    generate.add_argument("--dataset", choices=("tor", "v2ray"), default="tor")
    generate.add_argument("--flows", type=int, default=200, help="flows per class")
    generate.add_argument("--max-packets", type=int, default=60)
    generate.add_argument("--drop-rate", type=float, default=0.0)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", required=True, help="output JSONL path")

    evaluate = subparsers.add_parser("evaluate-censors", help="train censors and report detection metrics")
    evaluate.add_argument("--dataset", choices=("tor", "v2ray"), default="tor")
    evaluate.add_argument("--flows", type=int, default=120)
    evaluate.add_argument("--max-packets", type=int, default=40)
    evaluate.add_argument("--censors", nargs="+", default=["DT", "RF"], choices=list(CENSOR_NAMES))
    evaluate.add_argument("--epochs", type=int, default=8)
    evaluate.add_argument("--seed", type=int, default=0)

    attack = subparsers.add_parser("attack", help="train Amoeba against a censor and evaluate it")
    attack.add_argument("--dataset", choices=("tor", "v2ray"), default="tor")
    attack.add_argument("--flows", type=int, default=120)
    attack.add_argument("--max-packets", type=int, default=40)
    attack.add_argument("--censor", default="DT", choices=list(CENSOR_NAMES))
    attack.add_argument("--timesteps", type=int, default=3000)
    attack.add_argument("--eval-flows", type=int, default=20)
    attack.add_argument("--seed", type=int, default=0)
    attack.add_argument(
        "--workers",
        type=int,
        default=0,
        help="shard rollout collection across this many worker processes "
        "(0 = in-process; n_envs must divide evenly)",
    )
    attack.add_argument("--save-policy", default=None, help="path to save the trained policy (.npz)")
    attack.add_argument("--save-adversarial", default=None, help="path to save adversarial flows (JSONL)")

    serve = subparsers.add_parser(
        "serve", help="serve a saved policy to a synthetic live workload"
    )
    serve.add_argument("--policy", required=True, help="policy checkpoint (.npz) from attack --save-policy")
    serve.add_argument("--dataset", choices=("tor", "v2ray"), default="tor",
                       help="sets the size scale and the default traffic mix")
    serve.add_argument("--sessions", type=int, default=32, help="concurrent flow sessions")
    serve.add_argument("--max-packets", type=int, default=24, help="packets per flow (cap)")
    serve.add_argument("--arrival-rate", type=float, default=2000.0,
                       help="aggregate packet arrival rate of the schedule (packets/s)")
    serve.add_argument("--max-batch", type=int, default=16,
                       help="continuous-batching admission limit (1 = sequential reference)")
    serve.add_argument("--flush-timeout-ms", type=float, default=2.0,
                       help="flush a partial batch once its oldest request waited this long")
    serve.add_argument("--deadline-ms", type=float, default=None,
                       help="per-decision latency budget; repeated misses demote a "
                       "session to the offline profile tier")
    serve.add_argument("--profiles", default=None,
                       help="JSONL of successful adversarial flows seeding the fallback profile database")
    serve.add_argument("--seed", type=int, default=0)

    subparsers.add_parser(
        "backends", help="print the execution-backend diagnostic (kernels, fallbacks)"
    )

    subparsers.add_parser("info", help="print version and experiment index")
    return parser


def _command_generate(args: argparse.Namespace) -> int:
    try:
        data = run_experiment(_spec(args, drop_rate=args.drop_rate, censors=())).data
    except ValueError as error:
        raise SystemExit(f"generate: {error}") from None
    path = save_dataset(data.dataset, args.output)
    print(f"wrote {len(data.dataset)} flows to {path}")
    print(f"summary: {data.dataset.summary()}")
    return 0


def _spec(args: argparse.Namespace, **fields) -> ExperimentSpec:
    """The spec of a command's flags: ``--seed`` seeds the data, ``+ 1`` the
    censors and ``+ 2`` the agent."""
    seeds = dict(data_seed=args.seed, censor_seed=args.seed + 1, agent_seed=args.seed + 2)
    return ExperimentSpec(dataset=args.dataset, flows=args.flows, max_packets=args.max_packets, **seeds, **fields)


def _command_evaluate_censors(args: argparse.Namespace) -> int:
    result = run_experiment(_spec(args, censors=args.censors, censor_epochs=args.epochs, timesteps=0))
    rows = []
    for name, censor in result.censors.items():
        report = classifier_detection_report(censor, result.data.splits.test.flows)
        rows.append({"censor": name, "accuracy": report["accuracy"], "f1": report["f1"]})
    print(format_table(rows, columns=["censor", "accuracy", "f1"], title=f"Censor detection ({args.dataset})"))
    return 0


def _command_attack(args: argparse.Namespace) -> int:
    # Fail fast on argument errors, before the dataset build.
    for flag, value in (("--timesteps", args.timesteps), ("--eval-flows", args.eval_flows)):
        if value < 1:
            raise SystemExit(f"{flag} must be >= 1, got {value}")
    spec = _spec(args, censors=(args.censor,), timesteps=args.timesteps, eval_flows=args.eval_flows)
    n_envs = spec.agent_config().n_envs
    if args.workers < 0 or (args.workers and n_envs % args.workers):
        raise SystemExit(
            f"--workers must be 0 (in-process) or divide n_envs={n_envs}, got {args.workers}"
        )
    result = run_experiment(spec, workers=args.workers or None)
    agent, report = result.agents[args.censor], result.reports[args.censor]
    baseline = classifier_detection_report(result.censors[args.censor], result.data.splits.test.flows)
    print(f"censor {args.censor}: accuracy={baseline['accuracy']:.3f} F1={baseline['f1']:.3f} (no attack)")
    print(
        format_table(
            [
                {
                    "censor": args.censor,
                    "asr": report.attack_success_rate,
                    "data_overhead": report.data_overhead,
                    "time_overhead": report.time_overhead,
                    "training_queries": result.training_queries[args.censor],
                }
            ],
            columns=["censor", "asr", "data_overhead", "time_overhead", "training_queries"],
            title=f"Amoeba vs {args.censor} ({args.dataset})",
        )
    )
    if args.save_policy:
        agent.save_policy(args.save_policy)
        print(f"policy saved to {args.save_policy}")
    if args.save_adversarial:
        path = save_flows_jsonl([r.adversarial_flow for r in report.results], args.save_adversarial)
        print(f"adversarial flows saved to {path}")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the serving tier is optional for the other commands.
    from .core.profiles import ProfileDatabase
    from .flows import load_flows_jsonl
    from .serve import PolicyServer, ServeConfig, SyntheticWorkload, run_workload

    size_scale = 16384.0 if args.dataset == "v2ray" else 1460.0
    mix = (
        {"v2ray": 0.6, "https": 0.4}
        if args.dataset == "v2ray"
        else {"tor": 0.6, "https": 0.4}
    )
    try:
        config = ServeConfig(
            size_scale=size_scale,
            max_batch=args.max_batch,
            flush_timeout_ms=args.flush_timeout_ms,
            deadline_ms=args.deadline_ms,
        )
        workload = SyntheticWorkload.generate(
            n_sessions=args.sessions,
            mix=mix,
            arrival_rate_pps=args.arrival_rate,
            max_packets=args.max_packets,
            rng=args.seed,
        )
    except ValueError as error:
        raise SystemExit(f"serve: {error}") from None
    profile_db = None
    if args.profiles:
        try:
            profile_flows = load_flows_jsonl(args.profiles)
        except (OSError, ValueError) as error:
            raise SystemExit(f"serve: {error}") from None
        profile_db = ProfileDatabase()
        profile_db.add_flows(profile_flows)
        print(f"fallback profile database: {len(profile_db)} profiles from {args.profiles}")

    try:
        server = PolicyServer.from_checkpoint(args.policy, config=config, profile_db=profile_db)
    except (OSError, ValueError) as error:
        raise SystemExit(f"serve: {error}") from None
    report = run_workload(server, workload)

    print(
        format_table(
            [
                {
                    "sessions": report.n_sessions,
                    "packets": report.n_packets,
                    "decisions": report.decisions,
                    "decisions_per_s": report.decisions_per_s,
                    "p50_ms": report.p50_latency_ms,
                    "p99_ms": report.p99_latency_ms,
                    "fallback_rate": report.profile_fallback_rate,
                }
            ],
            columns=[
                "sessions",
                "packets",
                "decisions",
                "decisions_per_s",
                "p50_ms",
                "p99_ms",
                "fallback_rate",
            ],
            title=f"Policy serving ({args.dataset}, max_batch={args.max_batch})",
        )
    )
    return 0


def _command_backends(_: argparse.Namespace) -> int:
    """Execution-backend diagnostic: kernels, fallback reasons.

    This is the operational surface for the one-time fallback warnings: the
    exact compiler / loader error of the GEMM, and every hook of the
    ``blocked`` backend with whether it runs compiled.
    """
    from .nn import backend as nn_backend

    active = nn_backend.active_backend()
    print(f"registered backends: {', '.join(nn_backend.available_backends())}")
    print(f"default backend:     {nn_backend.default_backend().name}")
    print(f"active backend:      {active.name}")

    if nn_backend.compiled_kernel_available():
        print("rc-GEMM kernel:      compiled (row-consistent C extension)")
    else:
        print("rc-GEMM kernel:      einsum fallback (row-consistent, slower)")
        print(f"  compile error: {nn_backend.compiled_kernel_error()}")
    status = nn_backend.hook_status()
    failed = [name for name, reason in status.items() if reason]
    if failed:
        print(f"fused-cell kernels:  numpy fallback for {len(failed)} of {len(status)} hooks")
        print(f"  error: {nn_backend.fused_cells_error()}")
    else:
        print(f"fused-cell kernels:  compiled ({len(status)} hooks)")
    for name in status:
        print(f"  hook {name + ':':<31}{'numpy fallback' if name in failed else 'compiled'}")

    print("per-backend describe():")
    for name in nn_backend.available_backends():
        description = nn_backend.get_backend(name).describe()
        details = ", ".join(f"{key}={value}" for key, value in sorted(description.items()))
        print(f"  {name}: {details}")
    return 0


def _command_info(_: argparse.Namespace) -> int:
    print(f"repro {__version__} — reproduction of Amoeba (CoNEXT 2023)")
    print(
        "experiments: see README.md (Tests and benchmarks) and "
        "benchmarks/bench_table*.py / benchmarks/bench_fig*.py (one per paper table or figure)"
    )
    print(f"censoring classifiers: {', '.join(CENSOR_NAMES)}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _command_generate,
        "evaluate-censors": _command_evaluate_censors,
        "attack": _command_attack,
        "serve": _command_serve,
        "backends": _command_backends,
        "info": _command_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

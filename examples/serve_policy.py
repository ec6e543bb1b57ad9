#!/usr/bin/env python3
"""Checkpoint -> PolicyServer -> load generator, end to end (Section 5.6).

The deployment story of the paper, as a running system:

1. train Amoeba against a censor and save the policy checkpoint;
2. load the checkpoint into the online serving tier (`repro.serve`): the
   architecture is inferred from the state-dict shapes, each concurrent
   flow session holds its own incremental encoder state, and a
   continuous-batching scheduler coalesces per-packet decisions across
   sessions into single batched forwards;
3. drive the server with a synthetic Tor/V2Ray/HTTPS packet schedule and
   compare batched vs sequential serving throughput;
4. apply a per-decision latency deadline (the Figure 11 inter-packet-delay
   argument) with a profile database (Table 2) as the offline fallback
   tier, and report how many sessions the online path could not hold.

Run with:  python examples/serve_policy.py
"""

from __future__ import annotations

from pathlib import Path
import tempfile

from repro.core import ProfileDatabase
from repro.eval import format_percent
from repro.pipeline import ExperimentSpec, run_experiment
from repro.serve import (
    PolicyServer,
    ServeConfig,
    SyntheticWorkload,
    run_workload,
    summarize_stats,
)


def main() -> None:
    # --- 1. Train and checkpoint ------------------------------------------
    spec = ExperimentSpec(
        flows=80, max_packets=24, censors=("DT",), timesteps=2000, data_seed=51, censor_seed=52, agent_seed=53
    )
    result = run_experiment(spec)
    data, agent = result.data, result.agents["DT"]
    checkpoint = Path(tempfile.mkdtemp()) / "policy.npz"
    agent.save_policy(checkpoint)
    print(f"policy checkpoint written to {checkpoint}")

    # --- 2. Serving tier from the checkpoint ------------------------------
    config = ServeConfig.from_amoeba(
        agent.config, data.normalizer.size_scale, max_batch=16, flush_timeout_ms=1.0
    )
    workload = SyntheticWorkload.generate(
        n_sessions=48,
        mix={"tor": 0.6, "https": 0.4},
        arrival_rate_pps=3000.0,
        max_packets=24,
        rng=54,
    )

    # --- 3. Batched vs sequential throughput ------------------------------
    sequential = run_workload(
        PolicyServer.from_checkpoint(checkpoint, config=config.with_overrides(max_batch=1)),
        workload,
    )
    batched = run_workload(PolicyServer.from_checkpoint(checkpoint, config=config), workload)
    print(
        f"sequential (max_batch=1): {sequential.decisions_per_s:8.0f} decisions/s "
        f"(p50 {sequential.p50_latency_ms:.3f} ms, p99 {sequential.p99_latency_ms:.3f} ms)"
    )
    print(
        f"batched    (max_batch={config.max_batch}): {batched.decisions_per_s:7.0f} decisions/s "
        f"(p50 {batched.p50_latency_ms:.3f} ms, p99 {batched.p99_latency_ms:.3f} ms)"
        f"  -> {batched.decisions_per_s / sequential.decisions_per_s:.2f}x"
    )

    # --- 4. Deadline-driven fallback to the profile tier ------------------
    profile_db = ProfileDatabase(handshake_cost_ms=80.0)
    training_results = agent.attack_many(data.splits.attack_train.censored_flows[:40])
    added = profile_db.add_flows(
        [r.adversarial_flow for r in training_results],
        [r.success for r in training_results],
    )
    print(f"\nfallback profile database: {added} successful adversarial profiles")
    deadline_ms = max(batched.p50_latency_ms, 1e-3)  # half the decisions miss
    strict = run_workload(
        PolicyServer.from_checkpoint(
            checkpoint,
            config=config.with_overrides(deadline_ms=deadline_ms, miss_window=4),
            profile_db=profile_db if added else None,
        ),
        workload,
    )
    print(
        f"with a {deadline_ms:.3f} ms decision deadline: "
        f"{format_percent(strict.deadline_miss_rate)} of decisions missed it, "
        f"{format_percent(strict.profile_fallback_rate)} of sessions were demoted "
        "to the offline profile tier"
    )
    fallback_overhead = summarize_stats(strict.stats)["fallback_data_overhead"]
    if added and fallback_overhead > 0:
        print(
            "mean data overhead of the profile-embedded fallback payload: "
            f"{format_percent(fallback_overhead)}"
        )
    print(
        "\nAs in the paper, flows the online path can serve in time get "
        "per-packet adversarial shaping; the rest fall back to pre-stored "
        "profile shapes at extra data/time overhead."
    )


if __name__ == "__main__":
    main()

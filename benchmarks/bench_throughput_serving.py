"""Serving-tier throughput: continuous batching vs sequential decisions.

The paper's deployment argument (Section 5.6, Figure 11) is about whether
per-packet online inference can keep up with live traffic.  The serving
tier answers with continuous batching: pending decisions across concurrent
flow sessions coalesce into single ``act_batch`` / ``step_pairs`` forwards.
This benchmark drives one synthetic workload through two serving setups
and writes ``BENCH_serving.json``:

* **sequential** — ``max_batch=1``: one session's decision per forward, the
  reference path every decision stream is bit-identical to (asserted in
  ``tests/test_serve.py`` via the row-consistent matmul contract);
* **batched** — ``max_batch=16``: the continuous-batching scheduler.  The
  decisions/s win is asserted **strictly** — batching the GEMMs must beat
  one-at-a-time forwards regardless of core count.

A third run applies a deliberately impossible decision deadline so the
per-session latency tracker demotes flows to the offline profile tier,
exercising (and recording) the Figure 11 fallback path: p50/p99 decision
latency and the profile-fallback rate land in the JSON alongside the
throughput numbers.

Runs as a CI smoke test: self-contained, no training, under a minute.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import GaussianActor, StateEncoder
from repro.core.profiles import ProfileDatabase
from repro.serve import (
    PolicyServer,
    ServeConfig,
    SyntheticWorkload,
    run_workload,
)

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

N_SESSIONS = 32
MAX_PACKETS = 16
MAX_BATCH = 16
ENCODER_HIDDEN = 16
ARRIVAL_RATE = 4000.0


@pytest.fixture(scope="module")
def serving_setup():
    rng = np.random.default_rng(11)
    encoder = StateEncoder(hidden_size=ENCODER_HIDDEN, num_layers=2, rng=rng)
    actor = GaussianActor(state_dim=2 * ENCODER_HIDDEN, hidden_dims=(32, 16), rng=rng)
    workload = SyntheticWorkload.generate(
        n_sessions=N_SESSIONS,
        mix={"tor": 0.5, "https": 0.3, "v2ray": 0.2},
        arrival_rate_pps=ARRIVAL_RATE,
        max_packets=MAX_PACKETS,
        rng=13,
    )
    base_config = ServeConfig(size_scale=1460.0, flush_timeout_ms=0.5)
    return dict(actor=actor, encoder=encoder, workload=workload, config=base_config)


def _serve(setup, **overrides):
    config = setup["config"].with_overrides(**overrides)
    server = PolicyServer(setup["actor"], setup["encoder"], config=config)
    return run_workload(server, setup["workload"])


def test_continuous_batching_beats_sequential_serving(serving_setup):
    sequential = _serve(serving_setup, max_batch=1)
    batched = _serve(serving_setup, max_batch=MAX_BATCH)

    # Deadline no serving process can meet -> every session demotes to the
    # offline tier once its miss window fills; the fallback payload embeds
    # into a profile database built from the workload's own tor flows.
    profile_db = ProfileDatabase()
    profile_db.add_flows(list(serving_setup["workload"].flows.values()))
    fallback_server = PolicyServer(
        serving_setup["actor"],
        serving_setup["encoder"],
        config=serving_setup["config"].with_overrides(
            max_batch=MAX_BATCH, deadline_ms=1e-6, miss_window=4
        ),
        profile_db=profile_db,
    )
    fallback = run_workload(fallback_server, serving_setup["workload"])

    from repro.nn import backend as nnb

    cpu_count = os.cpu_count() or 1
    results = {
        "n_sessions": N_SESSIONS,
        "n_packets": serving_setup["workload"].n_packets,
        "max_batch": MAX_BATCH,
        "cpu_count": cpu_count,
        "backend": nnb.active_backend().describe(),
        "sequential": sequential.as_dict(),
        "batched": {
            **batched.as_dict(),
            "speedup_vs_sequential": round(
                batched.decisions_per_s / sequential.decisions_per_s, 2
            ),
        },
        "deadline_fallback": fallback.as_dict(),
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    print(
        f"\npolicy serving, {N_SESSIONS} sessions x <= {MAX_PACKETS} packets, "
        f"cpus={cpu_count}:\n"
        f"  sequential (max_batch=1):  {sequential.decisions_per_s:9.1f} decisions/s "
        f"(p50 {sequential.p50_latency_ms:.3f} ms, p99 {sequential.p99_latency_ms:.3f} ms)\n"
        f"  batched (max_batch={MAX_BATCH}):   {batched.decisions_per_s:9.1f} decisions/s "
        f"(p50 {batched.p50_latency_ms:.3f} ms, p99 {batched.p99_latency_ms:.3f} ms)"
        f"  -> {batched.decisions_per_s / sequential.decisions_per_s:.2f}x\n"
        f"  deadline fallback: {fallback.profile_fallback_rate:.1%} of sessions demoted "
        f"to the profile tier\n"
        f"  results written to {RESULTS_PATH.name}"
    )

    # Every setup must serve the complete workload.
    assert batched.decisions == sequential.decisions
    # Acceptance: coalescing decisions into batched forwards must be
    # strictly faster than one-session-at-a-time serving.
    assert batched.decisions_per_s > sequential.decisions_per_s, (
        f"continuous batching failed to beat sequential serving: "
        f"{batched.decisions_per_s:.1f} <= {sequential.decisions_per_s:.1f} decisions/s"
    )
    # The impossible deadline must actually trip the offline fallback.
    assert fallback.profile_fallback_rate > 0.5
    assert fallback.deadline_miss_rate > 0.5

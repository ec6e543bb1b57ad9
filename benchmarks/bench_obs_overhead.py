"""Telemetry overhead gate: enabled-mode throughput within 5% of disabled.

The :mod:`repro.obs` telemetry tier promises to be cheap enough to leave on
in production: disabled-mode instrumentation is one module-attribute read
and a branch per site, and enabled mode adds only clock reads, histogram
bucket increments and bounded span records.  This benchmark enforces that
contract on both hot tiers and writes ``BENCH_obs.json``:

* **training** — identical tiny-agent PPO runs (pre-built encoder, fixed
  seeds) with telemetry off and on; throughput in timesteps/s;
* **serving** — identical synthetic workloads through a
  :class:`~repro.serve.PolicyServer`; decisions/s.

Gate: for each tier, the best *paired* ratio must reach 95%.  Each rep
runs one disabled and one enabled leg back to back (order alternating
between reps) and contributes the ratio of that adjacent pair; the gate
takes the best pair.  Pairing is what makes the measurement survive a busy
CI runner: a load spike that slows one leg also slows its adjacent twin,
so the pair's ratio stays near truth, while comparing bests across the
whole run lets a spike that lands only on enabled legs masquerade as
telemetry overhead.  The alternating order cancels any residual
first-leg/second-leg bias (cache warmth, allocator state).

A sample of the enabled-mode run — the metric snapshot plus the span trace
of the last training iteration and serving flushes — is archived to
``BENCH_obs_trace.jsonl`` and uploaded as a CI artifact, so every CI run
leaves behind one inspectable trace profile.

Runs as a CI smoke test: self-contained, no pretraining, under a minute.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.core import GaussianActor, StateEncoder
from repro.core.agent import Amoeba
from repro.core.config import AmoebaConfig
from repro.pipeline import make_censor, prepare_experiment_data
from repro.serve import PolicyServer, ServeConfig, SyntheticWorkload, run_workload

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs.json"
TRACE_PATH = Path(__file__).resolve().parents[1] / "BENCH_obs_trace.jsonl"

REPS = 5
MAX_OVERHEAD = 0.05  # enabled throughput >= (1 - this) * disabled
TRAIN_TIMESTEPS = 128
ENCODER_HIDDEN = 8


def _build_training_run():
    """One deterministic tiny training run (fresh agent, fixed seeds)."""
    data = prepare_experiment_data("tor", n_censored=24, n_benign=24, max_packets=16, rng=7)
    censor = make_censor("DT", data, rng=8)
    censor.fit(data.splits.clf_train.flows)
    config = AmoebaConfig(
        n_envs=2,
        rollout_length=16,
        update_epochs=2,
        n_minibatches=2,
        actor_hidden=(16,),
        critic_hidden=(16,),
        encoder_hidden=ENCODER_HIDDEN,
        max_episode_steps=16,
    )
    flows = data.splits.attack_train.censored_flows

    def run() -> float:
        encoder = StateEncoder(
            hidden_size=config.encoder_hidden,
            num_layers=config.encoder_layers,
            rng=np.random.default_rng(9),
        )
        agent = Amoeba(censor, data.normalizer, config, rng=10, state_encoder=encoder)
        start = time.perf_counter()
        agent.train(flows, total_timesteps=TRAIN_TIMESTEPS)
        elapsed = time.perf_counter() - start
        return TRAIN_TIMESTEPS / elapsed  # timesteps/s

    return run


def _build_serving_run():
    """One deterministic serving workload (fresh server per leg)."""
    rng = np.random.default_rng(11)
    encoder = StateEncoder(hidden_size=ENCODER_HIDDEN, num_layers=1, rng=rng)
    encoder.eval()
    actor = GaussianActor(state_dim=2 * ENCODER_HIDDEN, action_dim=2, hidden_dims=(16,), rng=rng)
    workload = SyntheticWorkload.generate(
        n_sessions=16,
        mix={"tor": 0.6, "https": 0.4},
        arrival_rate_pps=4000.0,
        max_packets=16,
        rng=12,
    )
    config = ServeConfig(max_batch=8, flush_timeout_ms=0.5)

    def run() -> float:
        server = PolicyServer(actor, encoder, config=config)
        report = run_workload(server, workload)
        return report.decisions_per_s

    return run


def _paired(run, reps: int = REPS):
    """Back-to-back disabled/enabled pairs; returns the best pair ratio.

    Adjacent legs see the same machine conditions, so each pair's ratio
    isolates telemetry overhead from load noise; the best pair is the one
    measured on the quietest stretch.
    """
    disabled, enabled, ratios = [], [], []
    for rep in range(reps):
        legs = ("off", "on") if rep % 2 == 0 else ("on", "off")
        for leg in legs:
            if leg == "off":
                obs.disable()
                disabled.append(run())
            else:
                obs.enable()
                obs.reset()
                enabled.append(run())
        ratios.append(enabled[-1] / disabled[-1])
    obs.disable()
    return max(ratios), disabled, enabled, ratios


def test_telemetry_overhead_within_gate():
    train_run = _build_training_run()
    serve_run = _build_serving_run()

    train_ratio, train_off_all, train_on_all, train_ratios = _paired(train_run)
    # Keep the enabled-mode training trace before the serving legs reset it.
    obs.enable()
    obs.reset()
    train_run()
    train_snapshot = obs.registry().snapshot()
    train_spans = obs.tracer().records()
    obs.disable()

    serve_ratio, serve_off_all, serve_on_all, serve_ratios = _paired(serve_run)
    obs.enable()
    obs.reset()
    serve_run()
    serve_snapshot = obs.registry().snapshot()
    serve_spans = obs.tracer().records()
    obs.disable()

    TRACE_PATH.write_text("")  # JsonlSink appends; start each run fresh
    with obs.JsonlSink(TRACE_PATH) as sink:
        sink.write_metrics(train_snapshot)
        sink.write_spans(train_spans)
        sink.write_metrics(serve_snapshot)
        sink.write_spans(serve_spans)

    results = {
        "reps": REPS,
        "max_overhead": MAX_OVERHEAD,
        "training": {
            "disabled_timesteps_per_s": round(max(train_off_all), 1),
            "enabled_timesteps_per_s": round(max(train_on_all), 1),
            "ratio": round(train_ratio, 4),
            "pair_ratios": [round(r, 4) for r in train_ratios],
            "disabled_legs": [round(x, 1) for x in train_off_all],
            "enabled_legs": [round(x, 1) for x in train_on_all],
        },
        "serving": {
            "disabled_decisions_per_s": round(max(serve_off_all), 1),
            "enabled_decisions_per_s": round(max(serve_on_all), 1),
            "ratio": round(serve_ratio, 4),
            "pair_ratios": [round(r, 4) for r in serve_ratios],
            "disabled_legs": [round(x, 1) for x in serve_off_all],
            "enabled_legs": [round(x, 1) for x in serve_on_all],
        },
        "trace_artifact": TRACE_PATH.name,
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    print(
        f"\ntelemetry overhead (best of {REPS} adjacent off/on pairs):\n"
        f"  training: best pair ratio {train_ratio:.3f} "
        f"(pairs {[f'{r:.3f}' for r in train_ratios]})\n"
        f"  serving:  best pair ratio {serve_ratio:.3f} "
        f"(pairs {[f'{r:.3f}' for r in serve_ratios]})\n"
        f"  results written to {RESULTS_PATH.name}, trace to {TRACE_PATH.name}"
    )

    assert train_spans and train_snapshot, "enabled training run recorded no telemetry"
    assert serve_spans and serve_snapshot, "enabled serving run recorded no telemetry"
    assert train_ratio >= 1.0 - MAX_OVERHEAD, (
        f"enabled-telemetry training throughput dropped below the "
        f"{MAX_OVERHEAD:.0%} overhead gate: ratio {train_ratio:.3f}"
    )
    assert serve_ratio >= 1.0 - MAX_OVERHEAD, (
        f"enabled-telemetry serving throughput dropped below the "
        f"{MAX_OVERHEAD:.0%} overhead gate: ratio {serve_ratio:.3f}"
    )


# --------------------------------------------------------------------- #
# Distributed leg: driver and worker instruments must also be ~free
# --------------------------------------------------------------------- #
DIST_WORKERS = 2
DIST_TICKS = 16


def _build_distributed_run():
    """One deterministic 2-worker sharded collect (fresh engine per leg).

    The engine is constructed inside ``run()`` so the telemetry flag set by
    :func:`_paired` is inherited by the forked workers —
    that is exactly the production path, and it means the enabled legs pay
    the full cost under test: the driver's command spans and transport
    counters plus each worker's own collect spans and counters, which stay
    in the worker.
    """
    from repro.distrib import ShardedRolloutEngine
    from repro.nn.serialization import state_dict_to_bytes
    from repro.utils.rng import collection_seed_tree

    data = prepare_experiment_data("tor", n_censored=24, n_benign=24, max_packets=16, rng=7)
    censor = make_censor("DT", data, rng=8)
    censor.fit(data.splits.clf_train.flows)
    config = AmoebaConfig(
        n_envs=2,
        rollout_length=DIST_TICKS,
        actor_hidden=(16,),
        critic_hidden=(16,),
        encoder_hidden=ENCODER_HIDDEN,
        max_episode_steps=16,
    )
    flows = data.splits.attack_train.censored_flows

    def run() -> float:
        encoder = StateEncoder(
            hidden_size=config.encoder_hidden,
            num_layers=config.encoder_layers,
            rng=np.random.default_rng(9),
        )
        agent = Amoeba(censor, data.normalizer, config, rng=10, state_encoder=encoder)
        seed_tree = collection_seed_tree(agent._rng, config.n_envs)
        engine = ShardedRolloutEngine.for_agent(agent, flows, seed_tree, DIST_WORKERS)
        try:
            engine.broadcast(state_dict_to_bytes(agent._policy_state()))
            start = time.perf_counter()
            engine.collect(DIST_TICKS)
            elapsed = time.perf_counter() - start
        finally:
            engine.close()
        return config.n_envs * DIST_TICKS / elapsed

    return run


def test_distributed_telemetry_overhead_within_gate():
    run = _build_distributed_run()
    ratio, off_all, on_all, ratios = _paired(run)

    # One more instrumented run: the driver records its own command spans
    # and transport counters; the workers' telemetry stays in the workers.
    obs.enable()
    obs.reset()
    run()
    snapshot = obs.registry().snapshot()
    span_names = {record.name for record in obs.tracer().records()}
    obs.disable()

    assert "transport_frames_sent_total" in obs.prometheus_text(snapshot), (
        "driver registry missed transport metrics"
    )
    assert "distrib.collect" in span_names, "driver recorded no distrib.collect span"
    assert not any(name.startswith("worker.") for name in span_names), (
        "a worker span reached the driver"
    )

    results = {}
    if RESULTS_PATH.exists():  # merge with the single-process legs if present
        results = json.loads(RESULTS_PATH.read_text())
    results.setdefault("reps", REPS)
    results.setdefault("max_overhead", MAX_OVERHEAD)
    results["distributed"] = {
        "workers": DIST_WORKERS,
        "disabled_env_steps_per_s": round(max(off_all), 1),
        "enabled_env_steps_per_s": round(max(on_all), 1),
        "ratio": round(ratio, 4),
        "pair_ratios": [round(r, 4) for r in ratios],
        "disabled_legs": [round(x, 1) for x in off_all],
        "enabled_legs": [round(x, 1) for x in on_all],
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    print(
        f"\ndistributed telemetry overhead (best of {REPS} adjacent off/on pairs):\n"
        f"  2-worker collect: best pair ratio {ratio:.3f} "
        f"(pairs {[f'{r:.3f}' for r in ratios]})"
    )

    assert ratio >= 1.0 - MAX_OVERHEAD, (
        f"enabled-telemetry distributed collect throughput dropped below the "
        f"{MAX_OVERHEAD:.0%} overhead gate: ratio {ratio:.3f}"
    )

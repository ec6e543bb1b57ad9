#!/usr/bin/env python3
"""Offline deployment via adversarial flow profiles (Section 5.6.1).

Online per-packet inference may be slower than the inter-packet gaps of real
traffic, so the paper proposes pre-generating adversarial flow *shapes*
(profiles), storing them in a database synchronised between the two proxy
endpoints, and embedding real payload into those shapes at transmission
time.  This example:

1. trains Amoeba against a censor and collects successful adversarial flows;
2. measures the single-step inference latency and compares it against the
   same-direction inter-packet delay distribution (Figure 11);
3. builds a profile database and reports the data/time overhead of the
   offline mode versus the online mode (Table 2).

Run with:  python examples/profile_deployment.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import ProfileDatabase
from repro.eval import delay_distribution_summary, format_percent, fraction_below
from repro.pipeline import ExperimentSpec, run_experiment


def main() -> None:
    spec = ExperimentSpec(
        flows=100, max_packets=32, censors=("RF",), timesteps=2500, data_seed=31, censor_seed=32, agent_seed=33
    )
    result = run_experiment(spec)
    data, agent = result.data, result.agents["RF"]

    # --- Online mode -------------------------------------------------------
    online = result.reports["RF"]
    print(
        f"online mode:  ASR={format_percent(online.attack_success_rate)}  "
        f"DO={format_percent(online.data_overhead)}  TO={format_percent(online.time_overhead)}"
    )

    # --- Inference latency vs inter-packet delays (Figure 11) --------------
    state = np.zeros((1, agent.config.state_dim))
    start = time.perf_counter()
    for _ in range(200):
        agent.actor.act_batch(state)
    inference_ms = (time.perf_counter() - start) / 200 * 1000.0
    delays = np.concatenate([flow.same_direction_delays() for flow in data.dataset.flows])
    print(f"single-step inference latency: {inference_ms:.3f} ms")
    print(f"same-direction inter-packet delays: {delay_distribution_summary(delays)}")
    print(
        f"fraction of gaps shorter than the inference latency: "
        f"{format_percent(fraction_below(delays, inference_ms))}"
    )

    # --- Offline profile mode (Table 2) ------------------------------------
    training_results = agent.attack_many(data.splits.attack_train.censored_flows[:40])
    database = ProfileDatabase(handshake_cost_ms=80.0)
    added = database.add_flows(
        [r.adversarial_flow for r in training_results], [r.success for r in training_results]
    )
    print(f"\nprofile database: {added} successful adversarial profiles stored")
    if added == 0:
        print("no successful profiles at this training scale; increase total_timesteps")
        return
    summary = database.overhead_summary(data.splits.test.censored_flows[:20], rng=34)
    print(
        f"offline mode: DO={format_percent(summary['data_overhead'])}  "
        f"TO={format_percent(summary['time_overhead'])}  "
        f"profiles per flow={summary['mean_profiles_per_flow']:.2f}  "
        f"fully embedded={format_percent(summary['fully_embedded_rate'])}"
    )
    print(
        "\nAs in the paper, the offline mode trades extra data/time overhead "
        "(dummy packets, extra handshakes) for zero per-packet inference cost."
    )


if __name__ == "__main__":
    main()

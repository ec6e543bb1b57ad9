"""Ablation — truncation + padding vs. padding-only action space.

Section 4.2 argues that supporting only padding cannot disturb directional
features (packet counts per direction stay fixed), so censors that rely on
direction patterns remain effective.  This ablation compares the full Amoeba
action space against a padding-only variant (truncation disabled by setting
``max_truncations_per_packet`` to 1 and a large ``lambda_split``, which the
paper notes suppresses truncation entirely).
"""

from __future__ import annotations

import numpy as np

from repro.eval import format_table
from repro.pipeline import run_experiment

from conftest import HALF_TOR_SPEC


def test_ablation_action_space(benchmark, tor_suite):
    spec = HALF_TOR_SPEC.with_overrides(censors=("DF",), agent_seed=555)
    variants = {
        "truncation+padding": spec,
        # lambda_split > 0.1 suppresses truncation (Appendix A.4); combined with a
        # single-truncation budget this makes the agent effectively padding-only.
        "padding-only": spec.with_overrides(agent=dict(lambda_split=1.0, max_truncations_per_packet=1)),
    }

    rows = []
    results = {}
    for label, variant in variants.items():
        report = run_experiment(variant).reports["DF"]
        truncation_usage = np.mean(
            [r.action_counts["truncation"] for r in report.results]
        )
        rows.append(
            {
                "action_space": label,
                "asr": report.attack_success_rate,
                "data_overhead": report.data_overhead,
                "mean_truncations_per_flow": truncation_usage,
            }
        )
        results[label] = (report, truncation_usage)

    print()
    print(
        format_table(
            rows,
            columns=["action_space", "asr", "data_overhead", "mean_truncations_per_flow"],
            title="Ablation: full action space vs padding-only (DF censor, Tor dataset)",
        )
    )

    # The padding-only configuration must indeed use (almost) no truncation.
    assert results["padding-only"][1] <= results["truncation+padding"][1] + 1e-9

    flow = tor_suite.eval_flows()[0]
    agent = tor_suite.agents["DF"]
    benchmark.pedantic(lambda: agent.attack(flow), rounds=3, iterations=1)

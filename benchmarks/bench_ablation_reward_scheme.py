"""Ablation — per-step censor feedback vs. no intermediate feedback.

Section 4.2 motivates giving a reward at *every* timestep (the censor may
classify any prefix) instead of a single terminal reward.  This ablation
contrasts the standard per-step reward with a variant whose adversarial
reward is fully masked during training (the agent only sees the overhead
penalties), quantifying how much of the learning signal comes from the
per-step censor decisions.
"""

from __future__ import annotations

import numpy as np

from repro.eval import format_table
from repro.pipeline import run_experiment

from conftest import HALF_TOR_SPEC


def test_ablation_reward_scheme(benchmark, tor_suite):
    spec = HALF_TOR_SPEC.with_overrides(censors=("DF",), agent_seed=717)
    variants = {
        "per-step censor reward": 0.0,
        "no censor feedback (fully masked)": 1.0,
    }
    rows = []
    queries = {}
    for label, mask_rate in variants.items():
        result = run_experiment(spec.with_overrides(agent=dict(reward_mask_rate=mask_rate)))
        queries[label] = result.training_queries["DF"]
        report = result.reports["DF"]
        rows.append(
            {
                "reward_scheme": label,
                "training_queries": queries[label],
                "asr": report.attack_success_rate,
                "data_overhead": report.data_overhead,
            }
        )

    print()
    print(
        format_table(
            rows,
            columns=["reward_scheme", "training_queries", "asr", "data_overhead"],
            title="Ablation: per-step censor feedback vs none (DF censor, Tor dataset)",
        )
    )

    # The fully-masked variant must spend (almost) no training queries.
    assert queries["no censor feedback (fully masked)"] < queries["per-step censor reward"]

    state = np.zeros((1, tor_suite.agents["DF"].config.state_dim))
    benchmark(lambda: tor_suite.agents["DF"].critic.value_batch(state))

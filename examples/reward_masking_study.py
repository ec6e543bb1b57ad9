#!/usr/bin/env python3
"""Reward-masking study (Figures 8 and 9): learning from sparse censor feedback.

In practice an attacker cannot observe the censor's verdict after every
packet; the paper models this by masking the per-step adversarial reward with
probability p (masked steps return the neutral value 0.5 and perform no
censor query).  This example sweeps the mask rate and reports the attack
success rate and the actual number of censor queries used during training.

Run with:  python examples/reward_masking_study.py
"""

from __future__ import annotations

from repro.eval import format_table
from repro.pipeline import ExperimentSpec, run_experiment


def main() -> None:
    spec = ExperimentSpec(
        flows=100, max_packets=32, censors=("DT",), agent=dict(n_envs=2, rollout_length=32), timesteps=2000,
        eval_flows=15, data_seed=51, censor_seed=52, agent_seed=53,
    )
    rows = []
    for mask_rate in (0.0, 0.3, 0.6, 0.9):
        result = run_experiment(spec.with_overrides(agent=dict(reward_mask_rate=mask_rate)))
        report = result.reports["DT"]
        rows.append(
            {
                "mask_rate": f"{mask_rate:.0%}",
                "actual_queries": result.training_queries["DT"],
                "asr": report.attack_success_rate,
                "data_overhead": report.data_overhead,
                "time_overhead": report.time_overhead,
            }
        )
    print(
        format_table(
            rows,
            columns=["mask_rate", "actual_queries", "asr", "data_overhead", "time_overhead"],
            title="Reward masking: ASR vs mask rate (DT censor, Tor dataset)",
        )
    )
    print(
        "\nAs in the paper, Amoeba keeps learning even when most per-packet "
        "feedback is unavailable — the query budget shrinks with the mask rate "
        "while the ASR degrades gracefully."
    )


if __name__ == "__main__":
    main()

"""Figure 9 — convergence curves under 0 %, 50 % and 90 % reward masking.

Companion to Figure 8: instead of only the final ASR, the paper plots the
training curve (ASR vs. timesteps) for three mask rates, showing larger
variance and slower convergence as rewards get noisier.  The benchmarked
kernel is a PPO update on a pre-filled rollout buffer.
"""

from __future__ import annotations

import numpy as np

from repro.core import Amoeba, AmoebaConfig
from repro.eval import curve_from_log, format_series

from conftest import AMOEBA_TIMESTEPS, FAST_AGENT_OVERRIDES, MAX_PACKETS

MASK_RATES = (0.0, 0.5, 0.9)


def test_fig9_convergence_under_masking(benchmark, tor_suite):
    data = tor_suite.data
    censor = tor_suite.censors["DF"]
    curves = {}
    for mask_rate in MASK_RATES:
        config = AmoebaConfig.for_tor(**FAST_AGENT_OVERRIDES).with_overrides(
            max_episode_steps=2 * MAX_PACKETS, reward_mask_rate=mask_rate
        )
        censor.reset_query_count()
        agent = Amoeba(censor, data.normalizer, config, rng=999)
        agent.train(data.splits.attack_train.censored_flows, total_timesteps=AMOEBA_TIMESTEPS // 2)
        curve = curve_from_log(
            agent.training_log, y_key="train_asr", x_key="timesteps", label=f"mask={mask_rate:.0%}"
        )
        curves[mask_rate] = (curve, censor.query_count)

    print()
    for mask_rate, (curve, queries) in curves.items():
        stride = max(1, len(curve.x) // 8)
        print(
            format_series(
                f"Figure 9: train ASR vs timesteps (mask rate {mask_rate:.0%}, {queries} actual queries)",
                curve.x[::stride],
                curve.y[::stride],
                x_name="timesteps",
                y_name="ASR",
            )
        )

    # Shape checks: all three runs train to a usable policy, while the
    # query budget shrinks roughly with (1 - mask rate).
    assert curves[0.0][1] > curves[0.9][1]
    for curve, _ in curves.values():
        assert curve.best_value() >= 0.2

    # Benchmark kernel: a single deterministic policy inference step.
    agent_df = tor_suite.agents["DF"]
    state = np.zeros((1, agent_df.config.state_dim))
    benchmark(lambda: agent_df.actor.act_batch(state))

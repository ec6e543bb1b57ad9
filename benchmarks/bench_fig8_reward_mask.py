"""Figure 8 — impact of the reward mask rate on Amoeba's ASR.

The paper masks the per-step adversarial reward with probability 0-90 %
(masked steps return the neutral value 0.5 and perform no censor query) and
finds Amoeba degrades gracefully: with 10x fewer queries the average ASR is
still ~79 %.  This benchmark sweeps a reduced set of mask rates against two
censor families (NN-based DF and tree-based DT) and prints ASR plus the
actual query count per point.  The benchmarked kernel is one environment
step under full masking (no censor query).
"""

from __future__ import annotations

import numpy as np

from repro.core import VectorFlowEnv, reward_mask_sweep
from repro.eval import format_table

from conftest import HALF_TOR_SPEC

MASK_RATES = (0.0, 0.5, 0.9)


def test_fig8_reward_mask_sweep(benchmark, tor_suite):
    data = tor_suite.data
    # The sweep trains its agents from one generator seeded with agent_seed.
    spec = HALF_TOR_SPEC.with_overrides(agent_seed=888)
    config = spec.agent_config()
    rows = []
    degradations = {}
    for censor_name in ("DF", "DT"):
        censor = tor_suite.censors[censor_name]
        points = reward_mask_sweep(
            censor,
            data.normalizer,
            data.splits.attack_train.censored_flows,
            data.splits.test.censored_flows[: spec.eval_flows],
            mask_rates=MASK_RATES,
            total_timesteps=spec.timesteps,
            base_config=config,
            repeats=1,
            rng=spec.agent_seed,
        )
        for point in points:
            rows.append(
                {
                    "censor": censor_name,
                    "mask_rate": f"{point.mask_rate:.0%}",
                    "actual_queries": point.actual_queries,
                    "asr": point.attack_success_rate,
                    "data_overhead": point.data_overhead,
                }
            )
        degradations[censor_name] = points[0].attack_success_rate - points[-1].attack_success_rate

    print()
    print(
        format_table(
            rows,
            columns=["censor", "mask_rate", "actual_queries", "asr", "data_overhead"],
            title="Figure 8: ASR vs reward mask rate (actual censor queries in brackets)",
        )
    )
    print(f"  ASR drop from 0% to 90% masking: {degradations}")

    # Shape checks: masking reduces queries roughly proportionally, and the
    # agent remains usable (non-zero ASR) even at 90% masking.
    mask_0_queries = [r["actual_queries"] for r in rows if r["mask_rate"] == "0%"]
    mask_90_queries = [r["actual_queries"] for r in rows if r["mask_rate"] == "90%"]
    assert np.mean(mask_90_queries) < 0.5 * np.mean(mask_0_queries)
    assert all(r["asr"] >= 0.15 for r in rows if r["mask_rate"] == "90%")

    # Benchmark kernel: one fully-masked environment step, settled.
    censor = tor_suite.censors["DT"]
    masked_config = config.with_overrides(reward_mask_rate=1.0)
    vec_env = VectorFlowEnv(
        censor, data.normalizer, masked_config, data.splits.test.censored_flows[:1], [0]
    )

    def masked_step():
        vec_env.reset()
        vec_env.settle([vec_env.step_subset([0], np.array([[1.0, 0.0]]))])

    benchmark(masked_step)

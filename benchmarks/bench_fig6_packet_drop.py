"""Figure 6 (table) — sensitivity of Amoeba to the network environment.

The paper collects the Tor dataset under packet drop rates of 0-10 %, trains
Amoeba against DF on each training environment and cross-evaluates on every
test environment.  Agents trained on lossy (more heterogeneous) data are
robust; the agent trained on 0 % loss degrades on lossy test sets.

The benchmark reproduces a reduced grid of drop rates and prints the same
train-rate x test-rate ASR matrix.  The benchmarked kernel is applying a
network condition (drop + retransmission) to a flow.
"""

from __future__ import annotations

import numpy as np

from repro.eval import format_table
from repro.flows import NetworkCondition
from repro.pipeline import make_censor, run_experiment, train_amoeba

from conftest import HALF_TOR_SPEC

DROP_RATES = (0.0, 0.05, 0.10)


def test_fig6_packet_drop_grid(benchmark):
    # Build one experiment per drop rate (training environment).
    experiments = {}
    for index, rate in enumerate(DROP_RATES):
        spec = HALF_TOR_SPEC.with_overrides(
            flows=HALF_TOR_SPEC.flows // 2, drop_rate=rate, censors=(),
            data_seed=400 + index, censor_seed=401 + index, agent_seed=402 + index,
        )
        data = run_experiment(spec).data
        # This figure seeds its DF with censor_seed itself, not with
        # train_censors' child for DF, which keeps its table as recorded.
        censor = make_censor("DF", data, rng=spec.censor_seed, epochs=spec.censor_epochs)
        censor.fit(data.splits.clf_train.flows)
        agent = train_amoeba(
            censor, data, total_timesteps=spec.timesteps, config=spec.agent_config(), rng=spec.agent_seed
        )
        experiments[rate] = (data, agent)

    rows = []
    matrix = np.zeros((len(DROP_RATES), len(DROP_RATES)))
    for i, train_rate in enumerate(DROP_RATES):
        _, agent = experiments[train_rate]
        row = {"train_drop": f"{train_rate:.0%}"}
        for j, test_rate in enumerate(DROP_RATES):
            test_data, _ = experiments[test_rate]
            report = agent.evaluate(test_data.splits.test.censored_flows[: HALF_TOR_SPEC.eval_flows])
            matrix[i, j] = report.attack_success_rate
            row[f"test_{test_rate:.0%}"] = report.attack_success_rate
        rows.append(row)

    print()
    print(
        format_table(
            rows,
            columns=["train_drop"] + [f"test_{r:.0%}" for r in DROP_RATES],
            title="Figure 6: ASR when training/testing under different packet drop rates",
        )
    )

    # Shape check: every diagonal entry (train == test environment) keeps a
    # usable ASR, i.e. Amoeba functions in each environment it was trained in.
    assert np.all(np.diag(matrix) >= 0.25)

    condition = NetworkCondition(drop_rate=0.1)
    flow = experiments[0.0][0].splits.test.flows[0]
    benchmark(lambda: condition.apply(flow, rng=np.random.default_rng(0)))

"""Extension — the censor/attacker arms race sketched in Section 5.6.2.

The paper leaves open whether iterative censor retraining (on harvested
adversarial flows) and Amoeba retraining reaches an equilibrium.  This
benchmark runs a few rounds of that loop against a random-forest censor and
prints the trajectory of censor accuracy vs. attacker ASR.  The benchmarked
kernel is retraining the censor on an augmented dataset (the censor's move).
"""

from __future__ import annotations

import numpy as np

from repro.censors import RandomForestCensor
from repro.core import run_arms_race
from repro.eval import format_table
from repro.flows import FlowLabel

from conftest import HALF_TOR_SPEC


def test_arms_race(benchmark, tor_suite):
    data = tor_suite.data
    spec = HALF_TOR_SPEC.with_overrides(agent_seed=123)
    result = run_arms_race(
        censor_factory=lambda: RandomForestCensor(n_estimators=10, rng=0),
        normalizer=data.normalizer,
        clf_train_flows=data.splits.clf_train.flows,
        attack_train_flows=data.splits.attack_train.censored_flows,
        test_flows=data.splits.test.flows,
        eval_flows=data.splits.test.censored_flows[: spec.eval_flows],
        n_rounds=3,
        amoeba_timesteps=spec.timesteps,
        harvest_per_round=10,
        config=spec.agent_config(),
        rng=spec.agent_seed,
    )

    rows = [
        {
            "round": round_.round_index,
            "censor_accuracy": round_.censor_accuracy,
            "censor_f1": round_.censor_f1,
            "amoeba_asr": round_.attack_success_rate,
            "harvested_flows": round_.collected_adversarial_flows,
        }
        for round_ in result.rounds
    ]
    print()
    print(
        format_table(
            rows,
            columns=["round", "censor_accuracy", "censor_f1", "amoeba_asr", "harvested_flows"],
            title="Arms race: censor retraining on harvested adversarial flows vs Amoeba retraining",
        )
    )
    print(f"  attacker dominates in the final round: {result.attacker_dominates()}")

    # Sanity of the loop: metrics valid and harvested flows accumulate.
    assert all(0.0 <= r.attack_success_rate <= 1.0 for r in result.rounds)
    assert result.rounds[-1].collected_adversarial_flows >= result.rounds[0].collected_adversarial_flows

    # Kernel: the censor's retraining move on the augmented dataset.
    harvested = [r.adversarial_flow for r in tor_suite.reports["RF"].results[:10]]
    training_flows = data.splits.clf_train.flows + harvested
    labels = [flow.label for flow in data.splits.clf_train.flows] + [FlowLabel.CENSORED] * len(harvested)

    def retrain():
        RandomForestCensor(n_estimators=10, rng=0).fit(training_flows, labels=labels)

    benchmark.pedantic(retrain, rounds=2, iterations=1)

#!/usr/bin/env python3
"""Arms-race study (Section 5.6.2): censor retraining vs. Amoeba retraining.

The paper notes that a censor could harvest the adversarial flows Amoeba
produces, label them as sensitive, retrain its classifier and thereby
invalidate the learned policy — and leaves open whether this iterated game
settles anywhere.  This example runs a few rounds of that loop against a
random-forest censor and prints the trajectory of censor detection accuracy
versus attacker success rate.

Run with:  python examples/arms_race_study.py
"""

from __future__ import annotations

from repro.censors import RandomForestCensor
from repro.core import run_arms_race
from repro.eval import format_table
from repro.pipeline import ExperimentSpec, run_experiment


def main() -> None:
    # The data only (no censors): each round fits its own censor.
    spec = ExperimentSpec(
        flows=100, max_packets=32, censors=(), agent=dict(n_envs=2, rollout_length=32), timesteps=1500,
        eval_flows=15, data_seed=61, agent_seed=62,
    )
    data = run_experiment(spec).data

    result = run_arms_race(
        censor_factory=lambda: RandomForestCensor(n_estimators=15, rng=0),
        normalizer=data.normalizer,
        clf_train_flows=data.splits.clf_train.flows,
        attack_train_flows=data.splits.attack_train.censored_flows,
        test_flows=data.splits.test.flows,
        eval_flows=data.splits.test.censored_flows[: spec.eval_flows],
        n_rounds=3,
        amoeba_timesteps=spec.timesteps,
        harvest_per_round=15,
        config=spec.agent_config(),
        rng=spec.agent_seed,
    )

    rows = [
        {
            "round": round_.round_index,
            "censor_accuracy": round_.censor_accuracy,
            "censor_f1": round_.censor_f1,
            "amoeba_asr": round_.attack_success_rate,
            "data_overhead": round_.data_overhead,
            "harvested": round_.collected_adversarial_flows,
        }
        for round_ in result.rounds
    ]
    print(
        format_table(
            rows,
            columns=["round", "censor_accuracy", "censor_f1", "amoeba_asr", "data_overhead", "harvested"],
            title="Arms race: RF censor retrained on harvested adversarial flows each round",
        )
    )
    print(f"\nattacker dominates in the final round: {result.attacker_dominates()}")
    print(
        "Whether this game converges to an equilibrium is the open question the "
        "paper raises; vary n_rounds, harvest_per_round and amoeba_timesteps to explore it."
    )


if __name__ == "__main__":
    main()

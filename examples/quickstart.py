#!/usr/bin/env python3
"""Quickstart: train Amoeba against one censoring classifier and evade it.

This is the smallest end-to-end use of the public API.  One
``ExperimentSpec`` states the paper's recipe (Section 5.4) and
``run_experiment`` runs it:

1. synthesise a Tor-vs-HTTPS dataset and split it;
2. train a censoring classifier (a decision tree over 166 statistical
   features) on the censor's share of the data;
3. train the Amoeba agent against that classifier using only its
   allow/block decisions (black-box threat model);
4. evaluate attack success rate, data overhead and time overhead on
   held-out flows.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.eval import format_percent
from repro.eval.metrics import classifier_detection_report
from repro.pipeline import ExperimentSpec, run_experiment


def main() -> None:
    spec = ExperimentSpec(
        flows=150, max_packets=40, censors=("DT",), agent=dict(n_envs=2, rollout_length=32, max_episode_steps=80),
        data_seed=0, censor_seed=1, agent_seed=2,
    )
    print(f"running {spec}")
    result = run_experiment(spec)

    # 1. Dataset: Tor (censored) vs plain HTTPS (benign) flows at the TCP layer.
    splits = result.data.splits
    print(f"dataset: {len(result.data.dataset)} flows, splits = {splits.sizes()}")

    # 2. The censor trained its classifier on its own capture (clf_train).
    baseline = classifier_detection_report(result.censors["DT"], splits.test.flows)
    print(
        f"censor (DT) before any attack: accuracy={baseline['accuracy']:.3f} "
        f"F1={baseline['f1']:.3f}"
    )

    # 3. The attacker trained Amoeba on its own traffic (attack_train),
    #    observing only the censor's per-prefix allow/block decisions.
    print(f"training used {result.training_queries['DT']} censor queries")

    # 4. Evaluation on held-out censored flows.
    report = result.reports["DT"]
    print(
        f"Amoeba: ASR={format_percent(report.attack_success_rate)}  "
        f"data overhead={format_percent(report.data_overhead)}  "
        f"time overhead={format_percent(report.time_overhead)}"
    )

    # Inspect one adversarial flow.
    result = report.results[0]
    print(
        f"example flow: {result.original_flow.n_packets} packets -> "
        f"{result.adversarial_flow.n_packets} adversarial packets, "
        f"evaded={result.success}, actions={result.action_counts}"
    )


if __name__ == "__main__":
    main()

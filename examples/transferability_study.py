#!/usr/bin/env python3
"""Transferability study (Figure 10): do adversarial flows transfer across censors?

Trains Amoeba against three source classifiers (a CNN, a decision tree and
a random forest), stores the generated adversarial flows and replays them
against every classifier, printing the resulting ASR matrix.  The paper's observation is
that transfer is strong between similar architectures (SDAE <-> DF,
DT <-> RF) and weaker across families.

Run with:  python examples/transferability_study.py
"""

from __future__ import annotations

from repro.eval import transferability_matrix
from repro.pipeline import ExperimentSpec, run_experiment


def main() -> None:
    spec = ExperimentSpec(
        flows=100, max_packets=32, censors=("DF", "DT", "RF"), timesteps=2500,
        data_seed=41, censor_seed=42, agent_seed=43,
    )
    result = run_experiment(spec)

    adversarial_by_source = {}
    for source, report in result.reports.items():
        adversarial_by_source[source] = [r.adversarial_flow for r in report.results]
        print(f"agent trained against {source}: ASR on {source} = {report.attack_success_rate:.2f}")

    matrix = transferability_matrix(adversarial_by_source, result.censors)
    print()
    print("Transferability (rows: trained against, columns: evaluated on):")
    print(matrix.format_table())
    print(f"\ndiagonal mean ASR     = {matrix.diagonal_mean():.3f}")
    print(f"off-diagonal mean ASR = {matrix.off_diagonal_mean():.3f}")


if __name__ == "__main__":
    main()

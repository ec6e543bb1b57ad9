#!/usr/bin/env python3
"""Tor evasion scenario: subvert multiple censoring classifiers at once.

Reproduces a miniature of the paper's Table 1 workflow on the Tor dataset:
train several censor families (neural and tree-based), train one Amoeba
agent per censor, and compare attack success rates and overheads.  It also
demonstrates the censor gateway: adversarial flows pass the gateway that
blocks the unmodified Tor flows.

Run with:  python examples/tor_evasion.py
"""

from __future__ import annotations

import numpy as np

from repro.censors import CensorGateway, SocketPair
from repro.eval import format_percent, format_table
from repro.eval.metrics import classifier_detection_report
from repro.pipeline import ExperimentSpec, run_experiment


def main() -> None:
    spec = ExperimentSpec(
        flows=120, max_packets=36, censors=("DF", "DT", "RF"), timesteps=2500, eval_flows=25,
        data_seed=7, censor_seed=8, agent_seed=9,
    )
    result = run_experiment(spec)
    data, censors, agents = result.data, result.censors, result.agents
    print(f"Tor dataset: {data.dataset.summary()}")

    rows = []
    for name, censor in censors.items():
        baseline = classifier_detection_report(censor, data.splits.test.flows)
        report = result.reports[name]
        rows.append(
            {
                "censor": name,
                "baseline_accuracy": baseline["accuracy"],
                "baseline_f1": baseline["f1"],
                "amoeba_asr": report.attack_success_rate,
                "data_overhead": report.data_overhead,
                "time_overhead": report.time_overhead,
            }
        )

    print()
    print(
        format_table(
            rows,
            columns=[
                "censor",
                "baseline_accuracy",
                "baseline_f1",
                "amoeba_asr",
                "data_overhead",
                "time_overhead",
            ],
            title="Tor evasion: per-censor detection vs Amoeba attack",
        )
    )

    # Gateway demonstration: the same censor deployed on a gateway with a
    # socket-pair blacklist.  Unmodified Tor flows get the pair blocked;
    # adversarial flows keep the connection alive.
    gateway = CensorGateway(censors["DT"])
    plain = data.splits.test.censored_flows[0]
    plain_pair = SocketPair("10.1.0.1", 42000, "203.0.113.7", 443)
    adversarial = agents["DT"].attack(plain).adversarial_flow
    adv_pair = SocketPair("10.1.0.1", 42001, "203.0.113.7", 443)

    plain_decision = gateway.observe(plain_pair, plain)
    adv_decision = gateway.observe(adv_pair, adversarial)
    print()
    print(f"gateway decision on unmodified Tor flow:   allowed={plain_decision.allowed}")
    print(f"gateway decision on Amoeba-shaped flow:    allowed={adv_decision.allowed}")
    print(f"gateway statistics: {gateway.statistics}")


if __name__ == "__main__":
    main()

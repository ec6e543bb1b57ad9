#!/usr/bin/env python3
"""V2Ray (TLS-in-TLS) evasion scenario with white-box baselines.

The V2Ray dataset is observed at the TLS-record layer (records up to 16 KB),
so the action space for packet sizes is an order of magnitude larger than on
the Tor dataset — the paper uses a larger data-overhead coefficient
(lambda_data = 2) for this reason.  This example trains a neural censor (DF)
on V2Ray-vs-HTTPS records, attacks it with the three white-box baselines
(CW, NIDSGAN, BAP) and with black-box Amoeba, and compares the results.

Run with:  python examples/v2ray_evasion.py
"""

from __future__ import annotations

from repro.attacks import BAPAttack, CWAttack, NIDSGANAttack
from repro.eval import format_table
from repro.eval.metrics import classifier_detection_report
from repro.pipeline import ExperimentSpec, run_experiment


def main() -> None:
    spec = ExperimentSpec(
        dataset="v2ray", flows=100, max_packets=32, censors=("DF",), censor_epochs=10, timesteps=2500,
        data_seed=21, censor_seed=22, agent_seed=25,
    )
    result = run_experiment(spec)
    data, censor = result.data, result.censors["DF"]
    print(f"V2Ray dataset: {data.dataset.summary()}")

    baseline = classifier_detection_report(censor, data.splits.test.flows)
    print(f"DF censor baseline: accuracy={baseline['accuracy']:.3f} F1={baseline['f1']:.3f}")

    attack_train = data.splits.attack_train.censored_flows
    test_flows = result.eval_flows()

    rows = []
    cw = CWAttack(censor, max_iterations=20).evaluate(test_flows)
    rows.append(cw.as_dict())
    nidsgan = NIDSGANAttack(censor, epochs=6, rng=23).fit(attack_train[:40]).evaluate(test_flows)
    rows.append(nidsgan.as_dict())
    bap = BAPAttack(censor, epochs=10, rng=24).fit(attack_train[:40]).evaluate(test_flows)
    rows.append(bap.as_dict())

    amoeba_report = result.reports["DF"]
    rows.append(
        {
            "attack": "Amoeba (black-box)",
            "asr": amoeba_report.attack_success_rate,
            "data_overhead": amoeba_report.data_overhead,
            "time_overhead": amoeba_report.time_overhead,
            "queries": result.training_queries["DF"],
            "n_flows": amoeba_report.n_flows,
        }
    )

    print()
    print(
        format_table(
            rows,
            columns=["attack", "asr", "data_overhead", "time_overhead", "queries", "n_flows"],
            title="V2Ray evasion: white-box baselines vs black-box Amoeba (DF censor)",
        )
    )
    print(
        "\nNote: the white-box attacks perturb the classifier's input representation "
        "directly (they need gradients and full flows); only Amoeba produces "
        "transmissible packet sequences under the black-box threat model."
    )


if __name__ == "__main__":
    main()

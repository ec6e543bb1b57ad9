"""Figure 7 — convergence of NIDSGAN, BAP and Amoeba vs. number of queries.

The paper shows Amoeba needs 2-10x more interactions with the censoring
classifier than the generator-based white-box attacks to converge, the price
of its black-box threat model.  This benchmark retrains a fresh Amoeba agent
against DF while recording (queries, ASR) checkpoints, and compares the total
query budget against the white-box baselines' budgets.  The benchmarked
kernel is one censor query (scoring one flow prefix).
"""

from __future__ import annotations

import numpy as np

from repro.attacks import BAPAttack, NIDSGANAttack
from repro.eval import curve_from_log, format_series
from repro.pipeline import run_experiment

from conftest import TOR_SPEC


def test_fig7_convergence(benchmark):
    # --- Amoeba: track train-ASR against cumulative censor queries. ---------
    spec = TOR_SPEC.with_overrides(censors=("DF",), eval_flows=TOR_SPEC.eval_flows // 2, agent_seed=777)
    result = run_experiment(spec)
    censor = result.censors["DF"]
    attack_train = result.data.splits.attack_train.censored_flows
    eval_flows = result.eval_flows()
    amoeba_curve = curve_from_log(result.agents["DF"].training_log, y_key="train_asr", x_key="queries", label="Amoeba")
    amoeba_queries = result.training_queries["DF"]
    amoeba_asr = result.reports["DF"].attack_success_rate

    # --- White-box baselines: queries spent during generator training. ------
    nidsgan = NIDSGANAttack(censor, epochs=5, rng=0).fit(attack_train[:40])
    nidsgan_report = nidsgan.evaluate(eval_flows)
    bap = BAPAttack(censor, epochs=8, rng=0).fit(attack_train[:40])
    bap_report = bap.evaluate(eval_flows)

    print()
    stride = max(1, len(amoeba_curve.x) // 10)
    print(
        format_series(
            "Figure 7: Amoeba ASR vs censor queries (DF, Tor dataset)",
            amoeba_curve.x[::stride],
            amoeba_curve.y[::stride],
            x_name="queries",
            y_name="ASR",
        )
    )
    print(f"  final: Amoeba  queries={amoeba_queries:>7d}  test ASR={amoeba_asr:.3f}")
    print(f"  final: NIDSGAN queries={nidsgan_report.queries:>7d}  test ASR={nidsgan_report.attack_success_rate:.3f}")
    print(f"  final: BAP     queries={bap_report.queries:>7d}  test ASR={bap_report.attack_success_rate:.3f}")

    # Shape checks: Amoeba converges to a high ASR but needs more queries
    # than the one-shot generator baselines (the paper's 2-10x observation).
    assert amoeba_curve.y[-1] >= amoeba_curve.y[0] - 0.1
    assert amoeba_queries > nidsgan_report.queries
    assert amoeba_queries > bap_report.queries

    flow = eval_flows[0]
    benchmark(lambda: censor.predict_score(flow))

"""Ablation — StateEncoder history state vs. last-observation-only state.

The paper's design argument (Section 4.3): the actor needs the *history* of
observations and actions, not just the current packet, to understand where
the flow stands relative to the censor's decision boundary.  This ablation
trains one agent whose state is the usual E(x_1:t) || E(a_1:t) encoding and a
degraded agent whose StateEncoder is an untrained (random, frozen) GRU — the
fixed-size state still exists but carries much less usable information.
"""

from __future__ import annotations

import numpy as np

from repro.core import Amoeba, StateEncoder
from repro.eval import format_table
from repro.pipeline import run_experiment

from conftest import HALF_TOR_SPEC


def test_ablation_state_encoder(benchmark, tor_suite):
    spec = HALF_TOR_SPEC.with_overrides(censors=("DT",), agent_seed=616)
    # Pre-trained encoder (Algorithm 2): the spec's own agent.
    result = run_experiment(spec)
    pretrained_agent = result.agents["DT"]

    # Random frozen encoder: the same config, censor and budget.
    config = spec.agent_config()
    random_encoder = StateEncoder(hidden_size=config.encoder_hidden, num_layers=config.encoder_layers, rng=617)
    random_agent = Amoeba(result.censors["DT"], result.data.normalizer, config, rng=618, state_encoder=random_encoder)
    random_agent.train(result.data.splits.attack_train.censored_flows, total_timesteps=spec.timesteps)

    rows = []
    for label, report in (
        ("pretrained encoder", result.reports["DT"]),
        ("random encoder", random_agent.evaluate(result.eval_flows())),
    ):
        rows.append(
            {
                "state_encoder": label,
                "asr": report.attack_success_rate,
                "data_overhead": report.data_overhead,
                "time_overhead": report.time_overhead,
            }
        )

    print()
    print(
        format_table(
            rows,
            columns=["state_encoder", "asr", "data_overhead", "time_overhead"],
            title="Ablation: pre-trained vs random StateEncoder (DT censor, Tor dataset)",
        )
    )

    # Both agents must produce valid adversarial flows; the pre-trained
    # encoder should not be worse by a large margin.
    asrs = {row["state_encoder"]: row["asr"] for row in rows}
    assert asrs["pretrained encoder"] >= asrs["random encoder"] - 0.3

    encoder = pretrained_agent.state_encoder
    pairs = np.random.default_rng(0).uniform(-1, 1, size=(24, 2))
    benchmark(lambda: encoder.encode_pairs(pairs))

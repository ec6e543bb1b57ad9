#!/usr/bin/env python3
"""Sharded rollout collection over forked workers.

Demonstrates the distributed tier (``repro.distrib``): train Amoeba with
rollout collection sharded across 2 forked worker processes
(``Amoeba.train(workers=2)``) — each worker hosts half the environments
plus a censor replica and is refreshed every PPO iteration with the
current actor/critic/encoder checkpoint.  Under
``nn.row_consistent_matmul()`` the run is bit-identical to in-process
collection, so ``workers`` is purely an execution knob.

Run with:  python examples/sharded_rollout.py
"""

from __future__ import annotations

import numpy as np

from repro.censors import DecisionTreeCensor
from repro.core import Amoeba, AmoebaConfig
from repro.eval import format_percent
from repro.features import FlowNormalizer
from repro.flows import build_tor_dataset


def main() -> None:
    rng = np.random.default_rng(0)

    dataset = build_tor_dataset(n_censored=120, n_benign=120, rng=rng, max_packets=40)
    splits = dataset.split(rng=rng)
    normalizer = FlowNormalizer(size_scale=1460.0, delay_scale=200.0)
    censor = DecisionTreeCensor(rng=1).fit(splits.clf_train.flows)

    # Sharded collection: n_envs=4 split across 2 worker processes.
    config = AmoebaConfig.for_tor(n_envs=4, rollout_length=32, max_episode_steps=60)
    agent = Amoeba(censor, normalizer, config, rng=2)
    agent.train(splits.attack_train.censored_flows, total_timesteps=2000, workers=2)
    report = agent.evaluate(splits.test.censored_flows[:20])
    print(
        f"sharded training done: ASR={format_percent(report.attack_success_rate)} "
        f"data overhead={format_percent(report.data_overhead)} "
        f"({censor.query_count} censor queries, merged across worker replicas)"
    )


if __name__ == "__main__":
    main()

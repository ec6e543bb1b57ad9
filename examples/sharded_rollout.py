#!/usr/bin/env python3
"""Sharded rollout collection and an arms-race sweep over a worker pool.

Demonstrates the distributed tier (``repro.distrib``):

1. train Amoeba with rollout collection sharded across 2 forked worker
   processes (``Amoeba.train(workers=2)``) — each worker hosts half the
   environments plus a censor replica and is refreshed every PPO iteration
   with the current actor/critic/encoder checkpoint.  Under
   ``nn.row_consistent_matmul()`` the run is bit-identical to in-process
   collection, so ``workers`` is purely an execution knob;
2. run a small reward-masking arms-race grid through the
   :class:`~repro.distrib.SweepOrchestrator`: grid points execute on a
   fault-tolerant worker pool and land in a JSON results manifest.

Run with:  python examples/sharded_rollout.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.censors import DecisionTreeCensor
from repro.core import Amoeba, AmoebaConfig
from repro.distrib import SweepOrchestrator, SweepTask, amoeba_grid_task
from repro.eval import format_percent
from repro.features import FlowNormalizer
from repro.flows import build_tor_dataset


def main() -> None:
    rng = np.random.default_rng(0)

    dataset = build_tor_dataset(n_censored=120, n_benign=120, rng=rng, max_packets=40)
    splits = dataset.split(rng=rng)
    normalizer = FlowNormalizer(size_scale=1460.0, delay_scale=200.0)
    censor = DecisionTreeCensor(rng=1).fit(splits.clf_train.flows)

    # ------------------------------------------------------------------ #
    # 1. Sharded collection: n_envs=4 split across 2 worker processes.
    # ------------------------------------------------------------------ #
    config = AmoebaConfig.for_tor(n_envs=4, rollout_length=32, max_episode_steps=60)
    agent = Amoeba(censor, normalizer, config, rng=2)
    agent.train(splits.attack_train.censored_flows, total_timesteps=2000, workers=2)
    report = agent.evaluate(splits.test.censored_flows[:20])
    print(
        f"sharded training done: ASR={format_percent(report.attack_success_rate)} "
        f"data overhead={format_percent(report.data_overhead)} "
        f"({censor.query_count} censor queries, merged across worker replicas)"
    )

    # ------------------------------------------------------------------ #
    # 2. Reward-masking arms-race grid over the sweep worker pool.
    # ------------------------------------------------------------------ #
    tasks = [
        SweepTask(
            task_id=f"mask-{mask_rate:.2f}",
            params={
                "seed": 10,
                "censor": "DT",
                "n_flows": 60,
                "max_packets": 30,
                "n_rounds": 2,
                "amoeba_timesteps": 400,
                "eval_flows": 10,
                "config": {
                    "reward_mask_rate": mask_rate,
                    "n_envs": 2,
                    "rollout_length": 16,
                    "max_episode_steps": 30,
                    "encoder_hidden": 16,
                },
            },
        )
        for mask_rate in (0.0, 0.5, 0.8)
    ]
    orchestrator = SweepOrchestrator(amoeba_grid_task, n_workers=2)
    manifest_path = Path("sweep_manifest.json")
    records = orchestrator.run(tasks, manifest_path=manifest_path)
    for record in records:
        if record.status == "ok":
            trajectory = ", ".join(
                format_percent(asr) for asr in record.result["asr_trajectory"]
            )
            print(f"{record.task_id}: ASR per round [{trajectory}]")
        else:
            print(f"{record.task_id}: FAILED after {record.attempts} attempts")
    print(f"sweep manifest written to {manifest_path}")


if __name__ == "__main__":
    main()

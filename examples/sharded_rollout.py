#!/usr/bin/env python3
"""Sharded rollout collection over forked workers.

Demonstrates the distributed tier (``repro.distrib``): train Amoeba with
rollout collection sharded across 2 forked worker processes
(``run_experiment(spec, workers=2)`` reaches ``Amoeba.train(workers=2)``)
— each worker hosts half the environments plus a censor replica and is
refreshed every PPO iteration with the current actor/critic/encoder
checkpoint.  Under ``nn.row_consistent_matmul()`` the run is bit-identical
to in-process collection, so ``workers`` is purely an execution knob.

Run with:  python examples/sharded_rollout.py
"""

from __future__ import annotations

from repro.eval import format_percent
from repro.pipeline import ExperimentSpec, run_experiment


def main() -> None:
    # Sharded collection: the default n_envs=4 split across 2 worker processes.
    spec = ExperimentSpec(
        flows=120, max_packets=40, censors=("DT",), agent=dict(rollout_length=32, max_episode_steps=60),
        timesteps=2000, data_seed=0, censor_seed=1, agent_seed=2,
    )
    result = run_experiment(spec, workers=2)
    report = result.reports["DT"]
    print(
        f"sharded training done: ASR={format_percent(report.attack_success_rate)} "
        f"data overhead={format_percent(report.data_overhead)} "
        f"({result.training_queries['DT']} censor queries, merged across worker replicas)"
    )


if __name__ == "__main__":
    main()

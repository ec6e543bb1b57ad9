"""Regenerate ``fixtures/policy.npz``, the policy the serve workloads load.

    python3 benchmarks/perf/make_fixture.py

A random-init policy truncates every packet to the per-packet cap (about
8.6 decisions per packet), which is not the traffic a trained policy
produces.  This trains the library's default-width agent on Tor against the
DF censor for 30 000 timesteps from a fixed seed and saves it with
``Amoeba.save_policy``; the serve workloads report the decisions per packet
the checked-in policy actually produces.
"""

from __future__ import annotations

import sys

from bootstrap import FIXTURE_POLICY, BenchmarkRefused, bootstrap

FIXTURE_SEED = 20230905
FIXTURE_TIMESTEPS = 30_000


def main() -> int:
    try:
        bootstrap()
    except BenchmarkRefused as refusal:
        print(refusal, file=sys.stderr)
        return 2
    import numpy as np

    from repro.core import AmoebaConfig
    from repro.pipeline import make_censor, prepare_experiment_data, train_amoeba

    data_seed, censor_seed, agent_seed = np.random.SeedSequence(FIXTURE_SEED).spawn(3)
    data = prepare_experiment_data(
        "tor", n_censored=1000, n_benign=1000, max_packets=40, rng=np.random.default_rng(data_seed)
    )
    censor = make_censor("DF", data, rng=np.random.default_rng(censor_seed))
    censor.fit(data.splits.clf_train.flows)
    agent = train_amoeba(
        censor,
        data,
        total_timesteps=FIXTURE_TIMESTEPS,
        config=AmoebaConfig.for_tor(n_envs=8, max_episode_steps=80),
        rng=np.random.default_rng(agent_seed),
    )
    report = agent.evaluate(data.splits.test.censored_flows[:100])
    FIXTURE_POLICY.parent.mkdir(parents=True, exist_ok=True)
    agent.save_policy(FIXTURE_POLICY)
    print(
        f"wrote {FIXTURE_POLICY} ({FIXTURE_POLICY.stat().st_size} bytes): "
        f"asr={report.attack_success_rate:.3f} data_overhead={report.data_overhead:.3f} "
        f"time_overhead={report.time_overhead:.3f}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

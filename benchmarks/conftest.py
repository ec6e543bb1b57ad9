"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
(Section 5).  Each run is a :class:`~repro.pipeline.ExperimentSpec`: the two
suites below (``TOR_SPEC`` and ``V2RAY_SPEC``: dataset synthesis, all six
censors, one trained Amoeba agent per censor) run once per session and are
shared across benchmarks.  A benchmark that trains its own agents derives
its spec from ``TOR_SPEC`` or ``HALF_TOR_SPEC`` with ``with_overrides``;
since each censor is keyed by its name, a one-censor spec rebuilds the
suite's censor exactly, and ``str(spec)`` prints what a benchmark runs.
The ``benchmark`` fixture then times a representative kernel (policy
inference, flow scoring, attack generation) so ``pytest-benchmark`` output
stays meaningful.

Scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable:

* ``small`` (default) — minutes on a laptop CPU; reproduces the *shape* of
  each result (who wins, roughly by how much) at reduced dataset size,
  network width and training budget.
* ``full``  — larger datasets and training budgets, closer to the paper's
  operating point (hours on CPU).
"""

from __future__ import annotations

import os

import pytest

from repro.pipeline import ExperimentResult, ExperimentSpec, run_experiment

SCALE = os.environ.get("REPRO_BENCH_SCALE", "small").lower()

if SCALE == "full":
    SCALED = dict(flows=400, max_packets=80, censor_epochs=20, timesteps=20_000, eval_flows=100)
else:
    SCALED = dict(flows=72, max_packets=32, censor_epochs=8, timesteps=800, eval_flows=16)

TOR_SPEC = ExperimentSpec(
    **SCALED,
    agent=dict(
        n_envs=2,
        rollout_length=32,
        encoder_hidden=16,
        actor_hidden=(32, 16),
        critic_hidden=(32, 16),
        max_episode_steps=2 * SCALED["max_packets"],
    ),
    data_seed=101,
    censor_seed=102,
    agent_seed=111,
)
V2RAY_SPEC = TOR_SPEC.with_overrides(dataset="v2ray", data_seed=202, censor_seed=203, agent_seed=212)
# Most benches that train their own agents give them half the suite's budget
# and evaluate them on half its flows.
HALF_TOR_SPEC = TOR_SPEC.with_overrides(timesteps=TOR_SPEC.timesteps // 2, eval_flows=TOR_SPEC.eval_flows // 2)


@pytest.fixture(scope="session")
def tor_suite() -> ExperimentResult:
    """Tor dataset, all six censors, one trained Amoeba agent per censor."""
    return run_experiment(TOR_SPEC)


@pytest.fixture(scope="session")
def v2ray_suite() -> ExperimentResult:
    """V2Ray dataset, all six censors, one trained Amoeba agent per censor."""
    return run_experiment(V2RAY_SPEC)

"""Rollout-collection latency: one fully batched collection tick.

:class:`repro.distrib.ShardRunner` — the one collection kernel the training
loop and the sharded workers run — steps all environments per tick with one
batched actor/critic forward, one vectorized emulator advance and two
incremental encoder steps, then settles the censor once per collect.  This
benchmark times one such tick at ``n_envs=8`` with pytest-benchmark.  (Its
bit-equivalence to the seed per-environment loop is a tier-1 test against
``tests/oracles/sequential_collection.py``.)  It is intentionally
self-contained (no shared ``tor_suite`` fixtures) so CI can run it as a
smoke test in well under a minute.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.censors import DecisionTreeCensor
from repro.core import Amoeba, AmoebaConfig
from repro.distrib import ShardRunner
from repro.features import FlowNormalizer
from repro.flows import build_tor_dataset
from repro.utils.rng import collection_seed_tree

N_ENVS = 8
ROLLOUT_LENGTH = 48


@pytest.fixture(scope="module")
def throughput_setup():
    dataset = build_tor_dataset(
        n_censored=40, n_benign=40, rng=np.random.default_rng(7), max_packets=30
    )
    splits = dataset.split(rng=np.random.default_rng(9))
    normalizer = FlowNormalizer(size_scale=1460.0, delay_scale=200.0)
    censor = DecisionTreeCensor(rng=3).fit(splits.clf_train.flows)
    config = AmoebaConfig.for_tor(
        n_envs=N_ENVS,
        rollout_length=ROLLOUT_LENGTH,
        max_episode_steps=60,
        encoder_hidden=32,
        actor_hidden=(64, 32),
        critic_hidden=(64, 32),
    )
    return dict(
        censor=censor,
        normalizer=normalizer,
        config=config,
        flows=splits.attack_train.censored_flows,
    )


def _fresh_agent(setup) -> Amoeba:
    return Amoeba(
        setup["censor"],
        setup["normalizer"],
        setup["config"],
        rng=42,
        encoder_pretrain_kwargs=dict(n_flows=30, max_length=12, epochs=1),
    )


def _make_runner(agent: Amoeba, flows) -> ShardRunner:
    """The batched engine: one inline shard hosting all environment slots."""
    return ShardRunner(
        agent.actor,
        agent.critic,
        agent.state_encoder,
        agent.censor,
        agent.normalizer,
        agent.config,
        flows,
        collection_seed_tree(agent._rng, agent.config.n_envs),
    )


def test_batched_tick_latency(benchmark, throughput_setup):
    """pytest-benchmark timing of one fully batched collection tick."""
    agent = _fresh_agent(throughput_setup)
    runner = _make_runner(agent, throughput_setup["flows"])
    runner.collect(1)  # start episodes outside the timed region

    def one_tick():
        runner.collect(1)

    benchmark(one_tick)

"""End-to-end integration tests spanning multiple subsystems.

These reproduce miniature versions of the paper's pipeline: dataset ->
censor training -> Amoeba training -> evaluation -> transferability /
profiles, at a scale that runs in seconds.
"""

import numpy as np
import pytest

from repro.censors import DecisionTreeCensor, RandomForestCensor
from repro.core import Amoeba, AmoebaConfig, ProfileDatabase, AdversarialProfile
from repro.eval import summarise_action_usage, transferability_matrix
from repro.eval.metrics import classifier_detection_report
from repro.features import FlowNormalizer
from repro.flows import FlowLabel, NetworkCondition, build_tor_dataset


@pytest.fixture(scope="module")
def mini_config():
    return AmoebaConfig.for_tor(
        n_envs=2,
        rollout_length=16,
        max_episode_steps=25,
        encoder_hidden=8,
        actor_hidden=(16,),
        critic_hidden=(16,),
    )


class TestEndToEnd:
    def test_full_pipeline_against_tree_censors(self, tor_splits, normalizer, mini_config):
        """Dataset -> censors -> Amoeba -> evaluation, asserting Table-1-shaped outcomes."""
        dt = DecisionTreeCensor(rng=0).fit(tor_splits.clf_train.flows)
        rf = RandomForestCensor(n_estimators=10, rng=0).fit(tor_splits.clf_train.flows)

        # Censors detect tunnelled traffic nearly perfectly before any attack.
        for censor in (dt, rf):
            baseline = classifier_detection_report(censor, tor_splits.test.flows)
            assert baseline["accuracy"] >= 0.9

        agent = Amoeba(
            dt,
            normalizer,
            mini_config,
            rng=0,
            encoder_pretrain_kwargs={"n_flows": 30, "epochs": 1, "max_length": 15},
        )
        agent.train(tor_splits.attack_train.censored_flows[:20], total_timesteps=400)
        report = agent.evaluate(tor_splits.test.censored_flows[:10])

        # Adversarial flows evade the censor far more often than unmodified ones
        # (which are detected ~100% of the time, i.e. ASR ~0 without attack).
        unmodified_asr = float(
            np.mean(dt.classify_many(tor_splits.test.censored_flows[:10]) == 1)
        )
        assert report.attack_success_rate >= unmodified_asr
        assert report.attack_success_rate >= 0.5

        # Transferability: adversarial flows from the DT agent replayed on RF.
        adversarial_flows = [r.adversarial_flow for r in report.results]
        matrix = transferability_matrix({"DT": adversarial_flows}, {"DT": dt, "RF": rf})
        assert matrix.values.shape == (1, 2)

        # Action analysis produces sensible aggregate statistics.
        usage = summarise_action_usage(list(report.results))
        assert usage["mean_steps"] >= 1.0

    def test_profile_deployment_path(self, tor_splits, normalizer, mini_config, trained_dt_censor):
        agent = Amoeba(
            trained_dt_censor,
            normalizer,
            mini_config,
            rng=1,
            encoder_pretrain_kwargs={"n_flows": 30, "epochs": 1, "max_length": 15},
        )
        agent.train(tor_splits.attack_train.censored_flows[:15], total_timesteps=200)
        results = agent.attack_many(tor_splits.attack_train.censored_flows[:10])
        database = ProfileDatabase()
        added = database.add_flows(
            [r.adversarial_flow for r in results], [r.success for r in results]
        )
        if added == 0:
            database.add_profile(AdversarialProfile.from_flow(results[0].adversarial_flow))
        summary = database.overhead_summary(tor_splits.test.censored_flows[:5], rng=0)
        assert 0.0 <= summary["data_overhead"] < 1.0
        assert 0.0 <= summary["time_overhead"] < 1.0

    def test_packet_drop_environment_robustness_path(self, normalizer, mini_config):
        """Miniature version of the Figure 6 cross-environment evaluation."""
        clean = build_tor_dataset(n_censored=30, n_benign=30, rng=0, max_packets=25)
        lossy = build_tor_dataset(
            n_censored=30,
            n_benign=30,
            rng=1,
            max_packets=25,
            condition=NetworkCondition(drop_rate=0.1),
        )
        clean_splits = clean.split(rng=0)
        lossy_splits = lossy.split(rng=1)

        censor = DecisionTreeCensor(rng=0).fit(clean_splits.clf_train.flows)
        agent = Amoeba(
            censor,
            normalizer,
            mini_config,
            rng=2,
            encoder_pretrain_kwargs={"n_flows": 20, "epochs": 1, "max_length": 15},
        )
        agent.train(clean_splits.attack_train.censored_flows[:15], total_timesteps=200)

        same_env = agent.evaluate(clean_splits.test.censored_flows[:5])
        cross_env = agent.evaluate(lossy_splits.test.censored_flows[:5])
        assert 0.0 <= same_env.attack_success_rate <= 1.0
        assert 0.0 <= cross_env.attack_success_rate <= 1.0

    def test_reward_signal_reflects_censor_feedback(self, tor_splits, normalizer, trained_dt_censor, mini_config):
        """The environment's reward must be coupled to the censor decision: an
        unmodified replay of a censored flow earns a lower adversarial reward
        than the benign class score threshold implies."""
        from repro.core import AdversarialFlowEnv, VectorFlowEnv

        flow = tor_splits.test.censored_flows[0]
        env = AdversarialFlowEnv(trained_dt_censor, normalizer, mini_config, [flow], rng=0)
        vec_env = VectorFlowEnv([env])
        env.reset()
        # Replay the original packet sizes exactly (no padding, no delay).
        done = False
        rewards = []
        index = 0
        while not done:
            original_size = abs(flow.sizes[min(index, flow.n_packets - 1)]) / normalizer.size_scale
            _, [reward], [done], _ = vec_env.step_subset([0], np.array([[original_size, 0.0]]))
            rewards.append(reward)
            index += 1
        # A faithful replay of Tor traffic should mostly be flagged: adversarial
        # reward component is 0, so per-step rewards stay at or below zero.
        assert np.mean(rewards) <= 0.5

"""Gateway query accounting under batched ``predict_scores``.

Satellite coverage for :mod:`repro.censors.gateway` in the vectorized /
sharded world: when the gateway's classifier serves a
:class:`~repro.core.vec_env.VectorFlowEnv` tick batch, the
one-query-per-flow accounting must be preserved (batching changes how many
*calls* reach the classifier, never how many flows it scores) and masked
steps must still skip the censor entirely.
"""

import numpy as np
import pytest

from repro.censors import DecisionTreeCensor
from repro.censors.gateway import CensorGateway, SocketPair
from repro.core import AdversarialFlowEnv, VectorFlowEnv


@pytest.fixture()
def gateway(tor_splits):
    classifier = DecisionTreeCensor(rng=3).fit(tor_splits.clf_train.flows)
    return CensorGateway(classifier)


def _make_vec_env(gateway, normalizer, config, flows, seeds):
    envs = [
        AdversarialFlowEnv(gateway.classifier, normalizer, config, flows, rng=seed)
        for seed in seeds
    ]
    return VectorFlowEnv(envs)


class TestGatewayBatchedAccounting:
    def test_one_query_per_flow_through_vector_engine(
        self, gateway, normalizer, fast_config, tor_splits
    ):
        """Each tick's classifier delta == flows actually scored that tick."""
        config = fast_config.with_overrides(reward_mask_rate=0.4)
        flows = tor_splits.attack_train.censored_flows[:6]
        vec_env = _make_vec_env(gateway, normalizer, config, flows, seeds=[11, 12, 13])
        vec_env.reset()
        action_rng = np.random.default_rng(0)

        for _ in range(30):
            before = gateway.classifier.query_count
            actions = np.column_stack(
                [action_rng.uniform(-1, 1, size=3), action_rng.uniform(0, 1, size=3)]
            )
            _, _, dones, infos = vec_env.step(actions)
            # One query per unmasked step prefix + one per finished episode.
            expected = sum(1 for info in infos if not info["masked"]) + int(dones.sum())
            assert gateway.classifier.query_count - before == expected

    def test_fully_masked_steps_only_pay_final_classification(
        self, gateway, normalizer, fast_config, simple_flow
    ):
        config = fast_config.with_overrides(reward_mask_rate=1.0)
        vec_env = _make_vec_env(gateway, normalizer, config, [simple_flow], seeds=[0, 1])
        vec_env.reset()
        gateway.classifier.reset_query_count()

        finished = 0
        active = [0, 1]
        while active:
            actions = np.tile([1.0, 0.0], (len(active), 1))
            _, _, dones, _ = vec_env.step_subset(active, actions)
            finished += int(dones.sum())
            active = [index for row, index in enumerate(active) if not dones[row]]
        assert gateway.classifier.query_count == finished == 2

    def test_batched_scores_match_gateway_decisions(
        self, gateway, normalizer, fast_config, tor_splits
    ):
        """Gateway decisions on finished adversarial flows agree with one
        batched ``predict_scores`` call over the same flows."""
        config = fast_config.with_overrides(reward_mask_rate=1.0)
        flows = tor_splits.attack_train.censored_flows[:4]
        vec_env = _make_vec_env(gateway, normalizer, config, flows, seeds=[5, 6])
        vec_env.reset()

        adversarial = []
        while len(adversarial) < 3:
            actions = np.tile([0.9, 0.0], (2, 1))
            _, _, dones, infos = vec_env.step(actions)
            for row, done in enumerate(dones):
                if done:
                    adversarial.append(infos[row]["episode"].adversarial_flow)

        batch_scores = gateway.classifier.predict_scores(adversarial)
        for index, flow in enumerate(adversarial):
            pair = SocketPair("10.0.0.1", 40000 + index, "203.0.113.9", 443)
            decision = gateway.observe(pair, flow)
            assert decision.score == batch_scores[index]
            assert decision.allowed == (batch_scores[index] >= 0.5)
            assert gateway.is_blocked(pair) == (not decision.allowed)

    def test_replica_accounting_folds_back(self, gateway):
        """``record_external_queries`` merges worker-replica counts."""
        gateway.classifier.reset_query_count()
        gateway.classifier.record_external_queries(7)
        assert gateway.classifier.query_count == 7
        with pytest.raises(ValueError):
            gateway.classifier.record_external_queries(-1)

"""Additional coverage for corners not exercised elsewhere: serialization of
agents, reporting edge cases and optimizer behaviour
in the RL loop."""

import numpy as np
import pytest

from repro import nn
from repro.core import AmoebaConfig
from repro.core.rollout import RolloutBuffer
from repro.eval import format_table
from repro.flows import Flow, FlowLabel
from repro.ml import DecisionTreeClassifier


class TestReportingEdgeCases:
    def test_format_table_handles_missing_columns(self):
        table = format_table([{"a": 1}], columns=["a", "b"])
        assert "a" in table and "b" in table

    def test_format_table_mixed_types(self):
        table = format_table(
            [{"name": "x", "value": 0.123456, "count": 7}], columns=["name", "value", "count"]
        )
        assert "0.123" in table
        assert "7" in table


class TestRolloutEdgeCases:
    def test_single_env_single_step_buffer(self):
        buffer = RolloutBuffer(1, 1, 2, 2)
        buffer.load(
            np.zeros((1, 1, 2)), np.zeros((1, 1, 2)), np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1)),
            np.ones((1, 1), dtype=bool),
        )
        buffer.finalize(np.zeros(1), gamma=0.9, gae_lambda=0.9)
        batches = list(buffer.minibatches(1, rng=0))
        assert len(batches) == 1
        assert batches[0].returns[0] == pytest.approx(1.0)

    def test_minibatch_count_does_not_exceed_samples(self):
        buffer = RolloutBuffer(2, 1, 2, 2)
        buffer.load(
            np.zeros((2, 1, 2)), np.zeros((2, 1, 2)), np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1)),
            np.zeros((2, 1), dtype=bool),
        )
        buffer.finalize(np.zeros(1), 0.99, 0.95)
        batches = list(buffer.minibatches(8, rng=0))
        assert sum(len(b.states) for b in batches) == 2


class TestConfigDerivedBehaviour:
    def test_state_dim_tracks_custom_encoder(self):
        config = AmoebaConfig(encoder_hidden=24)
        assert config.state_dim == 48

    def test_config_equality_of_copies(self):
        base = AmoebaConfig()
        assert base.with_overrides() == base

    def test_paper_scale_overridable(self):
        config = AmoebaConfig.paper_scale(n_envs=2)
        assert config.n_envs == 2
        assert config.encoder_hidden == 512


class TestTreeProbabilityCalibration:
    def test_leaf_probabilities_reflect_class_mixture(self):
        # A deliberately impure leaf: identical rows admit no split, so the
        # root is a leaf (a depth-0 tree is refused at construction).
        X = np.zeros((10, 2))
        y = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.n_leaves == 1
        proba = tree.predict_proba(np.zeros((1, 2)))[0]
        assert proba[list(tree.classes_).index(1)] == pytest.approx(0.3)


class TestFlowMetadataPropagation:
    def test_condition_and_copy_keep_protocol(self, simple_flow):
        from repro.flows import NetworkCondition

        degraded = NetworkCondition(drop_rate=0.2).apply(simple_flow, rng=0)
        assert degraded.protocol == simple_flow.protocol
        assert degraded.label == simple_flow.label

    def test_prefix_keeps_metadata(self):
        flow = Flow(sizes=[100.0, -200.0], delays=[0.0, 1.0], metadata={"origin": "unit-test"})
        assert flow.prefix_views([1])[0].metadata["origin"] == "unit-test"


class TestSaveLoadAgentStateDict:
    def test_partial_state_dict_prefixes(self, tmp_path):
        """save_policy writes each submodule under its prefix."""
        from repro.core import Amoeba
        from repro.censors import DecisionTreeCensor
        from repro.features import FlowNormalizer
        from repro.flows import Flow, FlowLabel

        flow = Flow(sizes=[500.0, -500.0], delays=[0.0, 1.0], label=FlowLabel.CENSORED)
        censor = DecisionTreeCensor(rng=0).fit([flow, Flow(sizes=[100.0], delays=[0.0], label=FlowLabel.BENIGN)])
        config = AmoebaConfig(encoder_hidden=8, actor_hidden=(8,), critic_hidden=(8,), n_envs=1, rollout_length=4)
        agent = Amoeba(
            censor,
            FlowNormalizer(1460, 100),
            config,
            rng=0,
            encoder_pretrain_kwargs={"n_flows": 10, "epochs": 1, "max_length": 6},
        )
        path = tmp_path / "policy.npz"
        agent.save_policy(path)
        state = nn.load_state_dict(path)
        assert any(key.startswith("actor.") for key in state)
        assert any(key.startswith("critic.") for key in state)
        assert any(key.startswith("encoder.") for key in state)

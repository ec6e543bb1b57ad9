"""Unit tests for AmoebaConfig and the StateEncoder (Algorithm 2)."""

import dataclasses
import hashlib

import numpy as np
import pytest

from oracles.executors import EXECUTORS, executing
from repro import nn
from repro.core import (
    AmoebaConfig,
    Seq2SeqAutoencoder,
    StateEncoder,
    make_synthetic_flow_dataset,
    pretrain_state_encoder,
    reconstruction_nmae_by_length,
)


class TestAmoebaConfig:
    def test_defaults_match_paper_hyperparameters(self):
        config = AmoebaConfig()
        assert config.learning_rate == pytest.approx(5e-4)
        assert config.lambda_split == pytest.approx(0.05)
        assert config.lambda_time == pytest.approx(0.2)
        assert config.gamma == pytest.approx(0.99)
        assert config.gae_lambda == pytest.approx(0.95)

    def test_dataset_specific_lambda_data(self):
        assert AmoebaConfig.for_tor().lambda_data == pytest.approx(0.2)
        assert AmoebaConfig.for_v2ray().lambda_data == pytest.approx(2.0)

    def test_paper_scale_widths(self):
        config = AmoebaConfig.paper_scale()
        assert config.actor_hidden == (256, 64, 32)
        assert config.encoder_hidden == 512

    def test_state_dim_is_twice_encoder_hidden(self):
        config = AmoebaConfig(encoder_hidden=48)
        assert config.state_dim == 96

    def test_with_overrides_returns_copy(self):
        base = AmoebaConfig()
        other = base.with_overrides(lambda_data=3.0)
        assert other.lambda_data == 3.0
        assert base.lambda_data == 0.2

    def test_fields_cannot_be_assigned_after_construction(self):
        """Every bound is checked at construction, so none may change after
        it: a cap of 0 assigned to a built config would reach the shaper
        unchecked.  A changed value is a new config, checked like the first."""
        config = AmoebaConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_truncations_per_packet = 0
        assert config.max_truncations_per_packet == 8
        with pytest.raises(ValueError, match="max_truncations_per_packet"):
            config.with_overrides(max_truncations_per_packet=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"learning_rate": 0.0},
            {"reward_mask_rate": 1.5},
            {"lambda_data": -1.0},
            {"n_envs": 0},
            {"min_packet_bytes": 0},
            {"max_delay_ms": 0.0},
            {"n_minibatches": 0},
            # NaN used to slip past ``value <= 0`` style checks, and a
            # negative ``max_grad_norm`` turns clipping into gradient ascent.
            {"learning_rate": float("nan")},
            {"max_grad_norm": -1.0},
            {"max_grad_norm": 0.0},
            {"max_grad_norm": float("nan")},
            {"gamma": 2.0},
            {"gamma": 0.0},
            {"gamma": float("nan")},
            {"entropy_coef": float("nan")},
            {"entropy_coef": -0.01},
            {"value_coef": -1.0},
            {"lambda_time": float("nan")},
            {"encoder_hidden": 0},
            {"encoder_layers": 0},
            {"actor_hidden": (64, 0)},
            {"critic_hidden": (0,)},
            {"max_episode_steps": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AmoebaConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            # Accepted before, then raised only at the first update, after a
            # rollout had spent its censor queries ...
            ({"max_grad_norm": float("inf")}, "max_grad_norm"),
            ({"entropy_coef": float("inf")}, "entropy_coef"),
            ({"initial_log_std": float("inf")}, "initial_log_std"),
            # ... or trained with no error at all ...
            ({"clip_epsilon": float("inf")}, "clip_epsilon"),
            ({"value_coef": float("inf")}, "value_coef"),
            ({"learning_rate": float("inf")}, "learning_rate"),
            ({"lambda_data": float("inf")}, "lambda_data"),
            ({"masked_reward_value": float("nan")}, "masked_reward_value"),
            ({"initial_action_bias": (0.0, float("-inf"))}, "initial_action_bias"),
            # ... or failed inside numpy with a bare ``TypeError``.
            ({"n_envs": 2.5}, "n_envs"),
            ({"rollout_length": 8.0}, "rollout_length"),
            ({"encoder_hidden": 8.5}, "encoder_hidden"),
            ({"actor_hidden": (16.0,)}, "actor_hidden"),
            ({"max_episode_steps": True}, "max_episode_steps"),
        ],
    )
    def test_misuse_raises_before_a_query_is_spent(
        self, trained_dt_censor, normalizer, tor_splits, fast_config, kwargs, name
    ):
        from repro.core import Amoeba

        queries = trained_dt_censor.query_count
        with pytest.raises(ValueError, match=name):
            config = fast_config.with_overrides(**{"n_envs": 2, "rollout_length": 8, **kwargs})
            agent = Amoeba(
                trained_dt_censor,
                normalizer,
                config,
                rng=0,
                encoder_pretrain_kwargs={"n_flows": 4, "epochs": 1, "max_length": 4},
            )
            agent.train(tor_splits.attack_train.censored_flows[:4], total_timesteps=32)
        assert trained_dt_censor.query_count == queries

    def test_boundary_values_accepted(self):
        config = AmoebaConfig(
            gamma=1.0, entropy_coef=0.0, value_coef=0.0, encoder_layers=1, max_episode_steps=1
        )
        assert config.gamma == 1.0


class TestSyntheticDataset:
    def test_shape_and_ranges(self):
        data = make_synthetic_flow_dataset(n_flows=10, max_length=15, rng=0)
        assert data.shape == (10, 15, 2)
        assert data[..., 0].min() >= -1.0 and data[..., 0].max() <= 1.0
        assert data[..., 1].min() >= 0.0 and data[..., 1].max() <= 1.0

    def test_first_delay_zero(self):
        data = make_synthetic_flow_dataset(n_flows=5, max_length=10, rng=1)
        assert np.all(data[:, 0, 1] == 0.0)


class TestStateEncoder:
    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"epochs": 0}, "epochs"),
            ({"n_flows": 0}, "n_flows"),
            ({"batch_size": 0}, "batch_size"),
            ({"max_length": 0}, "max_length"),
            ({"learning_rate": float("inf")}, "learning_rate"),
        ],
    )
    def test_budget_that_trains_nothing_is_refused(self, kwargs, name):
        """``epochs=0`` / ``n_flows=0`` used to return an untrained encoder
        silently, and ``batch_size=0`` to fail inside the epoch loop."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=name):
            pretrain_state_encoder(hidden_size=4, num_layers=1, rng=rng, **kwargs)
        assert rng.bit_generator.state == state

    @pytest.fixture(scope="class")
    def pretrained(self):
        encoder, autoencoder, log = pretrain_state_encoder(
            hidden_size=16, num_layers=2, n_flows=60, max_length=20, epochs=3, rng=0
        )
        return encoder, autoencoder, log

    def test_encoding_shape(self, pretrained):
        encoder, _, _ = pretrained
        code = encoder.encode_pairs(np.random.default_rng(0).uniform(-1, 1, size=(12, 2)))
        assert code.shape == (16,)

    def test_empty_history_encodes_to_zeros(self, pretrained):
        encoder, _, _ = pretrained
        assert np.allclose(encoder.encode_pairs(np.zeros((0, 2))), 0.0)

    def test_invalid_pair_shape_rejected(self, pretrained):
        encoder, _, _ = pretrained
        with pytest.raises(ValueError):
            encoder.encode_pairs(np.zeros((4, 3)))

    def test_different_sequences_encode_differently(self, pretrained):
        encoder, _, _ = pretrained
        a = encoder.encode_pairs(np.full((8, 2), 0.9))
        b = encoder.encode_pairs(np.full((8, 2), -0.9) * np.array([1.0, 0.0]))
        assert not np.allclose(a, b)

    def test_pretraining_reduces_reconstruction_error(self, pretrained):
        _, _, log = pretrained
        series = log.series("reconstruction_mae")
        first_quarter = np.mean(series[: max(1, len(series) // 4)])
        last_quarter = np.mean(series[-max(1, len(series) // 4):])
        assert last_quarter < first_quarter

    def test_nmae_by_length_keys_and_values(self, pretrained):
        _, autoencoder, _ = pretrained
        nmae = reconstruction_nmae_by_length(autoencoder, lengths=[2, 5, 10], n_flows=10, rng=0)
        assert set(nmae) == {2, 5, 10}
        assert all(value >= 0 for value in nmae.values())

    def test_nmae_rejects_invalid_length(self, pretrained):
        _, autoencoder, _ = pretrained
        with pytest.raises(ValueError):
            reconstruction_nmae_by_length(autoencoder, lengths=[0])

    def test_autoencoder_output_shape_matches_input(self):
        model = Seq2SeqAutoencoder(hidden_size=8, num_layers=1, rng=0)
        batch = nn.Tensor(np.random.default_rng(0).uniform(-1, 1, size=(3, 7, 2)))
        assert model(batch).shape == (3, 7, 2)

    def test_encoder_handles_length_one(self, pretrained):
        encoder, _, _ = pretrained
        code = encoder.encode_pairs(np.array([[0.5, 0.1]]))
        assert code.shape == (16,)


class TestPretrainingGolden:
    """Algorithm 2 at a fixed seed, pinned.  The value was recorded before
    the BPTT recurrence ran on the ``gru_bptt_step`` hook, from the per-step
    numpy loop it replaced.  Both executors must agree on every bit;
    the literal pins the weights and the loss log to 1e-9, as the serving
    golden pins its delays, so that a host whose BLAS or ``exp`` / ``tanh``
    round the last bit differently still matches."""

    GOLDEN = "5ddfc16b58288b04cf73e4f45d779f7306d0ab9fc6367c3df3cec4830d8133b7"

    @staticmethod
    def _pretrain(backend):
        with executing(backend):
            _, model, log = pretrain_state_encoder(
                hidden_size=8, num_layers=2, n_flows=40, max_length=12, epochs=2, rng=2023
            )
        return [parameter.data for _, parameter in model.named_parameters()] + [
            np.asarray(log.series("reconstruction_mae"), dtype=np.float64),
            np.asarray(log.series("sequence_length"), dtype=np.float64),
        ]

    def test_weights_and_losses_are_pinned_on_both_executors(self):
        runs = {name: self._pretrain(name) for name in EXECUTORS}
        reference = runs["numpy"]
        for name, arrays in runs.items():
            assert [a.tobytes() for a in arrays] == [a.tobytes() for a in reference], name
        digest = hashlib.sha256()
        for array in reference:
            digest.update(np.rint(array * 1e9).astype(np.int64).tobytes())
        assert digest.hexdigest() == self.GOLDEN

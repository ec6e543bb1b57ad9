"""Tests for shared utilities and the high-level experiment pipeline."""

import logging

import numpy as np
import pytest

from repro.pipeline import (
    CENSOR_NAMES,
    NEURAL_CENSOR_NAMES,
    censor_baseline_table,
    make_censor,
    prepare_experiment_data,
    train_amoeba,
    train_censors,
)
from repro.utils import (
    TrainingLogger,
    check_2d,
    check_fraction_sum,
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
    collection_seed_tree,
    ensure_rng,
    get_logger,
    seed_sequence_from_state,
    seed_sequence_state,
    spawn_rngs,
    spawn_seed_sequences,
)


class TestRng:
    def test_ensure_rng_from_none(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_ensure_rng_from_seed_is_deterministic(self):
        assert ensure_rng(5).integers(0, 100) == ensure_rng(5).integers(0, 100)

    def test_ensure_rng_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_ensure_rng_invalid_type(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_rngs_independent(self):
        children = spawn_rngs(0, 3)
        assert len(children) == 3
        values = [child.integers(0, 1_000_000) for child in children]
        assert len(set(values)) == 3

    def test_spawn_rngs_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_spawn_rngs_reproducible_from_seed(self):
        left = [rng.integers(0, 1_000_000) for rng in spawn_rngs(7, 3)]
        right = [rng.integers(0, 1_000_000) for rng in spawn_rngs(7, 3)]
        assert left == right

    def test_spawn_seed_sequences_are_seed_sequence_children(self):
        children = spawn_seed_sequences(3, 4)
        assert len(children) == 4
        entropies = {child.entropy for child in children}
        assert len(entropies) == 1  # one shared root entropy draw
        assert [child.spawn_key[-1] for child in children] == [0, 1, 2, 3]

    def test_seed_sequence_state_round_trip(self):
        (child,) = spawn_seed_sequences(11, 1)
        rebuilt = seed_sequence_from_state(seed_sequence_state(child))
        left = np.random.default_rng(child).integers(0, 2**31, size=5)
        right = np.random.default_rng(rebuilt).integers(0, 2**31, size=5)
        assert np.array_equal(left, right)

    def test_collection_seed_tree_crosses_process_boundary_shape(self):
        """The per-env (env, noise) pairs rebuild identically from their
        plain-dict state — the property worker processes rely on."""
        tree = collection_seed_tree(5, 3)
        assert len(tree) == 3
        for env_seq, noise_seq in tree:
            env_rebuilt = seed_sequence_from_state(seed_sequence_state(env_seq))
            assert np.array_equal(
                np.random.default_rng(env_seq).integers(0, 2**31, size=4),
                np.random.default_rng(env_rebuilt).integers(0, 2**31, size=4),
            )
            # env and noise streams of one slot are distinct
            assert not np.array_equal(
                np.random.default_rng(env_seq).integers(0, 2**31, size=4),
                np.random.default_rng(noise_seq).integers(0, 2**31, size=4),
            )

    def test_collection_seed_tree_deterministic(self):
        left = collection_seed_tree(9, 4)
        right = collection_seed_tree(9, 4)
        for (env_l, noise_l), (env_r, noise_r) in zip(left, right):
            assert np.random.default_rng(env_l).random() == np.random.default_rng(env_r).random()
            assert np.random.default_rng(noise_l).random() == np.random.default_rng(noise_r).random()


class TestValidation:
    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        with pytest.raises(ValueError):
            check_probability(1.2, "p")

    def test_check_positive(self):
        assert check_positive(3, "x") == 3.0
        with pytest.raises(ValueError):
            check_positive(0, "x")

    def test_check_non_negative(self):
        assert check_non_negative(0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1, "x")

    def test_check_integer(self):
        assert check_integer(np.int64(3), "n", minimum=1) == 3
        assert type(check_integer(np.int64(3), "n")) is int
        for bad in (0, -1, 2.0, 2.5, True, float("nan"), "3"):
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                check_integer(bad, "n", minimum=1)

    def test_check_fraction_sum(self):
        check_fraction_sum([0.4, 0.4, 0.1, 0.1])
        with pytest.raises(ValueError):
            check_fraction_sum([0.5, 0.6])
        with pytest.raises(ValueError):
            check_fraction_sum([1.5, -0.5])

    def test_check_2d(self):
        assert check_2d(np.zeros((2, 3)), "X").shape == (2, 3)
        with pytest.raises(ValueError):
            check_2d(np.zeros(3), "X")


class TestLogging:
    def test_get_logger_single_handler(self):
        a = get_logger("repro-test-logger")
        b = get_logger("repro-test-logger")
        assert a is b
        assert len(a.handlers) == 1

    def test_training_logger_history_and_latest(self):
        logger = TrainingLogger("t")
        logger.log(loss=1.0, asr=0.1)
        logger.log(loss=0.5, asr=0.6)
        assert logger.series("loss") == [1.0, 0.5]
        assert logger.latest("asr") == 0.6
        assert np.isnan(logger.latest("missing"))

    def test_training_logger_periodic_reporting(self, caplog):
        logger = TrainingLogger("t2", report_every=2, logger=get_logger("repro-report-test"))
        with caplog.at_level(logging.INFO, logger="repro-report-test"):
            logger.log(loss=1.0)
            logger.log(loss=0.9)
        # one report after the second step
        assert logger.series("loss") == [1.0, 0.9]


class TestPipeline:
    @pytest.fixture(scope="class")
    def data(self):
        return prepare_experiment_data("tor", n_censored=40, n_benign=40, max_packets=24, rng=0)

    def test_prepare_experiment_data_tor(self, data):
        assert data.dataset_name == "tor"
        assert data.normalizer.size_scale == 1460.0
        assert data.representation.max_length == 24
        assert len(data.splits.test) > 0

    def test_prepare_experiment_data_v2ray(self):
        data = prepare_experiment_data("v2ray", n_censored=20, n_benign=20, max_packets=20, rng=1)
        assert data.normalizer.size_scale == 16384.0

    def test_prepare_experiment_data_unknown(self):
        with pytest.raises(ValueError):
            prepare_experiment_data("doh")

    def test_make_censor_all_names(self, data):
        for name in CENSOR_NAMES:
            censor = make_censor(name, data, rng=0, epochs=1)
            assert censor.name == name
        assert set(NEURAL_CENSOR_NAMES) <= set(CENSOR_NAMES)

    def test_make_censor_unknown(self, data):
        with pytest.raises(ValueError):
            make_censor("XGBOOST", data)

    def test_train_censors_and_baseline_table(self, data):
        censors = train_censors(data, names=("DT", "RF"), rng=0)
        assert set(censors) == {"DT", "RF"}
        rows = censor_baseline_table(censors, data)
        assert len(rows) == 2
        assert all(0.0 <= row["accuracy"] <= 1.0 for row in rows)

    def test_train_amoeba_smoke(self, data, fast_config):
        censors = train_censors(data, names=("DT",), rng=0)
        agent = train_amoeba(
            censors["DT"], data, total_timesteps=100, config=fast_config, rng=0
        )
        report = agent.evaluate(data.splits.test.censored_flows[:3])
        assert 0.0 <= report.attack_success_rate <= 1.0

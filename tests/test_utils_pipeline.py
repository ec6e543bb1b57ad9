"""Tests for shared utilities and the high-level experiment pipeline."""

import logging
import pickle

import numpy as np
import pytest

from repro.eval.metrics import classifier_detection_report
from repro.pipeline import (
    CENSOR_NAMES,
    NEURAL_CENSOR_NAMES,
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

    def test_collection_seed_tree_crosses_process_boundary_shape(self):
        """The per-env (env, noise) pairs rebuild identically after a pickle
        round trip — the property worker processes rely on."""
        tree = collection_seed_tree(5, 3)
        assert len(tree) == 3
        for env_seq, noise_seq in tree:
            env_rebuilt = pickle.loads(pickle.dumps(env_seq))
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


class TestLoggingHelpers:
    def test_get_logger_level_applied_once(self):
        logger = get_logger("repro.test.level_once", level=logging.DEBUG)
        assert logger.level == logging.DEBUG
        again = get_logger("repro.test.level_once", level=logging.WARNING)
        assert again is logger
        assert again.level == logging.DEBUG  # later levels must not mutate

    def test_max_history_bounds_series(self):
        logger = TrainingLogger("t", logger=logging.getLogger("repro.test.tl"), max_history=3)
        for step in range(10):
            logger.log(loss=float(step))
        assert logger.series("loss") == [7.0, 8.0, 9.0]
        assert logger.latest("loss") == 9.0

    def test_default_history_unbounded(self):
        logger = TrainingLogger("t", logger=logging.getLogger("repro.test.tl"))
        for step in range(10):
            logger.log(loss=float(step))
        assert len(logger.series("loss")) == 10

    def test_rejects_bad_max_history(self):
        with pytest.raises(ValueError):
            TrainingLogger(max_history=0)

    def test_same_name_loggers_keep_separate_latest(self):
        first = TrainingLogger("shared", logger=logging.getLogger("repro.test.tl"))
        second = TrainingLogger("shared", logger=logging.getLogger("repro.test.tl"))
        first.log(loss=1.0)
        second.log(loss=2.0)
        assert first.latest("loss") == 1.0
        assert second.latest("loss") == 2.0
        assert first.latest("reward", default=-1.0) == -1.0

    def test_summary_reports_only_current_step(self, caplog):
        logger = logging.getLogger("repro.test.tl_summary")
        logger.propagate = True
        training = TrainingLogger("t", report_every=2, logger=logger)
        with caplog.at_level(logging.INFO, logger="repro.test.tl_summary"):
            training.log(loss=1.0, test_asr=0.9)
            training.log(loss=0.5)
        (record,) = caplog.records
        assert "loss=0.5000" in record.getMessage()
        # test_asr was not logged this step; a stale value must not repeat.
        assert "test_asr" not in record.getMessage()

    @staticmethod
    def _reporting_logger(name):
        logger = logging.getLogger(name)
        logger.propagate = True
        return logger

    @pytest.mark.parametrize("report_every", [1, 2, 3, 7])
    def test_reports_every_nth_step(self, caplog, report_every):
        name = f"repro.test.tl_every_{report_every}"
        training = TrainingLogger("t", report_every=report_every, logger=self._reporting_logger(name))
        with caplog.at_level(logging.INFO, logger=name):
            for step in range(7):
                training.log(loss=float(step))
        messages = [record.getMessage() for record in caplog.records]
        expected_steps = list(range(report_every, 8, report_every))
        assert len(messages) == len(expected_steps)
        for message, step in zip(messages, expected_steps):
            assert message.startswith(f"step {step} ")
            assert f"loss={step - 1:.4f}" in message

    def test_report_every_zero_never_reports(self, caplog):
        name = "repro.test.tl_silent"
        training = TrainingLogger("t", report_every=0, logger=self._reporting_logger(name))
        with caplog.at_level(logging.INFO, logger=name):
            for step in range(5):
                training.log(loss=float(step))
        assert caplog.records == []
        assert len(training.series("loss")) == 5

    def test_series_of_an_unknown_key_is_empty(self):
        training = TrainingLogger("t", logger=logging.getLogger("repro.test.tl"))
        training.log(loss=1.0)
        assert training.series("reward") == []
        assert "reward" not in training.history

    def test_series_is_a_copy(self):
        training = TrainingLogger("t", logger=logging.getLogger("repro.test.tl"))
        training.log(loss=1.0)
        training.series("loss").append(99.0)
        assert training.series("loss") == [1.0]

    @pytest.mark.parametrize("max_history", [1, 2, 4])
    def test_max_history_windows_each_key_on_its_own(self, max_history):
        training = TrainingLogger(
            "t", logger=logging.getLogger("repro.test.tl"), max_history=max_history
        )
        for step in range(6):
            training.log(loss=float(step))
            if step % 2:
                training.log(reward=float(step))
        assert training.series("loss") == [float(v) for v in range(6)][-max_history:]
        assert training.series("reward") == [1.0, 3.0, 5.0][-max_history:]

    def test_keys_logged_on_different_steps_keep_their_own_series(self):
        training = TrainingLogger("t", logger=logging.getLogger("repro.test.tl"))
        training.log(loss=1.0)
        training.log(loss=0.5, test_asr=0.7)
        training.log(loss=0.25)
        assert training.series("loss") == [1.0, 0.5, 0.25]
        assert training.series("test_asr") == [0.7]
        assert training.latest("test_asr") == 0.7

    def test_values_are_stored_as_python_floats(self):
        training = TrainingLogger("t", logger=logging.getLogger("repro.test.tl"))
        training.log(loss=np.float32(0.5), steps=np.int64(3), done=True)
        for key, value in (("loss", 0.5), ("steps", 3.0), ("done", 1.0)):
            (stored,) = training.series(key)
            assert type(stored) is float and stored == value

    def test_get_logger_defaults_to_info_and_does_not_propagate(self):
        logger = get_logger("repro.test.defaults")
        assert logger.level == logging.INFO
        assert logger.propagate is False


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

    @pytest.mark.parametrize("drop_rate", [-0.5, float("nan"), 1.5])
    def test_prepare_experiment_data_refuses_a_bad_drop_rate(self, drop_rate):
        # A negative or NaN rate fails ``drop_rate > 0``, so the network
        # condition that would check it is never built.
        with pytest.raises(ValueError, match="drop_rate"):
            prepare_experiment_data("tor", n_censored=4, n_benign=4, drop_rate=drop_rate, rng=0)

    def test_make_censor_all_names(self, data):
        for name in CENSOR_NAMES:
            censor = make_censor(name, data, rng=0, epochs=1)
            assert censor.name == name
        assert set(NEURAL_CENSOR_NAMES) <= set(CENSOR_NAMES)

    def test_make_censor_unknown(self, data):
        with pytest.raises(ValueError):
            make_censor("XGBOOST", data)

    def test_train_censors_and_detection_reports(self, data):
        censors = train_censors(data, names=("DT", "RF"), rng=0)
        assert set(censors) == {"DT", "RF"}
        for censor in censors.values():
            report = classifier_detection_report(censor, data.splits.test.flows)
            assert 0.0 <= report["accuracy"] <= 1.0

    def test_train_amoeba_smoke(self, data, fast_config):
        censors = train_censors(data, names=("DT",), rng=0)
        agent = train_amoeba(
            censors["DT"], data, total_timesteps=100, config=fast_config, rng=0
        )
        report = agent.evaluate(data.splits.test.censored_flows[:3])
        assert 0.0 <= report.attack_success_rate <= 1.0

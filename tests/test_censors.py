"""Unit and integration tests for the censoring classifiers and the gateway."""

import numpy as np
import pytest

from repro.censors import (
    CensorGateway,
    CumulSVMClassifier,
    DecisionTreeCensor,
    DeepFingerprintingClassifier,
    LSTMClassifier,
    RandomForestCensor,
    SDAEClassifier,
    SocketPair,
)
from repro import nn
from repro.core import Amoeba
from repro.eval.feature_importance import ImportanceBreakdown
from repro.eval.metrics import classifier_detection_report
from repro.censors.base import CensorClassifier
from repro.features import SequenceRepresentation, StatisticalFeatureExtractor, statistical
from repro.flows import Flow, FlowLabel
from repro.nn import state_dict_to_bytes

from oracles.conv_reference import composed_relu_pool
from oracles.df_tensor_scoring import tensor_score_flows
from oracles.statistical_reference import (
    StatisticalFeatureExtractor as ReferenceStatisticalFeatureExtractor,
)


class TestCensorInterface:
    def test_unfitted_censor_rejects_scoring(self, simple_flow):
        censor = DecisionTreeCensor(rng=0)
        with pytest.raises(RuntimeError):
            censor.predict_score(simple_flow)

    def test_query_counting(self, trained_dt_censor, tor_splits):
        trained_dt_censor.reset_query_count()
        trained_dt_censor.predict_scores(tor_splits.test.flows[:5])
        trained_dt_censor.predict_score(tor_splits.test.flows[0])
        assert trained_dt_censor.query_count == 6
        trained_dt_censor.reset_query_count()
        assert trained_dt_censor.query_count == 0

    def test_scores_are_probabilities(self, trained_dt_censor, tor_splits):
        scores = trained_dt_censor.predict_scores(tor_splits.test.flows)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_classify_threshold(self, trained_dt_censor, tor_splits):
        flows = tor_splits.test.flows[:6]
        decisions = trained_dt_censor.classify_many(flows)
        scores = trained_dt_censor.predict_scores(flows)
        assert decisions.tolist() == (scores >= 0.5).astype(int).tolist()

    def test_label_validation(self, tor_splits):
        censor = DecisionTreeCensor(rng=0)
        flows = tor_splits.clf_train.flows[:4]
        with pytest.raises(ValueError):
            censor.fit(flows, labels=[0, 1, 2, 1])
        with pytest.raises(ValueError):
            censor.fit(flows, labels=[0, 1])

    def test_empty_predict_scores(self, trained_dt_censor):
        assert trained_dt_censor.predict_scores([]).size == 0

    def test_repr_mentions_name(self, trained_dt_censor):
        assert "DT" in repr(trained_dt_censor)


class TestTreeCensors:
    def test_dt_detects_tor(self, trained_dt_censor, tor_splits):
        report = classifier_detection_report(trained_dt_censor, tor_splits.test.flows)
        assert report["accuracy"] >= 0.9
        assert report["f1"] >= 0.9

    def test_rf_detects_tor(self, tor_splits):
        censor = RandomForestCensor(n_estimators=10, rng=0).fit(tor_splits.clf_train.flows)
        report = classifier_detection_report(censor, tor_splits.test.flows)
        assert report["accuracy"] >= 0.9

    def test_feature_importance_analysis(self, trained_dt_censor):
        top = trained_dt_censor.top_feature_importances(top_k=20)
        assert len(top) == 20
        assert all(importance >= 0 for _, _, importance in top)
        breakdown = ImportanceBreakdown.from_censor(trained_dt_censor, top_k=20)
        assert breakdown.packet_count + breakdown.timing_count == 20

    def test_packet_features_dominate_importances(self, trained_dt_censor):
        """Figure 4's qualitative claim: packet features outrank timing features."""
        breakdown = ImportanceBreakdown.from_censor(trained_dt_censor, top_k=20)
        assert breakdown.packet_count > breakdown.timing_count


def deep_tree_training_set(tor_splits):
    """The synthetic Tor set is separable on one feature.  Prefixes (what the
    censor scores during training) with 30 % flipped labels grow a deep tree
    over ~25 features from every group."""
    flows = [flow.prefix_views([k])[0] for flow in tor_splits.clf_train.flows for k in (3, 8, 20, 40)]
    labels = np.array([flow.label for flow in flows])
    flipped = np.random.default_rng(4).random(len(flows)) < 0.3
    return flows, np.where(flipped, 1 - labels, labels)


class TestTreeCensorColumns:
    """Tree censors score through ``extract_many(flows, model.split_features_)``."""

    @staticmethod
    def _spy(monkeypatch, censor):
        calls = []
        extract_many, predict_proba = censor.extractor.extract_many, censor.model.predict_proba

        def recording_extract_many(flows, columns=None):
            calls.append(("extract_many", len(flows), None if columns is None else list(columns)))
            return extract_many(flows, columns)

        def recording_predict_proba(X):
            calls.append(("predict_proba", len(X), None))
            return predict_proba(X)

        monkeypatch.setattr(censor.extractor, "extract_many", recording_extract_many)
        monkeypatch.setattr(censor.model, "predict_proba", recording_predict_proba)
        return calls

    @pytest.mark.parametrize("make", [lambda: DecisionTreeCensor(rng=3), lambda: RandomForestCensor(10, rng=0)])
    def test_scores_read_only_split_columns(self, make, tor_splits, monkeypatch):
        censor = make().fit(tor_splits.clf_train.flows)
        flows = tor_splits.test.flows
        expected = censor.model.predict_proba(StatisticalFeatureExtractor().extract_many(flows))
        calls = self._spy(monkeypatch, censor)
        scores = censor.predict_scores(flows)
        columns = censor.model.split_features_.tolist()
        assert calls == [("extract_many", len(flows), columns), ("predict_proba", len(flows), None)]
        benign = list(censor.model.classes_).index(1)
        assert np.array_equal(scores.view(np.uint64), expected[:, benign].view(np.uint64))

    @pytest.mark.parametrize("dataset", ["tor", "v2ray"])
    def test_extremum_splits_score_without_length_buckets(self, dataset, request, monkeypatch):
        """Both datasets' DT stumps split on an extremum (``pkt_all_min``,
        ``time_down_max``): scoring takes it from one reduceat, with no
        length bucket and no row sort, and scores as before bit for bit."""
        flows = request.getfixturevalue(f"{dataset}_dataset").flows
        censor = DecisionTreeCensor(rng=3).fit(flows[::2])
        names = censor.extractor.feature_names()
        split = [names[column] for column in censor.model.split_features_]
        assert split and all(name.endswith(("_min", "_max")) for name in split), split
        prefixes = [prefix for flow in flows[1:17:2] for prefix in flow.prefix_views(range(1, 41))]
        expected = censor.predict_scores(prefixes)

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"scoring an extremum split called {name}")

            return call

        monkeypatch.setattr(statistical, "_segment_matrices", forbidden("_segment_matrices"))
        monkeypatch.setattr(np, "sort", forbidden("np.sort"))
        scores = censor.predict_scores(prefixes)
        assert np.array_equal(scores.view(np.uint64), expected.view(np.uint64))

    def test_refit_scores_like_a_fresh_censor(self, tor_splits):
        deep_flows, deep_labels = deep_tree_training_set(tor_splits)
        censor = DecisionTreeCensor(rng=3, min_samples_split=2).fit(tor_splits.clf_train.flows)
        assert len(censor.model.split_features_) == 1  # a stump
        censor.fit(deep_flows, deep_labels)
        fresh = DecisionTreeCensor(rng=3, min_samples_split=2).fit(deep_flows, deep_labels)
        assert len(censor.model.split_features_) >= 20
        assert np.array_equal(censor.model.split_features_, fresh.model.split_features_)
        flows = tor_splits.test.flows + deep_flows[::7]
        assert np.array_equal(
            censor.predict_scores(flows).view(np.uint64), fresh.predict_scores(flows).view(np.uint64)
        )

    def test_single_leaf_tree_still_queries(self, tor_splits, monkeypatch):
        benign = [f for f in tor_splits.clf_train.flows if f.label == FlowLabel.BENIGN]
        censor = DecisionTreeCensor(rng=3).fit(benign)
        assert censor.model.depth == 0 and censor.model.split_features_.size == 0
        calls = self._spy(monkeypatch, censor)
        flows = tor_splits.test.flows[:9]
        assert np.all(censor.predict_scores(flows) == 1.0)
        assert calls == [("extract_many", 9, []), ("predict_proba", 9, None)]
        assert censor.query_count == 9


class TestTreeCensorTrainingSemantics:
    """A tiny golden run: the feature kernel may not move a single training bit."""

    @staticmethod
    def _train(extractor, tor_splits, normalizer, fast_config, monkeypatch):
        censor = DecisionTreeCensor(rng=3, min_samples_split=2)
        # Used by ``fit`` (all columns) and by every scoring tick (the ~25
        # columns the deep tree splits on), so a drifted feature shows.
        censor.extractor = extractor
        censor.fit(*deep_tree_training_set(tor_splits))
        assert np.count_nonzero(censor.model.feature_importances_) >= 20
        agent = Amoeba(
            censor,
            normalizer,
            fast_config,
            rng=0,
            encoder_pretrain_kwargs={"n_flows": 30, "epochs": 1, "max_length": 15},
        )
        scores, rewards = [], []
        score_flows, update = censor._score_flows, agent.updater.update

        def recording_score_flows(flows):
            scores.append(score_flows(flows))
            return scores[-1]

        def recording_update(buffer):
            rewards.append(buffer.rewards.copy())
            return update(buffer)

        monkeypatch.setattr(censor, "_score_flows", recording_score_flows)
        monkeypatch.setattr(agent.updater, "update", recording_update)
        # Two PPO iterations, so the second collects with an updated policy.
        agent.train(
            tor_splits.attack_train.censored_flows[:20],
            total_timesteps=2 * fast_config.rollout_length * fast_config.n_envs,
        )
        return {
            "scores": np.concatenate(scores).tobytes(),
            "rewards": np.stack(rewards).tobytes(),
            "query_count": censor.query_count,
            "log": {key: list(series) for key, series in agent.training_log.history.items()},
            "policy": state_dict_to_bytes(agent._policy_state()),
        }

    def test_kernel_and_oracle_extractor_train_identically(
        self, tor_splits, normalizer, fast_config, monkeypatch
    ):
        runs = [
            self._train(extractor, tor_splits, normalizer, fast_config, monkeypatch)
            for extractor in (ReferenceStatisticalFeatureExtractor(), StatisticalFeatureExtractor())
        ]
        assert runs[0]["query_count"] == runs[1]["query_count"] > 0
        for key in ("scores", "rewards", "log", "policy"):
            assert runs[0][key] == runs[1][key], key


class TestCumulCensor:
    def test_cumul_detects_tor(self, tor_splits):
        censor = CumulSVMClassifier(rng=0, n_interpolation=30, epochs=10).fit(tor_splits.clf_train.flows)
        report = classifier_detection_report(censor, tor_splits.test.flows)
        assert report["accuracy"] >= 0.85

    def test_cumul_not_differentiable(self, tor_splits):
        censor = CumulSVMClassifier(rng=0)
        assert censor.differentiable is False


class TestNeuralCensors:
    @pytest.fixture(scope="class")
    def df_censor(self, representation, tor_splits):
        return DeepFingerprintingClassifier(representation, epochs=6, rng=0).fit(
            tor_splits.clf_train.flows
        )

    def test_df_learns(self, df_censor, tor_splits):
        report = classifier_detection_report(df_censor, tor_splits.test.flows)
        assert report["accuracy"] >= 0.7

    def test_df_forward_tensor_outputs_probabilities(self, df_censor, tor_splits):
        from repro import nn

        batch = df_censor.prepare_input(tor_splits.test.flows[:4])
        out = df_censor.forward_tensor(nn.Tensor(batch)).data
        assert np.all((out >= 0) & (out <= 1))

    def test_df_requires_min_length(self, normalizer):
        from repro.features import SequenceRepresentation

        with pytest.raises(ValueError):
            DeepFingerprintingClassifier(SequenceRepresentation(2, normalizer))

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"epochs": 0}, "epochs"),
            ({"batch_size": 0}, "batch_size"),
            ({"learning_rate": float("inf")}, "learning_rate"),
            ({"learning_rate": float("nan")}, "learning_rate"),
            ({"epochs": 2.0}, "epochs"),
        ],
    )
    @pytest.mark.parametrize("family", ["DF", "SDAE", "LSTM"])
    def test_budget_that_trains_nothing_is_refused(self, family, kwargs, name, representation, normalizer):
        """``epochs=0`` used to return a censor marked fitted with its random
        initial weights, and ``batch_size=0`` to fail inside ``fit``."""
        with pytest.raises(ValueError, match=name):
            if family == "DF":
                DeepFingerprintingClassifier(representation, rng=0, **kwargs)
            elif family == "SDAE":
                SDAEClassifier(representation, rng=0, **kwargs)
            else:
                LSTMClassifier(normalizer, rng=0, **kwargs)

    def test_sdae_may_skip_pretraining_but_not_a_negative_count(self, representation):
        assert SDAEClassifier(representation, pretrain_epochs=0, rng=0).pretrain_epochs == 0
        with pytest.raises(ValueError, match="pretrain_epochs"):
            SDAEClassifier(representation, pretrain_epochs=-1, rng=0)

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"epochs": 0}, "epochs"),
            ({"batch_size": 0}, "batch_size"),
            ({"learning_rate": float("inf")}, "learning_rate"),
            ({"max_grad_norm": -1.0}, "max_grad_norm"),
        ],
    )
    def test_training_loop_refuses_before_any_step(self, kwargs, name):
        from repro.censors.training import train_binary_classifier

        model = nn.Linear(3, 1, rng=np.random.default_rng(0))
        before = state_dict_to_bytes(model.state_dict())
        with pytest.raises(ValueError, match=name):
            train_binary_classifier(model, np.ones((4, 3)), np.ones(4), **kwargs)
        assert state_dict_to_bytes(model.state_dict()) == before

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_training_loop_refuses_a_non_finite_gradient(self, bad):
        """An infinite or NaN input makes the gradient norm non-finite: the
        loop raises before Adam writes NaN into every weight."""
        from repro.censors.deep_fingerprinting import _DFNetwork
        from repro.censors.training import train_binary_classifier

        model = _DFNetwork(8, rng=np.random.default_rng(0))
        inputs = np.random.default_rng(1).normal(size=(6, 2, 8))
        inputs[3, 1, 5] = bad
        before = state_dict_to_bytes(model.state_dict())
        with pytest.raises(FloatingPointError, match="non-finite gradient norm"):
            with np.errstate(all="ignore"):
                train_binary_classifier(model, inputs, np.ones(6), batch_size=6, rng=0)
        assert state_dict_to_bytes(model.state_dict()) == before

    def test_sdae_learns(self, representation, tor_splits):
        censor = SDAEClassifier(representation, epochs=12, pretrain_epochs=2, rng=0).fit(
            tor_splits.clf_train.flows
        )
        report = classifier_detection_report(censor, tor_splits.test.flows)
        assert report["accuracy"] >= 0.7

    def test_lstm_learns(self, normalizer, tor_splits):
        censor = LSTMClassifier(normalizer, epochs=3, hidden_size=16, max_train_length=30, rng=0).fit(
            tor_splits.clf_train.flows
        )
        report = classifier_detection_report(censor, tor_splits.test.flows)
        assert report["accuracy"] >= 0.7

    def test_lstm_handles_variable_lengths(self, normalizer, tor_splits, simple_flow):
        censor = LSTMClassifier(normalizer, epochs=1, hidden_size=8, max_train_length=20, rng=0).fit(
            tor_splits.clf_train.flows[:20]
        )
        score = censor.predict_score(simple_flow)
        assert 0.0 <= score <= 1.0


def random_flow(rng, n_packets):
    return Flow(
        sizes=rng.uniform(60.0, 1460.0, n_packets) * rng.choice([-1.0, 1.0], n_packets),
        delays=rng.exponential(10.0, n_packets),
    )


def _lstm_fit_as_it_was(censor, flows):
    """``LSTMClassifier.fit``'s own loop before it called the shared
    ``train_binary_classifier``, verbatim but for the ``self`` → ``censor``."""
    from repro.nn import functional as F

    flows = list(flows)
    labels = censor._resolve_labels(flows, None).astype(np.float64)
    optimizer = nn.Adam(censor.network.parameters(), lr=censor.learning_rate)
    padded = censor._to_padded_batch(flows)
    censor.network.train()
    for _ in range(censor.epochs):
        order = censor._rng.permutation(len(flows))
        for start in range(0, len(flows), censor.batch_size):
            batch_idx = order[start : start + censor.batch_size]
            logits = censor.network(nn.Tensor(padded[batch_idx])).reshape(-1)
            loss = F.binary_cross_entropy_with_logits(logits, nn.Tensor(labels[batch_idx]))
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(censor.network.parameters(), 5.0)
            optimizer.step()
    censor.network.eval()
    censor._fitted = True
    return censor


class TestLSTMTrainingLoop:
    """``LSTMClassifier.fit`` is the shared ``train_binary_classifier``: for a
    fixed seed it trains the weights, draws the permutations and scores the
    flows of its former private copy, byte for byte."""

    @pytest.mark.parametrize("batch_size", [7, 16])
    def test_fit_equals_its_former_loop(self, normalizer, tor_splits, batch_size):
        flows = tor_splits.clf_train.flows[:40]
        censors = [
            LSTMClassifier(
                normalizer, hidden_size=8, epochs=2, batch_size=batch_size, max_train_length=20, rng=3
            )
            for _ in range(2)
        ]
        censors[0].fit(flows)
        _lstm_fit_as_it_was(censors[1], flows)
        shared, former = (censor.network.state_dict() for censor in censors)
        assert shared.keys() == former.keys()
        for name in shared:
            assert shared[name].tobytes() == former[name].tobytes(), name
        assert censors[0]._rng.bit_generator.state == censors[1]._rng.bit_generator.state
        held_out = tor_splits.test.flows[:10]
        assert censors[0].predict_scores(held_out).tobytes() == censors[1].predict_scores(held_out).tobytes()


class TestDeepFingerprintingKernels:
    """DF fitted and queried on the fused conv block (``Conv1d.relu_pool``, one
    autograd node per block) and on the composed Conv1d → ReLU → MaxPool1d
    graph of ``tests/oracles/conv_reference.py``: no weight, score or input
    gradient may differ in a bit, whichever backend runs the fused block's
    hooks (a drifted kernel shows here before it shows in a benchmark
    digest).  Scores come from the ``Tensor`` scoring oracle, the path that
    runs the patched graph; :class:`TestDeepFingerprintingArrayScoring` ties
    the production array scoring to it."""

    HOOKS = ("im2col_1d", "bias_relu_pool", "bias_relu_pool_backward", "col2im_1d")

    @staticmethod
    def _run(representation, tor_splits):
        censor = DeepFingerprintingClassifier(representation, epochs=3, rng=0).fit(
            tor_splits.clf_train.flows
        )
        long_flow = random_flow(np.random.default_rng(11), 80)
        # white-box path (CW / NIDSGAN / BAP): gradient w.r.t. the network input
        batch = nn.Tensor(censor.prepare_input(tor_splits.test.flows[:6]), requires_grad=True)
        censor.forward_tensor(batch).sum().backward()
        assert np.count_nonzero(batch.grad) > 0
        run = {name: value.tobytes() for name, value in censor.network.state_dict().items()}
        run["held-out scores"] = tensor_score_flows(censor, tor_splits.test.flows).tobytes()
        run["prefix scores"] = tensor_score_flows(
            censor, long_flow.prefix_views(range(1, 81))
        ).tobytes()
        run["input gradient"] = batch.grad.tobytes()
        return run

    @pytest.mark.parametrize("backend", ["blocked", "reference"])
    def test_fused_and_composed_agree_bytewise(self, representation, tor_splits, backend, monkeypatch):
        with nn.use_backend(backend):
            fused = self._run(representation, tor_splits)
        monkeypatch.setattr(nn.Conv1d, "relu_pool", composed_relu_pool)
        with nn.use_backend("reference"):
            composed = self._run(representation, tor_splits)
        assert fused.keys() == composed.keys() and len(fused) > 4
        for key in fused:
            assert fused[key] == composed[key], key

    def test_one_node_per_conv_block(self, representation):
        from repro.nn.tensor import _topological_order

        censor = DeepFingerprintingClassifier(representation, rng=0)
        out = censor.network(nn.Tensor(np.zeros((3, 2, censor.packet_window))))
        nodes = [tensor for tensor in _topological_order(out) if tensor._backward is not None]
        # two conv blocks, the flatten, fc1 (product, bias), its ReLU, fc2 (product, bias)
        assert len(nodes) == 8

    def test_blocked_training_runs_the_compiled_hooks(self, representation, tor_splits, monkeypatch):
        """Under ``blocked`` no conv-block hook of the fit, the white-box
        gradient or the scoring falls back to numpy."""
        from repro.nn import backend as nnb

        if not nnb.compiled_kernel_available():
            pytest.skip(f"compiled kernel unavailable: {nnb.compiled_kernel_error()}")
        # With the GEMM compiled, a kernel failing its self-check is a bug.
        assert nnb.fused_cells_available(), nnb.fused_cells_error()
        for hook in self.HOOKS:

            def forbidden(*args, _hook=hook, **kwargs):
                raise AssertionError(f"{_hook} fell back to the numpy expression")

            monkeypatch.setattr(nnb.ExecutionBackend, hook, forbidden)
        with nn.use_backend("blocked"):
            self._run(representation, tor_splits)


class TestDeepFingerprintingArrayScoring:
    """Production DF scoring runs on plain arrays; it must equal the ``Tensor``
    scoring body of ``tests/oracles/df_tensor_scoring.py`` bit for bit, on the
    fused conv block and on the composed graph alike, whichever backend
    runs the conv-block hooks (the oracle always runs on ``reference``)."""

    @pytest.fixture(scope="class")
    def censor(self, normalizer, tor_splits):
        # max_length 42: the network (and the scoring window) is 40 packets.
        representation = SequenceRepresentation(42, normalizer)
        return DeepFingerprintingClassifier(representation, epochs=2, rng=0).fit(
            tor_splits.clf_train.flows
        )

    @staticmethod
    def batch(size, tor_splits):
        rng = np.random.default_rng(size)
        # longer than, exactly at and shorter than the 40-packet window, down
        # to one and two packets (shorter than the kernel)
        lengths = [61, 40, 12, 80, 41, 39, 5, 1, 2]
        held_out = tor_splits.test.flows
        return [
            held_out[i % len(held_out)] if i % 3 == 2 else random_flow(rng, lengths[i % 9])
            for i in range(size)
        ]

    @staticmethod
    def oracle(censor, flows):
        with nn.use_backend("reference"):
            return tensor_score_flows(censor, flows)

    @pytest.mark.parametrize("backend", ["blocked", "reference"])
    @pytest.mark.parametrize("kernels", ["production", "reference"])
    @pytest.mark.parametrize("size", [1, 2, 7, 31, 128, 129])
    def test_array_scoring_equals_tensor_oracle(
        self, censor, tor_splits, size, kernels, backend, monkeypatch
    ):
        assert censor.packet_window == 40
        if kernels == "reference":
            monkeypatch.setattr(nn.Conv1d, "relu_pool", composed_relu_pool)
        flows = self.batch(size, tor_splits)
        with nn.use_backend(backend):
            production = censor._score_flows(flows)
        oracle = self.oracle(censor, flows)
        assert production.shape == oracle.shape == (size,)
        assert np.array_equal(production.view(np.uint64), oracle.view(np.uint64))

    def test_blocked_scoring_runs_the_compiled_hooks(self, censor, tor_splits, monkeypatch):
        """Under ``blocked`` neither conv-block hook falls back to numpy."""
        from repro.nn import backend as nnb

        if not nnb.compiled_kernel_available():
            pytest.skip(f"compiled kernel unavailable: {nnb.compiled_kernel_error()}")
        # With the GEMM compiled, a kernel failing its self-check is a bug.
        assert nnb.fused_cells_available(), nnb.fused_cells_error()
        for hook in ("im2col_1d", "bias_relu_pool"):

            def forbidden(*args, _hook=hook, **kwargs):
                raise AssertionError(f"{_hook} fell back to the numpy expression")

            monkeypatch.setattr(nnb.ExecutionBackend, hook, forbidden)
        with nn.use_backend("blocked"):
            for size in (1, 2, 129):
                assert censor._score_flows(self.batch(size, tor_splits)).shape == (size,)

    def test_kernels_that_failed_their_self_check_score_the_same_bits(
        self, censor, tor_splits, fresh_blocked
    ):
        from repro.nn import backend as nnb

        flows = self.batch(31, tor_splits)
        fresh_blocked(**{hook.name: lambda compiled: nnb._declined for hook in nnb._HOOKS})
        with pytest.warns(RuntimeWarning, match="failed their self-check"), nn.use_backend("blocked"):
            assert not nnb.fused_cells_available()
            degraded = censor._score_flows(flows)
        assert np.array_equal(degraded.view(np.uint64), self.oracle(censor, flows).view(np.uint64))

    def test_scoring_reads_weights_at_call_time(self, censor, tor_splits):
        flows = self.batch(7, tor_splits)
        before = censor._score_flows(flows)
        bias = censor.network.fc2.bias
        saved = bias.data.copy()
        try:
            bias.data += 1.0
            shifted = censor._score_flows(flows)
            assert np.array_equal(
                shifted.view(np.uint64), tensor_score_flows(censor, flows).view(np.uint64)
            )
            assert (shifted > before).all()
        finally:
            bias.data[...] = saved


class TestPacketWindow:
    """``packet_window`` is the number of leading packets a score reads: a flow
    past it scores like its truncation to it, at the same batch position."""

    @staticmethod
    def assert_window_truthful(censor, tor_splits):
        window = censor.packet_window
        rng = np.random.default_rng(5)
        long_flow = random_flow(rng, window + 17)
        head = list(tor_splits.test.flows[:6])
        full = censor._score_flows(head + [long_flow])
        truncated = censor._score_flows(head + [long_flow.prefix_views([window])[0]])
        assert np.array_equal(full.view(np.uint64), truncated.view(np.uint64))
        # the window is tight: a change inside it moves the score
        moved = long_flow.prefix_views([window])[0].copy()
        moved.sizes[window - 1] = -moved.sizes[window - 1]
        assert censor._score_flows(head + [moved])[-1] != full[-1]

    def test_df_window_is_the_network_length(self, normalizer, tor_splits):
        censor = DeepFingerprintingClassifier(
            SequenceRepresentation(42, normalizer), epochs=1, rng=0
        ).fit(tor_splits.clf_train.flows)
        assert censor.packet_window == 40
        self.assert_window_truthful(censor, tor_splits)

    def test_sdae_window_is_the_representation_length(self, normalizer, tor_splits):
        censor = SDAEClassifier(
            SequenceRepresentation(12, normalizer), epochs=1, pretrain_epochs=1, rng=0
        ).fit(tor_splits.clf_train.flows)
        assert censor.packet_window == 12
        self.assert_window_truthful(censor, tor_splits)

    def test_lstm_window_is_the_train_length(self, normalizer, tor_splits):
        censor = LSTMClassifier(normalizer, epochs=1, hidden_size=8, max_train_length=12, rng=0).fit(
            tor_splits.clf_train.flows[:20]
        )
        assert censor.packet_window == 12
        self.assert_window_truthful(censor, tor_splits)

    def test_whole_flow_censors_have_no_window(self):
        for censor in (DecisionTreeCensor(rng=0), RandomForestCensor(rng=0), CumulSVMClassifier(rng=0)):
            assert censor.packet_window is None


class NaNCensor(CensorClassifier):
    """A fitted censor whose scoring yields NaN for every third flow."""

    name = "nan-probe"

    def __init__(self, base):
        super().__init__()
        self.base = base
        self._fitted = True

    def fit(self, flows, labels=None):
        return self

    def _score_flows(self, flows):
        scores = np.array(self.base._score_flows(flows), dtype=np.float64)
        scores[::3] = np.nan
        return scores


class TestNaNScores:
    """A NaN score is refused, never read as "blocked" (``NaN >= 0.5`` is False)."""

    def test_predict_scores_raises(self, trained_dt_censor, tor_splits):
        censor = NaNCensor(trained_dt_censor)
        with pytest.raises(FloatingPointError, match="nan-probe censor returned NaN for 2 of 5"):
            censor.predict_scores(tor_splits.test.flows[:5])
        with pytest.raises(FloatingPointError, match="NaN for 1 of 1"):
            censor.classify_many(tor_splits.test.flows[:1])

    def test_error_propagates_out_of_collect(self, trained_dt_censor, normalizer, tor_splits):
        from repro.core import AmoebaConfig
        from repro.distrib import ShardRunner
        from repro.utils.rng import collection_seed_tree

        censor = NaNCensor(trained_dt_censor)
        config = AmoebaConfig.for_tor(
            n_envs=2, encoder_hidden=8, actor_hidden=(16,), critic_hidden=(16,)
        )
        agent = Amoeba(
            censor,
            normalizer,
            config,
            rng=0,
            encoder_pretrain_kwargs=dict(n_flows=10, max_length=10, epochs=1),
        )
        runner = ShardRunner(
            agent.actor,
            agent.critic,
            agent.state_encoder,
            censor,
            normalizer,
            config,
            tor_splits.attack_train.censored_flows,
            collection_seed_tree(np.random.default_rng(0), 2),
        )
        with pytest.raises(FloatingPointError, match="nan-probe censor returned NaN"):
            runner.collect(4)


class TestGateway:
    def test_benign_flow_allowed(self, trained_dt_censor, tor_splits):
        gateway = CensorGateway(trained_dt_censor)
        pair = SocketPair("10.0.0.1", 50000, "93.184.216.34", 443)
        benign = next(f for f in tor_splits.test.flows if f.label == FlowLabel.BENIGN)
        decision = gateway.observe(pair, benign)
        assert decision.allowed
        assert not gateway.is_blocked(pair)

    def test_censored_flow_blocks_socket_pair(self, trained_dt_censor, tor_splits):
        gateway = CensorGateway(trained_dt_censor)
        pair = SocketPair("10.0.0.2", 50001, "1.2.3.4", 443)
        censored = tor_splits.test.censored_flows[0]
        decision = gateway.observe(pair, censored)
        assert not decision.allowed
        assert gateway.is_blocked(pair)

    def test_blocked_pair_rejected_without_new_query(self, trained_dt_censor, tor_splits):
        gateway = CensorGateway(trained_dt_censor)
        pair = SocketPair("10.0.0.3", 50002, "1.2.3.4", 443)
        gateway.observe(pair, tor_splits.test.censored_flows[0])
        before = trained_dt_censor.query_count
        benign = next(f for f in tor_splits.test.flows if f.label == FlowLabel.BENIGN)
        decision = gateway.observe(pair, benign)
        assert decision.blacklisted
        assert trained_dt_censor.query_count == before

    def test_destination_port_blocking(self, trained_dt_censor, tor_splits):
        gateway = CensorGateway(trained_dt_censor, block_destination_port=True)
        first = SocketPair("10.0.0.4", 50003, "5.6.7.8", 443)
        second = SocketPair("10.0.0.5", 50004, "5.6.7.8", 443)
        gateway.observe(first, tor_splits.test.censored_flows[0])
        assert gateway.is_blocked(second)

    def test_statistics_counting(self, trained_dt_censor, tor_splits):
        gateway = CensorGateway(trained_dt_censor)
        for index, flow in enumerate(tor_splits.test.flows[:6]):
            gateway.observe(SocketPair("10.0.1.1", 40000 + index, "8.8.8.8", 443), flow)
        stats = gateway.statistics
        assert stats["decisions"] == 6
        assert stats["blocked"] == stats["blacklist_size"]

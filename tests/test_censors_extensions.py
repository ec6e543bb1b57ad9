"""Tests for the early-decision censor wrapper and results persistence."""

import numpy as np
import pytest

from repro.censors import DecisionTreeCensor, EarlyDecisionCensor
from repro.eval import load_results_json, save_results_json
from repro.eval.metrics import classifier_detection_report
from repro.flows import Flow, FlowLabel


class TestEarlyDecisionCensor:
    def test_requires_a_restriction(self):
        with pytest.raises(ValueError):
            EarlyDecisionCensor(DecisionTreeCensor(rng=0))

    def test_invalid_packet_budget(self):
        with pytest.raises(ValueError):
            EarlyDecisionCensor(DecisionTreeCensor(rng=0), first_n_packets=0)

    def test_name_mentions_base(self):
        censor = EarlyDecisionCensor(DecisionTreeCensor(rng=0), first_n_packets=5)
        assert censor.name == "Early[DT]"

    def test_restricted_view_truncates(self, simple_flow):
        censor = EarlyDecisionCensor(DecisionTreeCensor(rng=0), first_n_packets=2)
        restricted = censor._restrict(simple_flow)
        assert restricted.n_packets == 2

    def test_upstream_only_view(self, simple_flow):
        censor = EarlyDecisionCensor(DecisionTreeCensor(rng=0), upstream_only=True)
        restricted = censor._restrict(simple_flow)
        assert np.all(restricted.sizes > 0)

    def test_upstream_only_with_downstream_only_flow(self):
        censor = EarlyDecisionCensor(DecisionTreeCensor(rng=0), upstream_only=True)
        flow = Flow(sizes=[-500.0, -600.0], delays=[0.0, 1.0])
        restricted = censor._restrict(flow)
        assert restricted.n_packets == 1

    def test_restricted_view_is_validated_once_and_owned(self, simple_flow, monkeypatch):
        validations = []
        post_init = Flow.__post_init__
        monkeypatch.setattr(
            Flow, "__post_init__", lambda self: (validations.append(1), post_init(self))[1]
        )
        for kwargs in (
            dict(first_n_packets=3),
            dict(upstream_only=True),
            dict(first_n_packets=1, upstream_only=True),
        ):
            validations.clear()
            restricted = EarlyDecisionCensor(DecisionTreeCensor(rng=0), **kwargs)._restrict(
                simple_flow
            )
            assert len(validations) == 1, kwargs
            assert not np.shares_memory(restricted.sizes, simple_flow.sizes)
            assert not np.shares_memory(restricted.delays, simple_flow.delays)
        assert np.array_equal(restricted.sizes, [536.0])

    def test_detects_tor_from_first_packets(self, tor_splits):
        """Early decision on the first 10 packets still detects Tor's cell pattern."""
        censor = EarlyDecisionCensor(DecisionTreeCensor(rng=0), first_n_packets=10)
        censor.fit(tor_splits.clf_train.flows)
        report = classifier_detection_report(censor, tor_splits.test.flows)
        assert report["accuracy"] >= 0.85

    def test_scores_are_probabilities(self, tor_splits):
        censor = EarlyDecisionCensor(DecisionTreeCensor(rng=0), first_n_packets=8)
        censor.fit(tor_splits.clf_train.flows)
        scores = censor.predict_scores(tor_splits.test.flows[:6])
        assert np.all((scores >= 0) & (scores <= 1))

    def test_amoeba_can_attack_early_censor(self, tor_splits, normalizer, fast_config):
        from repro.core import Amoeba

        censor = EarlyDecisionCensor(DecisionTreeCensor(rng=0), first_n_packets=10)
        censor.fit(tor_splits.clf_train.flows)
        agent = Amoeba(
            censor,
            normalizer,
            fast_config,
            rng=1,
            encoder_pretrain_kwargs={"n_flows": 20, "epochs": 1, "max_length": 12},
        )
        agent.train(tor_splits.attack_train.censored_flows[:10], total_timesteps=100)
        report = agent.evaluate(tor_splits.test.censored_flows[:3])
        assert 0.0 <= report.attack_success_rate <= 1.0


class TestResultsIO:
    def test_roundtrip_plain_dict(self, tmp_path):
        path = save_results_json({"asr": 0.94, "rows": [1, 2, 3]}, tmp_path / "r.json", metadata={"scale": "small"})
        payload = load_results_json(path)
        assert payload["results"]["asr"] == 0.94
        assert payload["metadata"]["scale"] == "small"

    def test_numpy_values_converted(self, tmp_path):
        results = {"matrix": np.eye(2), "score": np.float64(0.5), "count": np.int64(3)}
        payload = load_results_json(save_results_json(results, tmp_path / "np.json"))
        assert payload["results"]["matrix"] == [[1.0, 0.0], [0.0, 1.0]]
        assert payload["results"]["count"] == 3

    def test_dataclass_and_as_dict_conversion(self, tmp_path):
        from repro.core.reward_masking import MaskSweepPoint
        from repro.ml.metrics import classification_report

        point = MaskSweepPoint(0.5, 0.8, 100, 200, 0.3, 0.1)
        report = classification_report([1, 0], [1, 0])
        payload = load_results_json(
            save_results_json({"point": point, "report": report}, tmp_path / "dc.json")
        )
        assert payload["results"]["point"]["mask_rate"] == 0.5
        assert payload["results"]["report"]["accuracy"] == 1.0

    def test_unserialisable_value_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_results_json({"bad": object()}, tmp_path / "bad.json")

    def test_load_rejects_non_results_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(ValueError):
            load_results_json(path)

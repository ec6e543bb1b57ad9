"""Tests for results persistence."""

import numpy as np
import pytest

from repro.eval import load_results_json, save_results_json


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

        class Report:
            def as_dict(self):
                return {"accuracy": 1.0}

        point = MaskSweepPoint(0.5, 0.8, 100, 200, 0.3, 0.1)
        report = Report()
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

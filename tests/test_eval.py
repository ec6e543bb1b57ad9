"""Tests for the evaluation package: censor detection metrics, transferability, convergence,
ECDFs, action analysis, feature importance and reporting."""

import numpy as np
import pytest

from repro.core.agent import AdversarialResult
from repro.core.env import ActionKind
from repro.eval import (
    action_histogram,
    classifier_detection_report,
    cumulative_category_counts,
    curve_from_log,
    delay_distribution_summary,
    empirical_cdf,
    format_percent,
    format_series,
    format_table,
    fraction_below,
    queries_to_reach,
    summarise_action_usage,
    transferability_matrix,
)
from repro.eval.feature_importance import ImportanceBreakdown
from repro.flows import Flow, FlowLabel
from repro.utils.logging import TrainingLogger


def make_result(success=True, truncations=2, paddings=3, delays=1):
    original = Flow(sizes=[500.0, -800.0], delays=[0.0, 10.0], label=FlowLabel.CENSORED)
    adversarial = Flow(sizes=[600.0, -900.0, 300.0], delays=[0.0, 15.0, 5.0], label=FlowLabel.CENSORED)
    return AdversarialResult(
        original_flow=original,
        adversarial_flow=adversarial,
        success=success,
        final_score=0.9 if success else 0.1,
        data_overhead=0.3,
        time_overhead=0.1,
        action_counts={
            ActionKind.TRUNCATION: truncations,
            ActionKind.PADDING: paddings,
            ActionKind.DELAY: delays,
        },
        n_steps=truncations + paddings,
    )


class TestAttackMetrics:
    def test_detection_report_uses_censored_as_positive(self, trained_dt_censor, tor_splits):
        report = classifier_detection_report(trained_dt_censor, tor_splits.test.flows)
        assert 0.0 <= report["f1"] <= 1.0
        assert 0.0 <= report["accuracy"] <= 1.0


class TestTransferability:
    class _FixedCensor:
        """Stub censor that flags flows with any packet above a size threshold."""

        def __init__(self, threshold):
            self.threshold = threshold

        def classify_many(self, flows):
            return np.asarray(
                [0 if np.abs(f.sizes).max() > self.threshold else 1 for f in flows], dtype=int
            )

    def test_matrix_shape_and_values(self):
        small = Flow(sizes=[100.0, -100.0], delays=[0.0, 1.0])
        large = Flow(sizes=[5000.0, -100.0], delays=[0.0, 1.0])
        matrix = transferability_matrix(
            {"A": [small, small], "B": [large, large]},
            {"strict": self._FixedCensor(50), "lax": self._FixedCensor(1000)},
        )
        assert matrix.values.shape == (2, 2)
        assert matrix.values[0, 1] == 1.0  # small flows pass the lax censor
        assert matrix.values[1, 1] == 0.0  # large flows fail even the lax censor

    def test_as_dict_and_format(self):
        flow = Flow(sizes=[100.0], delays=[0.0])
        matrix = transferability_matrix({"A": [flow]}, {"lax": self._FixedCensor(1000)})
        assert matrix.as_dict()["A"]["lax"] == 1.0
        assert "trained on" in matrix.format_table()

    def test_diagonal_and_off_diagonal_means(self):
        flow = Flow(sizes=[100.0], delays=[0.0])
        matrix = transferability_matrix(
            {"A": [flow], "B": [flow]},
            {"A": self._FixedCensor(1000), "B": self._FixedCensor(1000)},
        )
        assert matrix.diagonal_mean() == 1.0
        assert matrix.off_diagonal_mean() == 1.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            transferability_matrix({}, {})


class TestActionAnalysis:
    def test_histogram_counts(self):
        results = [make_result(truncations=i) for i in range(5)]
        histogram = action_histogram(results, ActionKind.TRUNCATION, bins=5, max_count=5)
        assert histogram.counts.sum() == 5
        assert histogram.mean_per_flow == pytest.approx(2.0)

    def test_histogram_invalid_kind(self):
        with pytest.raises(ValueError):
            action_histogram([make_result()], "teleport")

    def test_histogram_empty_rejected(self):
        with pytest.raises(ValueError):
            action_histogram([], ActionKind.PADDING)

    def test_summarise_action_usage(self):
        summary = summarise_action_usage([make_result(), make_result(truncations=4)])
        assert summary[ActionKind.TRUNCATION] == pytest.approx(3.0)
        assert "mean_original_length" in summary


class TestConvergence:
    def make_log(self):
        log = TrainingLogger("test")
        for step in range(5):
            log.log(queries=float(100 * (step + 1)), train_asr=0.2 * step)
        return log

    def test_curve_extraction(self):
        curve = curve_from_log(self.make_log())
        assert len(curve.x) == 5
        assert curve.final_value() == pytest.approx(0.8)
        assert curve.best_value() == pytest.approx(0.8)

    def test_queries_to_reach(self):
        curve = curve_from_log(self.make_log())
        assert queries_to_reach(curve, 0.4) == pytest.approx(300.0)
        assert queries_to_reach(curve, 0.99) is None

    def test_queries_to_reach_invalid_target(self):
        with pytest.raises(ValueError):
            queries_to_reach(curve_from_log(self.make_log()), 1.5)


class TestECDF:
    def test_ecdf_monotone_and_bounded(self):
        ecdf = empirical_cdf([3.0, 1.0, 2.0])
        assert np.all(np.diff(ecdf.values) >= 0)
        assert ecdf.probabilities[-1] == 1.0

    def test_ecdf_evaluate(self):
        ecdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert ecdf.evaluate(2.5) == pytest.approx(0.5)

    def test_ecdf_empty_rejected(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_fraction_below(self):
        assert fraction_below([0.1, 0.2, 0.5, 0.9], 0.37) == pytest.approx(0.5)

    def test_delay_distribution_summary(self):
        summary = delay_distribution_summary([1.0, 2.0, 3.0, 4.0])
        assert summary["median"] == pytest.approx(2.5)
        assert summary["max"] == 4.0


class TestFeatureImportance:
    def test_breakdown_from_censor(self, trained_dt_censor):
        breakdown = ImportanceBreakdown.from_censor(trained_dt_censor, top_k=30)
        assert breakdown.packet_count + breakdown.timing_count == 30
        assert 0.0 <= breakdown.packet_fraction <= 1.0
        assert breakdown.as_dict()["model"] == "DT"

    def test_cumulative_category_counts(self):
        ranked = [("a", "packet", 0.5), ("b", "timing", 0.3), ("c", "packet", 0.2)]
        counts = cumulative_category_counts(ranked)
        assert counts["packet"].tolist() == [1, 1, 2]
        assert counts["timing"].tolist() == [0, 1, 1]

    def test_cumulative_counts_empty_rejected(self):
        with pytest.raises(ValueError):
            cumulative_category_counts([])


class TestReporting:
    def test_format_percent(self):
        assert format_percent(0.943) == "94.3%"

    def test_format_table_contains_values(self):
        table = format_table(
            [{"censor": "DF", "asr": 0.875}], columns=["censor", "asr"], title="Table 1"
        )
        assert "Table 1" in table
        assert "DF" in table
        assert "0.875" in table

    def test_format_table_empty_rejected(self):
        with pytest.raises(ValueError):
            format_table([], columns=["a"])

    def test_format_series_alignment(self):
        text = format_series("amoeba", [100, 200], [0.5, 0.9], x_name="queries", y_name="asr")
        assert "queries" in text and "0.9000" in text

    def test_format_series_length_mismatch(self):
        with pytest.raises(ValueError):
            format_series("x", [1], [1, 2])

"""Unit tests for the kernel SVM, the scaler and classification metrics."""

import numpy as np
import pytest

from repro.ml import (
    KernelSVM,
    StandardScaler,
    accuracy_score,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_score,
    rbf_kernel,
)


def circular_data(seed=0, n=150):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 2))
    y = (np.linalg.norm(X, axis=1) < 1.2).astype(int)
    return X, y


class TestKernelSVM:
    def test_rbf_solves_circular_problem(self):
        X, y = circular_data()
        svm = KernelSVM(C=10.0, epochs=20, rng=0).fit(X, y)
        assert accuracy_score(y, (svm.decision_function(X) >= 0).astype(int)) > 0.9

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(ValueError):
            KernelSVM().fit(np.zeros((4, 2)), np.array([0, 1, 2, 1]))

    def test_rejects_invalid_c(self):
        with pytest.raises(ValueError):
            KernelSVM(C=0.0)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            # ``epochs=0`` and ``C=inf`` used to fail in ``fit`` with
            # ``ZeroDivisionError``; NaN ``C`` gave NaN scores and a negative
            # or NaN ``gamma`` near-constant ones.
            ({"epochs": 0}, "epochs"),
            ({"epochs": 2.5}, "epochs"),
            ({"C": float("inf")}, "C"),
            ({"C": float("nan")}, "C"),
            ({"gamma": -1.0}, "gamma"),
            ({"gamma": float("nan")}, "gamma"),
            ({"gamma": float("inf")}, "gamma"),
        ],
    )
    def test_hyperparameters_that_train_nothing_are_refused(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            KernelSVM(**kwargs)

    @pytest.mark.parametrize("gamma", ["auto", "Scale", "", None, [0.5]])
    def test_a_gamma_that_is_neither_scale_nor_a_number_is_refused(self, gamma):
        # "auto" used to raise "could not convert string to float: 'auto'".
        with pytest.raises(ValueError, match=r"^gamma must be 'scale' or a finite positive number, got "):
            KernelSVM(gamma=gamma)

    def test_explicit_gamma_is_used(self):
        X, y = circular_data()
        assert KernelSVM(gamma=0.5, epochs=2, rng=0).fit(X, y).gamma_ == 0.5

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KernelSVM().decision_function(np.zeros((1, 2)))

    def test_support_vectors_recorded(self):
        X, y = circular_data()
        svm = KernelSVM(epochs=5, rng=0).fit(X, y)
        assert 0 < len(svm.support_vectors_) <= len(X)

    def test_predict_proba_monotone_in_margin(self):
        X, y = circular_data()
        svm = KernelSVM(epochs=10, rng=0).fit(X, y)
        margins = svm.decision_function(X)
        probs = svm.predict_proba(X)[:, 1]
        order = np.argsort(margins)
        assert np.all(np.diff(probs[order]) >= -1e-9)

    def test_rbf_kernel_diagonal_is_one(self):
        X = np.random.default_rng(0).normal(size=(5, 3))
        K = rbf_kernel(X, X, gamma=0.5)
        assert np.allclose(np.diag(K), 1.0)

    def test_rbf_kernel_symmetric_positive(self):
        X = np.random.default_rng(0).normal(size=(6, 2))
        K = rbf_kernel(X, X, gamma=1.0)
        assert np.allclose(K, K.T)
        assert np.all(K > 0)


class TestScalers:
    def test_standard_scaler_zero_mean_unit_var(self):
        X = np.random.default_rng(0).normal(5.0, 3.0, size=(200, 4))
        scaled = StandardScaler().fit_transform(X)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(scaled.std(axis=0), 1.0, atol=1e-9)

    def test_standard_scaler_constant_feature_safe(self):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        scaled = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(scaled))

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))


class TestMetrics:
    def test_confusion_matrix_counts(self):
        cm = confusion_matrix([1, 1, 0, 0], [1, 0, 0, 1])
        assert cm == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}

    def test_accuracy(self):
        assert accuracy_score([1, 0, 1, 1], [1, 0, 0, 1]) == pytest.approx(0.75)

    def test_precision_recall_f1_perfect(self):
        y = [1, 0, 1, 0]
        assert precision_score(y, y) == 1.0
        assert recall_score(y, y) == 1.0
        assert f1_score(y, y) == 1.0

    def test_f1_zero_when_no_positive_predictions(self):
        assert f1_score([1, 1, 0], [0, 0, 0]) == 0.0

    def test_precision_zero_denominator(self):
        assert precision_score([0, 0], [0, 0]) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([1, 0], [1])

    def test_empty_labels_raise(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])

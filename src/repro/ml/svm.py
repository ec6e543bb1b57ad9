"""The RBF-kernel support vector machine behind the CUMUL censor.

CUMUL (Panchenko et al., NDSS'16) classifies flows with an RBF-kernel SVM over
cumulative packet-size features.  scikit-learn's SMO solver is unavailable, so
:class:`KernelSVM` is a kernelised Pegasos solver maintaining an alpha
expansion.  It exposes ``fit`` / ``decision_function`` / ``predict_proba``
(the latter via a Platt-style sigmoid on the margin) so it can slot into the
same censor interface as the neural classifiers.
"""

from __future__ import annotations

from numbers import Real
from typing import Optional

import numpy as np

from ..utils.rng import ensure_rng
from ..utils.validation import check_2d, check_integer, check_positive

__all__ = ["KernelSVM", "rbf_kernel"]


def rbf_kernel(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """Radial basis function kernel matrix between rows of X and Y."""
    X = np.atleast_2d(X)
    Y = np.atleast_2d(Y)
    x_norm = np.sum(X ** 2, axis=1)[:, None]
    y_norm = np.sum(Y ** 2, axis=1)[None, :]
    squared = x_norm + y_norm - 2.0 * (X @ Y.T)
    np.maximum(squared, 0.0, out=squared)
    return np.exp(-gamma * squared)


def _to_signed(y: np.ndarray) -> np.ndarray:
    """Map {0, 1} labels to {-1, +1}."""
    y = np.asarray(y).reshape(-1)
    unique = np.unique(y)
    if not np.all(np.isin(unique, [0, 1])):
        raise ValueError("SVM expects binary labels in {0, 1}")
    return np.where(y == 1, 1.0, -1.0)


class KernelSVM:
    """RBF-kernel SVM trained with kernelised Pegasos.

    Parameters
    ----------
    gamma:
        RBF bandwidth, a finite positive number; ``"scale"`` (the one string
        accepted) uses ``1 / (n_features * X.var())``.
    C:
        Inverse regularisation strength (larger C = less regularisation).
    epochs:
        Passes over the training data.
    """

    def __init__(
        self,
        gamma="scale",
        C: float = 1.0,
        epochs: int = 20,
        rng=None,
    ) -> None:
        if isinstance(gamma, Real):
            gamma = check_positive(gamma, "gamma", finite=True)
        elif not (isinstance(gamma, str) and gamma == "scale"):
            raise ValueError(f"gamma must be 'scale' or a finite positive number, got {gamma!r}")
        self.gamma = gamma
        self.C = check_positive(C, "C", finite=True)
        self.epochs = check_integer(epochs, "epochs", minimum=1)
        self._rng = ensure_rng(rng)
        self.alpha_: Optional[np.ndarray] = None
        self.support_vectors_: Optional[np.ndarray] = None
        self.support_labels_: Optional[np.ndarray] = None
        self.gamma_: float = 1.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "KernelSVM":
        X = check_2d(X, "X")
        signed = _to_signed(y)
        n_samples, n_features = X.shape
        if self.gamma == "scale":
            variance = X.var()
            self.gamma_ = 1.0 / (n_features * variance) if variance > 0 else 1.0 / n_features
        else:
            self.gamma_ = float(self.gamma)

        gram = rbf_kernel(X, X, self.gamma_)
        lam = 1.0 / (self.C * n_samples)
        alpha = np.zeros(n_samples)
        step = 0
        for _ in range(self.epochs):
            order = self._rng.permutation(n_samples)
            for index in order:
                step += 1
                margin = signed[index] * (gram[index] @ (alpha * signed)) / (lam * step)
                if margin < 1.0:
                    alpha[index] += 1.0
        # Final decision function: f(x) = (1 / (lam * step)) * sum_i alpha_i y_i k(x_i, x)
        self._scale = 1.0 / (lam * step)
        keep = alpha > 0
        self.alpha_ = alpha[keep]
        self.support_vectors_ = X[keep]
        self.support_labels_ = signed[keep]
        # Platt-style calibration of the margin into a probability.
        margins = self.decision_function(X)
        self._calibration_scale = 1.0 / (np.abs(margins).mean() + 1e-9)
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.alpha_ is None:
            raise RuntimeError("classifier has not been fit")
        X = check_2d(X, "X")
        gram = rbf_kernel(X, self.support_vectors_, self.gamma_)
        return self._scale * (gram @ (self.alpha_ * self.support_labels_))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = 1.0 / (1.0 + np.exp(-self._calibration_scale * self.decision_function(X)))
        return np.column_stack([1.0 - scores, scores])
"""Feature scaling utilities (fit on training data, apply everywhere).

The CUMUL/SVM pipeline and the tree models operate on the 166-dimensional
statistical feature vectors; the SVM in particular needs standardised inputs
for the RBF kernel bandwidth to be meaningful.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.validation import check_2d

__all__ = ["StandardScaler"]


class StandardScaler:
    """Zero-mean, unit-variance scaling per feature."""

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = check_2d(X, "X")
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        std[std == 0] = 1.0
        self.scale_ = std
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("StandardScaler must be fit before transform")
        X = check_2d(X, "X")
        return (X - self.mean_) / self.scale_

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)
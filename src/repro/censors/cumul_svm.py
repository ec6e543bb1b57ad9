"""CUMUL censoring classifier: RBF-kernel SVM over cumulative-trace features."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..features.cumul import CumulFeatureExtractor
from ..flows.flow import Flow
from ..ml.scaler import StandardScaler
from ..ml.svm import KernelSVM
from ..utils.rng import ensure_rng
from .base import CensorClassifier

__all__ = ["CumulSVMClassifier"]


class CumulSVMClassifier(CensorClassifier):
    """CUMUL (Panchenko et al.) adapted to the paper's flow representation.

    Features are the interpolated cumulative size/time traces plus aggregate
    counters; the model is an RBF-kernel SVM whose margin is calibrated into
    a benign probability.
    """

    name = "CUMUL"
    differentiable = False

    def __init__(
        self,
        n_interpolation: int = 50,
        C: float = 10.0,
        gamma="scale",
        epochs: int = 15,
        rng=None,
    ) -> None:
        super().__init__()
        self.extractor = CumulFeatureExtractor(n_interpolation=n_interpolation)
        self.scaler = StandardScaler()
        self._rng = ensure_rng(rng)
        self.svm = KernelSVM(gamma=gamma, C=C, epochs=epochs, rng=self._rng)

    def fit(self, flows: Sequence[Flow], labels: Optional[Sequence[int]] = None) -> "CumulSVMClassifier":
        flows = list(flows)
        labels = self._resolve_labels(flows, labels)
        features = self.scaler.fit_transform(self.extractor.extract_many(flows))
        self.svm.fit(features, labels)
        self._fitted = True
        return self

    def _score_flows(self, flows: Sequence[Flow]) -> np.ndarray:
        features = self.scaler.transform(self.extractor.extract_many(flows))
        return self.svm.predict_proba(features)[:, 1]

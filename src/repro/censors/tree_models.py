"""Tree-based censoring classifiers (Barradas et al., USENIX Sec'18).

Decision trees and random forests over the 166 statistical flow features.
These models have no gradients, which is exactly why black-box Amoeba is the
only attack in the paper able to target them (Table 1 reports "N/A" for the
white-box baselines against DT/RF/CUMUL).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..features.statistical import N_STATISTICAL_FEATURES, StatisticalFeatureExtractor
from ..flows.flow import Flow
from ..ml.decision_tree import DecisionTreeClassifier
from ..ml.random_forest import RandomForestClassifier
from ..utils.rng import ensure_rng
from .base import CensorClassifier

__all__ = ["DecisionTreeCensor", "RandomForestCensor"]


class _FeatureBasedCensor(CensorClassifier):
    """Shared plumbing for censors operating on the 166-feature vectors."""

    def __init__(self) -> None:
        super().__init__()
        self.extractor = StatisticalFeatureExtractor()
        self.model = None
        # Column of ``predict_proba`` holding P(benign); ``None`` while unfitted
        # or when the training set held censored flows only.
        self._benign_column: Optional[int] = None

    def fit(self, flows: Sequence[Flow], labels: Optional[Sequence[int]] = None):
        flows = list(flows)
        labels = self._resolve_labels(flows, labels)
        self.model.fit(self.extractor.extract_many(flows), labels)
        classes = list(self.model.classes_)
        self._benign_column = classes.index(1) if 1 in classes else None
        self._fitted = True
        return self

    def _score_flows(self, flows: Sequence[Flow]) -> np.ndarray:
        if self._benign_column is None:
            # Degenerate training set containing only censored flows.
            return np.zeros(len(flows))
        # The fitted model reads only the columns it splits on; the others
        # stay zero and are never computed.
        columns = self.model.split_features_
        features = np.zeros((len(flows), N_STATISTICAL_FEATURES))
        features[:, columns] = self.extractor.extract_many(flows, columns)
        return self.model.predict_proba(features)[:, self._benign_column]

    # ------------------------------------------------------------------ #
    # Feature-importance analysis (Figure 4)
    # ------------------------------------------------------------------ #
    def top_feature_importances(self, top_k: int = 50) -> List[Tuple[str, str, float]]:
        """Return (name, category, importance) of the top-k important features."""
        self._require_fitted()
        importances = self.model.feature_importances_
        names = self.extractor.feature_names()
        categories = self.extractor.feature_categories()
        order = np.argsort(importances)[::-1][:top_k]
        return [(names[i], categories[i], float(importances[i])) for i in order]

class DecisionTreeCensor(_FeatureBasedCensor):
    """Single CART decision tree over statistical features."""

    name = "DT"

    def __init__(self, max_depth: Optional[int] = 12, min_samples_split: int = 4, rng=None) -> None:
        super().__init__()
        self.model = DecisionTreeClassifier(
            max_depth=max_depth, min_samples_split=min_samples_split, rng=ensure_rng(rng)
        )


class RandomForestCensor(_FeatureBasedCensor):
    """Random forest over statistical features."""

    name = "RF"

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: Optional[int] = 12,
        min_samples_split: int = 4,
        rng=None,
    ) -> None:
        super().__init__()
        self.model = RandomForestClassifier(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            rng=ensure_rng(rng),
        )

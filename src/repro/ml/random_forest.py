"""Random forest classifier: bagged CART trees with feature subsampling."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..utils.rng import ensure_rng, spawn_rngs
from ..utils.validation import check_2d, check_integer
from .decision_tree import DecisionTreeClassifier, _check_tree_limits

__all__ = ["RandomForestClassifier"]


class RandomForestClassifier:
    """Ensemble of decision trees trained on bootstrap samples.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split:
        Passed through to each :class:`DecisionTreeClassifier`.
    max_features:
        Features sampled per split; ``"sqrt"`` (default) uses ``sqrt(d)``.
    bootstrap:
        Whether each tree sees a bootstrap resample of the training data.
    rng:
        Seed or generator.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        max_features="sqrt",
        bootstrap: bool = True,
        rng=None,
    ) -> None:
        self.n_estimators = check_integer(n_estimators, "n_estimators", minimum=1)
        self.max_depth, self.min_samples_split = _check_tree_limits(max_depth, min_samples_split)
        if isinstance(max_features, str):
            if max_features not in ("sqrt", "log2"):
                raise ValueError(
                    f"max_features must be None, 'sqrt', 'log2' or an integer >= 1, got {max_features!r}"
                )
        elif max_features is not None:
            max_features = check_integer(max_features, "max_features", minimum=1)
        self.max_features = max_features
        self.bootstrap = bootstrap
        self._rng = ensure_rng(rng)
        self.trees_: List[DecisionTreeClassifier] = []
        self.classes_: np.ndarray = np.array([])
        self.feature_importances_: np.ndarray = np.array([])
        # Sorted union of the trees' ``split_features_``.
        self.split_features_: np.ndarray = np.array([], dtype=np.intp)

    def _resolve_max_features(self, n_features: int) -> Optional[int]:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        if self.max_features == "log2":
            return max(1, int(np.log2(n_features)))
        return int(self.max_features)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = check_2d(X, "X")
        y = np.asarray(y).reshape(-1)
        if len(X) != len(y):
            raise ValueError("X and y have inconsistent lengths")
        self.classes_ = np.unique(y)
        n_samples, n_features = X.shape
        max_features = self._resolve_max_features(n_features)

        self.trees_ = []
        tree_rngs = spawn_rngs(self._rng, self.n_estimators)
        importances = np.zeros(n_features)
        for tree_rng in tree_rngs:
            if self.bootstrap:
                indices = tree_rng.integers(0, n_samples, size=n_samples)
            else:
                indices = np.arange(n_samples)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                max_features=max_features,
                rng=tree_rng,
            )
            tree.fit(X[indices], y[indices])
            self.trees_.append(tree)
            # Trees trained on bootstrap samples may miss a class entirely;
            # align importances regardless (importances are per feature).
            importances += tree.feature_importances_
        self.feature_importances_ = importances / self.n_estimators
        self.split_features_ = np.unique(
            np.concatenate([tree.split_features_ for tree in self.trees_])
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average per-tree class probabilities, aligned on the global class set."""
        if not self.trees_:
            raise RuntimeError("classifier has not been fit")
        X = check_2d(X, "X")
        aggregated = np.zeros((len(X), len(self.classes_)))
        class_index = {cls: idx for idx, cls in enumerate(self.classes_)}
        for tree in self.trees_:
            probabilities = tree.predict_proba(X)
            for local_idx, cls in enumerate(tree.classes_):
                aggregated[:, class_index[cls]] += probabilities[:, local_idx]
        aggregated /= self.n_estimators
        return aggregated
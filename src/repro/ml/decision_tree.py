"""CART decision-tree classifier (gini impurity) with feature importances.

The paper (following Barradas et al., USENIX Security'18) uses decision trees
and random forests over 166 statistical flow features as censoring
classifiers, and Figure 4 analyses the gini feature importances of those
models.  scikit-learn is unavailable in this environment, so the tree is
implemented here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..utils.rng import ensure_rng
from ..utils.validation import check_2d, check_integer, check_non_negative

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    """Internal tree node.  Leaves store the class distribution."""

    feature: int = -1
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    value: Optional[np.ndarray] = None  # class-probability vector at leaves
    n_samples: int = 0

    @property
    def is_leaf(self) -> bool:
        return self.value is not None


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total == 0:
        return 0.0
    proportions = counts / total
    return float(1.0 - np.sum(proportions ** 2))


def _check_tree_limits(max_depth: Optional[int], min_samples_split: int) -> Tuple[Optional[int], int]:
    """``max_depth`` is ``None`` or >= 1 (a depth-0 tree is one constant
    leaf) and ``min_samples_split`` an integer >= 2."""
    if max_depth is not None:
        max_depth = check_integer(max_depth, "max_depth", minimum=1)
    return max_depth, check_integer(min_samples_split, "min_samples_split", minimum=2)


class DecisionTreeClassifier:
    """Binary/ multi-class CART classifier.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (``None`` grows until pure or ``min_samples_split``).
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_impurity_decrease:
        Minimum impurity decrease required to keep a split.
    max_features:
        If set, number of features sampled per split (used by random forests).
    rng:
        Seed or generator controlling feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_impurity_decrease: float = 0.0,
        max_features: Optional[int] = None,
        rng=None,
    ) -> None:
        self.max_depth, self.min_samples_split = _check_tree_limits(max_depth, min_samples_split)
        self.min_impurity_decrease = check_non_negative(
            min_impurity_decrease, "min_impurity_decrease", finite=True
        )
        if max_features is not None:
            max_features = check_integer(max_features, "max_features", minimum=1)
        self.max_features = max_features
        self._rng = ensure_rng(rng)
        self._root: Optional[_Node] = None
        self.n_features_: int = 0
        self.n_classes_: int = 0
        self.classes_: np.ndarray = np.array([])
        self.feature_importances_: np.ndarray = np.array([])
        # Sorted indexes of the features the internal nodes split on: the
        # only columns ``predict_proba`` reads.
        self.split_features_: np.ndarray = np.array([], dtype=np.intp)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        X = check_2d(X, "X")
        y = np.asarray(y).reshape(-1)
        if len(X) != len(y):
            raise ValueError("X and y have inconsistent lengths")
        self.classes_, y_encoded = np.unique(y, return_inverse=True)
        self.n_classes_ = len(self.classes_)
        self.n_features_ = X.shape[1]
        self._importance_accumulator = np.zeros(self.n_features_)
        self._total_samples = len(y_encoded)
        self._split_features = set()
        self._root = self._grow(X, y_encoded, depth=0)
        self.split_features_ = np.array(sorted(self._split_features), dtype=np.intp)
        del self._split_features
        total = self._importance_accumulator.sum()
        self.feature_importances_ = (
            self._importance_accumulator / total if total > 0 else self._importance_accumulator
        )
        del self._importance_accumulator
        return self

    def _class_counts(self, y: np.ndarray) -> np.ndarray:
        return np.bincount(y, minlength=self.n_classes_).astype(np.float64)

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        counts = self._class_counts(y)
        node_impurity = _gini(counts)
        n_samples = len(y)

        def make_leaf() -> _Node:
            return _Node(value=counts / counts.sum(), n_samples=n_samples)

        if (
            node_impurity == 0.0
            or n_samples < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
        ):
            return make_leaf()

        feature, threshold, gain, left_mask = self._best_split(X, y, node_impurity)
        if feature < 0 or gain < self.min_impurity_decrease:
            return make_leaf()

        self._importance_accumulator[feature] += gain * n_samples / self._total_samples
        self._split_features.add(feature)
        left = self._grow(X[left_mask], y[left_mask], depth + 1)
        right = self._grow(X[~left_mask], y[~left_mask], depth + 1)
        return _Node(feature=feature, threshold=threshold, left=left, right=right, n_samples=n_samples)

    def _best_split(
        self, X: np.ndarray, y: np.ndarray, parent_impurity: float
    ) -> Tuple[int, float, float, np.ndarray]:
        n_samples, n_features = X.shape
        if self.max_features is not None and self.max_features < n_features:
            candidate_features = self._rng.choice(n_features, size=self.max_features, replace=False)
        else:
            candidate_features = np.arange(n_features)

        best_gain = -np.inf
        best_feature, best_threshold = -1, 0.0
        best_mask = np.zeros(n_samples, dtype=bool)

        for feature in candidate_features:
            column = X[:, feature]
            order = np.argsort(column, kind="stable")
            sorted_values = column[order]
            sorted_labels = y[order]

            # Cumulative class counts for O(n) split evaluation.
            one_hot = np.zeros((n_samples, self.n_classes_))
            one_hot[np.arange(n_samples), sorted_labels] = 1.0
            left_counts = np.cumsum(one_hot, axis=0)
            total_counts = left_counts[-1]

            # Valid split positions: between distinct adjacent values.
            distinct = sorted_values[1:] != sorted_values[:-1]
            positions = np.nonzero(distinct)[0]
            if positions.size == 0:
                continue

            left = left_counts[positions]
            right = total_counts - left
            left_total = left.sum(axis=1)
            right_total = right.sum(axis=1)
            left_gini = 1.0 - np.sum((left / left_total[:, None]) ** 2, axis=1)
            right_gini = 1.0 - np.sum((right / right_total[:, None]) ** 2, axis=1)
            weighted = (left_total * left_gini + right_total * right_gini) / n_samples
            gains = parent_impurity - weighted

            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain:
                best_gain = float(gains[best_local])
                split_index = positions[best_local]
                best_feature = int(feature)
                best_threshold = float(
                    (sorted_values[split_index] + sorted_values[split_index + 1]) / 2.0
                )
                best_mask = column <= best_threshold

        if best_feature < 0:
            return -1, 0.0, 0.0, best_mask
        return best_feature, best_threshold, best_gain, best_mask

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Return class-probability estimates of shape (n_samples, n_classes).

        The whole batch descends the tree together: at each internal node the
        still-undecided samples are partitioned with one vectorized threshold
        comparison, so the cost is O(n_nodes + n_samples · depth) array work
        instead of a Python traversal per sample.
        """
        if self._root is None:
            raise RuntimeError("classifier has not been fit")
        X = check_2d(X, "X")
        if X.shape[1] != self.n_features_:
            raise ValueError(f"expected {self.n_features_} features, got {X.shape[1]}")
        output = np.empty((len(X), len(self.classes_)))
        if len(X) == 0:
            return output
        stack: List[Tuple[_Node, np.ndarray]] = [(self._root, np.arange(len(X)))]
        while stack:
            node, indices = stack.pop()
            if node.is_leaf:
                output[indices] = node.value
                continue
            assert node.left is not None and node.right is not None
            goes_left = X[indices, node.feature] <= node.threshold
            left_indices = indices[goes_left]
            right_indices = indices[~goes_left]
            if len(left_indices):
                stack.append((node.left, left_indices))
            if len(right_indices):
                stack.append((node.right, right_indices))
        return output

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""

        def measure(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(measure(node.left), measure(node.right))

        return measure(self._root)

    @property
    def n_leaves(self) -> int:
        """Number of leaves in the fitted tree."""

        def count(node: Optional[_Node]) -> int:
            if node is None:
                return 0
            if node.is_leaf:
                return 1
            return count(node.left) + count(node.right)

        return count(self._root)

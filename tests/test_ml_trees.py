"""Unit tests for the decision tree and random forest substrate."""

import numpy as np
import pytest

from repro.ml import DecisionTreeClassifier, RandomForestClassifier, accuracy_score


def predicted(model, X):
    """Most probable class per row: what a censor's 0.5 threshold reads."""
    return model.classes_[np.argmax(model.predict_proba(X), axis=1)]


def accuracy(model, X, y):
    return accuracy_score(y, predicted(model, X))


def make_blobs(seed=0, n=100, separation=4.0):
    rng = np.random.default_rng(seed)
    X0 = rng.normal(0.0, 1.0, size=(n, 4))
    X1 = rng.normal(separation, 1.0, size=(n, 4))
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n, dtype=int), np.ones(n, dtype=int)])
    return X, y


def make_xor(seed=0, n=200):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
    return X, y


class TestDecisionTree:
    def test_separable_data_perfect_fit(self):
        X, y = make_blobs()
        tree = DecisionTreeClassifier().fit(X, y)
        assert accuracy(tree, X, y) == 1.0

    def test_xor_requires_depth_two(self):
        X, y = make_xor()
        tree = DecisionTreeClassifier(max_depth=4, rng=0).fit(X, y)
        assert accuracy(tree, X, y) > 0.95

    def test_max_depth_limits_tree(self):
        X, y = make_xor()
        stump = DecisionTreeClassifier(max_depth=1, rng=0).fit(X, y)
        assert stump.depth <= 1

    def test_predict_proba_rows_sum_to_one(self):
        X, y = make_blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        proba = tree.predict_proba(X)
        assert proba.shape == (len(X), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_feature_importances_sum_to_one(self):
        X, y = make_blobs()
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_importance_concentrates_on_informative_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 5))
        y = (X[:, 2] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert np.argmax(tree.feature_importances_) == 2

    def test_single_class_training(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        y = np.ones(10, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        assert np.all(predicted(tree, X) == 1)

    def test_constant_features_produce_leaf(self):
        X = np.ones((20, 3))
        y = np.concatenate([np.zeros(10, dtype=int), np.ones(10, dtype=int)])
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.depth == 0

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict_proba(np.zeros((1, 2)))

    def test_feature_count_mismatch_raises(self):
        X, y = make_blobs()
        tree = DecisionTreeClassifier().fit(X, y)
        with pytest.raises(ValueError):
            tree.predict_proba(np.zeros((1, 7)))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier().fit(np.zeros((5, 2)), np.zeros(4))

    def test_invalid_min_samples_split(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(min_samples_split=1)

    def test_n_leaves_positive(self):
        X, y = make_blobs()
        tree = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert tree.n_leaves >= 2

    def test_multiclass_labels(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(c * 5, 1, size=(30, 2)) for c in range(3)])
        y = np.repeat(np.arange(3), 30)
        tree = DecisionTreeClassifier().fit(X, y)
        assert accuracy(tree, X, y) > 0.95
        assert set(predicted(tree, X)) <= {0, 1, 2}


NAN = float("nan")


@pytest.mark.parametrize(
    "model,kwargs,name",
    [
        # Depth 0 (or -1) and ``max_features=0`` used to fit a constant
        # model marked fitted; NaN counts were accepted; ``n_estimators=2.5``
        # failed in ``fit`` with a bare ``TypeError``.
        (DecisionTreeClassifier, {"max_depth": 0}, "max_depth"),
        (DecisionTreeClassifier, {"max_depth": -1}, "max_depth"),
        (DecisionTreeClassifier, {"max_depth": 2.5}, "max_depth"),
        (DecisionTreeClassifier, {"min_samples_split": NAN}, "min_samples_split"),
        (DecisionTreeClassifier, {"min_impurity_decrease": NAN}, "min_impurity_decrease"),
        (DecisionTreeClassifier, {"min_impurity_decrease": float("inf")}, "min_impurity_decrease"),
        (DecisionTreeClassifier, {"max_features": 0}, "max_features"),
        (RandomForestClassifier, {"max_depth": 0}, "max_depth"),
        (RandomForestClassifier, {"max_depth": -1}, "max_depth"),
        (RandomForestClassifier, {"min_samples_split": NAN}, "min_samples_split"),
        (RandomForestClassifier, {"max_features": 0}, "max_features"),
        (RandomForestClassifier, {"max_features": "auto"}, "max_features"),
        (RandomForestClassifier, {"max_features": NAN}, "max_features"),
        (RandomForestClassifier, {"n_estimators": 2.5}, "n_estimators"),
        (RandomForestClassifier, {"n_estimators": NAN}, "n_estimators"),
    ],
)
def test_hyperparameters_that_train_nothing_are_refused(model, kwargs, name):
    with pytest.raises(ValueError, match=name):
        model(**kwargs)


class TestRandomForest:
    def test_forest_fits_xor(self):
        X, y = make_xor()
        forest = RandomForestClassifier(n_estimators=15, max_depth=6, rng=0).fit(X, y)
        assert accuracy(forest, X, y) > 0.95

    def test_generalisation_on_blobs(self):
        X, y = make_blobs(seed=1)
        X_test, y_test = make_blobs(seed=2)
        forest = RandomForestClassifier(n_estimators=10, rng=0).fit(X, y)
        assert accuracy(forest, X_test, y_test) > 0.95

    def test_predict_proba_shape(self):
        X, y = make_blobs()
        forest = RandomForestClassifier(n_estimators=5, rng=0).fit(X, y)
        assert forest.predict_proba(X).shape == (len(X), 2)

    def test_feature_importances_shape_and_normalisation(self):
        X, y = make_blobs()
        forest = RandomForestClassifier(n_estimators=5, rng=0).fit(X, y)
        assert forest.feature_importances_.shape == (4,)
        assert forest.feature_importances_.sum() == pytest.approx(1.0, abs=1e-6)

    def test_bootstrap_disabled(self):
        X, y = make_blobs()
        forest = RandomForestClassifier(n_estimators=3, bootstrap=False, rng=0).fit(X, y)
        assert accuracy(forest, X, y) == 1.0

    def test_max_features_options(self):
        X, y = make_blobs()
        for option in ("sqrt", "log2", 2, None):
            forest = RandomForestClassifier(n_estimators=3, max_features=option, rng=0).fit(X, y)
            assert accuracy(forest, X, y) > 0.9

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestClassifier().predict_proba(np.zeros((1, 2)))

    def test_deterministic_with_seed(self):
        X, y = make_xor()
        a = RandomForestClassifier(n_estimators=5, rng=42).fit(X, y).predict_proba(X)
        b = RandomForestClassifier(n_estimators=5, rng=42).fit(X, y).predict_proba(X)
        assert np.array_equal(a, b)


def walked_split_features(tree):
    """Features the internal nodes of a fitted tree split on, found by walking it."""
    features, stack = set(), [tree._root]
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            features.add(node.feature)
            stack += [node.left, node.right]
    return sorted(features)


class TestSplitFeatures:
    """``split_features_``: the only columns a fitted model's ``predict_proba`` reads."""

    def test_tree_records_the_features_it_splits_on(self):
        X, y = make_xor()
        rng = np.random.default_rng(1)
        X = np.hstack([rng.normal(size=(len(X), 3)), X, rng.normal(size=(len(X), 2))])
        tree = DecisionTreeClassifier(max_depth=6, rng=0).fit(X, y)
        assert tree.split_features_.dtype == np.intp
        assert tree.split_features_.tolist() == walked_split_features(tree)
        assert {3, 4} <= set(tree.split_features_.tolist())
        # Zeroing every other column changes no prediction.
        kept = np.zeros_like(X)
        kept[:, tree.split_features_] = X[:, tree.split_features_]
        assert np.array_equal(tree.predict_proba(kept), tree.predict_proba(X))

    def test_forest_records_the_union_over_its_trees(self):
        X, y = make_blobs(n=60)
        forest = RandomForestClassifier(n_estimators=7, max_depth=3, rng=0).fit(X, y)
        union = sorted({f for tree in forest.trees_ for f in walked_split_features(tree)})
        assert forest.split_features_.dtype == np.intp
        assert forest.split_features_.tolist() == union

    def test_refit_recomputes(self):
        X, y = make_xor()
        moved = np.hstack([np.zeros_like(X), X])  # constant columns never split
        tree = DecisionTreeClassifier(max_depth=4, rng=0).fit(X, y)
        assert tree.split_features_.tolist() == [0, 1]
        tree.fit(moved, y)
        assert tree.split_features_.tolist() == [2, 3] == walked_split_features(tree)
        forest = RandomForestClassifier(n_estimators=5, max_features=None, rng=0).fit(X, y)
        assert forest.split_features_.tolist() == [0, 1]
        forest.fit(moved, y)
        assert forest.split_features_.tolist() == [2, 3]

    def test_single_leaf_splits_on_nothing(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        tree = DecisionTreeClassifier().fit(X, np.ones(10, dtype=int))
        assert tree.depth == 0 and tree.split_features_.size == 0
        assert tree.split_features_.dtype == np.intp
        forest = RandomForestClassifier(n_estimators=3, rng=0).fit(X, np.ones(10, dtype=int))
        assert forest.split_features_.size == 0 and forest.split_features_.dtype == np.intp
        assert DecisionTreeClassifier().split_features_.size == 0

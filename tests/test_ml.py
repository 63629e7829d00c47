"""Classical ML substrate tests: logistic regression, binning, trees, GBDT."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import (
    GBDTConfig,
    GradientBoostedTrees,
    LogisticRegression,
    LogisticRegressionConfig,
    QuantileBinner,
    RegressionTree,
    TreeParams,
)


def _linear_problem(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    weights = np.array([2.0, -1.5, 0.0, 1.0, 0.5])
    p = 1.0 / (1.0 + np.exp(-(X @ weights)))
    y = (rng.random(n) < p).astype(float)
    return X, y


def _nonlinear_problem(n=600, seed=1):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2, 2, size=(n, 4))
    logit = 3.0 * ((X[:, 0] > 0.5) & (X[:, 1] < 0)) + 2.0 * (X[:, 2] ** 2 > 1.5) - 2.0
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(float)
    return X, y


class TestLogisticRegression:
    def test_learns_linear_signal(self):
        X, y = _linear_problem()
        model = LogisticRegression().fit(X, y)
        accuracy = (model.predict(X) == y).mean()
        assert accuracy > 0.75
        probs = model.predict_proba(X)
        assert np.all((probs > 0) & (probs < 1))

    def test_loss_history_decreases(self):
        X, y = _linear_problem(n=200)
        model = LogisticRegression(LogisticRegressionConfig(max_iter=100)).fit(X, y)
        assert model.loss_history_[-1] < model.loss_history_[0]

    def test_stronger_l2_shrinks_coefficients(self):
        X, y = _linear_problem(n=300)
        weak = LogisticRegression(LogisticRegressionConfig(l2=1e-4)).fit(X, y)
        strong = LogisticRegression(LogisticRegressionConfig(l2=10.0)).fit(X, y)
        assert np.linalg.norm(strong.coef_) < np.linalg.norm(weak.coef_)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 2)), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(RuntimeError):
            LogisticRegression().predict_proba(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            LogisticRegressionConfig(l2=-1.0)


class TestQuantileBinner:
    def test_transform_is_monotone_per_feature(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(300, 3))
        binner = QuantileBinner(max_bins=16).fit(X)
        binned = binner.transform(X)
        order = np.argsort(X[:, 1])
        assert np.all(np.diff(binned[order, 1].astype(int)) >= 0)
        assert binned.max() < 16

    def test_non_finite_values_land_in_top_bin(self):
        X = np.array([[0.0], [1.0], [2.0], [np.inf]])
        binner = QuantileBinner(max_bins=4).fit(X[:3])
        binned = binner.transform(X)
        assert binned[3, 0] == binned.max()

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantileBinner(max_bins=1)
        with pytest.raises(RuntimeError):
            QuantileBinner().transform(np.zeros((2, 2)))


class TestRegressionTree:
    def test_single_split_recovers_step_function(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(500, 1))
        target = np.where(X[:, 0] > 0.5, 1.0, -1.0)
        binner = QuantileBinner(max_bins=32).fit(X)
        binned = binner.transform(X)
        # Squared loss: gradient = prediction - target with prediction 0.
        tree = RegressionTree(TreeParams(max_depth=2)).fit(binned, -target, np.ones_like(target), 32)
        predictions = tree.predict(binned)
        assert np.corrcoef(predictions, target)[0, 1] > 0.95
        assert tree.n_leaves >= 2

    def test_pure_node_is_not_split(self):
        binned = np.zeros((10, 2), dtype=np.uint16)
        tree = RegressionTree(TreeParams(max_depth=3)).fit(binned, np.ones(10), np.ones(10), 4)
        assert tree.n_leaves == 1

    def test_tables_follow_the_depth_reached_not_max_depth(self):
        """Heap tables of ``max_depth=40`` would hold 2**39 slots; a tree that
        never splits holds one."""
        binned = np.random.default_rng(0).integers(0, 8, size=(50, 3)).astype(np.uint16)
        tree = RegressionTree(TreeParams(max_depth=40)).fit(binned, np.full(50, 0.5), np.ones(50), 8)
        assert (tree.depth, tree.n_leaves, tree.n_nodes) == (0, 1, 1)
        assert (tree.feature.size, tree.threshold_bin.size, tree.value.size) == (0, 0, 1)
        feature, threshold, leaf = tree.heap_tables(2, lambda f, b: b)
        assert np.isinf(threshold).all() and (leaf == -25.0 / 51.0).all()


class TestGBDT:
    def test_beats_base_rate_on_nonlinear_problem(self):
        X, y = _nonlinear_problem()
        model = GradientBoostedTrees(GBDTConfig(n_rounds=40, max_depth=3)).fit(X, y)
        probs = model.predict_proba(X)
        base = np.full_like(probs, y.mean())
        model_loss = -np.mean(y * np.log(probs + 1e-12) + (1 - y) * np.log(1 - probs + 1e-12))
        base_loss = -np.mean(y * np.log(base) + (1 - y) * np.log(1 - base))
        assert model_loss < base_loss * 0.8
        assert model.n_trees <= 40

    def test_train_loss_monotonically_improves(self):
        X, y = _nonlinear_problem(n=300)
        model = GradientBoostedTrees(GBDTConfig(n_rounds=20, learning_rate=0.3)).fit(X, y)
        assert model.train_loss_history_[-1] < model.train_loss_history_[0]

    def test_early_stopping_truncates_ensemble(self):
        X, y = _nonlinear_problem(n=500)
        holdout_X, holdout_y = _nonlinear_problem(n=200, seed=9)
        model = GradientBoostedTrees(GBDTConfig(n_rounds=60, early_stopping_rounds=3)).fit(
            X, y, eval_set=(holdout_X, holdout_y)
        )
        assert model.best_iteration_ is not None
        assert model.n_trees == model.best_iteration_ + 1

    def test_depth_search_picks_reasonable_depth(self):
        X, y = _nonlinear_problem(n=500)
        valid_X, valid_y = _nonlinear_problem(n=250, seed=5)
        model, best_depth, losses = GradientBoostedTrees.fit_with_depth_search(
            X, y, valid_X, valid_y, depths=(1, 3, 5), config=GBDTConfig(n_rounds=25)
        )
        assert best_depth in (1, 3, 5)
        assert losses[best_depth] == min(losses.values())
        assert model.predict_proba(valid_X).shape == (250,)

    def test_feature_importance_highlights_informative_features(self):
        X, y = _nonlinear_problem(n=500)
        model = GradientBoostedTrees(GBDTConfig(n_rounds=20, max_depth=3)).fit(X, y)
        importance = model.feature_importance()
        assert importance[3] <= importance[:3].max()  # feature 3 is pure noise

    @pytest.mark.parametrize(
        "X",
        [np.zeros((3, 3)), np.zeros((3, 5)), np.zeros(4), np.zeros((2, 4, 1)), np.float64(0.5)],
        ids=["narrow", "wide", "1-D", "3-D", "0-D"],
    )
    def test_scoring_refuses_a_matrix_of_the_wrong_shape(self, X):
        X_train, y_train = _nonlinear_problem(n=200)
        model = GradientBoostedTrees(GBDTConfig(n_rounds=3, max_depth=3)).fit(X_train, y_train)
        for score in (model.decision_function, model.predict_proba, model.predict):
            with pytest.raises(ValueError):
                score(X)

    def test_an_unfitted_model_refuses_to_score(self):
        model = GradientBoostedTrees()
        for score in (model.decision_function, model.predict_proba, model.predict):
            with pytest.raises(RuntimeError):
                score(np.zeros((2, 4)))
        with pytest.raises(RuntimeError):
            model.feature_importance()

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            GradientBoostedTrees().fit(np.zeros((3, 2)), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            GBDTConfig(learning_rate=0.0)

"""Gradient boosted decision trees with a binary log-loss objective (Section 5.4).

A from-scratch, histogram-based second-order GBDT standing in for XGBoost
0.90: trees are fit to the gradient/hessian of the logistic loss, predictions
are accumulated in logit space, and an optional evaluation set provides early
stopping.  :meth:`GradientBoostedTrees.fit_with_depth_search` reproduces the
paper's protocol of exhaustively searching tree depths on a held-out
validation split of users and keeping the depth with the lowest validation
log loss.

Every tree is grown on quantile bin codes straight into the heap layout it
is scored from (:class:`~repro.ml.tree.RegressionTree`), and *served* the
way XGBoost serves it: at the end of :meth:`~GradientBoostedTrees.fit` the
whole ensemble is packed once into heap-ordered tables —
``feature[T, 2**D - 1]``, ``threshold[T, 2**D - 1]`` and ``leaf[T, 2**D]``
— whose thresholds are raw feature values, and
:meth:`~GradientBoostedTrees.decision_function` scores a batch with ``D``
whole-array steps over all ``T`` trees at once
(:func:`repro.ml.tree.walk_heap_tables`), never binning its input.

The raw thresholds are exact, not an approximation of the bins.  A value
``x`` gets bin code ``searchsorted(edges, x, "left")`` — the number of
edges below ``x`` — and the edges are sorted and distinct, so a split on
bin ``b`` (``code <= b``) sends ``x`` left exactly when ``x <= edges[b]``.
A split with ``b >= len(edges)`` sends every row left, and its threshold is
``+inf``.  Binning maps a non-finite value to ``+inf`` (the top bin); the
walk does the same to its input, so such a row goes right at every split on
a real edge and left at a ``+inf`` one, as its bin code did.

``D`` is the deepest tree's split depth.  A shallower leaf is padded down
to it: the slots below carry threshold ``+inf`` and every leaf slot it
covers carries its value, so every row takes exactly ``D`` steps.  Leaf
values are pre-scaled by the learning rate (the same product the boosting
loop adds) and summed in tree order, so the scores are bit-identical to
adding the trees one at a time.  The tables hold ``2**D`` slots per tree:
4 KB of leaves at the depth search's deepest (``D = 9``), but a layout for
shallow boosted trees, not for trees tens of levels deep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..metrics import log_loss
from ..nn.inference import stable_sigmoid
from .binning import QuantileBinner
from .tree import RegressionTree, TreeParams, walk_heap_tables

__all__ = ["GBDTConfig", "GradientBoostedTrees"]


@dataclass(frozen=True)
class GBDTConfig:
    """Boosting hyper-parameters (defaults chosen to mirror "mostly default" XGBoost)."""

    n_rounds: int = 60
    learning_rate: float = 0.2
    max_depth: int = 4
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    max_bins: int = 64
    subsample: float = 1.0
    early_stopping_rounds: int | None = 10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_rounds <= 0:
            raise ValueError("n_rounds must be positive")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")

    def tree_params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )


class GradientBoostedTrees:
    """Binary classifier built from boosted histogram regression trees."""

    def __init__(self, config: GBDTConfig | None = None, **overrides) -> None:
        if config is None:
            config = GBDTConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.trees: list[RegressionTree] = []
        self.base_score_: float = 0.0
        self.binner: QuantileBinner | None = None
        self.train_loss_history_: list[float] = []
        self.valid_loss_history_: list[float] = []
        self.best_iteration_: int | None = None
        # The packed ensemble (see the module docstring), built by ``fit``.
        self.node_feature_: np.ndarray | None = None
        self.node_threshold_: np.ndarray | None = None
        self.leaf_value_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(self, X, y, eval_set: tuple[np.ndarray, np.ndarray] | None = None) -> "GradientBoostedTrees":
        """Fit the boosted ensemble, optionally early-stopping on ``eval_set``."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise ValueError("X and y have incompatible shapes")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)

        self.binner = QuantileBinner(max_bins=cfg.max_bins).fit(X)
        binned = self.binner.transform(X)
        n_bins = cfg.max_bins

        positive_rate = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
        self.base_score_ = float(np.log(positive_rate / (1.0 - positive_rate)))
        raw = np.full(y.shape[0], self.base_score_)

        eval_binned = None
        eval_raw = None
        eval_labels = None
        if eval_set is not None:
            eval_X, eval_y = eval_set
            eval_binned = self.binner.transform(np.asarray(eval_X, dtype=np.float64))
            eval_labels = np.asarray(eval_y, dtype=np.float64).reshape(-1)
            eval_raw = np.full(eval_labels.shape[0], self.base_score_)

        self.trees = []
        self.train_loss_history_ = []
        self.valid_loss_history_ = []
        best_loss = np.inf
        best_iteration = 0
        rounds_since_best = 0

        for round_index in range(cfg.n_rounds):
            probabilities = stable_sigmoid(raw)
            gradients = probabilities - y
            hessians = probabilities * (1.0 - probabilities)

            if cfg.subsample < 1.0:
                mask = rng.random(y.shape[0]) < cfg.subsample
                if not mask.any():
                    mask[rng.integers(0, y.shape[0])] = True
                tree = RegressionTree(cfg.tree_params()).fit(
                    binned[mask], gradients[mask], hessians[mask], n_bins
                )
            else:
                tree = RegressionTree(cfg.tree_params()).fit(binned, gradients, hessians, n_bins)
            self.trees.append(tree)

            raw += cfg.learning_rate * tree.predict(binned)
            self.train_loss_history_.append(log_loss(y, stable_sigmoid(raw)))

            if eval_binned is not None:
                eval_raw += cfg.learning_rate * tree.predict(eval_binned)
                valid_loss = log_loss(eval_labels, stable_sigmoid(eval_raw))
                self.valid_loss_history_.append(valid_loss)
                if valid_loss < best_loss - 1e-7:
                    best_loss = valid_loss
                    best_iteration = round_index
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if cfg.early_stopping_rounds is not None and rounds_since_best >= cfg.early_stopping_rounds:
                        break

        if eval_binned is not None and self.trees:
            self.best_iteration_ = best_iteration
            self.trees = self.trees[: best_iteration + 1]
        else:
            self.best_iteration_ = len(self.trees) - 1
        self._pack()
        return self

    def _pack(self) -> None:
        """Lay every tree out as heap tables of the deepest tree's depth, raw thresholds."""
        depth = max(tree.depth for tree in self.trees)
        tables = [tree.heap_tables(depth, self.binner.split_threshold) for tree in self.trees]
        self.node_feature_ = np.stack([feature for feature, _, _ in tables])
        self.node_threshold_ = np.stack([threshold for _, threshold, _ in tables])
        self.leaf_value_ = self.config.learning_rate * np.stack([leaf for _, _, leaf in tables])

    # ------------------------------------------------------------------
    def decision_function(self, X) -> np.ndarray:
        """Logit of every row of ``X``: the base score plus each tree's leaf, in tree order."""
        if self.binner is None:
            raise RuntimeError("model is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.binner.n_features:
            raise ValueError("X has the wrong shape for this binner")
        X = np.where(np.isfinite(X), X, np.inf)
        leaves = walk_heap_tables(self.node_feature_, self.node_threshold_, self.leaf_value_, X)
        leaves[:, 0] += self.base_score_
        # accumulate adds left to right, as the boosting loop does; sum() would
        # pair the terms up and can move the last bit.
        return np.add.accumulate(leaves, axis=1)[:, -1]

    def predict_proba(self, X) -> np.ndarray:
        """Probability of the positive class for each row of ``X``."""
        return stable_sigmoid(self.decision_function(X))

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(np.int64)

    def feature_importance(self, n_features: int | None = None) -> np.ndarray:
        """Aggregate split-count importance across all trees."""
        if self.binner is None:
            raise RuntimeError("model is not fitted")
        width = n_features if n_features is not None else self.binner.n_features
        importance = np.zeros(width, dtype=np.float64)
        for tree in self.trees:
            importance += tree.feature_importance(width)
        return importance

    @property
    def n_trees(self) -> int:
        return len(self.trees)

    @property
    def n_nodes(self) -> int:
        """Total node count across the ensemble (used by the serving cost model)."""
        return int(sum(tree.n_nodes for tree in self.trees))

    # ------------------------------------------------------------------
    @classmethod
    def fit_with_depth_search(
        cls,
        X_train,
        y_train,
        X_valid,
        y_valid,
        depths: tuple[int, ...] = tuple(range(1, 11)),
        config: GBDTConfig | None = None,
    ) -> tuple["GradientBoostedTrees", int, dict[int, float]]:
        """Exhaustive tree-depth search on a validation split (Section 5.4).

        Returns ``(best_model, best_depth, validation_loss_by_depth)``.  The
        returned model is the one trained at the best depth (with early
        stopping against the validation set), matching the paper's protocol
        of minimising validation log loss over depths 1-10.
        """
        if not depths:
            raise ValueError("depths must be non-empty")
        base = config or GBDTConfig()
        losses: dict[int, float] = {}
        best_model: GradientBoostedTrees | None = None
        best_depth = depths[0]
        best_loss = np.inf
        for depth in depths:
            model = cls(replace(base, max_depth=depth))
            model.fit(X_train, y_train, eval_set=(X_valid, y_valid))
            valid_loss = log_loss(y_valid, model.predict_proba(X_valid))
            losses[depth] = valid_loss
            if valid_loss < best_loss:
                best_loss = valid_loss
                best_model = model
                best_depth = depth
        assert best_model is not None
        return best_model, best_depth, losses

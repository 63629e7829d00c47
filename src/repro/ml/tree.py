"""Histogram-based regression tree used as the GBDT weak learner.

Each tree is grown level-wise on pre-binned features.  Split finding follows
the second-order (gradient/hessian) gain formulation of XGBoost
(Chen & Guestrin, 2016), which is the system the paper uses:

    gain = 1/2 [ G_L^2/(H_L+λ) + G_R^2/(H_R+λ) − G^2/(H+λ) ] − γ

and leaf weights are ``-G/(H+λ)``.  All histograms for one tree level are
accumulated with a single ``bincount`` over flattened
(node, feature, bin) indices, which keeps the pure-NumPy implementation fast
enough for the benchmark harness.

A fitted tree is scored through :func:`walk_heap_tables`: the tree is laid
out as complete binary heap tables (:meth:`RegressionTree.heap_tables`) and
every row takes the same number of vectorised steps, the walk the whole
boosted ensemble uses too (:mod:`repro.ml.gbdt`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["TreeParams", "RegressionTree", "walk_heap_tables"]


@dataclass(frozen=True)
class TreeParams:
    """Growth and regularisation parameters for a single tree.

    ``max_depth`` counts *levels of nodes*, root included, not levels of
    splits: growth stops splitting at ``depth == max_depth - 1``, so
    ``max_depth=d`` grows trees with at most ``d - 1`` split levels and
    ``max_depth=1`` grows single-leaf trees.  XGBoost's ``max_depth`` counts
    split levels, so the "depth 3" GBDT here is XGBoost's depth 2.  This is
    a known discrepancy, left in place: the experiment tables, the serving
    fixtures and the golden files were all produced with this convention.
    """

    max_depth: int = 4
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_split_gain: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.min_child_weight < 0 or self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("regularisation parameters must be non-negative")


class RegressionTree:
    """A single fitted regression tree over binned features."""

    def __init__(self, params: TreeParams) -> None:
        self.params = params
        # Flat node arrays; children of node i are stored by index.
        self.feature: list[int] = []
        self.threshold_bin: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.is_leaf: list[bool] = []

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(sum(self.is_leaf))

    def _new_node(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold_bin.append(-1)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        self.is_leaf.append(True)
        return len(self.feature) - 1

    # ------------------------------------------------------------------
    def fit(self, binned: np.ndarray, gradients: np.ndarray, hessians: np.ndarray, n_bins: int) -> "RegressionTree":
        """Grow the tree on pre-binned features and per-example grad/hess."""
        binned = np.asarray(binned)
        gradients = np.asarray(gradients, dtype=np.float64)
        hessians = np.asarray(hessians, dtype=np.float64)
        n_samples, n_features = binned.shape
        if gradients.shape[0] != n_samples or hessians.shape[0] != n_samples:
            raise ValueError("gradients/hessians must align with the binned matrix")
        params = self.params
        lam = params.reg_lambda

        total_g = gradients.sum()
        total_h = hessians.sum()
        root = self._new_node(-total_g / (total_h + lam))

        # node assignment of every sample; -1 marks samples in finalized leaves.
        node_of_sample = np.zeros(n_samples, dtype=np.int64)
        active_nodes = [root]
        node_stats = {root: (total_g, total_h)}

        for depth in range(params.max_depth):
            if not active_nodes:
                break
            active_index = {node: i for i, node in enumerate(active_nodes)}
            active_mask = np.isin(node_of_sample, active_nodes)
            if not active_mask.any():
                break
            sample_index = np.nonzero(active_mask)[0]
            local_node = np.vectorize(active_index.get, otypes=[np.int64])(node_of_sample[sample_index])
            sub_binned = binned[sample_index]

            n_active = len(active_nodes)
            # Flattened (node, feature, bin) histogram indices.
            flat = (
                (local_node[:, None] * n_features + np.arange(n_features)[None, :]) * n_bins
                + sub_binned.astype(np.int64)
            ).ravel()
            weights_g = np.repeat(gradients[sample_index], n_features)
            weights_h = np.repeat(hessians[sample_index], n_features)
            size = n_active * n_features * n_bins
            hist_g = np.bincount(flat, weights=weights_g, minlength=size).reshape(n_active, n_features, n_bins)
            hist_h = np.bincount(flat, weights=weights_h, minlength=size).reshape(n_active, n_features, n_bins)

            # Cumulative (left-side) statistics over bins for every candidate split.
            left_g = np.cumsum(hist_g, axis=2)
            left_h = np.cumsum(hist_h, axis=2)
            node_g = np.array([node_stats[n][0] for n in active_nodes])[:, None, None]
            node_h = np.array([node_stats[n][1] for n in active_nodes])[:, None, None]
            right_g = node_g - left_g
            right_h = node_h - left_h

            valid = (left_h >= params.min_child_weight) & (right_h >= params.min_child_weight)
            # Exclude the last bin: splitting there puts everything left.
            valid[:, :, -1] = False
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = 0.5 * (
                    left_g**2 / (left_h + lam)
                    + right_g**2 / (right_h + lam)
                    - node_g**2 / (node_h + lam)
                ) - params.gamma
            gain = np.where(valid, gain, -np.inf)

            flat_gain = gain.reshape(n_active, -1)
            best_flat = np.argmax(flat_gain, axis=1)
            best_gain = flat_gain[np.arange(n_active), best_flat]
            best_feature = best_flat // n_bins
            best_bin = best_flat % n_bins

            next_active: list[int] = []
            split_spec: dict[int, tuple[int, int, int, int]] = {}
            for i, node in enumerate(active_nodes):
                if depth == params.max_depth - 1 or best_gain[i] <= params.min_split_gain or not np.isfinite(best_gain[i]):
                    continue
                f, b = int(best_feature[i]), int(best_bin[i])
                gl, hl = float(left_g[i, f, b]), float(left_h[i, f, b])
                gr, hr = float(right_g[i, f, b]), float(right_h[i, f, b])
                left_child = self._new_node(-gl / (hl + lam))
                right_child = self._new_node(-gr / (hr + lam))
                self.feature[node] = f
                self.threshold_bin[node] = b
                self.left[node] = left_child
                self.right[node] = right_child
                self.is_leaf[node] = False
                node_stats[left_child] = (gl, hl)
                node_stats[right_child] = (gr, hr)
                split_spec[node] = (f, b, left_child, right_child)
                next_active.extend([left_child, right_child])

            if not split_spec:
                break
            # Route samples of split nodes to their children.
            for node, (f, b, left_child, right_child) in split_spec.items():
                members = sample_index[node_of_sample[sample_index] == node]
                goes_left = binned[members, f] <= b
                node_of_sample[members] = np.where(goes_left, left_child, right_child)
            active_nodes = next_active

        return self

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Split levels on the longest root-to-leaf path (0 for a single leaf)."""
        deepest = 0
        stack = [(0, 0)]
        while stack:
            node, level = stack.pop()
            if self.is_leaf[node]:
                deepest = max(deepest, level)
            else:
                stack.extend([(self.left[node], level + 1), (self.right[node], level + 1)])
        return deepest

    def heap_tables(
        self, depth: int, split_value: Callable[[int, int], float]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tree as complete heap tables ``(feature, threshold, leaf)`` of ``depth >= self.depth`` levels.

        Inner slot ``i`` has children ``2i + 1`` (``x <= threshold``) and
        ``2i + 2``; ``leaf`` holds the ``2**depth`` slots below the last
        level.  A split on bin ``b`` of feature ``f`` gets threshold
        ``split_value(f, b)``.  A leaf above ``depth`` passes through: every
        inner slot below it keeps threshold ``+inf`` (so rows go left) and
        all leaf slots it covers hold its value.
        """
        n_leaves = 1 << depth
        feature = np.zeros(n_leaves - 1, dtype=np.intp)
        threshold = np.full(n_leaves - 1, np.inf)
        leaf = np.zeros(n_leaves, dtype=np.float64)
        stack = [(0, 0, 0)]  # (node, heap slot, level)
        while stack:
            node, slot, level = stack.pop()
            if self.is_leaf[node]:
                width = 1 << (depth - level)
                first = (slot + 1) * width - n_leaves
                leaf[first : first + width] = self.value[node]
                continue
            feature[slot] = self.feature[node]
            threshold[slot] = split_value(self.feature[node], self.threshold_bin[node])
            stack.append((self.left[node], 2 * slot + 1, level + 1))
            stack.append((self.right[node], 2 * slot + 2, level + 1))
        return feature, threshold, leaf

    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Leaf values for each row of a binned feature matrix."""
        feature, threshold, leaf = self.heap_tables(self.depth, lambda f, b: b)
        return walk_heap_tables(feature[None], threshold[None], leaf[None], np.asarray(binned))[:, 0]

    # ------------------------------------------------------------------
    def feature_importance(self, n_features: int) -> np.ndarray:
        """Split counts per feature (a simple importance measure)."""
        importance = np.zeros(n_features, dtype=np.float64)
        for node in range(self.n_nodes):
            if not self.is_leaf[node]:
                importance[self.feature[node]] += 1.0
        return importance


def walk_heap_tables(feature: np.ndarray, threshold: np.ndarray, leaf: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Leaf value of every row of ``X`` in every tree: ``[rows, trees]``.

    ``feature``/``threshold`` are ``[trees, 2**D - 1]`` heap tables and
    ``leaf`` is ``[trees, 2**D]`` (see :meth:`RegressionTree.heap_tables`).
    All trees advance together: ``D`` whole-array steps over ``[rows,
    trees]`` slot indices, each going right where ``x > threshold``.
    Thresholds are compared with ``X`` as given — bin codes for a binned
    matrix, raw values for a raw one — so ``X`` must hold no NaN.
    """
    n_trees, n_leaves = leaf.shape
    n_inner = n_leaves - 1
    values = np.ascontiguousarray(X).reshape(-1)
    row_start = (np.arange(X.shape[0]) * X.shape[1])[:, None]
    tree = np.arange(n_trees)
    tree_start = tree * n_inner
    features, thresholds = feature.reshape(-1), threshold.reshape(-1)
    slot = np.zeros((X.shape[0], n_trees), dtype=np.intp)
    for _ in range(n_leaves.bit_length() - 1):
        at = slot + tree_start
        goes_right = values[row_start + features[at]] > thresholds[at]
        slot *= 2
        slot += goes_right
        slot += 1
    return leaf.reshape(-1)[slot + (tree * n_leaves - n_inner)]

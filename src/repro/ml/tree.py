"""Histogram-based regression tree used as the GBDT weak learner.

Each tree is grown level-wise on pre-binned features.  Split finding follows
the second-order (gradient/hessian) gain formulation of XGBoost
(Chen & Guestrin, 2016), which is the system the paper uses:

    gain = 1/2 [ G_L^2/(H_L+λ) + G_R^2/(H_R+λ) − G^2/(H+λ) ] − γ

and leaf weights are ``-G/(H+λ)``.  All histograms for one tree level are
accumulated with a single ``bincount`` over flattened
(node, feature, bin) indices, which keeps the pure-NumPy implementation fast
enough for the benchmark harness.

A tree is grown straight into the layout it is scored from: complete binary
heap tables, where slot ``i`` has children ``2i + 1`` (``code <= threshold``)
and ``2i + 2``.  ``feature``/``threshold_bin`` cover the inner slots, and an
inner slot that did not split holds :data:`NO_SPLIT`, which sends every row
left; ``value`` covers every slot, and a leaf above the last level passes
its value down to every slot below it.  The tables grow one level per split
level the tree makes, so their size follows the depth a tree reaches, not
``max_depth``.  Every sample carries its slot, and one level of routing is
one step of the walk that scores the tree, :func:`walk_heap_tables` — the
walk the whole boosted ensemble uses too (:mod:`repro.ml.gbdt`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = ["NO_SPLIT", "TreeParams", "RegressionTree", "walk_heap_tables"]

#: ``threshold_bin`` of an inner slot that does not split: no bin code
#: exceeds it, so every row goes left.
NO_SPLIT = np.iinfo(np.intp).max


@dataclass(frozen=True)
class TreeParams:
    """Growth and regularisation parameters for a single tree, grown in the
    heap layout it is scored from (see the module docstring).

    ``max_depth`` counts *levels of nodes*, root included, not levels of
    splits: :meth:`RegressionTree.fit` grows at most ``max_depth - 1`` split
    levels, so ``max_depth=1`` grows single-leaf trees.  XGBoost's
    ``max_depth`` counts split levels, so the "depth 3" GBDT here is
    XGBoost's depth 2.  This is a known discrepancy, left in place: the
    experiment tables, the serving fixtures and the golden files were all
    produced with this convention.  Matching XGBoost is a one-constant
    change, the ``- 1`` in ``fit``'s level loop.
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
    """A single fitted regression tree over binned features, in heap layout."""

    def __init__(self, params: TreeParams) -> None:
        self.params = params
        # Inner slots: split feature and bin (NO_SPLIT where the slot does not split).
        self.feature = np.zeros(0, dtype=np.intp)
        self.threshold_bin = np.zeros(0, dtype=np.intp)
        # Every slot: its leaf value, passed down below a leaf.
        self.value = np.zeros(0, dtype=np.float64)

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Split levels on the longest root-to-leaf path (0 for a single leaf)."""
        return (self.feature.size + 1).bit_length() - 1

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.threshold_bin != NO_SPLIT)) + 1

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_leaves - 1

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

        # The level's growing slots, ascending, with their gradient/hessian sums.
        active = np.zeros(1, dtype=np.intp)
        node_g = np.array([gradients.sum()])
        node_h = np.array([hessians.sum()])
        self.feature = np.zeros(0, dtype=np.intp)
        self.threshold_bin = np.zeros(0, dtype=np.intp)
        self.value = -node_g / (node_h + lam)
        # The samples in a growing slot, ascending, and their slots.
        samples = np.arange(n_samples)
        slot = np.zeros(n_samples, dtype=np.intp)

        for level in range(params.max_depth - 1):
            if not samples.size:
                break
            n_active = active.size
            # Histogram rows are ranked by ascending slot.
            local_node = np.searchsorted(active, slot)
            sub_binned = binned[samples]
            # Flattened (node, feature, bin) histogram indices.
            flat = (
                (local_node[:, None] * n_features + np.arange(n_features)[None, :]) * n_bins
                + sub_binned.astype(np.int64)
            ).ravel()
            weights_g = np.repeat(gradients[samples], n_features)
            weights_h = np.repeat(hessians[samples], n_features)
            size = n_active * n_features * n_bins
            hist_g = np.bincount(flat, weights=weights_g, minlength=size).reshape(n_active, n_features, n_bins)
            hist_h = np.bincount(flat, weights=weights_h, minlength=size).reshape(n_active, n_features, n_bins)

            # Cumulative (left-side) statistics over bins for every candidate split.
            left_g = np.cumsum(hist_g, axis=2)
            left_h = np.cumsum(hist_h, axis=2)
            right_g = node_g[:, None, None] - left_g
            right_h = node_h[:, None, None] - left_h

            valid = (left_h >= params.min_child_weight) & (right_h >= params.min_child_weight)
            # Exclude the last bin: splitting there puts everything left.
            valid[:, :, -1] = False
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = 0.5 * (
                    left_g**2 / (left_h + lam)
                    + right_g**2 / (right_h + lam)
                    - node_g[:, None, None] ** 2 / (node_h[:, None, None] + lam)
                ) - params.gamma
            gain = np.where(valid, gain, -np.inf)

            flat_gain = gain.reshape(n_active, -1)
            best_flat = np.argmax(flat_gain, axis=1)
            best_gain = flat_gain[np.arange(n_active), best_flat]
            split = np.isfinite(best_gain) & (best_gain > params.min_split_gain)
            if not split.any():
                break

            # Grow the tables one level; the level's slots pass their values down.
            width = 1 << level
            self.feature = np.concatenate([self.feature, np.zeros(width, dtype=np.intp)])
            self.threshold_bin = np.concatenate([self.threshold_bin, np.full(width, NO_SPLIT)])
            self.value = np.concatenate([self.value, np.repeat(self.value[-width:], 2)])
            node = np.flatnonzero(split)
            f, b = best_flat[node] // n_bins, best_flat[node] % n_bins
            self.feature[active[node]] = f
            self.threshold_bin[active[node]] = b
            # Children (left, right) of each split slot, ascending.
            active = (2 * active[node, None] + np.array([1, 2])).ravel()
            node_g = np.column_stack([left_g[node, f, b], right_g[node, f, b]]).ravel()
            node_h = np.column_stack([left_h[node, f, b], right_h[node, f, b]]).ravel()
            self.value[active] = -node_g / (node_h + lam)

            # Samples of split slots take one walk step; the rest are in leaves.
            keep = split[local_node]
            samples, slot = samples[keep], slot[keep]
            slot = 2 * slot + 1 + (binned[samples, self.feature[slot]] > self.threshold_bin[slot])

        return self

    # ------------------------------------------------------------------
    def heap_tables(
        self, depth: int, split_value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tree as complete heap tables ``(feature, threshold, leaf)`` of ``depth >= self.depth`` levels.

        Inner slot ``i`` has children ``2i + 1`` (``x <= threshold``) and
        ``2i + 2``; ``leaf`` holds the ``2**depth`` slots below the last
        level.  The splits on bins ``b`` of features ``f`` get thresholds
        ``split_value(f, b)``, one call over all of them.  Every inner slot
        that does not split — including those past the tree's own depth —
        keeps threshold ``+inf`` (so rows go left), and past the tree's own
        depth every leaf slot repeats the last level's value above it.
        """
        inner = (1 << depth) - 1
        split = np.flatnonzero(self.threshold_bin != NO_SPLIT)
        feature = np.zeros(inner, dtype=np.intp)
        threshold = np.full(inner, np.inf)
        feature[split] = self.feature[split]
        threshold[split] = split_value(self.feature[split], self.threshold_bin[split])
        leaf = np.repeat(self.value[self.feature.size :], 1 << (depth - self.depth))
        return feature, threshold, leaf

    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Leaf values for each row of a binned feature matrix."""
        leaf = self.value[self.feature.size :]
        return walk_heap_tables(self.feature[None], self.threshold_bin[None], leaf[None], np.asarray(binned))[:, 0]

    # ------------------------------------------------------------------
    def feature_importance(self, n_features: int) -> np.ndarray:
        """Split counts per feature (a simple importance measure)."""
        splits = self.feature[self.threshold_bin != NO_SPLIT]
        return np.bincount(splits, minlength=n_features).astype(np.float64)


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

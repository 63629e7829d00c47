"""Binary-classification metrics used throughout the paper's evaluation.

Section 8 of the paper evaluates every model with the precision-recall curve,
its area (PR-AUC), and the recall achieved at a fixed precision constraint
(e.g. 50% offline, 60% in the online experiment).  Log loss is the training
objective (Section 6.3).  All functions operate on plain NumPy arrays of
scores/probabilities and 0/1 labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "log_loss",
    "precision_recall_curve",
    "pr_auc",
    "recall_at_precision",
    "precision_at_recall",
    "threshold_for_precision",
    "roc_auc",
    "PRCurve",
]

_EPS = 1e-12


def _validate(y_true, y_score) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=np.float64).reshape(-1)
    y_score = np.asarray(y_score, dtype=np.float64).reshape(-1)
    if y_true.shape != y_score.shape:
        raise ValueError(f"shape mismatch: labels {y_true.shape} vs scores {y_score.shape}")
    if y_true.size == 0:
        raise ValueError("empty input")
    if not np.all((y_true == 0) | (y_true == 1)):
        raise ValueError("labels must be 0 or 1")
    if np.any(~np.isfinite(y_score)):
        raise ValueError("scores must be finite")
    return y_true, y_score


def log_loss(y_true, y_prob, sample_weight=None) -> float:
    """Mean binary cross-entropy; probabilities are clipped away from {0, 1}."""
    y_true, y_prob = _validate(y_true, y_prob)
    p = np.clip(y_prob, _EPS, 1.0 - _EPS)
    losses = -(y_true * np.log(p) + (1.0 - y_true) * np.log(1.0 - p))
    if sample_weight is None:
        return float(losses.mean())
    weights = np.asarray(sample_weight, dtype=np.float64).reshape(-1)
    if weights.shape != losses.shape:
        raise ValueError("sample_weight must match the number of examples")
    return float(np.average(losses, weights=weights))


@dataclass(frozen=True)
class PRCurve:
    """A precision-recall curve.

    ``precision[i]``/``recall[i]`` is the operating point obtained by
    thresholding scores at ``thresholds[i]`` (score >= threshold triggers a
    precompute).  Points are ordered by decreasing threshold, so recall is
    non-decreasing along the arrays.  A final (precision=positive rate,
    recall=1) endpoint is implied but not stored.
    """

    precision: np.ndarray
    recall: np.ndarray
    thresholds: np.ndarray

    def as_series(self) -> list[tuple[float, float]]:
        """Return ``(recall, precision)`` pairs, e.g. for plotting Figure 6."""
        return list(zip(self.recall.tolist(), self.precision.tolist()))


def precision_recall_curve(y_true, y_score) -> PRCurve:
    """Compute the precision-recall curve over all distinct score thresholds.

    Follows the same construction as scikit-learn's
    ``precision_recall_curve`` (which the paper cites for Figure 6): scores
    are sorted descending, and at each distinct score value we record the
    precision and recall of classifying everything at or above it as
    positive.
    """
    y_true, y_score = _validate(y_true, y_score)
    n_positive = float(y_true.sum())
    if n_positive == 0:
        raise ValueError("precision-recall curve undefined without positive examples")

    order = np.argsort(-y_score, kind="stable")
    sorted_scores = y_score[order]
    sorted_labels = y_true[order]

    # Indices where the score changes (last occurrence of each distinct value).
    distinct = np.where(np.diff(sorted_scores))[0]
    boundaries = np.concatenate([distinct, [sorted_scores.size - 1]])

    cumulative_tp = np.cumsum(sorted_labels)[boundaries]
    predicted_positive = boundaries + 1.0
    precision = cumulative_tp / predicted_positive
    recall = cumulative_tp / n_positive
    thresholds = sorted_scores[boundaries]
    return PRCurve(precision=precision, recall=recall, thresholds=thresholds)


def pr_auc(y_true, y_score) -> float:
    """Area under the precision-recall curve.

    Uses the step-wise (rectangular) interpolation of average precision,
    which is the recommended estimator for heavily skewed datasets
    (Davis & Goadrich, 2006) and matches scikit-learn's
    ``average_precision_score``.
    """
    curve = precision_recall_curve(y_true, y_score)
    recall = np.concatenate([[0.0], curve.recall])
    precision = curve.precision
    return float(np.sum(np.diff(recall) * precision))


def recall_at_precision(y_true, y_score, precision_target: float) -> float:
    """Maximum recall achievable while keeping precision >= ``precision_target``.

    This is the paper's Table 4 metric ("recall at 50% precision"): in
    deployment one chooses the threshold that maximises recall subject to a
    bound on wasted precomputations.  Returns 0.0 when no threshold meets the
    precision constraint.
    """
    if not 0.0 < precision_target <= 1.0:
        raise ValueError("precision_target must be in (0, 1]")
    curve = precision_recall_curve(y_true, y_score)
    feasible = curve.precision >= precision_target
    if not np.any(feasible):
        return 0.0
    return float(curve.recall[feasible].max())


def precision_at_recall(y_true, y_score, recall_target: float) -> float:
    """Maximum precision achievable while keeping recall >= ``recall_target``."""
    if not 0.0 < recall_target <= 1.0:
        raise ValueError("recall_target must be in (0, 1]")
    curve = precision_recall_curve(y_true, y_score)
    feasible = curve.recall >= recall_target
    if not np.any(feasible):
        return 0.0
    return float(curve.precision[feasible].max())


def threshold_for_precision(y_true, y_score, precision_target: float) -> float:
    """Smallest threshold whose operating point has precision >= target.

    Used to pick the production decision threshold (Section 9 targets a
    precision of 60%).  If the constraint cannot be met the highest observed
    score is returned, effectively disabling precompute.
    """
    if not 0.0 < precision_target <= 1.0:
        raise ValueError("precision_target must be in (0, 1]")
    curve = precision_recall_curve(y_true, y_score)
    feasible = curve.precision >= precision_target
    if not np.any(feasible):
        return float(np.max(y_score)) + _EPS
    # Points are ordered by decreasing threshold; among feasible points the
    # one with the largest recall is the last feasible index.
    feasible_indices = np.where(feasible)[0]
    return float(curve.thresholds[feasible_indices[-1]])


def roc_auc(y_true, y_score) -> float:
    """Area under the ROC curve (rank statistic), included for completeness."""
    y_true, y_score = _validate(y_true, y_score)
    positives = y_score[y_true == 1]
    negatives = y_score[y_true == 0]
    if positives.size == 0 or negatives.size == 0:
        raise ValueError("roc_auc requires both positive and negative examples")
    # Average ranks for ties.
    combined = np.concatenate([negatives, positives])
    sorted_combined = np.sort(combined)
    unique, first_index, counts = np.unique(sorted_combined, return_index=True, return_counts=True)
    average_rank = first_index + (counts + 1) / 2.0
    rank_map = dict(zip(unique.tolist(), average_rank.tolist()))
    ranks = np.array([rank_map[v] for v in combined.tolist()])
    positive_ranks = ranks[negatives.size:]
    n_pos, n_neg = positives.size, negatives.size
    return float((positive_ranks.sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))

"""Bootstrap confidence intervals for evaluation metrics.

The paper reports point estimates; for a reproduction on synthetic data it is
useful to know how much of an observed gap between two models is noise.
``bootstrap_ci`` resamples users (not individual sessions, since sessions of
one user are highly correlated) and recomputes a metric on each resample.
A resample the metric cannot be computed on (it raises ``ValueError``, e.g.
PR-AUC on a resample with no positives) has no value to count: it is
dropped, and :attr:`BootstrapResult.n_dropped` says how many were.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["BootstrapResult", "bootstrap_ci", "paired_bootstrap_delta"]


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate plus a percentile confidence interval.

    ``n_resamples`` is how many resamples were drawn; the interval is taken
    over the ``n_resamples - n_dropped`` on which the metric had a value.
    """

    point: float
    low: float
    high: float
    n_resamples: int
    n_dropped: int = 0

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def _group_indices(groups: np.ndarray) -> dict:
    indices: dict = {}
    for position, group in enumerate(groups):
        indices.setdefault(group, []).append(position)
    return {k: np.asarray(v, dtype=np.intp) for k, v in indices.items()}


def _check_resampling(n_resamples: int, alpha: float) -> None:
    """Refuse settings that give no samples or an inverted interval."""
    if n_resamples < 1:
        raise ValueError("n_resamples must be >= 1")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _percentile_interval(
    statistic: Callable[[np.ndarray], float],
    groups: np.ndarray,
    point: float,
    n_resamples: int,
    alpha: float,
    seed: int,
) -> BootstrapResult:
    """Resample whole groups ``n_resamples`` times and take the percentile
    interval of ``statistic(row indices)`` over the resamples it accepts.

    A resample on which ``statistic`` raises ``ValueError`` is dropped, not
    counted as any value: filling it with the point estimate pulled the
    interval toward the point.  If every resample is dropped there is no
    interval, and this raises.
    """
    rng = np.random.default_rng(seed)
    by_group = _group_indices(groups)
    group_keys = list(by_group)
    samples: list[float] = []
    for _ in range(n_resamples):
        chosen = rng.choice(len(group_keys), size=len(group_keys), replace=True)
        idx = np.concatenate([by_group[group_keys[c]] for c in chosen])
        try:
            samples.append(float(statistic(idx)))
        except ValueError:
            continue
    if not samples:
        raise ValueError(f"the metric raised on all {n_resamples} resamples; no interval to report")
    low, high = np.quantile(samples, [alpha / 2.0, 1.0 - alpha / 2.0])
    return BootstrapResult(
        point=point,
        low=float(low),
        high=float(high),
        n_resamples=n_resamples,
        n_dropped=n_resamples - len(samples),
    )


def bootstrap_ci(
    metric: Callable[[np.ndarray, np.ndarray], float],
    y_true: Sequence[float],
    y_score: Sequence[float],
    groups: Sequence,
    *,
    n_resamples: int = 200,
    alpha: float = 0.05,
    seed: int = 0,
) -> BootstrapResult:
    """Grouped (per-user) bootstrap confidence interval for ``metric``."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_score = np.asarray(y_score, dtype=np.float64)
    groups = np.asarray(groups)
    if not (len(y_true) == len(y_score) == len(groups)):
        raise ValueError("y_true, y_score and groups must have equal length")
    _check_resampling(n_resamples, alpha)
    point = float(metric(y_true, y_score))
    return _percentile_interval(
        lambda idx: metric(y_true[idx], y_score[idx]), groups, point, n_resamples, alpha, seed
    )


def paired_bootstrap_delta(
    metric: Callable[[np.ndarray, np.ndarray], float],
    y_true: Sequence[float],
    score_a: Sequence[float],
    score_b: Sequence[float],
    groups: Sequence,
    *,
    n_resamples: int = 200,
    alpha: float = 0.05,
    seed: int = 0,
) -> BootstrapResult:
    """Bootstrap CI for ``metric(A) - metric(B)`` evaluated on the same users."""
    y_true = np.asarray(y_true, dtype=np.float64)
    score_a = np.asarray(score_a, dtype=np.float64)
    score_b = np.asarray(score_b, dtype=np.float64)
    groups = np.asarray(groups)
    if not (len(y_true) == len(score_a) == len(score_b) == len(groups)):
        raise ValueError("all inputs must have equal length")
    _check_resampling(n_resamples, alpha)
    point = float(metric(y_true, score_a) - metric(y_true, score_b))
    return _percentile_interval(
        lambda idx: metric(y_true[idx], score_a[idx]) - metric(y_true[idx], score_b[idx]),
        groups,
        point,
        n_resamples,
        alpha,
        seed,
    )

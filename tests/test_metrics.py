"""Metric tests: PR curves against hand-computed values, properties, bootstrap."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    bootstrap_ci,
    log_loss,
    paired_bootstrap_delta,
    pr_auc,
    precision_at_recall,
    precision_recall_curve,
    recall_at_precision,
    roc_auc,
    threshold_for_precision,
)


def test_precision_recall_curve_hand_computed():
    y_true = np.array([1, 0, 1, 0])
    y_score = np.array([0.9, 0.8, 0.7, 0.1])
    curve = precision_recall_curve(y_true, y_score)
    assert np.allclose(curve.thresholds, [0.9, 0.8, 0.7, 0.1])
    assert np.allclose(curve.precision, [1.0, 0.5, 2 / 3, 0.5])
    assert np.allclose(curve.recall, [0.5, 0.5, 1.0, 1.0])
    # Average precision: 0.5*1.0 + 0.5*(2/3)
    assert pr_auc(y_true, y_score) == pytest.approx(0.5 + 0.5 * 2 / 3)


def test_perfect_and_random_rankings():
    y_true = np.array([0, 0, 1, 1])
    assert pr_auc(y_true, np.array([0.1, 0.2, 0.8, 0.9])) == pytest.approx(1.0)
    assert roc_auc(y_true, np.array([0.1, 0.2, 0.8, 0.9])) == pytest.approx(1.0)
    constant = pr_auc(y_true, np.full(4, 0.5))
    assert constant == pytest.approx(0.5)  # positive rate


def test_roc_auc_counts_a_tied_pair_as_half():
    # Pairs (positive, negative): 0.5 vs 0.5 ties, the other three rank right.
    assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.2, 0.8]) == pytest.approx(0.875)


def test_recall_at_precision_and_threshold_selection():
    y_true = np.array([1, 1, 0, 1, 0, 0, 0, 0])
    y_score = np.array([0.95, 0.9, 0.85, 0.8, 0.7, 0.3, 0.2, 0.1])
    assert recall_at_precision(y_true, y_score, 1.0) == pytest.approx(2 / 3)
    assert recall_at_precision(y_true, y_score, 0.75) == pytest.approx(1.0)
    assert recall_at_precision(y_true, y_score, 0.99999) == pytest.approx(2 / 3)
    threshold = threshold_for_precision(y_true, y_score, 0.75)
    decisions = y_score >= threshold
    precision = (decisions & (y_true == 1)).sum() / decisions.sum()
    assert precision >= 0.75
    assert precision_at_recall(y_true, y_score, 1.0) == pytest.approx(0.75)


def test_unachievable_precision_returns_zero_recall():
    y_true = np.array([0, 0, 0, 1])
    y_score = np.array([0.9, 0.8, 0.7, 0.1])
    assert recall_at_precision(y_true, y_score, 0.9) == 0.0


def test_log_loss_matches_manual_and_weights():
    y = np.array([1, 0])
    p = np.array([0.8, 0.4])
    expected = -(np.log(0.8) + np.log(0.6)) / 2
    assert log_loss(y, p) == pytest.approx(expected)
    weighted = log_loss(y, p, sample_weight=np.array([1.0, 3.0]))
    assert weighted == pytest.approx(-(np.log(0.8) + 3 * np.log(0.6)) / 4)


def test_metric_input_validation():
    with pytest.raises(ValueError):
        pr_auc(np.array([0, 2]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        pr_auc(np.array([0, 0]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        log_loss(np.array([1]), np.array([np.nan]))
    with pytest.raises(ValueError):
        recall_at_precision(np.array([0, 1]), np.array([0.1, 0.9]), 0.0)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_pr_curve_properties_hold_for_random_inputs(n, seed):
    rng = np.random.default_rng(seed)
    y_true = rng.integers(0, 2, size=n)
    if y_true.sum() == 0:
        y_true[0] = 1
    y_score = rng.random(n)
    curve = precision_recall_curve(y_true, y_score)
    assert np.all((curve.precision >= 0) & (curve.precision <= 1))
    assert np.all((curve.recall >= 0) & (curve.recall <= 1))
    assert np.all(np.diff(curve.recall) >= -1e-12)  # recall non-decreasing
    area = pr_auc(y_true, y_score)
    assert 0.0 <= area <= 1.0
    # Recall at an achievable precision of 0+ must be full recall.
    assert recall_at_precision(y_true, y_score, 1e-9) == pytest.approx(1.0)


def test_bootstrap_ci_contains_point_and_shrinks_with_signal():
    rng = np.random.default_rng(0)
    groups = np.repeat(np.arange(30), 10)
    y_true = rng.integers(0, 2, size=300)
    y_true[:5] = 1
    strong = np.where(y_true == 1, 0.9, 0.1) + rng.normal(0, 0.01, 300)
    ci = bootstrap_ci(pr_auc, y_true, strong, groups, n_resamples=50, seed=1)
    assert ci.low <= ci.point <= ci.high
    assert ci.point > 0.9

    delta = paired_bootstrap_delta(pr_auc, y_true, strong, rng.random(300), groups, n_resamples=50, seed=1)
    assert delta.point > 0.2
    assert delta.low <= delta.point <= delta.high


def test_bootstrap_drops_resamples_the_metric_cannot_score():
    """300 rows in 30 groups with positives in groups 0 and 15 only: 51 of
    400 resamples (seed 0) draw neither group, and PR-AUC raises on them.
    They are dropped and counted, not filled with the point estimate — the
    interval is taken over the other 349 alone."""
    groups = np.repeat(np.arange(30), 10)
    y_true = np.zeros(300, dtype=int)
    y_true[[0, 150]] = 1
    rng = np.random.default_rng(0)
    score_a, score_b = rng.random(300), rng.random(300)
    ci = bootstrap_ci(pr_auc, y_true, score_a, groups, n_resamples=400, seed=0)
    delta = paired_bootstrap_delta(pr_auc, y_true, score_a, score_b, groups, n_resamples=400, seed=0)
    for result in (ci, delta):
        assert (result.n_resamples, result.n_dropped) == (400, 51)

    # The same interval, by hand over the resamples that hold a positive.
    by_group = [np.flatnonzero(groups == g) for g in range(30)]
    draw = np.random.default_rng(0)
    kept = []
    for _ in range(400):
        idx = np.concatenate([by_group[c] for c in draw.choice(30, size=30, replace=True)])
        if y_true[idx].any():
            kept.append(pr_auc(y_true[idx], score_a[idx]))
    assert len(kept) == 349
    assert (ci.low, ci.high) == tuple(np.quantile(kept, [0.025, 0.975]))


def test_bootstrap_refuses_when_no_resample_is_usable():
    """Ten one-row groups, one positive: with seed 32 none of the 3
    resamples draws the positive row, so PR-AUC raises on every one.  With
    nothing left to take a quantile of there is no interval, and a
    ValueError says so."""
    y_true = np.zeros(10, dtype=int)
    y_true[0] = 1
    scores = np.linspace(0.0, 1.0, 10)
    groups = np.arange(10)
    draw = np.random.default_rng(32)
    assert all(0 not in draw.choice(10, size=10, replace=True) for _ in range(3))  # premise
    with pytest.raises(ValueError, match="all 3 resamples"):
        bootstrap_ci(pr_auc, y_true, scores, groups, n_resamples=3, seed=32)
    with pytest.raises(ValueError, match="all 3 resamples"):
        paired_bootstrap_delta(pr_auc, y_true, scores, scores[::-1], groups, n_resamples=3, seed=32)


def test_bootstrap_validates_lengths():
    with pytest.raises(ValueError):
        bootstrap_ci(pr_auc, [1, 0], [0.5], [0, 1])


@pytest.mark.parametrize("bad", [{"n_resamples": 0}, {"n_resamples": -3}, {"alpha": 0.0}, {"alpha": 1.0}, {"alpha": 1.5}])
def test_bootstrap_refuses_settings_without_an_interval(bad):
    """No resamples leave nothing to take a quantile of, and an ``alpha``
    outside (0, 1) is no confidence level (at 1.5 the interval came out
    inverted, its low end above its high end and the point)."""
    rng = np.random.default_rng(0)
    y_true, groups = rng.integers(0, 2, size=200), np.arange(200)
    with pytest.raises(ValueError, match="n_resamples|alpha"):
        bootstrap_ci(pr_auc, y_true, rng.random(200), groups, **bad)
    with pytest.raises(ValueError, match="n_resamples|alpha"):
        paired_bootstrap_delta(pr_auc, y_true, rng.random(200), rng.random(200), groups, **bad)

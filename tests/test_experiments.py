"""Experiment registry tests (small scales so the suite stays fast)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentResult,
    list_specs,
    run_experiment,
    run_fig1,
    run_fig5,
    run_table2,
)


def test_registry_contains_every_paper_artefact():
    expected = {
        "table2",
        "table3",
        "table4",
        "table5",
        "fig1",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "comparison",
        "online_prefetch",
        "serving_cost",
        "batched_serving",
        "train_throughput",
    }
    assert expected == {spec.experiment_id for spec in list_specs()}
    with pytest.raises(KeyError):
        run_experiment("table99")


def test_column_handles_heterogeneous_rows():
    """Regression: window_sweep-style rows carry columns other rows lack.

    ``column()`` must mirror ``format_table``'s key-union handling instead of
    crashing: an explicit ``default`` fills the gaps, ``skip_missing`` drops
    the rows, and the bare call still raises a KeyError that names the
    offending rows.
    """
    result = ExperimentResult(
        experiment_id="batched_serving",
        description="heterogeneous",
        rows=[
            {"scenario": "poisson", "batch_size": 1, "kv_gets_per_request": 1.0},
            {"scenario": "window_sweep", "batch_size": 8, "mean_update_delay": 7.5},
        ],
    )
    with pytest.raises(KeyError, match="rows are heterogeneous"):
        result.column("mean_update_delay")
    assert result.column("mean_update_delay", default=None) == [None, 7.5]
    assert result.column("mean_update_delay", skip_missing=True) == [7.5]
    assert result.column("batch_size") == [1, 8]  # homogeneous columns unchanged
    with pytest.raises(ValueError, match="not both"):
        result.column("batch_size", default=0, skip_missing=True)
    # format_table's key-union contract keeps rendering both row shapes.
    rendered = result.format_table()
    assert "mean_update_delay" in rendered and "kv_gets_per_request" in rendered


def test_table2_rows_and_formatting():
    scale = {"mobiletab": {"n_users": 30, "n_days": 10}, "mpu": {"n_users": 8, "n_days": 7}}
    result = run_table2(scale=scale, seed=0)
    assert isinstance(result, ExperimentResult)
    assert [row["dataset"] for row in result.rows] == ["mobiletab", "mpu"]
    rendered = result.format_table()
    assert "positive_rate" in rendered and "mobiletab" in rendered
    row = result.row_for(dataset="mobiletab")
    assert 0 < row["positive_rate"] < 1
    assert result.column("users") == [30, 8]


def test_fig1_cdf_reaches_one():
    result = run_fig1(scale={"mobiletab": {"n_users": 25, "n_days": 10}}, seed=1, grid_points=11)
    fractions = [row["fraction_of_users"] for row in result.rows]
    assert fractions[-1] == pytest.approx(1.0)
    assert all(0 <= f <= 1 for f in fractions)
    assert len(result.rows) == 11


def test_fig5_histogram_covers_all_users():
    result = run_fig5(n_users=12, seed=2, bin_width=25)
    assert sum(row["users"] for row in result.rows) == 12


def test_row_for_raises_on_missing_match():
    result = run_table2(scale={"mobiletab": {"n_users": 10, "n_days": 7}})
    with pytest.raises(KeyError):
        result.row_for(dataset="nope")


def _arm(name: str, successes: int):
    from repro.core.decider import PrecomputeOutcome
    from repro.serving import OnlineArmResult

    outcome = PrecomputeOutcome(
        n_examples=100,
        n_accesses=40,
        n_precomputes=successes + 5,
        successful_prefetches=successes,
        wasted_precomputes=5,
        missed_accesses=40 - successes,
        threshold=0.5,
    )
    return OnlineArmResult(
        model_name=name, daily_pr_auc=[], outcome=outcome, threshold=0.5, result=None
    )


def test_serving_replay_delivers_each_prediction_exactly_once():
    """Pin the replay idiom the examples and experiments share.

    ``examples/mobiletab_prefetch.py``, ``run_serving_cost`` and the
    equivalence harnesses all consume the engine through
    ``ServingEngine.replay``; under the drained-cursor contract its output
    must be every submitted session exactly once, in submission order — no
    duplicate deliveries, no results stranded on the cursor.
    """
    from repro.data import ContextField, ContextSchema
    from repro.features.sequence import SequenceBuilder
    from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork
    from repro.serving import EngineConfig, ServingEngine

    schema = ContextSchema(fields=(ContextField("badge", "numeric"),))
    builder = SequenceBuilder(schema)
    network = RNNPrecomputeNetwork(
        RNNNetworkConfig(feature_dim=builder.feature_dim, hidden_size=8, mlp_hidden=6),
        rng=np.random.default_rng(2),
    ).eval()
    rng = np.random.default_rng(3)
    base = 1_600_000_000
    events = []
    clock = base
    for _ in range(200):
        clock += int(rng.integers(0, 120))
        events.append((clock, int(rng.integers(0, 10)), {"badge": float(rng.integers(0, 5))}, bool(rng.integers(0, 2))))
    # Batch sizes straddling the stream's timer cadence: barrier flushes,
    # auto-flushes and the trailing drain all contribute deliveries.
    for batch_size in (1, 7, 64):
        engine = ServingEngine.build(
            EngineConfig(backend="hidden_state", session_length=600, max_batch_size=batch_size),
            network=network,
            builder=builder,
        )
        predictions = engine.replay(events)
        assert [(p.user_id, p.timestamp) for p in predictions] == [(e[1], e[0]) for e in events]
        assert engine.undelivered == 0 and engine.pending == 0
        assert engine.updates_applied == len(events)


def test_successful_prefetch_uplift_zero_control_regression():
    """Pin the defined zero-control behaviour of the uplift metric.

    control=0, treatment>0 → +inf (unbounded relative improvement);
    control=0, treatment=0 → 0.0 (no evidence of a difference);
    control>0 → ordinary relative uplift.
    """
    from repro.serving import OnlineExperimentReport

    report = OnlineExperimentReport(
        arms={"zero": _arm("zero", 0), "also_zero": _arm("also_zero", 0), "wins": _arm("wins", 30)}
    )
    assert report.successful_prefetch_uplift("wins", "zero") == float("inf")
    assert report.successful_prefetch_uplift("also_zero", "zero") == 0.0
    assert report.successful_prefetch_uplift("zero", "wins") == pytest.approx(-1.0)
    report.arms["control"] = _arm("control", 20)
    assert report.successful_prefetch_uplift("wins", "control") == pytest.approx(0.5)
    # The documented consumer contract: inf is filterable, zero is finite.
    assert not np.isfinite(report.successful_prefetch_uplift("wins", "zero"))
    assert np.isfinite(report.successful_prefetch_uplift("also_zero", "zero"))

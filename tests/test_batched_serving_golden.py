"""Golden rows for ``run_batched_serving``: every scenario, one tiny run.

``golden/batched_serving_rows.json`` was captured at the commit *before* the
pre-facade compatibility layer was retired (default parameters of that time:
hand-wired backend + queue for poisson/bursty/window_sweep, facade-built for
the rest), so refactors of ``experiments/production.py`` are checked against
rows they did not produce themselves.  Everything on the simulated clock is
deterministic; only the wall-clock throughput columns and the float
probability delta are left out.

``golden/batched_serving_metrics.json`` holds the full ``metadata["metrics"]``
registry snapshot of four single-scenario runs that between them carry every
``kv`` / ``ring`` / ``backend`` / ``queue`` / ``serving`` / ``stream`` /
``slo`` / ``rollout`` / ``autoscale`` instrument.  It was captured at the
commit *before* the registry stopped mirroring component counters and
started reading them in place, so a change to how a meter reaches the
registry is checked against a dump the mirrors wrote.  The registry records
simulated-clock quantities only; nothing is left out.

Regenerate (only when a row or a meter is *meant* to change) with::

    PYTHONPATH=src python tests/test_batched_serving_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import run_batched_serving

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "batched_serving_rows.json"
METRICS_GOLDEN_PATH = GOLDEN_PATH.with_name("batched_serving_metrics.json")

#: One run each: ``metadata["metrics"]`` is the *last* pipeline's registry.
METRICS_SCENARIOS = ("bursty", "shard_failover", "canary_rollout", "autoscale")

#: Wall-clock throughputs and the candidate-vs-control probability delta.
EXCLUDED_COLUMNS = ("requests_per_second", "updates_per_second", "divergence_p99")

PARAMS = dict(
    n_users=12,
    n_requests=300,
    arrival_rate=50.0,
    batch_sizes=(1, 32),
    n_shards=4,
    replication=2,
    hidden_size=12,
    scenarios=(
        "poisson",
        "bursty",
        "window_sweep",
        "overload",
        "slo_sweep",
        "shard_failover",
        "diurnal_rebalance",
        "canary_rollout",
        "autoscale",
        "scaling_frontier",
    ),
    burst_size=32,
    burst_spacing=15,
    service_rate=0.15,
    overload_base_rate=0.1,
    overload_peak_rate=0.5,
    slo_queue_depth=32,
)


def golden_rows() -> list[dict]:
    rows = run_batched_serving(**PARAMS).rows
    return [{key: value for key, value in row.items() if key not in EXCLUDED_COLUMNS} for row in rows]


def golden_metrics(scenario: str) -> dict:
    return run_batched_serving(**{**PARAMS, "scenarios": (scenario,)}).metadata["metrics"]


def test_every_scenario_reproduces_the_pre_refactor_rows():
    expected = json.loads(GOLDEN_PATH.read_text())
    rows = golden_rows()
    assert [row["scenario"] for row in rows] == [row["scenario"] for row in expected]
    for row, golden in zip(rows, expected):
        assert row == golden


@pytest.mark.parametrize("scenario", METRICS_SCENARIOS)
def test_registry_snapshot_reproduces_the_mirrored_meters(scenario):
    expected = json.loads(METRICS_GOLDEN_PATH.read_text())[scenario]
    snapshot = golden_metrics(scenario)
    assert sorted(snapshot) == sorted(expected)
    for name, golden in expected.items():
        assert snapshot[name] == golden, name


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden_rows(), indent=1) + "\n")
    METRICS_GOLDEN_PATH.write_text(
        json.dumps({name: golden_metrics(name) for name in METRICS_SCENARIOS}, indent=1) + "\n"
    )

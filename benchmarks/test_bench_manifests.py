"""Benchmark the manifest runner end to end on the checked-in CI manifests.

Unlike the per-experiment benchmarks, these exercise the whole declarative
path — load → validate → expand → run → write artifacts — exactly as CI's
``manifest-smoke`` matrix job does, and assert the provenance and artifact
contract on real workloads.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments import load_manifest, manifest_hash, run_manifest

MANIFESTS_DIR = Path(__file__).resolve().parent.parent / "manifests"


@pytest.mark.benchmark(group="manifests")
def test_bench_smoke_manifest_end_to_end(benchmark, tmp_path):
    manifest = load_manifest(MANIFESTS_DIR / "smoke.json")
    runs = benchmark.pedantic(
        run_manifest, args=(manifest,), kwargs={"out_dir": tmp_path}, rounds=1, iterations=1, warmup_rounds=0
    )
    (run,) = runs
    print()
    print(run.result.format_table())
    provenance = run.result.metadata["provenance"]
    assert provenance["manifest_hash"] == manifest_hash(manifest)
    assert run.result.metadata["prediction_speedups"]["bursty"] > 1.0
    assert (tmp_path / "batched_serving.json").exists()
    assert (tmp_path / "batched_serving.csv").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [entry["run_name"] for entry in summary["runs"]] == ["batched_serving"]


@pytest.mark.benchmark(group="manifests")
def test_bench_window_sweep_manifest_expands_the_shard_grid(benchmark, tmp_path):
    manifest = load_manifest(MANIFESTS_DIR / "window_sweep.json")
    runs = benchmark.pedantic(
        run_manifest, args=(manifest,), kwargs={"out_dir": tmp_path}, rounds=1, iterations=1, warmup_rounds=0
    )
    assert [run.planned.sweep_point for run in runs] == [{"n_shards": 2}, {"n_shards": 4}]
    for run in runs:
        print()
        print(run.result.format_table())
        sweep_rows = [row for row in run.result.rows if row["scenario"] == "window_sweep"]
        windows = [row["coalescing_window"] for row in sweep_rows]
        assert windows == [0, 15, 60]
        delays = run.result.column("mean_update_delay", skip_missing=True)
        assert delays == sorted(delays) and delays[0] == 0.0

"""Smoke test of the benchmark itself (tier-1, a few seconds).

Runs all five workloads at 1/50 scale through the same code path the
driver uses and checks the contract: names match ``BENCHMARK.json``, values
are finite, nothing failed, spans tile their root, counts are deterministic
per seed, the span file loads — and the oracle check really fires.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

PERF = Path(__file__).resolve().parent
sys.path[:0] = [str(PERF)]

import perf_harness  # noqa: E402
import perf_oracle  # noqa: E402
import perf_workloads  # noqa: E402

BENCHMARK = json.loads((PERF.parent / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
SCALE = 1 / 50
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNT_UNITS = ("count", "bytes")


def _run(name: str, seed: int, trace: bool, out_dir: Path | None = None) -> dict:
    return perf_harness.run_workload(
        name, seed, 0.0, trace, scale=SCALE, min_reps=2, setup_samples=1, out_dir=out_dir
    )


@pytest.fixture(scope="module", autouse=True)
def fit_once_per_backend():
    """The fit is a seeded fixture; fourteen identical fits would be most of
    this module's run time.  The first call per backend is the real one."""
    patch = pytest.MonkeyPatch()
    patch.setattr(perf_workloads, "fit_models", functools.cache(perf_workloads.fit_models))
    yield
    patch.undo()


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> dict:
    out_dir = tmp_path_factory.mktemp("spans")
    results = {
        name: {"plain": _run(name, 0, False), "traced": _run(name, 0, True, out_dir)}
        for name in WORKLOADS
    }
    results["out_dir"] = out_dir
    return results


def test_benchmark_json_matches_the_harness():
    assert WORKLOADS == perf_workloads.WORKLOAD_NAMES
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(perf_harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(perf_harness.PER_LAYER)
    names = WORKLOADS + [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert BENCHMARK["paths"] == ["perf"]
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower" for m in BENCHMARK["end_to_end"])
    assert all(0 <= m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_metric_is_emitted_finite_and_nothing_failed(smoke, name):
    for mode, specs in (("plain", BENCHMARK["end_to_end"]), ("traced", BENCHMARK["per_layer"])):
        result = smoke[name][mode]
        assert list(result["metrics"]) == [m["name"] for m in specs]
        for spec in specs:
            entry = result["metrics"][spec["name"]]
            assert entry["unit"] == spec["unit"]
            assert math.isfinite(entry["value"]), spec["name"]
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
    assert all(smoke[name]["plain"]["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_self_times_tile_the_root(smoke, name):
    metrics = smoke[name]["traced"]["metrics"]
    assert metrics["bench.tile_error_share"]["value"] < 0.02
    assert metrics["bench.wrap_targets_skipped"]["value"] == 0
    assert metrics["bench.config_keys_dropped"]["value"] == 0


def test_known_effects_show_in_the_counts(smoke):
    traced = {name: smoke[name]["traced"]["metrics"] for name in WORKLOADS}
    plain = {name: smoke[name]["plain"]["metrics"] for name in WORKLOADS}
    assert traced["burst64_sharded"]["router.shard_writes_per_put"]["value"] == 2.0
    assert traced["offpeak_sweep"]["stream.waves_fired"]["value"] == 0
    assert traced["live_single"]["router.read.self_us_per_request"]["value"] == 0
    assert traced["live_single_arena"]["arena.gather.self_us_per_request"]["value"] > 0
    assert traced["agg_baseline"]["tabular.transform_user.self_us_per_request"]["value"] > 0
    assert (
        plain["agg_baseline"]["kv_ops_per_request"]["value"]
        >= 10 * plain["live_single"]["kv_ops_per_request"]["value"]
    )


def test_span_files_load_as_chrome_trace(smoke):
    for name in WORKLOADS:
        trace = json.loads((smoke["out_dir"] / f"{name}.spans.json").read_text())
        events = trace["traceEvents"]
        assert events and len(events) <= trace["otherData"]["spans_recorded"]
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0 and event["ts"] >= 0
            assert {"span", "parent", "request"} <= event["args"].keys()
        assert any(event["name"] == "backend.predict_batch" for event in events)


def _counts(result: dict) -> dict:
    return {
        name: entry["value"]
        for name, entry in result["metrics"].items()
        if entry["unit"] in COUNT_UNITS and not name.startswith("bench.py_calls")
    }


def test_counts_are_deterministic_per_seed(smoke):
    again = _run("live_single", 0, True)
    other = _run("live_single", 1, True)
    assert _counts(again) == _counts(smoke["live_single"]["traced"])
    assert _counts(other) != _counts(smoke["live_single"]["traced"])


def test_the_oracle_check_fires():
    workload = perf_workloads.BY_NAME["live_single_arena"].scaled(SCALE)
    models = perf_workloads.fit_models(workload.backend)
    events = workload.events(models, 0)
    config = workload.full_config(models)
    rep = perf_harness.run_rep(workload, models, config, events, keep_records=True)
    reference = perf_harness.run_rep(
        workload, models, perf_oracle.oracle_config(config), events, keep_records=True
    )
    assert perf_harness.verify([rep], rep, reference, len(events)) == 0

    wrong_probability = copy.deepcopy(rep)
    wrong_probability.arrays[2][3] += 1e-6
    assert perf_harness.verify([rep], wrong_probability, reference, len(events)) == 1
    assert perf_harness.verify([rep, wrong_probability], rep, reference, len(events)) >= 1

    wrong_row = copy.deepcopy(rep)
    key = next(iter(wrong_row.records))
    wrong_row.records[key]["state"][0] = np.nextafter(wrong_row.records[key]["state"][0], np.float32(2))
    assert perf_harness.verify([rep], wrong_row, reference, len(events)) == 1

    lost = copy.deepcopy(rep)
    lost.arrays = tuple(column[:-1] for column in lost.arrays)
    lost.lost = 1
    assert perf_harness.verify([lost], rep, reference, len(events)) >= 1


def test_dropped_config_keys_are_reported_not_fatal():
    config, dropped = perf_workloads.resolve_config(
        {"session_length": 1200, "max_batch_size": 8, "knob_deleted_by_a_later_pr": True}
    )
    assert dropped == ["knob_deleted_by_a_later_pr"]
    assert config.max_batch_size == 8


def test_driver_contract_on_the_command_line(tmp_path):
    command = [sys.executable, str(PERF / "run.py"), "--workload", "burst64_sharded", "--seed", "5", "--seconds", "0", "--smoke", "--out", str(tmp_path)]
    done = subprocess.run(command + ["--trace", "0"], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and isinstance(result["attempted"], int) and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]

    # Without the program under test there is nothing to measure: the run
    # must fail loudly instead of printing a result.
    bare = tmp_path / "bare"
    shutil.copytree(PERF, bare / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(PERF.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "live_single", "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=bare,
    )
    assert done.returncode != 0 and not done.stdout.strip()

"""The ``batched_serving`` scenarios, one at a time.

Each scenario is a plain function of a :class:`Workload` and a request
stream, so it can be called without the runner.  The workload here is the
golden run's (``tests/test_batched_serving_golden.py``): all ten scenarios
are selected when it is prepared — one seeded generator draws every
scenario's arrivals and users, so a stream depends on the whole selection —
and it is trained once for the module.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from test_batched_serving_golden import EXCLUDED_COLUMNS, GOLDEN_PATH, PARAMS

from repro.experiments import get_spec, run_batched_serving, serving_scenarios
from repro.experiments.serving_scenarios import (
    SCENARIOS,
    overload,
    prepare_workload,
    resolve_params,
    shard_failover,
    window_sweep,
)
from repro.models import RNNModel
from repro.serving.slo import AdmissionController


@pytest.fixture(scope="module")
def prepared():
    params = resolve_params(get_spec("batched_serving").resolve(PARAMS))
    return prepare_workload(params)


@pytest.mark.parametrize("scenario", [window_sweep, overload, shard_failover])
def test_a_scenario_called_directly_reproduces_its_golden_rows(prepared, scenario):
    workload, streams = prepared
    name = scenario.__name__
    rows, pieces = scenario(workload, name, streams[name])
    golden = [row for row in json.loads(GOLDEN_PATH.read_text()) if row["scenario"] == name]
    assert golden
    assert [{key: value for key, value in row.items() if key not in EXCLUDED_COLUMNS} for row in rows] == golden
    # Every scenario hands the runner its last pipeline's registry dump.
    assert pieces["metrics"]


def test_admission_disabled_overload_is_checked_against_an_engine_without_admission(prepared, monkeypatch):
    workload, streams = prepared
    disabled = dataclasses.replace(workload, params={**workload.params, "slo_queue_depth": 0})
    rows, _ = overload(disabled, "overload", streams["overload"])
    assert [row["shed"] for row in rows] == [0, 0]
    # Both arms carry the controller, so a perturbing controller is only
    # caught because the twin has none: refusing every tenth first offer
    # forces a pressure flush, which reshapes the micro-batches.
    admit = AdmissionController.admit
    monkeypatch.setattr(
        AdmissionController, "admit",
        lambda self, timestamp, queue: admit(self, timestamp, queue) and self.requests_offered % 10 != 0,
    )
    with pytest.raises(AssertionError, match="shedding disabled must be bit-invisible"):
        overload(disabled, "overload", streams["overload"])


def test_scenario_names_are_spelled_once():
    choices = get_spec("batched_serving").param("scenarios").choices
    assert tuple(SCENARIOS) == choices == PARAMS["scenarios"]
    for arrivals, scenario, preflight in SCENARIOS.values():
        assert callable(arrivals) and callable(scenario)
        assert preflight is None or callable(preflight)


#: One parameter set violating each preflight.
PREFLIGHT_VIOLATIONS = {
    "shard_failover": ({"replication": 1}, "needs replication >= 2"),
    "diurnal_rebalance": ({"n_requests": 2}, "needs n_requests >= 3"),
    "canary_rollout": ({"replication": 5}, "replication 5 exceeds n_shards 4"),
    "scaling_frontier": ({"slo_queue_depth": 0}, "slo_queue_depth must be positive"),
}


def test_every_preflight_raises_before_anything_is_generated_or_trained(monkeypatch):
    assert set(PREFLIGHT_VIOLATIONS) == {
        name for name, (_, _, preflight) in SCENARIOS.items() if preflight is not None
    }

    def spent(*args, **kwargs):
        pytest.fail("the run reached the dataset/training spend before its preflights")

    monkeypatch.setattr(serving_scenarios, "make_dataset", spent)
    monkeypatch.setattr(RNNModel, "fit", spent)
    for name, (violation, message) in PREFLIGHT_VIOLATIONS.items():
        # The offending scenario is listed last: every preflight runs before
        # the first scenario does.
        params = {**PARAMS, "scenarios": ("poisson", name), **violation}
        with pytest.raises(ValueError, match=message):
            run_batched_serving(**params)

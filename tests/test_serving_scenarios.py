"""The ``batched_serving`` scenarios, one at a time.

Each scenario is one :data:`SCENARIOS` entry run by ``run_scenario`` on a
:class:`Workload` and a request stream, so it can be run without the runner.
The workload here is the golden run's (``tests/test_batched_serving_golden.py``):
all ten scenarios are selected when it is prepared — one seeded generator
draws every scenario's arrivals and users, so a stream depends on the whole
selection — and it is trained once for the module.
"""

from __future__ import annotations

import dataclasses
import json
import re

import pytest
from test_batched_serving_golden import EXCLUDED_COLUMNS, GOLDEN_PATH, PARAMS

from repro.experiments import get_spec, production, run_batched_serving, serving_scenarios
from repro.experiments.serving_scenarios import SCENARIOS, prepare_workload, resolve_params, run_scenario
from repro.models import RNNModel
from repro.serving.slo import AdmissionController


@pytest.fixture(scope="module")
def prepared():
    params = resolve_params(get_spec("batched_serving").resolve(PARAMS))
    return prepare_workload(params)


@pytest.mark.parametrize("name", tuple(SCENARIOS))
def test_a_scenario_called_directly_reproduces_its_golden_rows(prepared, name):
    workload, streams = prepared
    rows, pieces = run_scenario(workload, name, streams[name])
    golden = [row for row in json.loads(GOLDEN_PATH.read_text()) if row["scenario"] == name]
    assert golden
    assert [{key: value for key, value in row.items() if key not in EXCLUDED_COLUMNS} for row in rows] == golden
    # Every scenario hands the runner its last pipeline's registry dump.
    assert pieces["metrics"]


def test_admission_disabled_overload_is_checked_against_an_engine_without_admission(prepared, monkeypatch):
    workload, streams = prepared
    disabled = dataclasses.replace(workload, params={**workload.params, "slo_queue_depth": 0})
    rows, _ = run_scenario(disabled, "overload", streams["overload"])
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
        run_scenario(disabled, "overload", streams["overload"])


#: The twin comparisons each scenario makes on the golden workload, as the
#: ignored prefixes of each ``first_difference`` call, in call order.
#: ``overload`` compares only with shedding disabled (its last entry).
TWIN_COMPARISONS = {
    "shard_failover": [
        (
            "metric:ring.rnn-shard_failover-b32-failover.", "metric:kv.rnn-shard_failover-b32-failover/",
            "meter:puts", "meter:bytes_written",
        )
    ],
    "diurnal_rebalance": [
        ("metric:ring.rnn-diurnal_rebalance-b32-elastic.", "metric:kv.rnn-diurnal_rebalance-b32-elastic/", "meter:")
    ],
    "canary_rollout": [("metric:rollout.", "record:candidate:"), ("meter:", "metric:")],
    "autoscale": [()],
    "overload at slo_queue_depth 0": [("metric:slo.",)],
}


def test_every_scenario_makes_its_twin_comparisons(prepared, monkeypatch):
    workload, streams = prepared
    calls, first_difference = [], serving_scenarios.first_difference

    def spy(left, right, ignore=()):
        calls.append(tuple(ignore))
        return first_difference(left, right, ignore)

    monkeypatch.setattr(serving_scenarios, "first_difference", spy)
    made = {}
    for name in SCENARIOS:
        calls.clear()
        run_scenario(workload, name, streams[name])
        made[name] = list(calls)
    calls.clear()
    disabled = dataclasses.replace(workload, params={**workload.params, "slo_queue_depth": 0})
    run_scenario(disabled, "overload", streams["overload"])
    made["overload at slo_queue_depth 0"] = list(calls)
    assert {name: made_here for name, made_here in made.items() if made_here} == TWIN_COMPARISONS


@pytest.mark.parametrize(
    "name, check",
    [(name, check) for name, entry in SCENARIOS.items() for check in entry.checks],
    ids=lambda value: value if isinstance(value, str) else value[1],
)
def test_every_declared_check_fails_the_scenario_when_its_column_reads_zero(prepared, monkeypatch, name, check):
    workload, streams = prepared
    label, column, failure = check
    monkeypatch.setitem(serving_scenarios.COLUMNS, column, lambda run: 0)
    with pytest.raises(AssertionError, match=re.escape(f"{name}: {failure}")):
        run_scenario(workload, name, streams[name])


def test_scenario_names_are_spelled_once():
    choices = get_spec("batched_serving").param("scenarios").choices
    assert tuple(SCENARIOS) == choices == PARAMS["scenarios"]
    for entry in SCENARIOS.values():
        assert callable(entry.arrivals) and callable(entry.arms) and callable(entry.finish)
        assert all(callable(holds) for holds, _ in entry.requires)


#: Parameter sets violating each scenario's requirements, with the refusal.
PREFLIGHT_VIOLATIONS = {
    "shard_failover": [({"replication": 1}, "needs replication >= 2")],
    "diurnal_rebalance": [({"n_requests": 2}, "needs n_requests >= 3")],
    "canary_rollout": [({"replication": 5}, "replication 5 exceeds n_shards 4")],
    "scaling_frontier": [
        ({"slo_queue_depth": 0}, "slo_queue_depth must be positive"),
        ({"slo_queue_depths": (0, 8)}, "slo_queue_depth must be one of slo_queue_depths"),
    ],
}


def test_every_preflight_raises_before_anything_is_generated_or_trained(monkeypatch):
    assert set(PREFLIGHT_VIOLATIONS) == {name for name, entry in SCENARIOS.items() if entry.requires}

    def spent(*args, **kwargs):
        pytest.fail("the run reached the dataset/training spend before its preflights")

    monkeypatch.setattr(serving_scenarios, "make_dataset", spent)
    monkeypatch.setattr(RNNModel, "fit", spent)
    for name, violations in PREFLIGHT_VIOLATIONS.items():
        for violation, message in violations:
            # The offending scenario is listed last: every preflight runs
            # before the first scenario does.
            params = {**PARAMS, "scenarios": ("poisson", name), **violation}
            with pytest.raises(ValueError, match=message):
                run_batched_serving(**params)


def test_canary_span_is_refused_before_training(monkeypatch):
    def trained(*args, **kwargs):
        pytest.fail("the RNN was trained before the arrival span was checked")

    monkeypatch.setattr(RNNModel, "fit", trained)
    params = {**PARAMS, "scenarios": ("canary_rollout",), "n_requests": 3, "arrival_rate": 1000.0}
    with pytest.raises(ValueError, match="needs an arrival span of at least 3 simulated seconds"):
        run_batched_serving(**params)


def test_metadata_records_the_parameters_of_the_scenarios_that_ran(monkeypatch):
    """Each selected entry's ``records`` decide which parameters the metadata
    reports; canary builds every pool at ``replication``, so it reports it."""
    monkeypatch.setattr(
        production, "prepare_workload",
        lambda params, overrides: (None, {name: [] for name in params["scenarios"]}),
    )
    monkeypatch.setattr(production, "run_scenario", lambda workload, name, requests: ([], {}))
    metadata = run_batched_serving(**{**PARAMS, "scenarios": ("canary_rollout",), "replication": 3}).metadata
    assert metadata["replication"] == 3
    assert metadata["service_rate"] is metadata["slo_mode"] is None and metadata["coalescing_windows"] == []

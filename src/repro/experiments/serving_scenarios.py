"""The ``batched_serving`` workload and its ten scenarios.

:func:`~repro.experiments.production.run_batched_serving` is a runner over
this module: :func:`resolve_params` validates the parameters and runs every
selected scenario's preflight, :func:`prepare_workload` generates the arrival
streams and trains the RNN once, and each scenario is one plain function
``scenario(workload, name, requests) -> (rows, pieces)`` looked up in
:data:`SCENARIOS` — ``rows`` are the result rows, ``pieces`` what the scenario
contributes to the result's metadata (entries for the ``shed_rates`` /
``prediction_speedups`` / ``update_drain_speedups`` / ``elastic_meters``
tables, and the last pipeline's ``metrics`` / ``trace`` dumps).  A scenario
needs nothing but a :class:`Workload` and a request stream, so each one can be
called — and tested — on its own.

Every pipeline is built through the
:class:`~repro.serving.engine.ServingEngine` facade from the one template in
:meth:`Workload.build_engine`.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..data import Dataset, make_dataset
from ..models import RNNModel, RNNModelConfig, TaskSpec
from ..serving import (
    DIVERGENCE_BUCKETS,
    CostParameters,
    EngineConfig,
    ModelRegistry,
    ModelVersion,
    ReplicaFleet,
    ServerModel,
    ServingEngine,
    SessionUpdate,
    SloPolicy,
    TraceAnalyzer,
    kv_traffic_cost,
    rnn_prediction_flops,
)
from ..serving.twins import first_difference, observe
from .runner import validate_engine_block

#: EngineConfig fields a ``batched_serving`` engine block must not set:
#: the first four are derived per replayed pipeline (the batch-size/window
#: sweep loop); ``defer_updates`` is retired (its one legal value is the
#: default) and ``history_window`` has no effect on the hidden-state
#: dataflow — either would pollute provenance if accepted;
#: ``failure_schedule``/``model``/``rollout``/``autoscale`` are derived
#: internally by the scenarios that exercise them (``shard_failover``,
#: ``canary_rollout``, ``autoscale``/``scaling_frontier``) — their timings
#: depend on the generated arrival stream and their version names on the
#: registry the scenario builds.
ENGINE_OWNED_FIELDS = (
    "max_batch_size",
    "coalescing_window",
    "coalesce_updates",
    "store_name",
    "defer_updates",
    "history_window",
    "failure_schedule",
    "model",
    "rollout",
    "autoscale",
)


# ----------------------------------------------------------------------
# Arrival shapes
# ``arrivals(rng, params)`` -> int64 arrival seconds, as offsets from the
# dataset's start.
# ----------------------------------------------------------------------
def _poisson_arrivals(rng, params: Mapping[str, Any]) -> np.ndarray:
    """A Poisson process at ``arrival_rate`` requests/s."""
    gaps = rng.exponential(1.0 / params["arrival_rate"], params["n_requests"])
    return np.floor(gaps.cumsum()).astype(np.int64)


def _bursty_arrivals(rng, params: Mapping[str, Any]) -> np.ndarray:
    """Synchronized bursts: ``burst_size`` requests share each arrival second,
    ``burst_spacing`` seconds apart.

    This is the diurnal shape waves are built for — when many sessions start
    together (a push notification, a commute peak), their windows close
    together and the session-end timers land in the same wave.
    """
    n_requests, burst_size = params["n_requests"], params["burst_size"]
    n_bursts = -(-n_requests // burst_size)
    bursts = np.arange(n_bursts, dtype=np.int64) * params["burst_spacing"]
    return np.repeat(bursts, burst_size)[:n_requests]


def _ramped_arrivals(rng, params: Mapping[str, Any]) -> np.ndarray:
    """Poisson arrivals whose rate ramps linearly from ``overload_base_rate``
    to ``overload_peak_rate`` over the stream — the overload shape: offered
    load starts inside capacity and climbs past it, so the server backlog
    builds steadily instead of arriving as a cliff."""
    rates = np.linspace(params["overload_base_rate"], params["overload_peak_rate"], params["n_requests"])
    return np.floor(rng.exponential(1.0 / rates).cumsum()).astype(np.int64)


def _zipf_user_popularity(n_active: int, skew: float) -> np.ndarray:
    """Normalized Zipf weights over ``n_active`` users ranked by popularity.

    ``skew=0.0`` is exactly uniform; larger skews concentrate traffic — and
    with it stored-state keys — on the head of the ranking, which is the
    hot-shard-imbalance workload (``tests/test_autoscale.py`` asserts the
    pool's ``load_imbalance`` rises with the skew).
    """
    popularity = 1.0 / np.arange(1, n_active + 1) ** skew
    return popularity / popularity.sum()


def _assert_twins(name: str, invariant: str, left: dict, right: dict, ignore=()) -> None:
    """Raise unless two :func:`~repro.serving.twins.observe` snapshots agree
    byte for byte outside ``ignore``, naming the first difference."""
    difference = first_difference(left, right, ignore)
    if difference is not None:
        raise AssertionError(f"{name}: {invariant} (first difference: {difference})")


# ----------------------------------------------------------------------
# The workload: what every scenario replays against
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """Everything a scenario needs besides its request stream: the resolved
    parameters (:func:`resolve_params`), the generated dataset, the RNN
    trained on it, the users that have sessions, the manifest ``engine``
    block's overrides, and the one pipeline template built from them."""

    params: Mapping[str, Any]
    dataset: Dataset
    rnn: RNNModel
    active_users: list
    engine_overrides: Mapping[str, Any]

    @property
    def top_batch(self) -> int:
        """Every scenario but the batch-size sweep replays at the largest batch size."""
        return max(self.params["batch_sizes"])

    def build_engine(self, store_name: str, batch_size: int, config=None, **parts) -> ServingEngine:
        """The one pipeline template, built and warmed.

        ``config`` adds :class:`EngineConfig` fields to the template (a
        manifest ``engine`` block wins where both set one — only ``tracing``
        can collide, the rest are ``ENGINE_OWNED_FIELDS``); ``parts`` are
        :meth:`ServingEngine.build` keyword arguments (``server``,
        ``slo_policy``, ``models``, … — ``network`` defaults to the trained
        one).  ``batch_size`` 1 is the seed baseline on both dataflows:
        single-request scoring and one timer callback per session-end update.
        """
        parts.setdefault("network", self.rnn.network)
        engine = ServingEngine.build(
            EngineConfig(
                backend="hidden_state",
                max_batch_size=batch_size,
                n_shards=self.params["n_shards"],
                session_length=self.dataset.session_length,
                coalesce_updates=batch_size > 1,
                store_name=store_name,
                **{**(config or {}), **self.engine_overrides},
            ),
            builder=self.rnn.builder,
            **parts,
        )
        # Warm each user's state so serving fetches hit real records.
        warm_at = int(self.dataset.start_time) - 3600
        engine.backend.apply_wave(
            [
                SessionUpdate(user_id=user.user_id, timestamp=warm_at, context=user.context_row(0), accessed=True)
                for user in self.active_users
            ]
        )
        engine.store.reset_stats()
        return engine

    def updates_since_warm_up(self, engine: ServingEngine) -> int:
        """Session-end updates applied past ``build_engine``'s one per user."""
        return engine.updates_applied - len(self.active_users)


# ----------------------------------------------------------------------
# Rows
# ----------------------------------------------------------------------
#: Decimal places of every rounded row column — the one place they are
#: spelled.  Columns not listed (counts, flags, names) are reported as measured.
ROW_DIGITS = {
    "requests_per_second": 1,
    "updates_per_second": 1,
    "mean_wave": 1,
    "mean_update_delay": 2,
    "kv_gets_per_request": 3,
    "bytes_per_request": 1,
    "cost_per_request": 1,
    "mean_batch": 1,
    "load_imbalance": 3,
    "shed_rate": 3,
    "p99_update_latency": 1,
    "mean_update_latency": 2,
    "p99_queue_latency": 1,
    "peak_backlog": 1,
    "replica_seconds": 1,
}


def _row(scenario: str, measured: Mapping[str, Any], columns: tuple[str, ...]) -> dict[str, Any]:
    """One result row: ``columns`` of a replay's ``measured`` values, rounded
    per :data:`ROW_DIGITS`, then its ``TraceAnalyzer`` columns if it was traced."""
    row = {"scenario": scenario}
    for column in columns:
        value = measured[column]
        if column in ROW_DIGITS and value is not None:
            value = round(value, ROW_DIGITS[column])
        row[column] = value
    row.update(measured.get("trace_summary", {}))
    return row


# ----------------------------------------------------------------------
# Replays
# ----------------------------------------------------------------------
def metering_replay(workload: Workload, scenario: str, requests, batch_size: int, window: int) -> dict:
    """One metering replay: serve every request, then drain the updates,
    timing the two phases apart."""
    n_requests = workload.params["n_requests"]
    engine = workload.build_engine(
        f"rnn-{scenario}-b{batch_size}" + (f"-w{window}" if window else ""),
        batch_size,
        {"coalescing_window": window},
    )
    store, stream = engine.store, engine.stream

    # The two phases below are single-shot timings of a few milliseconds; a
    # full collection of a large host process (≈ 30 ms under pytest) landing
    # inside one reads as an 8× slowdown.  Collect now: the phases allocate
    # far too little to reach the next full collection themselves.
    gc.collect()
    serve_start = time.perf_counter()
    served = engine.serve(requests)
    served += engine.flush()
    serve_seconds = time.perf_counter() - serve_start
    served += engine.drain_completed()
    # Snapshot before the update drain so the serve-phase metering is
    # pure prediction traffic (no timer fires mid-serve: the arrival
    # span is shorter than session_length + extra_lag).
    serve_stats = store.stats.snapshot()

    # Drain the session-end updates through the stream: waves of
    # closed sessions (or one timer at a time at batch size 1).
    waves_before = stream.waves_fired
    drain_start = time.perf_counter()
    stream.flush()
    drain_seconds = time.perf_counter() - drain_start
    updates_applied = workload.updates_since_warm_up(engine)
    assert len(served) == n_requests and engine.predictions_served == n_requests
    assert updates_applied == n_requests
    cost_per_request = (
        kv_traffic_cost(serve_stats) / len(served)
        + CostParameters().flop_cost * rnn_prediction_flops(workload.rnn.network)
    )
    return {
        "batch_size": batch_size,
        "coalescing_window": window,
        "requests_per_second": len(served) / serve_seconds if serve_seconds > 0 else float("inf"),
        "updates_per_second": updates_applied / drain_seconds if drain_seconds > 0 else float("inf"),
        "mean_wave": updates_applied / max(stream.waves_fired - waves_before, 1),
        "mean_update_delay": engine.update_delay_seconds / updates_applied,
        "kv_gets_per_request": serve_stats["gets"] / len(served),
        "bytes_per_request": serve_stats["bytes_read"] / len(served),
        "cost_per_request": cost_per_request,
        "mean_batch": engine.mean_batch_size,
        "load_imbalance": store.load_imbalance(),
        "metrics": engine.metrics.snapshot(),
    }


def capacity_replay(
    workload: Workload,
    store_name: str,
    requests,
    depth_bound: int,
    *,
    arm: str = "server",
    admission_mode: str = "shed",
) -> dict:
    """One arm over a ramped stream: a pipeline with a capacity model, at the
    largest batch size.

    ``arm`` selects the capacity model: ``"server"`` (the fixed
    :class:`~repro.serving.slo.ServerModel` draining ``service_rate``
    requests per simulated second), ``"fixed"`` (a one-replica
    :class:`~repro.serving.autoscale.ReplicaFleet` that never scales — the
    bit-identity arm), or ``"reactive"`` / ``"predictive"`` (elastic fleets
    under the named policy).  ``depth_bound == 0`` disables admission (the
    policy has no bounds, so the controller is provably a no-op); otherwise
    new requests are shed (or parked, under ``admission_mode="defer"``)
    whenever the effective queue depth — pending micro-batch requests plus
    the server backlog in requests — reaches the bound.  A fleet's
    replica-seconds cost is measured over the arrival span only (warm-up and
    the idle run-in before the first arrival are excluded), so arms are
    directly comparable.

    Tracing is on by default (the rows carry the ``TraceAnalyzer``
    latency-breakdown columns); a manifest ``tracing`` block still wins,
    e.g. to sample.  Tracing is pinned bit-invisible, so the arms stay
    comparable either way — and the bit-identity assertions between the
    fixed-fleet and ``ServerModel`` arms also pin that it never perturbs
    the dataflow.
    """
    params = workload.params
    n_requests = params["n_requests"]
    t0, t_end = int(requests[0][0]), int(requests[-1][0])
    parts: dict[str, Any] = {}
    config: dict[str, Any] = {"tracing": {}}
    if arm == "server":
        parts["server"] = ServerModel(params["service_rate"])
    elif arm == "fixed":
        parts["server"] = ReplicaFleet(params["service_rate"])
    else:
        interval = params["autoscale_interval"]
        config["autoscale"] = {
            "policy": arm,
            "service_rate": params["service_rate"],
            "start": t0 + interval,
            "until": t_end,
            "interval": interval,
            "max_replicas": params["autoscale_max_replicas"],
            "provision_delay": params["autoscale_provision_delay"],
            "decommission_delay": interval // 2,
            "target_queue_depth": float(params["autoscale_target_depth"]),
        }
    engine = workload.build_engine(
        store_name,
        workload.top_batch,
        config,
        slo_policy=SloPolicy(max_queue_depth=depth_bound or None),
        admission_mode=admission_mode,
        **parts,
    )
    server, is_fleet = engine.server, arm != "server"
    cost_at_start = 0.0
    if is_fleet:
        # Settle the fleet's cost meter at the first arrival: settling is
        # pure with no pending transitions (it only accrues replica-
        # seconds), and subtracting the run-in leaves the cost of the
        # arrival span itself.
        server.backlog_seconds(float(t0))
        cost_at_start = server.replica_seconds

    # engine.replay is admission-aware: sessions are observed whether or
    # not their prediction was admitted (shedding protects the scoring
    # path, not ground truth — every arm applies the identical update
    # stream), shed requests are excluded from the delivery count, and
    # deferred ones are force-drained at the end.
    served = engine.replay(requests)

    admission = engine.admission
    assert workload.updates_since_warm_up(engine) == n_requests
    assert len(served) == n_requests - admission.requests_shed
    if is_fleet:
        # Force a final settle so the cost meter covers the whole span
        # (the stream clock ends past the last arrival after the drain).
        server.backlog_seconds(engine.stream.clock)
    # The end-to-end update *latency* (wave wait + server backlog at
    # delivery) — one histogram supplies every latency statistic in the
    # rows, so mean and p99 always describe the same distribution.
    latency = engine.metrics.histogram("serving.update_latency_seconds")
    autoscaler = engine.autoscaler
    measured = {
        "arm": arm,
        "batch_size": workload.top_batch,
        "queue_bound": depth_bound,
        "offered": n_requests,
        "served": len(served),
        "shed": admission.requests_shed,
        "deferred": admission.requests_deferred,
        "shed_rate": admission.shed_rate,
        "p99_update_latency": latency.quantile(0.99),
        "mean_update_latency": latency.mean,
        "p99_queue_latency": engine.metrics.histogram("queue.latency_seconds").quantile(0.99),
        "peak_backlog": server.peak_backlog_seconds,
        "replica_seconds": server.replica_seconds - cost_at_start if is_fleet else None,
        "peak_replicas": server.peak_replicas if is_fleet else 1,
        "scale_up_events": server.scale_up_events if is_fleet else 0,
        "scale_down_events": server.scale_down_events if is_fleet else 0,
        "first_scale_up_at": autoscaler.first_scale_up_at if autoscaler is not None else None,
        "engine": engine,
        "delivered": served,
        "metrics": engine.metrics.snapshot(),
        "trace": engine.tracer.chrome_trace(),
        "trace_summary": TraceAnalyzer(engine.tracer.spans()).summary(),
    }
    engine.close()
    return measured


# ----------------------------------------------------------------------
# The scenarios: ``scenario(workload, name, requests) -> (rows, pieces)``
# ----------------------------------------------------------------------
_BATCH_SIZE_COLUMNS = (
    "batch_size", "requests_per_second", "updates_per_second", "mean_wave", "kv_gets_per_request",
    "bytes_per_request", "cost_per_request", "mean_batch", "load_imbalance",
)


def batch_size_sweep(workload: Workload, name: str, requests):
    """``poisson`` / ``bursty``: one metering replay per batch size.

    Per-request KV traffic is invariant (one state fetch per prediction), so
    the rows isolate what batching buys on both dataflows: the serve phase
    reports prediction throughput, the drain phase fires the session-end
    timers through the stream and reports update throughput.  At
    ``batch_size=1`` the backend runs the seed's per-timer path; at larger
    batch sizes the stream's wave-coalesced scheduler delivers whole waves of
    closed sessions as one ``[B, hidden]`` GRU step — under bursty arrivals
    that is where the wave scheduler pays off, because every burst's windows
    close in the same second.  The pieces are the largest-over-smallest batch
    size speedups of both phases.
    """
    batch_sizes = workload.params["batch_sizes"]
    runs = [metering_replay(workload, name, requests, batch_size, 0) for batch_size in batch_sizes]
    by_batch = dict(zip(batch_sizes, runs))
    top, base = by_batch[max(batch_sizes)], by_batch[min(batch_sizes)]
    rows = [_row(name, measured, _BATCH_SIZE_COLUMNS) for measured in runs]
    return rows, {
        "prediction_speedups": {name: round(top["requests_per_second"] / base["requests_per_second"], 2)},
        "update_drain_speedups": {name: round(top["updates_per_second"] / base["updates_per_second"], 2)},
        "metrics": runs[-1]["metrics"],
    }


_WINDOW_COLUMNS = (
    "batch_size", "coalescing_window", "requests_per_second", "updates_per_second", "mean_wave",
    "mean_update_delay",
)


def window_sweep(workload: Workload, name: str, requests):
    """Latency vs wave-size trade-off: the same bursty stream at the largest
    batch size across widening ``coalescing_windows``.  A wider window absorbs
    more bursts per wave (bigger batched updates, fewer deliveries) at the
    price of ``mean_update_delay`` — simulated seconds each update waited past
    its own fire time."""
    rows, pieces = [], {}
    for window in workload.params["coalescing_windows"]:
        measured = metering_replay(workload, name, requests, workload.top_batch, window)
        pieces["metrics"] = measured["metrics"]
        rows.append(_row(name, measured, _WINDOW_COLUMNS))
    return rows, pieces


_OVERLOAD_COLUMNS = (
    "arm", "batch_size", "queue_bound", "offered", "served", "shed", "deferred", "shed_rate",
    "p99_update_latency", "mean_update_latency", "p99_queue_latency", "peak_backlog",
)


def overload(workload: Workload, name: str, requests):
    """Offered load exceeding capacity: two arms over the identical ramped
    stream, ``open`` (no admission control) and ``slo`` (shedding — or, with
    ``slo_mode="defer"``, parking — new requests whenever the effective queue
    depth reaches ``slo_queue_depth``).  The open arm shows the cost of
    overload (higher p99 update latency) that the controller buys back by
    shedding.  With ``slo_queue_depth=0`` the controlled arm's policy is empty
    and the scenario *asserts* it is bit-identical, outside its own ``slo.*``
    instruments, to an engine with the same server and no admission
    controller — admission plumbing with shedding disabled is a no-op by
    contract."""
    params = workload.params
    arms = {
        arm_name: capacity_replay(
            workload,
            f"rnn-{name}-b{workload.top_batch}-d{depth_bound}",
            requests,
            depth_bound,
            admission_mode=params["slo_mode"],
        )
        for arm_name, depth_bound in (("open", 0), ("slo", params["slo_queue_depth"]))
    }
    if params["slo_queue_depth"] == 0:
        # The twin: the same server and pool, no admission controller at all.
        bare = workload.build_engine(
            f"rnn-{name}-b{workload.top_batch}-d0",
            workload.top_batch,
            {"tracing": {}},
            server=ServerModel(params["service_rate"]),
        )
        slo = arms["slo"]
        _assert_twins(
            name, "admission control with shedding disabled must be bit-invisible",
            observe(slo["engine"], slo["delivered"]), observe(bare, bare.replay(requests)), ("metric:slo.",),
        )
    rows = [_row(name, {**measured, "arm": arm_name}, _OVERLOAD_COLUMNS) for arm_name, measured in arms.items()]
    return rows, {
        "shed_rates": {name: round(arms["slo"]["shed_rate"], 4)},
        "metrics": arms["slo"]["metrics"],
        "trace": arms["slo"]["trace"],
    }


_SLO_SWEEP_COLUMNS = (
    "batch_size", "queue_bound", "served", "shed", "deferred", "shed_rate", "p99_update_latency",
    "mean_update_latency", "peak_backlog",
)


def slo_sweep(workload: Workload, name: str, requests):
    """Shed-rate vs p99-update-latency frontier: one replay of the overload
    stream per ``slo_queue_depths`` bound (0 = no admission)."""
    rows, pieces = [], {}
    for depth_bound in workload.params["slo_queue_depths"]:
        measured = capacity_replay(
            workload,
            f"rnn-{name}-b{workload.top_batch}-d{depth_bound}",
            requests,
            depth_bound,
            admission_mode=workload.params["slo_mode"],
        )
        pieces.update(metrics=measured["metrics"], trace=measured["trace"])
        rows.append(_row(name, measured, _SLO_SWEEP_COLUMNS))
    return rows, pieces


def _autoscale_arm(workload: Workload, name: str, requests, arm: str, depth_bound: int) -> dict:
    """One always-shedding autoscale arm — the frontier compares shed rates,
    which defer mode would zero.  The ``fixed`` arm is the ``server`` arm's
    twin, so it takes the same pool name: same placement, same meter names."""
    tag = "server" if arm == "fixed" else arm
    return capacity_replay(
        workload, f"rnn-{name}-b{workload.top_batch}-{tag}-d{depth_bound}", requests, depth_bound, arm=arm
    )


_AUTOSCALE_COLUMNS = (
    "arm", "batch_size", "queue_bound", "offered", "served", "shed", "shed_rate", "p99_update_latency",
    "replica_seconds", "peak_replicas", "scale_up_events", "scale_down_events", "first_scale_up_at",
)


def autoscale(workload: Workload, name: str, requests):
    """Four admission-controlled arms over the identical ramped stream: a fixed
    ``ServerModel``, a one-replica ``ReplicaFleet`` that never scales
    (*asserted* bit-identical to the ServerModel arm in every observable),
    and elastic fleets under the ``reactive`` and
    ``predictive`` policies (evaluation every ``autoscale_interval`` seconds,
    replicas joining after ``autoscale_provision_delay``, at most
    ``autoscale_max_replicas``).  Each row reports shed rate, p99 update
    latency, replica-seconds cost over the arrival span, peak fleet size and
    scale events."""
    depth_bound = workload.params["slo_queue_depth"]
    arms = {
        arm: _autoscale_arm(workload, name, requests, arm, depth_bound)
        for arm in ("server", "fixed", "reactive", "predictive")
    }
    fixed, server = arms["fixed"], arms["server"]
    _assert_twins(
        name, "a one-replica ReplicaFleet must be bit-identical to the ServerModel baseline",
        observe(fixed["engine"], fixed["delivered"]), observe(server["engine"], server["delivered"]),
    )
    rows = [_row(name, measured, _AUTOSCALE_COLUMNS) for measured in arms.values()]
    return rows, {
        "shed_rates": {f"{name}:{arm}": round(measured["shed_rate"], 4) for arm, measured in arms.items()},
        "metrics": arms["predictive"]["metrics"],
        "trace": arms["predictive"]["trace"],
    }


_FRONTIER_COLUMNS = (
    "arm", "batch_size", "queue_bound", "served", "shed", "shed_rate", "p99_update_latency",
    "replica_seconds", "peak_replicas", "scale_up_events", "first_scale_up_at",
)


def scaling_frontier(workload: Workload, name: str, requests):
    """The reactive-vs-predictive cost-vs-SLO frontier: one pair of arms per
    nonzero ``slo_queue_depths`` bound, plus the headline ordering
    *assertion* at the primary ``slo_queue_depth`` — the predictive arm
    (scaling ahead on the GRU-aggregated load forecast) must shed strictly
    less than the reactive arm at equal or lower replica-seconds cost."""
    slo_queue_depth = workload.params["slo_queue_depth"]
    rows, pieces = [], {}
    frontier: dict[tuple[int, str], dict] = {}
    for depth_bound in [bound for bound in workload.params["slo_queue_depths"] if bound > 0]:
        for policy_name in ("reactive", "predictive"):
            measured = _autoscale_arm(workload, name, requests, policy_name, depth_bound)
            frontier[(depth_bound, policy_name)] = measured
            pieces.update(metrics=measured["metrics"], trace=measured["trace"])
            rows.append(_row(name, measured, _FRONTIER_COLUMNS))
    reactive = frontier[(slo_queue_depth, "reactive")]
    predictive = frontier[(slo_queue_depth, "predictive")]
    if not predictive["shed"] < reactive["shed"]:
        raise AssertionError(
            f"{name}: the predictive arm shed {predictive['shed']} requests "
            f"vs the reactive arm's {reactive['shed']} at queue bound {slo_queue_depth} "
            "— forecast-driven scaling must beat target tracking on the ramp"
        )
    if not predictive["replica_seconds"] <= reactive["replica_seconds"]:
        raise AssertionError(
            f"{name}: the predictive arm cost "
            f"{predictive['replica_seconds']:.1f} replica-seconds vs the reactive "
            f"arm's {reactive['replica_seconds']:.1f} — it must not buy its lower "
            "shed rate with a larger fleet bill"
        )
    pieces["shed_rates"] = {
        f"{name}:reactive": round(reactive["shed_rate"], 4),
        f"{name}:predictive": round(predictive["shed_rate"], 4),
    }
    return rows, pieces


def _elastic_scenario(workload: Workload, name: str, requests, faulted: bool):
    """A static baseline and an elastic arm over the identical stream, at the
    largest batch size.

    ``faulted`` gives the elastic arm a ``failure_schedule`` that fails
    shard 0 a third of the way through the arrivals and recovers it (with
    eager re-hydration) at two thirds.  Otherwise the pool grows by one
    shard at one third and loses it again at two thirds, so the final
    membership matches the baseline's.  Either way the elastic arm must
    reproduce the baseline bit for bit — same prediction stream, same
    final per-user state — because replication, faults and resharding are
    placement-only; what differs is the pool's ring meters, its per-shard
    traffic split and the physical writes a failed shard skips (a resize
    moves every client meter: the pool's rollup sums its *current* shards,
    and migration copies are metered on them).  Both arms take one pool
    name, so the baseline places every key where the elastic arm starts.
    """
    n_requests = workload.params["n_requests"]
    replication = workload.params["replication"]
    batch_size = workload.top_batch
    span = int(requests[-1][0] - requests[0][0])
    store_name = f"rnn-{name}-b{batch_size}-{'failover' if faulted else 'elastic'}"

    def build(failure_schedule=None) -> ServingEngine:
        return workload.build_engine(
            store_name,
            batch_size,
            {"replication": replication, "failure_schedule": failure_schedule},
        )

    def drive(engine: ServingEngine, resize: bool = False) -> list:
        if resize:
            first, second = len(requests) // 3, (2 * len(requests)) // 3
            served = engine.serve(requests[:first])
            added = engine.store.add_shard()
            served += engine.serve(requests[first:second])
            engine.store.remove_shard(added)
            served += engine.serve(requests[second:])
        else:
            served = engine.serve(requests)
        served += engine.flush()
        engine.stream.flush()
        served += engine.drain_completed()
        assert workload.updates_since_warm_up(engine) == n_requests
        return served

    baseline = build()
    baseline_served = drive(baseline)
    schedule = ((requests[0][0] + span // 3, "fail", 0), (requests[0][0] + (2 * span) // 3, "recover", 0))
    elastic = build(schedule if faulted else None)
    elastic_served = drive(elastic, resize=not faulted)

    store = elastic.store
    meters = {
        "keys_migrated": store.keys_migrated,
        "migration_bytes": store.migration_bytes,
        "keys_rehydrated": store.keys_rehydrated,
        "rehydration_bytes": store.rehydration_bytes,
        "shard_failures": store.shard_failures,
        "shard_recoveries": store.shard_recoveries,
        "membership_changes": store.membership_changes,
    }
    if faulted and meters["keys_rehydrated"] == 0:
        raise AssertionError(
            f"{name} recovered without re-hydrating a single key — the fault never bit"
        )
    if not faulted and meters["keys_migrated"] == 0:
        raise AssertionError(
            f"{name} migrated no keys — the resize never changed ownership"
        )
    _assert_twins(
        name, "the elastic arm must serve and store the static pool's bits",
        observe(elastic, elastic_served), observe(baseline, baseline_served),
        (f"metric:ring.{store_name}.", f"metric:kv.{store_name}/")
        + (("meter:puts", "meter:bytes_written") if faulted else ("meter:",)),
    )
    row = {
        "scenario": name,
        "batch_size": batch_size,
        "replication": replication,
        "served": len(elastic_served),
        "bit_identical": True,
        **meters,
        "load_imbalance": round(store.load_imbalance(), ROW_DIGITS["load_imbalance"]),
    }
    pieces = {
        "elastic_meters": {name: {key: meters[key] for key in ("keys_migrated", "keys_rehydrated")}},
        "metrics": elastic.metrics.snapshot(),
    }
    baseline.close()
    elastic.close()
    return [row], pieces


def shard_failover(workload: Workload, name: str, requests):
    """A Poisson stream through a static pool and one whose
    ``failure_schedule`` fails shard 0 a third of the way through the arrivals
    and recovers it (eager re-hydration from replicas) at two thirds —
    *asserted* bit-identical in predictions, final per-user state and client
    reads."""
    return _elastic_scenario(workload, name, requests, faulted=True)


def diurnal_rebalance(workload: Workload, name: str, requests):
    """The bursty stream against a pool that gains a shard at one third and
    sheds it at two thirds, migrating only the keys whose ownership changed —
    *asserted* bit-identical to the static pool."""
    return _elastic_scenario(workload, name, requests, faulted=False)


def canary_rollout(workload: Workload, name: str, requests):
    """Model-lifecycle arms over the identical Poisson stream, at the largest
    batch size.

    A two-version registry is built from the trained network: ``control``
    (its exact bits) and ``candidate`` (the same architecture with
    perturbed weights — a genuinely different model, so the arms measure
    real divergence).  Four engines replay the same requests:

    * ``static`` — registry-free baseline.
    * ``shadow`` — control model with the candidate in shadow and a
      canary schedule whose mid-stream stage trips a ``max_divergence``
      gate, rolling the candidate back.  The run *asserts* this arm is
      bit-identical to the baseline in every observable but the
      ``rollout.*`` instruments and the ``candidate:`` namespace (the
      headline rollout invariant), and that the shadow namespace actually
      holds state.
    * ``promote`` — a gate-free schedule ending in a 100% hot swap.
    * ``direct`` — registry-free engine built on the candidate's bits;
      the run asserts every post-swap prediction of the promote arm and
      its ``candidate:`` namespace match this arm bit for bit.

    Each compared pair shares one pool name (the baseline the shadow arm's,
    the direct arm the promote arm's), so both place every key alike.
    """
    params = workload.params
    network = workload.rnn.network
    batch_size = workload.top_batch
    t0 = int(requests[0][0])
    span = int(requests[-1][0] - requests[0][0])
    if span < 3:
        raise ValueError(
            f"{name} needs an arrival span of at least 3 simulated seconds "
            "to order its stage timers — raise n_requests or lower arrival_rate"
        )
    control_version = ModelVersion.from_network("control", network)
    perturb = np.random.default_rng(params["seed"] + 31)
    candidate_version = ModelVersion(
        "candidate",
        control_version.config,
        {
            key: array + 0.05 * perturb.standard_normal(array.shape)
            for key, array in network.state_dict().items()
        },
    )
    models = ModelRegistry([control_version, candidate_version]).freeze()

    def build(tag: str, rollout=None, **parts) -> ServingEngine:
        """A registry-pinned control arm when ``rollout`` is given, else
        an engine built directly on ``parts["network"]``."""
        config: dict[str, Any] = {"replication": params["replication"]}
        if rollout is not None:
            config.update(model="control", rollout=rollout)
            parts.update(network=None, models=models)
        return workload.build_engine(f"rnn-{name}-b{batch_size}-{tag}", batch_size, config, **parts)

    def drive(engine: ServingEngine) -> list:
        served = engine.replay(requests)
        assert workload.updates_since_warm_up(engine) == params["n_requests"]
        return served

    baseline = build("shadow")
    baseline_served = drive(baseline)

    # Rollback arm.  The first stage fires before the first arrival (the
    # divergence histogram is still empty, so the transition passes); the
    # mid-stream stage sees real divergence from the perturbed candidate
    # and trips the gate.
    shadowed = build(
        "shadow",
        {
            "candidate": "candidate",
            "stages": ((t0 - 1, 5), (t0 + span // 2, 50)),
            "gates": {"max_divergence": 1e-6},
        },
    )
    shadowed_served = drive(shadowed)
    controller = shadowed.rollout
    if not controller.rolled_back:
        raise AssertionError(
            f"{name}: the divergence gate never tripped — no micro-batch was "
            "scored before the mid-stream stage (widen the stream or raise arrival_rate)"
        )
    _assert_twins(
        name, "shadow scoring + rollback must leave the registry-free engine's bits",
        observe(shadowed, shadowed_served), observe(baseline, baseline_served),
        ("metric:rollout.", "record:candidate:"),
    )
    shadow_keys = [
        key for key in shadowed.store.keys() if key.startswith("candidate:hidden:")
    ]
    if not shadow_keys:
        raise AssertionError(f"{name}: the shadow arm stored no state")
    divergence_p99 = shadowed.metrics.histogram(
        "rollout.candidate.divergence", DIVERGENCE_BUCKETS
    ).quantile(0.99)

    # Promote arm vs an engine built directly on the candidate's bits.
    swap_at = t0 + (2 * span) // 3
    promoted = build(
        "promote",
        {
            "candidate": "candidate",
            "stages": ((t0 - 1, 5), (t0 + span // 3, 50), (swap_at, 100)),
            "gates": {},
        },
    )
    promoted_served = drive(promoted)
    if not promoted.rollout.promoted:
        raise AssertionError(f"{name}: the promote arm never reached its 100% stage")
    direct = build("promote", network=candidate_version.build_network())
    direct_served = drive(direct)
    post_swap = [index for index, request in enumerate(requests) if request[0] >= swap_at]
    if not post_swap:
        raise AssertionError(f"{name}: no arrivals after the hot swap — widen the stream")
    # The arms' meters differ by construction (one served the control first).
    _assert_twins(
        name, "the promoted arm must serve and store the bits of an engine built on the candidate",
        observe(promoted, promoted_served[post_swap[0]:], namespace="candidate:"),
        observe(direct, direct_served[post_swap[0]:]),
        ("meter:", "metric:"),
    )

    shared = {"batch_size": batch_size, "replication": params["replication"]}
    rows = [
        {
            "scenario": name,
            "arm": "rollback",
            **shared,
            "served": len(shadowed_served),
            "bit_identical": True,
            "rolled_back": True,
            "shadow_scored": controller.shadow.predictions_served,
            "shadow_keys": len(shadow_keys),
            "canary_assigned": controller.canary_assigned,
            "divergence_p99": round(divergence_p99, 6),
            "stage_history": ";".join(controller.stage_history),
        },
        {
            "scenario": name,
            "arm": "promote",
            **shared,
            "served": len(promoted_served),
            "promoted": True,
            "post_swap_requests": len(post_swap),
            "shadow_scored": promoted.rollout.shadow.predictions_served,
            "canary_assigned": promoted.rollout.canary_assigned,
            "stage_history": ";".join(promoted.rollout.stage_history),
        },
    ]
    pieces = {"metrics": promoted.metrics.snapshot()}
    for engine in (baseline, shadowed, promoted, direct):
        engine.close()
    return rows, pieces


# ----------------------------------------------------------------------
# Preflights: ``preflight(name, params)`` — scenario preconditions that are
# pure functions of the resolved parameters, checked before any spend.
# ----------------------------------------------------------------------
def _preflight_replicated(name: str, params: Mapping[str, Any]) -> None:
    if params["replication"] > params["n_shards"]:
        raise ValueError(f"replication {params['replication']} exceeds n_shards {params['n_shards']}")


def _preflight_rebalance(name: str, params: Mapping[str, Any]) -> None:
    _preflight_replicated(name, params)
    if params["n_requests"] < 3:
        raise ValueError(
            f"{name} schedules membership/fault events at 1/3 and 2/3 of the "
            "stream and needs n_requests >= 3"
        )


def _preflight_failover(name: str, params: Mapping[str, Any]) -> None:
    if params["replication"] < 2:
        raise ValueError(
            f"{name} needs replication >= 2: failing an unreplicated "
            "shard would lose its keys"
        )
    _preflight_rebalance(name, params)


def _preflight_canary(name: str, params: Mapping[str, Any]) -> None:
    if params["n_requests"] < 3:
        raise ValueError(
            f"{name} schedules its stage timers across the arrival span "
            "and needs n_requests >= 3"
        )
    _preflight_replicated(name, params)


def _preflight_frontier(name: str, params: Mapping[str, Any]) -> None:
    if params["slo_queue_depth"] <= 0:
        raise ValueError(
            f"{name} compares shed rates under admission control: "
            "slo_queue_depth must be positive"
        )


#: The one place scenario names are spelled: ``name -> (arrival generator,
#: scenario function, preflight or None)``.  The ``scenarios`` parameter's
#: choices and default, validation, arrival generation and dispatch all
#: derive from this table.  ``shard_failover`` and ``canary_rollout`` reuse
#: the Poisson shape — faults and stage transitions are injected on the
#: clock, so the arrival process stays the baseline one — and
#: ``diurnal_rebalance`` the synchronized-burst (diurnal) one.
SCENARIOS = {
    "poisson": (_poisson_arrivals, batch_size_sweep, None),
    "bursty": (_bursty_arrivals, batch_size_sweep, None),
    "window_sweep": (_bursty_arrivals, window_sweep, None),
    "overload": (_ramped_arrivals, overload, None),
    "slo_sweep": (_ramped_arrivals, slo_sweep, None),
    "shard_failover": (_poisson_arrivals, shard_failover, _preflight_failover),
    "diurnal_rebalance": (_bursty_arrivals, diurnal_rebalance, _preflight_rebalance),
    "canary_rollout": (_poisson_arrivals, canary_rollout, _preflight_canary),
    "autoscale": (_ramped_arrivals, autoscale, None),
    "scaling_frontier": (_ramped_arrivals, scaling_frontier, _preflight_frontier),
}

#: Everything replayed over ramped arrivals deliberately spans more than one
#: session window: session-end timers fire *mid-serve* (through the queue's
#: barrier), which is the point — update latency must be observable while the
#: server is backlogged.  These scenarios read their latency statistics from
#: the engine's metrics registry and are exempt from the arrival-span guard
#: the other scenarios enforce.
RAMPED_SCENARIOS = tuple(
    name for name, (arrivals, _, _) in SCENARIOS.items() if arrivals is _ramped_arrivals
)

#: The default run: the three pure-metering scenarios the table lists first
#: (serve and drain phases timed apart, no capacity model, no control plane).
DEFAULT_SCENARIOS = tuple(SCENARIOS)[:3]


# ----------------------------------------------------------------------
# Preparing a run
# ----------------------------------------------------------------------
def resolve_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Cross-parameter validation, the derived ``null`` defaults and every
    selected scenario's preflight — all before anything is generated or
    trained.  Returns the resolved copy scenarios read."""
    params = dict(params)
    if not params["batch_sizes"]:
        raise ValueError("at least one batch size is required")
    if not params["scenarios"]:
        raise ValueError("at least one scenario is required")
    unknown = set(params["scenarios"]) - set(SCENARIOS)
    if unknown:
        raise ValueError(f"unknown scenarios: {sorted(unknown)}")
    if params["overload_peak_rate"] < params["overload_base_rate"]:
        raise ValueError("overload_peak_rate must be >= overload_base_rate (the ramp goes up)")
    if params["coalescing_windows"] is None:
        params["coalescing_windows"] = (0, params["burst_spacing"], 4 * params["burst_spacing"])
    if params["slo_queue_depths"] is None:
        depth = params["slo_queue_depth"]
        # Shedding disabled (depth 0): the frontier collapses to the open arm.
        derived = (0, max(depth // 4, 1), depth, depth * 4) if depth > 0 else (0,)
        # Small depths make derived points collide (e.g. depth 1 → 0,1,1,4);
        # never replay the identical bound twice.
        params["slo_queue_depths"] = tuple(dict.fromkeys(derived))
    for name in params["scenarios"]:
        preflight = SCENARIOS[name][2]
        if preflight is not None:
            preflight(name, params)
    return params


def resolve_engine_block(engine_config: Mapping[str, Any] | None) -> dict[str, Any]:
    """A manifest ``engine`` block as overrides of the pipeline template.

    Runs the same validator the manifest loader runs, so direct calls and
    manifests reject bad engine blocks with identical wording.  A declared
    ``session_length`` is left in for :func:`prepare_workload` to compare
    against the generated dataset's.
    """
    if engine_config is None:
        return {}
    overrides = validate_engine_block(
        engine_config,
        reserved=ENGINE_OWNED_FIELDS,
        backends=("hidden_state",),
        where="engine_config",
    )
    # Same rule the manifest loader enforces: the n_shards and replication
    # parameters are the one owner of the pool's shape, so provenance (which
    # records resolved params) can never contradict the built pipeline.
    for field, what in (("n_shards", "shard topology"), ("replication", "the replica-group size")):
        if field in overrides:
            raise ValueError(
                f"set {what} via the {field} parameter, not engine_config; "
                f"an engine-block {field} would shadow the parameter and falsify provenance"
            )
    overrides.pop("backend", None)
    return overrides


def prepare_workload(
    params: Mapping[str, Any], engine_overrides: Mapping[str, Any] | None = None
) -> tuple[Workload, dict[str, list]]:
    """The dataset, arrival streams, trained RNN and per-scenario request
    streams for resolved ``params``: a :class:`Workload` plus ``scenario name
    -> [(arrival, user_id, context, accessed), …]`` in ``params["scenarios"]``
    order.  One seeded generator draws every scenario's arrivals and then
    every scenario's users, so a stream depends on the whole selection."""
    seed = params["seed"]
    dataset = make_dataset("mobiletab", seed=seed, n_users=params["n_users"])
    overrides = dict(engine_overrides or {})
    declared_length = overrides.pop("session_length", None)
    if declared_length is not None and declared_length != dataset.session_length:
        raise ValueError(
            f"engine_config session_length {declared_length} contradicts the generated "
            f"dataset's session_length {dataset.session_length}"
        )
    window_closes_after = dataset.session_length + overrides.get("extra_lag", 60)

    # Arrival offsets first (before the training spend), so a workload whose
    # span would let session-end timers fire mid-serve — polluting the
    # serve-phase metering and splitting the update count across both timed
    # phases — is rejected up front with an actionable message.
    rng = np.random.default_rng(seed + 7)
    offsets_by_scenario: dict[str, np.ndarray] = {}
    for scenario in params["scenarios"]:
        offsets = SCENARIOS[scenario][0](rng, params)
        span = int(offsets[-1] - offsets[0])
        # Ramped (overload and autoscale) streams deliberately span several
        # session windows — timers must fire mid-serve, while the server is
        # backlogged — so the mid-serve guard does not apply to them.
        if scenario not in RAMPED_SCENARIOS and span >= window_closes_after:
            raise ValueError(
                f"{scenario} arrivals span {span}s but the session window closes after "
                f"{window_closes_after}s: timers would fire mid-serve and the "
                "serve/drain phases would overlap — raise arrival_rate, shrink burst_spacing "
                "or lower n_requests"
            )
        offsets_by_scenario[scenario] = offsets

    rnn = RNNModel(
        RNNModelConfig(hidden_size=params["hidden_size"], epochs=2, early_stopping_patience=None, seed=seed)
    ).fit(dataset, TaskSpec(kind="session"))
    assert rnn.network is not None and rnn.builder is not None

    # Shared request material: Zipf-skewed user popularity (``user_skew=0``
    # is exactly uniform), context rows resampled from the users' real logs.
    active_users = [user for user in dataset.users if len(user)]
    popularity = _zipf_user_popularity(len(active_users), params["user_skew"])
    start = int(dataset.start_time)
    streams: dict[str, list] = {}
    for scenario, offsets in offsets_by_scenario.items():
        chosen = rng.choice(len(active_users), size=len(offsets), p=popularity)
        requests = []
        for arrival, user_index in zip(start + offsets, chosen):
            user = active_users[user_index]
            session = int(rng.integers(len(user)))
            requests.append(
                (int(arrival), user.user_id, user.context_row(session), bool(user.accesses[session]))
            )
        streams[scenario] = requests
    return Workload(params, dataset, rnn, active_users, overrides), streams

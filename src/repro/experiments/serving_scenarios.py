"""The ``batched_serving`` workload and its ten scenarios, as one table.

:func:`~repro.experiments.production.run_batched_serving` is a runner over
this module: :func:`resolve_params` validates the parameters and checks every
selected scenario's requirements, :func:`prepare_workload` generates the
arrival streams and trains the RNN once, and :func:`run_scenario` runs one
:data:`SCENARIOS` entry on its request stream and returns ``(rows, pieces)``
— ``rows`` are the result rows, ``pieces`` what the scenario contributes to
the result's metadata (entries for the ``shed_rates`` /
``prediction_speedups`` / ``update_drain_speedups`` / ``elastic_meters``
tables, and the last row arm's ``metrics`` / ``trace`` dumps).  A scenario
needs nothing but a :class:`Workload` and a request stream, so each one can be
run — and tested — on its own.

A scenario is data, a :class:`Scenario`: its arrival shape, its arms (one
:class:`Arm` per pipeline: ``EngineConfig`` additions, ``ServingEngine.build``
parts, pool name, mid-replay steps, row columns), its parameter requirements,
its twin invariants and its own checks.  Every arm is built from the one
template in :meth:`Workload.build_engine` and driven by one replay,
:func:`replay_arm`, which times its serve and drain phases apart for the
metering scenarios' rows; every twin invariant is one
:func:`~repro.serving.twins.first_difference` call in :func:`run_scenario`.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

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
#: sweep loop); ``defer_updates`` and ``state_layout`` are retired (the
#: first's one legal value is the default, and both of the second's build
#: the one state arena) and ``history_window`` has no effect on the
#: hidden-state dataflow — each would record a field that selects nothing;
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
    "state_layout",
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


# ----------------------------------------------------------------------
# Arms and their replays
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Arm:
    """One pipeline of a scenario.

    ``store`` is its pool name — a twin takes its arm's, so both place every
    key alike.  ``config`` adds :class:`EngineConfig` fields to the template
    and ``parts`` are :meth:`ServingEngine.build` keyword arguments (see
    :meth:`Workload.build_engine`); ``batch_size`` defaults to the largest.
    ``steps`` run on the store between equal cuts of the request stream (two
    steps: at 1/3 and 2/3), each handed the previous step's result.
    ``columns`` are its row's; an arm without columns is a twin that makes no
    row.  ``label`` names it in the ``arm`` column and in its scenario's twin
    invariants, which observe its ``namespace`` and its deliveries from
    ``compare_from`` on.
    """

    store: str
    config: Mapping[str, Any] = field(default_factory=dict)
    parts: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    batch_size: int | None = None
    steps: tuple[Callable[[Any, Any], Any], ...] = ()
    columns: tuple[str, ...] = ()
    namespace: str = ""
    compare_from: int = 0


@dataclass(frozen=True)
class Run:
    """An arm after its replay: its engine, what it delivered, and the values
    only the replay itself could measure (timed phases, a fleet's bill)."""

    arm: Arm
    engine: ServingEngine
    served: list
    measured: Mapping[str, Any]

    @property
    def traced(self) -> bool:
        """Capacity arms trace (their rows carry the latency breakdown)."""
        return "tracing" in self.arm.config


def replay_arm(workload: Workload, arm: Arm, requests) -> Run:
    """Build ``arm`` and replay ``requests`` through it end to end, timing
    the serve and drain phases apart.

    This is :meth:`ServingEngine.replay`'s sequence — serve, flush, fire the
    remaining session-end timers, force-drain deferred requests, drain — with
    the arm's ``steps`` run between equal cuts of the serve.  The replay is
    admission-aware: sessions are observed whether or not their prediction
    was admitted (shedding protects the scoring path, not ground truth —
    every arm applies the identical update stream), so every update lands
    and every request but the shed ones is delivered.

    The timed phases are what the metering scenarios report: the serve
    phase (every request served and flushed) and the drain phase (the
    session-end updates fired through the stream: waves of closed sessions,
    or one timer at a time at batch size 1).  The store's meters are
    snapshotted between them, so over a stream shorter than one session
    window — no timer fires mid-serve — the serve-phase metering is pure
    prediction traffic.  Ramped streams fire timers mid-serve by design, so
    their scenarios report other columns.

    A :class:`~repro.serving.autoscale.ReplicaFleet`'s cost meter is settled
    at the first arrival and again after the drain (the stream clock ends
    past the last arrival), so its ``replica_seconds`` cover the arrival span
    alone and arms are directly comparable: settling is pure with no pending
    transitions — it only accrues replica-seconds.  The fleet's readings are
    measured here; a fixed server's are :data:`COLUMNS` defaults.
    """
    engine = workload.build_engine(arm.store, arm.batch_size or workload.top_batch, arm.config, **arm.parts)
    store, stream, server = engine.store, engine.stream, engine.server
    fleet = isinstance(server, ReplicaFleet)
    if fleet:
        server.backlog_seconds(float(requests[0][0]))
        cost_at_start = server.replica_seconds

    # The two phases below are single-shot timings of a few milliseconds; a
    # full collection of a large host process (≈ 30 ms under pytest) landing
    # inside one reads as an 8× slowdown.  Collect now: the phases allocate
    # far too little to reach the next full collection themselves.
    gc.collect()
    serve_start = time.perf_counter()
    served, carried, start = [], None, 0
    for index, step in enumerate(arm.steps, start=1):
        cut = index * len(requests) // (len(arm.steps) + 1)
        served += engine.serve(requests[start:cut])
        carried, start = step(store, carried), cut
    served += engine.serve(requests[start:])
    served += engine.flush()
    serve_seconds = time.perf_counter() - serve_start
    serve_stats = store.stats.snapshot()
    waves_before = stream.waves_fired
    drain_start = time.perf_counter()
    stream.flush()
    drain_seconds = time.perf_counter() - drain_start
    served += engine.drain_deferred() + engine.drain_completed()
    # Session-end updates applied past the warm-up's one per user.
    updates = engine.updates_applied - len(workload.active_users)
    shed = engine.admission.requests_shed if engine.admission is not None else 0
    assert updates == len(requests) and len(served) == engine.predictions_served == len(requests) - shed
    measured = {
        "offered": len(requests),
        "requests_per_second": len(served) / serve_seconds if serve_seconds > 0 else float("inf"),
        "updates_per_second": updates / drain_seconds if drain_seconds > 0 else float("inf"),
        "mean_wave": updates / max(stream.waves_fired - waves_before, 1),
        "mean_update_delay": engine.update_delay_seconds / updates,
        "kv_gets_per_request": serve_stats["gets"] / len(served),
        "bytes_per_request": serve_stats["bytes_read"] / len(served),
        "cost_per_request": kv_traffic_cost(serve_stats) / len(served)
        + CostParameters().flop_cost * rnn_prediction_flops(workload.rnn.network),
    }
    if fleet:
        server.backlog_seconds(stream.clock)
        measured.update(
            (reading, getattr(server, reading)) for reading in ("peak_replicas", "scale_up_events", "scale_down_events")
        )
        measured["replica_seconds"] = server.replica_seconds - cost_at_start
    return Run(arm, engine, served, measured)


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
    "divergence_p99": 6,
}

#: The pool's elastic meters, as its scenarios' rows report them.
RING_METERS = (
    "keys_migrated", "migration_bytes", "keys_rehydrated", "rehydration_bytes", "shard_failures",
    "shard_recoveries", "membership_changes",
)


#: How a finished run's row column is read, for every column its replay did
#: not measure itself.  Only the columns an arm declares are read.
COLUMNS: dict[str, Callable[[Run], Any]] = {
    "arm": lambda run: run.arm.label,
    "batch_size": lambda run: run.engine.config.max_batch_size,
    "coalescing_window": lambda run: run.engine.config.coalescing_window,
    "replication": lambda run: run.engine.config.replication,
    "mean_batch": lambda run: run.engine.mean_batch_size,
    "load_imbalance": lambda run: run.engine.store.load_imbalance(),
    "queue_bound": lambda run: run.engine.admission.policy.max_queue_depth or 0,
    "served": lambda run: len(run.served),
    "shed": lambda run: run.engine.admission.requests_shed,
    "deferred": lambda run: run.engine.admission.requests_deferred,
    "shed_rate": lambda run: run.engine.admission.shed_rate,
    # The end-to-end update *latency* (wave wait + server backlog at
    # delivery) — one histogram supplies every latency statistic in the
    # rows, so mean and p99 always describe the same distribution.
    "p99_update_latency": lambda run: run.engine.metrics.histogram("serving.update_latency_seconds").quantile(0.99),
    "mean_update_latency": lambda run: run.engine.metrics.histogram("serving.update_latency_seconds").mean,
    "p99_queue_latency": lambda run: run.engine.metrics.histogram("queue.latency_seconds").quantile(0.99),
    "peak_backlog": lambda run: run.engine.server.peak_backlog_seconds,
    # A fleet's readings are measured by its replay; a fixed server runs no
    # bill, on one replica that never scales.
    "replica_seconds": lambda run: None,
    "peak_replicas": lambda run: 1,
    "scale_up_events": lambda run: 0,
    "scale_down_events": lambda run: 0,
    "first_scale_up_at": lambda run: getattr(run.engine.autoscaler, "first_scale_up_at", None),
    # A row is only returned once its scenario's twin invariants held.
    "bit_identical": lambda run: True,
    **{meter: (lambda run, meter=meter: getattr(run.engine.store, meter)) for meter in RING_METERS},
    "rolled_back": lambda run: run.engine.rollout.rolled_back,
    "promoted": lambda run: run.engine.rollout.promoted,
    "shadow_scored": lambda run: run.engine.rollout.shadow.predictions_served,
    "shadow_keys": lambda run: sum(key.startswith("candidate:hidden:") for key in run.engine.store.keys()),
    "canary_assigned": lambda run: run.engine.rollout.canary_assigned,
    "divergence_p99": lambda run: run.engine.metrics.histogram(
        "rollout.candidate.divergence", DIVERGENCE_BUCKETS
    ).quantile(0.99),
    "stage_history": lambda run: ";".join(run.engine.rollout.stage_history),
    "post_swap_requests": lambda run: len(run.served) - run.arm.compare_from,
}


def _row(scenario: str, run: Run) -> dict[str, Any]:
    """One result row: the arm's ``columns`` — measured by its replay or read
    per :data:`COLUMNS` — rounded per :data:`ROW_DIGITS`, then its
    ``TraceAnalyzer`` columns if it was traced."""
    row = {"scenario": scenario}
    for column in run.arm.columns:
        value = run.measured[column] if column in run.measured else COLUMNS[column](run)
        if column in ROW_DIGITS and value is not None:
            value = round(value, ROW_DIGITS[column])
        row[column] = value
    if run.traced:
        row.update(TraceAnalyzer(run.engine.tracer.spans()).summary())
    return row


# ----------------------------------------------------------------------
# The scenarios' arms: ``arms(workload, name, requests) -> [Arm, …]``
# ----------------------------------------------------------------------
_BATCH_SIZE_COLUMNS = (
    "batch_size", "requests_per_second", "updates_per_second", "mean_wave", "kv_gets_per_request",
    "bytes_per_request", "cost_per_request", "mean_batch", "load_imbalance",
)
_WINDOW_COLUMNS = (
    "batch_size", "coalescing_window", "requests_per_second", "updates_per_second", "mean_wave",
    "mean_update_delay",
)


def _metering_arms(workload: Workload, name: str, requests, *, windows: bool) -> list[Arm]:
    """The metering sweeps, one timed replay per point.

    ``poisson`` / ``bursty`` (``windows=False``) sweep the batch size.
    Per-request KV traffic is invariant (one state fetch per prediction), so
    the rows isolate what batching buys on both dataflows: the serve phase
    reports prediction throughput, the drain phase fires the session-end
    timers through the stream and reports update throughput.  At
    ``batch_size=1`` the backend runs the seed's per-timer path; at larger
    batch sizes the stream's wave-coalesced scheduler delivers whole waves of
    closed sessions as one ``[B, hidden]`` GRU step — under bursty arrivals
    that is where the wave scheduler pays off, because every burst's windows
    close in the same second.  Their pieces are the largest-over-smallest
    batch size speedups of both phases (:func:`_speedups`).

    ``window_sweep`` (``windows=True``) is the latency vs wave-size
    trade-off: the same bursty stream at the largest batch size across
    widening ``coalescing_windows``.  A wider window absorbs more bursts per
    wave (bigger batched updates, fewer deliveries) at the price of
    ``mean_update_delay`` — simulated seconds each update waited past its own
    fire time.
    """
    params = workload.params
    if windows:
        points = [(workload.top_batch, window) for window in params["coalescing_windows"]]
    else:
        points = [(batch_size, 0) for batch_size in params["batch_sizes"]]
    return [
        Arm(
            f"rnn-{name}-b{batch_size}" + (f"-w{window}" if window else ""),
            {"coalescing_window": window},
            batch_size=batch_size,
            columns=_WINDOW_COLUMNS if windows else _BATCH_SIZE_COLUMNS,
        )
        for batch_size, window in points
    ]


def _capacity_arm(
    workload: Workload, requests, store: str, depth_bound: int, kind: str = "server", *, label: str = "",
    admission_mode: str = "shed", columns: tuple[str, ...] = (),
) -> Arm:
    """One arm with a capacity model, over a ramped stream.

    ``kind`` selects the capacity model: ``"server"`` (the fixed
    :class:`~repro.serving.slo.ServerModel` draining ``service_rate``
    requests per simulated second), ``"fixed"`` (a one-replica
    :class:`~repro.serving.autoscale.ReplicaFleet` that never scales — the
    bit-identity arm), or ``"reactive"`` / ``"predictive"`` (elastic fleets
    under the named policy); it labels the arm unless ``label`` does.
    ``depth_bound == 0`` disables admission (the policy has no bounds, so the
    controller is provably a no-op); otherwise new requests are shed (or
    parked, under ``admission_mode="defer"``) whenever the effective queue
    depth — pending micro-batch requests plus the server backlog in requests
    — reaches the bound.

    Tracing is on by default (the rows carry the ``TraceAnalyzer``
    latency-breakdown columns); a manifest ``tracing`` block still wins,
    e.g. to sample.  Tracing is pinned bit-invisible, so the arms stay
    comparable either way — and the bit-identity invariants between the
    fixed-fleet and ``ServerModel`` arms also pin that it never perturbs
    the dataflow.
    """
    params = workload.params
    config: dict[str, Any] = {"tracing": {}}
    parts: dict[str, Any] = {
        "slo_policy": SloPolicy(max_queue_depth=depth_bound or None),
        "admission_mode": admission_mode,
    }
    if kind in ("server", "fixed"):
        parts["server"] = (ServerModel if kind == "server" else ReplicaFleet)(params["service_rate"])
    else:
        interval = params["autoscale_interval"]
        config["autoscale"] = {
            "policy": kind,
            "service_rate": params["service_rate"],
            "start": int(requests[0][0]) + interval,
            "until": int(requests[-1][0]),
            "interval": interval,
            "max_replicas": params["autoscale_max_replicas"],
            "provision_delay": params["autoscale_provision_delay"],
            "decommission_delay": interval // 2,
            "target_queue_depth": float(params["autoscale_target_depth"]),
        }
    return Arm(store, config, parts, label=label or kind, columns=columns)


_OVERLOAD_COLUMNS = (
    "arm", "batch_size", "queue_bound", "offered", "served", "shed", "deferred", "shed_rate",
    "p99_update_latency", "mean_update_latency", "p99_queue_latency", "peak_backlog",
)
_SLO_SWEEP_COLUMNS = (
    "batch_size", "queue_bound", "served", "shed", "deferred", "shed_rate", "p99_update_latency",
    "mean_update_latency", "peak_backlog",
)


def _admission_arms(workload: Workload, name: str, requests, *, sweep: bool) -> list[Arm]:
    """Admission control over the ramped stream, in ``slo_mode``.

    ``overload`` (``sweep=False``) is offered load exceeding capacity: two
    arms over the identical ramped stream, ``open`` (no admission control)
    and ``slo`` (shedding — or, with ``slo_mode="defer"``, parking — new
    requests whenever the effective queue depth reaches ``slo_queue_depth``).
    The open arm shows the cost of overload (higher p99 update latency) that
    the controller buys back by shedding.  With ``slo_queue_depth=0`` the
    controlled arm's policy is empty and a third arm, ``bare``, is its twin:
    the same server and pool with no admission controller at all — admission
    plumbing with shedding disabled is a no-op by contract.

    ``slo_sweep`` (``sweep=True``) is the shed-rate vs p99-update-latency
    frontier: one replay of the overload stream per ``slo_queue_depths``
    bound (0 = no admission).
    """
    params = workload.params
    prefix = f"rnn-{name}-b{workload.top_batch}-d"
    if sweep:
        points = [("server", bound) for bound in params["slo_queue_depths"]]
    else:
        points = [("open", 0), ("slo", params["slo_queue_depth"])]
    arms = [
        _capacity_arm(
            workload, requests, f"{prefix}{bound}", bound, label=label, admission_mode=params["slo_mode"],
            columns=_SLO_SWEEP_COLUMNS if sweep else _OVERLOAD_COLUMNS,
        )
        for label, bound in points
    ]
    if not sweep and params["slo_queue_depth"] == 0:
        arms.append(Arm(f"{prefix}0", {"tracing": {}}, {"server": ServerModel(params["service_rate"])}, label="bare"))
    return arms


_AUTOSCALE_COLUMNS = (
    "arm", "batch_size", "queue_bound", "offered", "served", "shed", "shed_rate", "p99_update_latency",
    "replica_seconds", "peak_replicas", "scale_up_events", "scale_down_events", "first_scale_up_at",
)
_FRONTIER_COLUMNS = (
    "arm", "batch_size", "queue_bound", "served", "shed", "shed_rate", "p99_update_latency",
    "replica_seconds", "peak_replicas", "scale_up_events", "first_scale_up_at",
)


def _fleet_arms(workload: Workload, name: str, requests, *, frontier: bool) -> list[Arm]:
    """Always-shedding autoscale arms — the frontier compares shed rates,
    which defer mode would zero.  The ``fixed`` arm is the ``server`` arm's
    twin, so it takes the same pool name: same placement, same meter names.

    ``autoscale`` (``frontier=False``): four admission-controlled arms over
    the identical ramped stream at ``slo_queue_depth`` — a fixed
    ``ServerModel``, a one-replica ``ReplicaFleet`` that never scales (its
    twin in every observable), and elastic fleets under the ``reactive`` and
    ``predictive`` policies (evaluation every ``autoscale_interval`` seconds,
    replicas joining after ``autoscale_provision_delay``, at most
    ``autoscale_max_replicas``).  Each row reports shed rate, p99 update
    latency, replica-seconds cost over the arrival span, peak fleet size and
    scale events.

    ``scaling_frontier`` (``frontier=True``): the reactive-vs-predictive
    cost-vs-SLO frontier, one pair of arms per nonzero ``slo_queue_depths``
    bound; :func:`_frontier_finish` checks the headline ordering.
    """
    params, top = workload.params, workload.top_batch
    if frontier:
        kinds, bounds = ("reactive", "predictive"), [bound for bound in params["slo_queue_depths"] if bound > 0]
    else:
        kinds, bounds = ("server", "fixed", "reactive", "predictive"), [params["slo_queue_depth"]]
    return [
        _capacity_arm(
            workload, requests, f"rnn-{name}-b{top}-{'server' if kind == 'fixed' else kind}-d{bound}", bound, kind,
            columns=_FRONTIER_COLUMNS if frontier else _AUTOSCALE_COLUMNS,
        )
        for bound in bounds
        for kind in kinds
    ]


_ELASTIC_COLUMNS = ("batch_size", "replication", "served", "bit_identical", *RING_METERS, "load_imbalance")

#: The resize: grow the pool by one shard, then remove exactly that shard.
_RESIZE = (lambda store, _: store.add_shard(), lambda store, added: store.remove_shard(added))


def _elastic_arms(workload: Workload, name: str, requests, *, faulted: bool) -> list[Arm]:
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
    t0, span = requests[0][0], int(requests[-1][0] - requests[0][0])
    store = f"rnn-{name}-b{workload.top_batch}-{'failover' if faulted else 'elastic'}"
    replicated = {"replication": workload.params["replication"]}
    schedule = ((t0 + span // 3, "fail", 0), (t0 + (2 * span) // 3, "recover", 0)) if faulted else None
    return [
        Arm(store, replicated, label="static"),
        Arm(
            store, {**replicated, "failure_schedule": schedule}, label="elastic",
            steps=() if faulted else _RESIZE, columns=_ELASTIC_COLUMNS,
        ),
    ]


_ROLLBACK_COLUMNS = (
    "arm", "batch_size", "replication", "served", "bit_identical", "rolled_back", "shadow_scored",
    "shadow_keys", "canary_assigned", "divergence_p99", "stage_history",
)
_PROMOTE_COLUMNS = (
    "arm", "batch_size", "replication", "served", "promoted", "post_swap_requests", "shadow_scored",
    "canary_assigned", "stage_history",
)


def _canary_arms(workload: Workload, name: str, requests) -> list[Arm]:
    """Model-lifecycle arms over the identical Poisson stream, at the largest
    batch size.

    A two-version registry is built from the trained network: ``control``
    (its exact bits) and ``candidate`` (the same architecture with
    perturbed weights — a genuinely different model, so the arms measure
    real divergence).  Four engines replay the same requests:

    * ``static`` — registry-free baseline.
    * ``rollback`` — control model with the candidate in shadow and a
      canary schedule whose mid-stream stage trips a ``max_divergence``
      gate, rolling the candidate back.  Its twin is the baseline in every
      observable but the ``rollout.*`` instruments and the ``candidate:``
      namespace (the headline rollout invariant), and the shadow namespace
      must actually hold state.
    * ``promote`` — a gate-free schedule ending in a 100% hot swap.
    * ``direct`` — registry-free engine built on the candidate's bits: the
      twin of every post-swap prediction of the promote arm and of its
      ``candidate:`` namespace.  The arms' meters differ by construction
      (one served the control first).

    Each compared pair shares one pool name (the baseline the shadow arm's,
    the direct arm the promote arm's), so both place every key alike.
    """
    params, network = workload.params, workload.rnn.network
    t0, span = int(requests[0][0]), int(requests[-1][0] - requests[0][0])
    control = ModelVersion.from_network("control", network)
    perturb = np.random.default_rng(params["seed"] + 31)
    candidate = ModelVersion(
        "candidate",
        control.config,
        {key: array + 0.05 * perturb.standard_normal(array.shape) for key, array in network.state_dict().items()},
    )
    registry = {"network": None, "models": ModelRegistry([control, candidate]).freeze()}
    replicated = {"replication": params["replication"]}
    # The swap is at most the last arrival, so some request always follows it.
    swap_at = t0 + (2 * span) // 3
    post_swap = next(index for index, request in enumerate(requests) if request[0] >= swap_at)

    def rollout(stages, gates) -> dict[str, Any]:
        return {**replicated, "model": "control", "rollout": dict(candidate="candidate", stages=stages, gates=gates)}

    store = f"rnn-{name}-b{workload.top_batch}-"
    return [
        Arm(store + "shadow", replicated, label="static"),
        # The first stage fires before the first arrival (the divergence
        # histogram is still empty, so the transition passes); the
        # mid-stream stage sees real divergence from the perturbed candidate
        # and trips the gate.
        Arm(
            store + "shadow", rollout(((t0 - 1, 5), (t0 + span // 2, 50)), {"max_divergence": 1e-6}), registry,
            label="rollback", columns=_ROLLBACK_COLUMNS,
        ),
        Arm(
            store + "promote", rollout(((t0 - 1, 5), (t0 + span // 3, 50), (swap_at, 100)), {}), registry,
            label="promote", columns=_PROMOTE_COLUMNS, namespace="candidate:", compare_from=post_swap,
        ),
        Arm(
            store + "promote", replicated, {"network": candidate.build_network()},
            label="direct", compare_from=post_swap,
        ),
    ]


# ----------------------------------------------------------------------
# The scenarios' own checks and metadata pieces:
# ``finish(name, runs, params) -> pieces``
# ----------------------------------------------------------------------
def _labelled(runs: list[Run], label: str) -> Run:
    return next(run for run in runs if run.arm.label == label)


def _speedups(name: str, runs: list[Run], params) -> dict:
    by_batch = {run.arm.batch_size: run.measured for run in runs}
    top, base = by_batch[max(by_batch)], by_batch[min(by_batch)]
    return {
        "prediction_speedups": {name: round(top["requests_per_second"] / base["requests_per_second"], 2)},
        "update_drain_speedups": {name: round(top["updates_per_second"] / base["updates_per_second"], 2)},
    }


def _shed_rates(name: str, runs: list[Run], params=None) -> dict:
    """Every given arm's shed rate, under ``scenario:arm``."""
    return {"shed_rates": {f"{name}:{run.arm.label}": round(run.engine.admission.shed_rate, 4) for run in runs}}


def _overload_finish(name: str, runs: list[Run], params) -> dict:
    """The controlled arm's shed rate, under the scenario's name."""
    return {"shed_rates": {name: round(_labelled(runs, "slo").engine.admission.shed_rate, 4)}}


def _frontier_finish(name: str, runs: list[Run], params) -> dict:
    """The headline ordering at the primary ``slo_queue_depth``: the
    predictive arm (scaling ahead on the GRU-aggregated load forecast) must
    shed strictly less than the reactive arm at equal or lower
    replica-seconds cost."""
    bound = params["slo_queue_depth"]
    at = {run.arm.label: run for run in runs if COLUMNS["queue_bound"](run) == bound}
    shed = {label: run.engine.admission.requests_shed for label, run in at.items()}
    cost = {label: run.measured["replica_seconds"] for label, run in at.items()}
    if not (shed["predictive"] < shed["reactive"] and cost["predictive"] <= cost["reactive"]):
        raise AssertionError(
            f"{name}: at queue bound {bound} the predictive arm shed {shed['predictive']} requests for "
            f"{cost['predictive']:.1f} replica-seconds vs the reactive arm's {shed['reactive']} for "
            f"{cost['reactive']:.1f} — forecast-driven scaling must beat target tracking on the ramp "
            "without buying its lower shed rate with a larger fleet bill"
        )
    return _shed_rates(name, list(at.values()))


def _elastic_meters(name: str, runs: list[Run], params) -> dict:
    store = _labelled(runs, "elastic").engine.store
    return {"elastic_meters": {name: {key: getattr(store, key) for key in ("keys_migrated", "keys_rehydrated")}}}


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Scenario:
    """One ``batched_serving`` scenario, as data.

    ``arrivals(rng, params)`` is its arrival shape and ``arms(workload,
    name, requests)`` its pipelines, each replayed in order by
    :func:`replay_arm`.  ``requires`` are ``(holds(params), message)`` pairs,
    checked before anything is generated or trained; ``min_span`` is the
    arrival span (simulated seconds) it needs, checked before training.
    ``twins`` are ``(arm, twin, ignored prefixes, invariant)``: the two
    labelled runs must be byte-identical outside the prefixes (``{store}``
    is the arm's pool name); an invariant whose twin arm was not built is not
    compared (overload's ``bare`` arm exists at ``slo_queue_depth=0`` only).
    ``checks`` are ``(arm, column, failure)``: the labelled run's column
    must read nonzero — the feature under test actually acted, so its twin
    invariant does not hold vacuously.  ``finish(name, runs, params)`` runs
    any further check and returns the scenario's metadata pieces.
    ``records`` are the parameters a run's metadata reports because this
    scenario ran.
    """

    arrivals: Callable[[Any, Mapping[str, Any]], np.ndarray]
    arms: Callable[[Workload, str, list], list[Arm]]
    requires: tuple[tuple[Callable[[Mapping[str, Any]], bool], str], ...] = ()
    min_span: int = 0
    twins: tuple[tuple[str, str, tuple[str, ...], str], ...] = ()
    checks: tuple[tuple[str, str, str], ...] = ()
    finish: Callable[[str, list[Run], Mapping[str, Any]], dict] = lambda name, runs, params: {}
    records: tuple[str, ...] = ()


_REPLICATED = (
    lambda params: params["replication"] <= params["n_shards"],
    "replication {replication} exceeds n_shards {n_shards}",
)
_THIRDS = (
    lambda params: params["n_requests"] >= 3,
    "{name} schedules events at 1/3 and 2/3 of the stream and needs n_requests >= 3",
)
_ELASTIC_TWIN = ("metric:ring.{store}.", "metric:kv.{store}/")
_ELASTIC_INVARIANT = "the elastic arm must serve and store the static pool's bits"

#: The one place scenario names are spelled.  The ``scenarios`` parameter's
#: choices and default, validation, requirements, arrival generation,
#: dispatch and the conditional metadata keys all derive from this table.
#: ``shard_failover`` and ``canary_rollout`` reuse the Poisson shape —
#: faults and stage transitions are injected on the clock, so the arrival
#: process stays the baseline one — and ``diurnal_rebalance`` the
#: synchronized-burst (diurnal) one.
SCENARIOS = {
    "poisson": Scenario(_poisson_arrivals, partial(_metering_arms, windows=False), finish=_speedups),
    "bursty": Scenario(_bursty_arrivals, partial(_metering_arms, windows=False), finish=_speedups),
    "window_sweep": Scenario(_bursty_arrivals, partial(_metering_arms, windows=True), records=("coalescing_windows",)),
    "overload": Scenario(
        _ramped_arrivals, partial(_admission_arms, sweep=False), finish=_overload_finish,
        twins=(("slo", "bare", ("metric:slo.",), "admission control with shedding disabled must be bit-invisible"),),
        records=("service_rate", "slo_mode"),
    ),
    "slo_sweep": Scenario(
        _ramped_arrivals, partial(_admission_arms, sweep=True), records=("service_rate", "slo_mode")
    ),
    "shard_failover": Scenario(
        _poisson_arrivals, partial(_elastic_arms, faulted=True), finish=_elastic_meters, records=("replication",),
        requires=(
            (
                lambda params: params["replication"] >= 2,
                "{name} needs replication >= 2: failing an unreplicated shard would lose its keys",
            ),
            _REPLICATED,
            _THIRDS,
        ),
        # A failed shard skips the physical writes it would have taken.
        twins=(("elastic", "static", (*_ELASTIC_TWIN, "meter:puts", "meter:bytes_written"), _ELASTIC_INVARIANT),),
        checks=(("elastic", "keys_rehydrated", "recovered without re-hydrating a single key — the fault never bit"),),
    ),
    "diurnal_rebalance": Scenario(
        _bursty_arrivals, partial(_elastic_arms, faulted=False), finish=_elastic_meters, records=("replication",),
        requires=(_REPLICATED, _THIRDS),
        twins=(("elastic", "static", (*_ELASTIC_TWIN, "meter:"), _ELASTIC_INVARIANT),),
        checks=(("elastic", "keys_migrated", "migrated no keys — the resize never changed ownership"),),
    ),
    "canary_rollout": Scenario(
        _poisson_arrivals, _canary_arms, requires=(_THIRDS, _REPLICATED), records=("replication",),
        # Its stage timers sit at span/3, span/2 and 2*span/3 past the first arrival.
        min_span=3,
        twins=(
            (
                "rollback", "static", ("metric:rollout.", "record:candidate:"),
                "shadow scoring + rollback must leave the registry-free engine's bits",
            ),
            (
                "promote", "direct", ("meter:", "metric:"),
                "the promoted arm must serve and store the bits of an engine built on the candidate",
            ),
        ),
        checks=(
            (
                "rollback", "rolled_back",
                "the divergence gate never tripped — no micro-batch was scored before the mid-stream stage "
                "(widen the stream or raise arrival_rate)",
            ),
            ("rollback", "shadow_keys", "the shadow arm stored no state"),
            ("promote", "promoted", "the promote arm never reached its 100% stage"),
        ),
    ),
    "autoscale": Scenario(
        _ramped_arrivals, partial(_fleet_arms, frontier=False), finish=_shed_rates, records=("service_rate",),
        twins=(
            ("fixed", "server", (), "a one-replica ReplicaFleet must be bit-identical to the ServerModel baseline"),
        ),
    ),
    "scaling_frontier": Scenario(
        _ramped_arrivals, partial(_fleet_arms, frontier=True), finish=_frontier_finish, records=("service_rate",),
        requires=(
            (
                lambda params: params["slo_queue_depth"] > 0,
                "{name} compares shed rates under admission control: slo_queue_depth must be positive",
            ),
            (
                lambda params: params["slo_queue_depth"] in params["slo_queue_depths"],
                "{name} checks its ordering at slo_queue_depth {slo_queue_depth}, so "
                "slo_queue_depth must be one of slo_queue_depths {slo_queue_depths}",
            ),
        ),
    ),
}

#: The default run: the three pure-metering scenarios the table lists first
#: (serve and drain phases timed apart, no capacity model, no control plane).
DEFAULT_SCENARIOS = tuple(SCENARIOS)[:3]


def _observed(run: Run) -> dict[str, Any]:
    return observe(run.engine, run.served[run.arm.compare_from:], namespace=run.arm.namespace)


def run_scenario(workload: Workload, name: str, requests) -> tuple[list[dict], dict]:
    """Run the :data:`SCENARIOS` entry ``name`` on its request stream.

    Replays every arm in order and reads each row arm's row, then runs the
    entry's own checks and every twin invariant.  The pieces are the entry's
    metadata pieces plus the last row arm's registry dump (``metrics``) and,
    when it was traced, its Chrome-trace export (``trace``).
    """
    entry = SCENARIOS[name]
    runs = [replay_arm(workload, arm, requests) for arm in entry.arms(workload, name, requests)]
    rows = [_row(name, run) for run in runs if run.arm.columns]
    last = [run for run in runs if run.arm.columns][-1]
    pieces = {"metrics": last.engine.metrics.snapshot()}
    if last.traced:
        pieces["trace"] = last.engine.tracer.chrome_trace()
    by_label = {run.arm.label: run for run in runs}
    for label, column, failure in entry.checks:
        if not COLUMNS[column](by_label[label]):
            raise AssertionError(f"{name}: {failure}")
    pieces.update(entry.finish(name, runs, workload.params))
    for label, twin, ignore, invariant in entry.twins:
        if twin in by_label:
            left, right = by_label[label], by_label[twin]
            ignored = tuple(prefix.format(store=left.arm.store) for prefix in ignore)
            difference = first_difference(_observed(left), _observed(right), ignored)
            if difference is not None:
                raise AssertionError(f"{name}: {invariant} (first difference: {difference})")
    for run in runs:
        run.engine.close()
    return rows, pieces


# ----------------------------------------------------------------------
# Preparing a run
# ----------------------------------------------------------------------
def resolve_params(params: Mapping[str, Any]) -> dict[str, Any]:
    """Cross-parameter validation, the derived ``null`` defaults and every
    selected scenario's requirements — all before anything is generated or
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
        for holds, message in SCENARIOS[name].requires:
            if not holds(params):
                raise ValueError(message.format(name=name, **params))
    return params


def resolve_engine_block(engine_config: Mapping[str, Any] | None, params: tuple[str, ...]) -> dict[str, Any]:
    """A manifest ``engine`` block as overrides of the pipeline template.

    Runs the same validator the manifest loader runs — ``params`` are the
    experiment's parameter names, which the block may not shadow — so direct
    calls and manifests reject bad engine blocks with identical wording.  A
    declared ``session_length`` is left in for :func:`prepare_workload` to
    compare against the generated dataset's.
    """
    overrides = validate_engine_block(
        engine_config or {},
        reserved=ENGINE_OWNED_FIELDS,
        backends=("hidden_state",),
        params=params,
        where="engine_config",
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
    # span is too short for a scenario's stage timers, or would let
    # session-end timers fire mid-serve — polluting the serve-phase metering
    # and splitting the update count across both timed phases — is rejected
    # up front with an actionable message.
    rng = np.random.default_rng(seed + 7)
    offsets_by_scenario: dict[str, np.ndarray] = {}
    for scenario in params["scenarios"]:
        entry = SCENARIOS[scenario]
        offsets = entry.arrivals(rng, params)
        span = int(offsets[-1] - offsets[0])
        if span < entry.min_span:
            raise ValueError(
                f"{scenario} needs an arrival span of at least {entry.min_span} simulated seconds "
                "to order its stage timers — raise n_requests or lower arrival_rate"
            )
        # Ramped (overload and autoscale) streams deliberately span several
        # session windows — timers must fire mid-serve, while the server is
        # backlogged, and those scenarios read their latency statistics from
        # the engine's metrics registry — so the mid-serve guard does not
        # apply to them.
        if entry.arrivals is not _ramped_arrivals and span >= window_closes_after:
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

"""Predictive autoscaling: an elastic replica fleet driven by scaling policies.

PR 5's :class:`~repro.serving.slo.ServerModel` made overload representable,
but its capacity is one constant per run — real serving fleets scale with
load.  This module generalises it into three pieces:

* :class:`ReplicaFleet` — N replicas behind the exact ``ServerModel``
  capacity arithmetic.  The fleet drains ``active × service_rate`` requests
  per simulated second; scaling is asynchronous (provisioned replicas join
  after ``provision_delay`` seconds, decommissioned ones keep costing until
  ``decommission_delay`` passes) and a replica-seconds meter integrates
  fleet size over the simulated clock — the cost axis of the cost-vs-SLO
  frontier.  A fleet of one replica is *bit-identical* to
  ``ServerModel(service_rate)`` in every observable (same float ops, pinned
  by ``tests/test_autoscale.py``), so it is a drop-in ``server=`` for the
  engine.
* :class:`ReactivePolicy` / :class:`PredictivePolicy` — pluggable sizing
  policies.  Reactive is target tracking on the windowed effective queue
  depth (the same signal admission control bounds); by construction it only
  moves *after* a backlog exists, so on a ramp it pays the provisioning
  delay in shed requests.  Predictive aggregates the engine's own GRU
  per-user activity predictions into a horizon load forecast — the paper's
  model, scored over every stored user's state at ``now`` and at
  ``now + horizon`` — and sizes the fleet for the forecast demand with
  headroom, scaling *ahead* of the provisioning delay.
* :class:`Autoscaler` — the control loop.  Evaluation ticks are
  barrier-exempt control-plane stream timers (the PR 6/8
  ``set_control_timer`` machinery): they fire alone at their exact time and
  never run the micro-batch flush barrier, so a scaling decision can never
  change micro-batch composition — an autoscaled run whose fleet never
  resizes is bit-identical to the ``ServerModel`` path.

Wired through ``EngineConfig.autoscale``, which this module owns:
:func:`check_block` / :func:`check_config` validate the block and
:func:`install_fleet` / :func:`install` build its parts; all ``autoscale.*``
instruments land in the shared :class:`~repro.serving.telemetry.MetricsRegistry`.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import replace
from typing import Any, Mapping

import numpy as np

from .checks import is_int
from .quantization import dequantize_state
from .telemetry import NULL_REGISTRY, MetricsRegistry
from .tracing import NULL_TRACER, Tracer

__all__ = [
    "ReplicaFleet",
    "ReactivePolicy",
    "PredictivePolicy",
    "Autoscaler",
    "AUTOSCALE_POLICIES",
]

AUTOSCALE_POLICIES = ("reactive", "predictive")

_REQUIRED = ("policy", "service_rate", "start", "until")
#: ``horizon`` is the one derived default: ``provision_delay + interval``.
_DEFAULTS = {
    "interval": 60,
    "initial_replicas": 1,
    "min_replicas": 1,
    "max_replicas": 8,
    "provision_delay": 60,
    "decommission_delay": 0,
    "target_queue_depth": 8.0,
    "depth_window": 2,
    "utilization": 0.8,
}
_FLOATS = ("service_rate", "target_queue_depth", "utilization")


# ----------------------------------------------------------------------
# The ten range rules, each written once in the config block's wording:
# the block check runs all of them, each constructor those over its own
# arguments.
# ----------------------------------------------------------------------
def _check_fleet(
    service_rate, initial_replicas, min_replicas, max_replicas, provision_delay, decommission_delay
) -> None:
    if not (math.isfinite(service_rate) and service_rate > 0):
        raise ValueError("autoscale.service_rate must be positive and finite")
    if min_replicas < 1:
        raise ValueError("autoscale.min_replicas must be at least 1")
    if not min_replicas <= initial_replicas <= max_replicas:
        raise ValueError(
            "autoscale replica bounds need min_replicas <= initial_replicas <= max_replicas"
        )
    if provision_delay < 0 or decommission_delay < 0:
        raise ValueError("autoscale provisioning delays must be non-negative")


def _check_schedule(start, until, interval) -> None:
    if until < start:
        raise ValueError("autoscale.until must not precede autoscale.start")
    if interval < 1:
        raise ValueError("autoscale.interval must be at least 1 simulated second")


def _check_reactive(target_queue_depth, depth_window) -> None:
    if not target_queue_depth > 0:
        raise ValueError("autoscale.target_queue_depth must be positive")
    if depth_window < 1:
        raise ValueError("autoscale.depth_window must be at least 1")


def _check_predictive(horizon, utilization) -> None:
    if horizon < 1:
        raise ValueError("autoscale.horizon must be at least 1 simulated second")
    if not 0.0 < utilization <= 1.0:
        raise ValueError("autoscale.utilization must be in (0, 1]")


# ----------------------------------------------------------------------
# The EngineConfig.autoscale block: checked, then installed by the engine.
# ----------------------------------------------------------------------
def check_block(name: str, value: Any) -> dict[str, Any]:
    """Policy, tick schedule, fleet shape and policy tuning; defaults are
    filled here so a canonical config round-trips through JSON intact."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping with policy/service_rate/start/until")
    block = dict(value)
    unknown = set(block) - {*_REQUIRED, *_DEFAULTS, "horizon"}
    if unknown:
        raise ValueError(f"unknown autoscale fields: {sorted(unknown)}")
    if block.get("policy") not in AUTOSCALE_POLICIES:
        raise ValueError(
            f"autoscale.policy must be one of {AUTOSCALE_POLICIES}, got {block.get('policy')!r}"
        )
    for required in _REQUIRED:
        if required not in block:
            raise ValueError(f"autoscale needs a {required} field")
    for key, default in _DEFAULTS.items():
        block.setdefault(key, default)
    for key, field in block.items():
        if key in _FLOATS:
            if not (is_int(field) or isinstance(field, float)) or not math.isfinite(field):
                raise ValueError(f"autoscale.{key} must be a finite number")
            block[key] = float(field)
        elif key != "policy" and not is_int(field):
            raise ValueError(f"autoscale.{key} must be an int")
    block.setdefault("horizon", block["provision_delay"] + block["interval"])
    _check_fleet(
        block["service_rate"], block["initial_replicas"], block["min_replicas"],
        block["max_replicas"], block["provision_delay"], block["decommission_delay"],
    )
    _check_schedule(block["start"], block["until"], block["interval"])
    _check_reactive(block["target_queue_depth"], block["depth_window"])
    _check_predictive(block["horizon"], block["utilization"])
    return block


def check_config(config) -> None:
    """The rules relating the ``autoscale`` block to the rest of the config."""
    if config.autoscale is None:
        return
    if config.autoscale["policy"] == "predictive" and config.backend != "hidden_state":
        raise ValueError(
            "the predictive policy aggregates the GRU's activity "
            "forecasts: it needs the hidden_state backend"
        )


def install_fleet(parts, block: dict[str, Any] | None):
    """The engine's server when ``block`` is set: an elastic fleet built here
    (a caller-supplied ``server=`` is refused).  Resolved before the backend,
    which meters against the server."""
    if block is None:
        return parts
    if parts.server is not None:
        raise ValueError("config.autoscale builds its own ReplicaFleet; do not also pass server=")
    fleet = ReplicaFleet(
        block["service_rate"], initial_replicas=block["initial_replicas"],
        min_replicas=block["min_replicas"], max_replicas=block["max_replicas"],
        provision_delay=block["provision_delay"], decommission_delay=block["decommission_delay"],
        registry=parts.registry,
    )
    return replace(parts, server=fleet)


def install(parts, block: dict[str, Any] | None):
    """The policy and its ticks, once the backend exists (the predictive
    policy scores through it).  The policy reads control-plane signals only
    (fleet backlog, the shared registry, unmetered GRU scoring of stored
    states) and the ticks are barrier-exempt control timers, so the loop is
    bit-invisible to served values until the fleet actually resizes."""
    if block is None:
        return parts
    if block["policy"] == "predictive":
        policy = PredictivePolicy(
            parts.backend, horizon=block["horizon"], utilization=block["utilization"],
            registry=parts.registry,
        )
    else:
        policy = ReactivePolicy(block["target_queue_depth"], depth_window=block["depth_window"])
    autoscaler = Autoscaler(
        parts.server, policy, parts.stream, start=block["start"], until=block["until"],
        interval=block["interval"], registry=parts.registry, tracer=parts.tracer,
    )
    return replace(parts, autoscaler=autoscaler)


class ReplicaFleet:
    """Deterministic N-replica capacity model on the simulated clock.

    Drop-in for :class:`~repro.serving.slo.ServerModel` (``process`` /
    ``backlog_seconds`` / ``queue_depth`` / ``peak_backlog_seconds``): the
    fleet behaves as one queue drained at ``active × service_rate`` requests
    per simulated second.  With one replica the arithmetic is bit-identical
    to ``ServerModel(service_rate)`` — ``1 * rate == rate`` exactly, so
    every float op matches.

    Scaling is asynchronous and deterministic.  :meth:`scale_to` moves the
    *target*; additions become active ``provision_delay`` seconds later,
    removals stop costing ``decommission_delay`` seconds later.  Reversing
    direction first cancels still-pending transitions (a not-yet-provisioned
    replica can be cancelled instantly; a draining one can be kept), so
    pending transitions always share one sign and the active count never
    leaves ``[min_replicas, max_replicas]``.  When capacity changes with a
    backlog outstanding, the remaining *work* is conserved:
    ``busy_until`` is re-expressed against the new drain rate.

    ``replica_seconds`` integrates the active replica count over simulated
    time — the cost meter of the cost-vs-SLO frontier.  Accounting starts at
    the first simulated timestamp the fleet observes (first ``process`` /
    backlog query / ``scale_to``), so directly constructed fleets are exact
    without a clock-origin convention; a decommissioned replica accrues cost
    until its removal takes effect.
    """

    def __init__(
        self,
        service_rate: float,
        *,
        initial_replicas: int = 1,
        min_replicas: int = 1,
        max_replicas: int | None = None,
        provision_delay: int = 0,
        decommission_delay: int = 0,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_replicas is None:
            max_replicas = max(initial_replicas, min_replicas)
        _check_fleet(
            service_rate, initial_replicas, min_replicas, max_replicas, provision_delay, decommission_delay
        )
        self.service_rate = float(service_rate)
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self.provision_delay = int(provision_delay)
        self.decommission_delay = int(decommission_delay)
        self._active = int(initial_replicas)
        self._target = int(initial_replicas)
        #: Pending ``(effective_at, delta)`` transitions, ascending by time.
        #: Invariant: all deltas share one sign (direction reversals cancel).
        self._transitions: list[tuple[float, int]] = []
        self.busy_until = 0.0
        self.requests_processed = 0
        self.busy_seconds = 0.0
        self.peak_backlog_seconds = 0.0
        self.replica_seconds = 0.0
        self.peak_replicas = int(initial_replicas)
        self.scale_up_events = 0
        self.scale_down_events = 0
        self._accounted_to: float | None = None
        self.metrics = registry if registry is not None else NULL_REGISTRY
        self._m_size = self.metrics.gauge("autoscale.fleet_size")
        self._m_target = self.metrics.gauge("autoscale.target_replicas")
        self._m_size.set(self._active)
        self._m_target.set(self._target)
        self.metrics.view("autoscale.scale_up_events", "counter", lambda: self.scale_up_events)
        self.metrics.view("autoscale.scale_down_events", "counter", lambda: self.scale_down_events)
        self.metrics.view("autoscale.replica_seconds", "counter", lambda: self.replica_seconds)

    # ------------------------------------------------------------------
    # Capacity model (ServerModel-compatible surface)
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> float:
        """Aggregate drain rate, requests per simulated second."""
        return self._active * self.service_rate

    @property
    def replicas(self) -> int:
        """Replicas active (and costing) as of the last settled timestamp."""
        return self._active

    @property
    def target_replicas(self) -> int:
        """Fleet size once every pending transition lands."""
        return self._target

    def process(self, n_requests: int, at: float) -> float:
        """Charge a batch arriving at simulated time ``at``; returns completion."""
        if n_requests < 0:
            raise ValueError("n_requests must be non-negative")
        at = float(at)
        self._settle(at)
        start = max(at, self.busy_until)
        service = n_requests / self.capacity
        self.busy_until = start + service
        self.requests_processed += n_requests
        self.busy_seconds += service
        backlog = self.busy_until - at
        if backlog > self.peak_backlog_seconds:
            self.peak_backlog_seconds = backlog
        return self.busy_until

    def backlog_seconds(self, at: float) -> float:
        at = float(at)
        self._settle(at)
        return max(self.busy_until - at, 0.0)

    def queue_depth(self, at: float) -> float:
        """Outstanding work at ``at``, expressed in requests."""
        return self.backlog_seconds(at) * self.capacity

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    def scale_to(self, target: int, at: float) -> int:
        """Move the fleet toward ``target`` replicas; returns the clamped target.

        Additions land at ``at + provision_delay``, removals at
        ``at + decommission_delay``.  Reversing direction cancels pending
        transitions first (newest first), so a flapping policy never pays a
        phantom delay for capacity it no longer wants.
        """
        at = float(at)
        self._settle(at)
        target = max(self.min_replicas, min(self.max_replicas, int(target)))
        delta = target - self._target
        if delta == 0:
            return target
        self._target = target
        if delta > 0:
            self.scale_up_events += 1
            delta = self._cancel_pending(-1, delta)
            if delta:
                self._schedule(at + self.provision_delay, delta)
        else:
            self.scale_down_events += 1
            delta = self._cancel_pending(+1, delta)
            if delta:
                self._schedule(at + self.decommission_delay, delta)
        self._m_target.set(self._target)
        return target

    def _cancel_pending(self, sign: int, delta: int) -> int:
        """Cancel pending transitions of ``sign`` against ``delta`` (opposite
        sign), newest first; returns whatever remains to schedule."""
        while delta and self._transitions and sign * self._transitions[-1][1] > 0:
            effective, pending = self._transitions.pop()
            cancelled = min(abs(pending), abs(delta))
            remainder = pending - sign * cancelled
            delta += sign * cancelled
            if remainder:
                self._transitions.append((effective, remainder))
        return delta

    def _schedule(self, effective_at: float, delta: int) -> None:
        bisect.insort(self._transitions, (effective_at, delta))

    def _settle(self, at: float) -> None:
        """Apply transitions due by ``at`` and accrue replica-seconds."""
        if self._accounted_to is None:
            self._accounted_to = at
        while self._transitions and self._transitions[0][0] <= at:
            effective, delta = self._transitions.pop(0)
            self._accrue(effective)
            if self.busy_until > effective:
                # Conserve the outstanding work across the capacity change.
                remaining = (self.busy_until - effective) * self.capacity
                self._active += delta
                self.busy_until = effective + remaining / self.capacity
            else:
                self._active += delta
            if self._active > self.peak_replicas:
                self.peak_replicas = self._active
            self._m_size.set(self._active)
        self._accrue(at)

    def _accrue(self, to: float) -> None:
        if to > self._accounted_to:
            self.replica_seconds += self._active * (to - self._accounted_to)
            self._accounted_to = to


class ReactivePolicy:
    """Target tracking on the windowed effective queue depth.

    Each evaluation observes the fleet's effective depth (backlog expressed
    in requests — the same signal :class:`~repro.serving.slo.SloPolicy`
    bounds) and sizes the fleet to hold ``target_queue_depth`` requests per
    replica-target unit: ``ceil(mean_depth / target_queue_depth)``, with the
    mean taken over the last ``depth_window`` ticks so one spiky sample does
    not flap the fleet.  Purely reactive by construction: depth only rises
    *after* demand has outrun capacity, so on a ramp this policy scales with
    a detection lag on top of the provisioning delay — the shed requests in
    that gap are exactly what :class:`PredictivePolicy` buys back.
    """

    def __init__(self, target_queue_depth: float = 8.0, *, depth_window: int = 2) -> None:
        _check_reactive(target_queue_depth, depth_window)
        self.target_queue_depth = float(target_queue_depth)
        self.depth_window = int(depth_window)
        self._samples: deque[float] = deque(maxlen=depth_window)

    def desired_replicas(self, at: float, fleet: ReplicaFleet) -> int:
        self._samples.append(fleet.queue_depth(at))
        depth = sum(self._samples) / len(self._samples)
        return max(1, math.ceil(depth / self.target_queue_depth))


class PredictivePolicy:
    """Horizon load forecast aggregated from the engine's own GRU.

    The paper's model already predicts per-user activity; this policy
    aggregates it into fleet sizing.  Each evaluation:

    1. Measures the *observed* arrival rate since the previous tick from the
       shared registry (``slo.requests_offered``, falling back to
       ``queue.requests_submitted`` when no admission controller meters
       offers).
    2. Scores every stored user's hidden state twice through the backend's
       network — gap-to-``now`` and gap-to-``now + horizon`` — and sums the
       activity probabilities into aggregate loads ``A(now)`` and
       ``A(now + horizon)``.  Reads go through the store's unmetered
       ``peek`` (control-plane traffic must not pollute the client ``kv.*``
       meters), and scoring happens outside any micro-batch, so the forecast
       is bit-invisible to served predictions.
    3. Forecasts the horizon demand as
       ``rate × A(now + horizon) / A(now)`` — the GRU supplies the *shape*
       of the load trajectory, the measured rate its scale — and sizes the
       fleet for it at ``utilization`` headroom, plus enough capacity to
       clear the current backlog within one horizon:
       ``ceil((forecast + depth / horizon) / (service_rate × utilization))``.

    Because the signal is the demand rate itself (not the backlog the
    reactive policy waits for), the fleet is provisioned *ahead* of the
    ramp: capacity is requested while the queue is still healthy, one
    provisioning delay before it is needed.
    """

    def __init__(
        self,
        backend,
        *,
        horizon: int,
        utilization: float = 0.8,
        registry: MetricsRegistry | None = None,
    ) -> None:
        _check_predictive(horizon, utilization)
        self.backend = backend
        self.horizon = int(horizon)
        self.utilization = float(utilization)
        self.metrics = registry if registry is not None else NULL_REGISTRY
        self._m_forecast = self.metrics.gauge("autoscale.forecast_load")
        self._last_tick: tuple[float, int] | None = None
        self.last_forecast_rate = 0.0

    # ------------------------------------------------------------------
    def _offered_so_far(self) -> int:
        """Requests offered to the pipeline so far, per the registry."""
        for name in ("slo.requests_offered", "queue.requests_submitted"):
            instrument = self.metrics.get(name)
            if instrument is not None and instrument.value:
                return int(instrument.value)
        return 0

    def _aggregate_activity(self, at: float) -> tuple[float, float]:
        """``(A(at), A(at + horizon))``: summed GRU activity probabilities
        over every stored user, with gaps measured to each reference time.

        Each tick stacks every stored state into one ``[stored users, ·]``
        forecast, so its transient memory grows with the user population
        (the session-end lane, by contrast, steps in blocks of
        :data:`~repro.serving.batching.UPDATE_BLOCK_ROWS`).  It is left
        unblocked on purpose: the forecast scores through the BLAS
        ``linear`` of the predict path, whose last-ulp bits depend on the
        matrix shape, so blocking it would move the summed probabilities
        and the replica decisions taken from them.
        """
        backend = self.backend
        store = backend.store
        network = backend.network
        prefix = backend.STATE_PREFIX
        keys = sorted(key for key in store.keys() if key.startswith(prefix))
        if not keys:
            return 0.0, 0.0
        states = np.empty((len(keys), network.state_size))
        timestamps = np.empty(len(keys))
        for row, key in enumerate(keys):
            record = store.peek(key)
            stored = record["state"]
            if backend.quantize:
                stored = dequantize_state(stored, record["scale"])
            states[row] = stored
            timestamps[row] = record["timestamp"]
        # No per-user "current context" exists at forecast time, so score
        # with a schema-complete neutral row (all fields zero).  Any fixed
        # choice cancels out: the forecast only uses the ratio of the two
        # aggregates, and both are scored with the same rows.
        neutral = [
            {field.name: 0.0 for field in backend.builder.schema} for _ in keys
        ]
        totals = []
        for reference in (at, at + self.horizon):
            inputs = backend.predict_inputs(
                neutral,
                np.full(len(keys), int(reference), dtype=np.int64),
                np.maximum(reference - timestamps, 0.0),
            )
            totals.append(float(network.predict_proba_batch(states, inputs).sum()))
        return totals[0], totals[1]

    def desired_replicas(self, at: float, fleet: ReplicaFleet) -> int:
        offered = self._offered_so_far()
        rate = 0.0
        if self._last_tick is not None:
            last_at, last_offered = self._last_tick
            elapsed = at - last_at
            if elapsed > 0:
                rate = max(offered - last_offered, 0) / elapsed
        self._last_tick = (at, offered)
        now_load, horizon_load = self._aggregate_activity(at)
        forecast = rate * (horizon_load / now_load) if now_load > 0 else rate
        self.last_forecast_rate = forecast
        self._m_forecast.set(forecast)
        required = forecast + fleet.queue_depth(at) / self.horizon
        return max(1, math.ceil(required / (fleet.service_rate * self.utilization)))


class Autoscaler:
    """The control loop: policy evaluations on barrier-exempt stream timers.

    Construction installs one control-plane timer per tick of the schedule
    (``start``, ``start + interval``, … up to ``until``) — the same
    bounded, precomputed idiom as ``EngineConfig.failure_schedule`` and the
    rollout stage schedule, so an end-of-replay ``stream.flush()`` fires a
    finite set of leftover ticks instead of re-arming forever.  Each tick
    asks the policy for a desired size and moves the fleet toward it, with
    one asymmetry: scale-up is unbounded (an emergency is an emergency),
    scale-down steps at most one replica per tick (graceful drain), applied
    identically to every policy so the frontier compares signals, not drain
    schedules.

    Ticks fire alone at their exact fire time and never run the micro-batch
    flush barrier — scaling can never change batch composition, so an
    autoscaled engine whose fleet never resizes is bit-identical to the
    ``ServerModel`` path (pinned by ``tests/test_autoscale.py``).
    """

    def __init__(
        self,
        fleet: ReplicaFleet,
        policy,
        stream,
        *,
        start: int,
        until: int,
        interval: int,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        _check_schedule(start, until, interval)
        self.fleet = fleet
        self.policy = policy
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.evaluations = 0
        #: ``(at, desired, target)`` per tick — ``desired`` is the policy's
        #: raw ask, ``target`` what the fleet accepted after clamping and
        #: the one-step scale-down limit.
        self.history: list[tuple[int, int, int]] = []
        self.metrics = registry if registry is not None else NULL_REGISTRY
        self.metrics.view("autoscale.evaluations", "counter", lambda: self.evaluations)
        for fire_at in range(int(start), int(until) + 1, int(interval)):
            stream.set_control_timer(
                fire_at,
                f"autoscale:{fire_at}",
                lambda key, events, _at=fire_at: self.evaluate(_at),
            )

    def evaluate(self, at: int) -> int:
        """One tick: ask the policy, move the fleet; returns the new target."""
        desired = self.policy.desired_replicas(float(at), self.fleet)
        floored = max(desired, self.fleet.target_replicas - 1)
        target = self.fleet.scale_to(floored, float(at))
        self.evaluations += 1
        self.history.append((int(at), int(desired), target))
        if self.tracer.enabled:
            self.tracer.control_event(
                "autoscale.tick", at, desired=int(desired), target=int(target),
                replicas=self.fleet.replicas,
            )
        return target

    @property
    def first_scale_up_at(self) -> int | None:
        """Simulated time of the first tick that raised the target (None if never)."""
        previous: int | None = None
        for at, _desired, target in self.history:
            if previous is not None and target > previous:
                return at
            previous = target
        return None

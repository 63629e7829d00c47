"""SLO policies, simulated serving capacity, and admission control.

The load generators in :mod:`repro.experiments.production` can offer the
engine arbitrarily heavy traffic, but nothing in the stack modelled what
happens when offered load exceeds capacity — every request was scored the
instant it was submitted, so "overload" was unrepresentable.  This module
adds the three missing pieces:

* :class:`ServerModel` — simulated service capacity.  Scoring ``B``
  requests occupies the server for ``B / service_rate`` simulated seconds;
  when arrivals outpace the drain, ``busy_until`` runs ahead of the clock
  and the backlog is the queueing delay every later request (and every
  session-end update delivered while the server is behind) experiences.
  Like everything else on the simulated clock it is deterministic: the same
  arrival stream produces the same backlog trajectory bit for bit.
* :class:`SloPolicy` — the declarative objective: a bound on the effective
  queue depth (pending micro-batch requests plus requests outstanding in
  the server backlog) and/or a target p99 end-to-end update latency
  (``serving.update_latency_seconds`` — wave wait plus server backlog at
  delivery).
* :class:`AdmissionController` — enforcement at the queue's front door.
  When the policy is violated the controller **sheds** (rejects) or
  **defers** (parks for re-admission once pressure clears) new requests,
  metering offered/shed/deferred counts into the registry.

Admission is deliberately one-sided: a controller never touches requests
already admitted and never alters scoring, so a controller whose policy has
no bounds is bit-invisible — the ``overload`` scenario with shedding
disabled reproduces the uncontrolled replay exactly (pinned by
``tests/test_slo.py``).  :func:`install` wires a controller into a pipeline
built by ``ServingEngine.build(slo_policy=..., admission_mode=...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .telemetry import LATENCY_BUCKETS_SECONDS, NULL_REGISTRY, MetricsRegistry
from .tracing import NULL_TRACER, Tracer

__all__ = ["SloPolicy", "ServerModel", "AdmissionController", "ADMISSION_MODES"]

ADMISSION_MODES = ("shed", "defer")


@dataclass(frozen=True)
class SloPolicy:
    """Declarative serving objective the admission controller enforces.

    ``max_queue_depth`` bounds the *effective* depth — micro-batch-pending
    requests plus the server backlog expressed in requests — so it is
    meaningful whether or not a :class:`ServerModel` is attached.
    ``max_p99_update_delay`` targets the p99 of the end-to-end update
    latency histogram (simulated seconds from a session window's close to
    its update actually applying, server backlog included), evaluated over
    a sliding window of the last ``p99_window`` observations — so the
    controller *recovers*: once enough post-spike updates land inside the
    target, the window p99 drops back under the bound and admission
    reopens.  Both bounds ``None`` means the policy never triggers:
    attaching it is a no-op by contract.
    """

    max_queue_depth: int | None = None
    max_p99_update_delay: float | None = None
    p99_window: int = 256

    def __post_init__(self) -> None:
        # NaN compares False against everything, so an unchecked NaN bound
        # would silently never trip.
        if self.max_queue_depth is not None and not (
            math.isfinite(self.max_queue_depth) and self.max_queue_depth > 0
        ):
            raise ValueError("max_queue_depth must be positive and finite (or None to disable)")
        if self.max_p99_update_delay is not None and not (
            math.isfinite(self.max_p99_update_delay) and self.max_p99_update_delay >= 0
        ):
            raise ValueError(
                "max_p99_update_delay must be non-negative and finite (or None to disable)"
            )
        if self.p99_window <= 0:
            raise ValueError("p99_window must be positive")

    @property
    def enabled(self) -> bool:
        return self.max_queue_depth is not None or self.max_p99_update_delay is not None


class ServerModel:
    """Deterministic single-server capacity model on the simulated clock.

    ``process(n, at)`` charges ``n`` requests at ``n / service_rate``
    simulated seconds, starting when the server frees up
    (``max(at, busy_until)``), and returns the completion time — the
    queue meters each request's end-to-end latency against it.
    ``backlog_seconds(at)`` is how far the server is behind the clock;
    ``queue_depth(at)`` expresses the same backlog in requests, which is
    what :class:`SloPolicy.max_queue_depth` bounds.
    """

    def __init__(self, service_rate: float) -> None:
        if not (math.isfinite(service_rate) and service_rate > 0):
            raise ValueError(
                "service_rate must be positive and finite (requests per simulated second)"
            )
        self.service_rate = float(service_rate)
        self.busy_until = 0.0
        self.requests_processed = 0
        self.busy_seconds = 0.0
        self.peak_backlog_seconds = 0.0

    def process(self, n_requests: int, at: float) -> float:
        """Charge a batch arriving at simulated time ``at``; returns completion."""
        if n_requests < 0:
            raise ValueError("n_requests must be non-negative")
        start = max(float(at), self.busy_until)
        service = n_requests / self.service_rate
        self.busy_until = start + service
        self.requests_processed += n_requests
        self.busy_seconds += service
        backlog = self.busy_until - float(at)
        if backlog > self.peak_backlog_seconds:
            self.peak_backlog_seconds = backlog
        return self.busy_until

    def backlog_seconds(self, at: float) -> float:
        return max(self.busy_until - float(at), 0.0)

    def queue_depth(self, at: float) -> float:
        """Outstanding work at ``at``, expressed in requests."""
        return self.backlog_seconds(at) * self.service_rate


class AdmissionController:
    """Policy enforcement at the micro-batch queue's front door.

    The queue consults :meth:`admit` once per offered request *after* the
    due-timer barrier ran (the clock must advance whether or not the request
    is admitted) and *before* enqueueing.  On a violation, mode ``"shed"``
    rejects the request outright; mode ``"defer"`` tells the queue to park
    it — the queue re-offers parked requests through :meth:`admit` whenever
    its clock advances, so deferred load drains in arrival order as soon as
    the policy clears.

    The p99 check reads the ``serving.update_latency_seconds`` histogram
    from the shared registry (the one the backend's session delivery writes
    into), falling back to ``serving.update_delay_seconds`` when no server
    model populated it (without a backlog the two carry identical values);
    with no registry there is nothing to read and the p99 bound never
    triggers — depth bounds still work, since depth is queue state.
    """

    def __init__(
        self,
        policy: SloPolicy,
        *,
        registry: MetricsRegistry | None = None,
        mode: str = "shed",
        tracer: Tracer | None = None,
    ) -> None:
        if mode not in ADMISSION_MODES:
            raise ValueError(f"unknown admission mode {mode!r}; expected one of {ADMISSION_MODES}")
        self.policy = policy
        self.mode = mode
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._last_violated = False
        self.metrics = registry if registry is not None else NULL_REGISTRY
        self._latency = self.metrics.histogram("serving.update_latency_seconds", LATENCY_BUCKETS_SECONDS)
        self._delay = self.metrics.histogram("serving.update_delay_seconds", LATENCY_BUCKETS_SECONDS)
        if policy.max_p99_update_delay is not None:
            # Sliding-window p99 (enabled post-hoc: the histograms already
            # exist — the backend creates them before the controller).
            self._latency.enable_window(policy.p99_window)
            self._delay.enable_window(policy.p99_window)
        self._m_violation = self.metrics.gauge("slo.in_violation")
        self.requests_offered = 0
        self.requests_shed = 0
        self.requests_deferred = 0
        self.metrics.view("slo.requests_offered", "counter", lambda: self.requests_offered)
        self.metrics.view("slo.requests_shed", "counter", lambda: self.requests_shed)
        self.metrics.view("slo.requests_deferred", "counter", lambda: self.requests_deferred)

    # ------------------------------------------------------------------
    def violations(self, timestamp: float, queue) -> list[str]:
        """Which policy bounds the pipeline currently violates (empty = healthy)."""
        reasons: list[str] = []
        if self.policy.max_queue_depth is not None:
            depth = queue.pending
            server = getattr(queue, "server", None)
            if server is not None:
                depth += server.queue_depth(timestamp)
            if depth >= self.policy.max_queue_depth:
                reasons.append(f"queue depth {depth:.1f} >= bound {self.policy.max_queue_depth}")
        if self.policy.max_p99_update_delay is not None:
            histogram = self._latency if self._latency.count else self._delay
            p99 = histogram.window_quantile(0.99)
            if p99 > self.policy.max_p99_update_delay:
                reasons.append(f"p99 update latency {p99:g}s > target {self.policy.max_p99_update_delay:g}s")
        return reasons

    def _healthy(self, timestamp: float, queue) -> bool:
        violated = bool(self.violations(timestamp, queue))
        self._m_violation.set(1 if violated else 0)
        if self.tracer.enabled and violated is not self._last_violated:
            # Health *transitions* only — per-decision instants would swamp
            # the control lane under sustained overload; the queue records
            # the individual shed/defer outcomes itself.
            self._last_violated = violated
            self.tracer.admission_event(
                "unhealthy" if violated else "healthy", timestamp, mode=self.mode
            )
        return not violated

    def admit(self, timestamp: float, queue) -> bool:
        """One newly offered request: meter the offer and decide.  On
        ``False`` the queue may retry once after a pressure flush
        (:meth:`readmit`) and must then either shed the request
        (:meth:`record_shed`) or park it (:meth:`record_deferred`)."""
        self.requests_offered += 1
        return self._healthy(timestamp, queue)

    def readmit(self, timestamp: float, queue) -> bool:
        """Re-evaluate an already-offered request (after a pressure flush,
        or a parked one on a clock advance).  Not metered as a new offer."""
        return self._healthy(timestamp, queue)

    def record_shed(self) -> None:
        self.requests_shed += 1

    def record_deferred(self) -> None:
        self.requests_deferred += 1

    @property
    def shed_rate(self) -> float:
        """Fraction of offered requests shed (0.0 when nothing was offered)."""
        if not self.requests_offered:
            return 0.0
        return self.requests_shed / self.requests_offered


def install(parts, policy: SloPolicy | None, mode: str):
    """An :class:`AdmissionController` over ``policy`` in ``mode`` when a
    policy is given — after the backend, whose latency histograms it reads."""
    if policy is None:
        return parts
    admission = AdmissionController(policy, registry=parts.registry, mode=mode, tracer=parts.tracer)
    return replace(parts, admission=admission)

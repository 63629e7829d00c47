"""SLO subsystem tests: capacity model, policy, admission control, overload.

The load-bearing claims:

* **No-op contract** — an attached admission controller whose policy has no
  bounds is bit-invisible next to an unguarded pipeline; the twin matrix
  (``tests/test_serving_twins.py``) pins it.
* **Overload is observable and controllable** — driving the engine past a
  :class:`~repro.serving.slo.ServerModel`'s capacity inflates the p99
  end-to-end update latency; a queue-depth-bounded shedding controller
  keeps it strictly lower, at a metered shed rate.
* **Defer mode** — parked requests re-enter in arrival order once pressure
  clears; nothing is lost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    AdmissionController,
    EngineConfig,
    MetricsRegistry,
    MicroBatchQueue,
    ReplicaFleet,
    ServerModel,
    SloPolicy,
)
from serving_harness import build_engine, ramped_events


class TestSloPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SloPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            SloPolicy(max_p99_update_delay=-1.0)
        assert not SloPolicy().enabled
        assert SloPolicy(max_queue_depth=4).enabled
        assert SloPolicy(max_p99_update_delay=30.0).enabled

    def test_admission_mode_validated(self):
        with pytest.raises(ValueError):
            AdmissionController(SloPolicy(), mode="drop")


class TestServerModel:
    def test_backlog_accumulates_past_capacity(self):
        server = ServerModel(service_rate=2.0)
        assert server.process(4, at=0.0) == 2.0  # 4 requests at 2/s
        # Arriving before the server frees up queues behind it.
        assert server.process(4, at=1.0) == 4.0
        assert server.backlog_seconds(1.0) == 3.0
        assert server.queue_depth(1.0) == 6.0
        # An idle gap resets the start, not the meters.
        assert server.process(2, at=100.0) == 101.0
        assert server.backlog_seconds(200.0) == 0.0
        assert server.requests_processed == 10
        assert server.peak_backlog_seconds == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ServerModel(service_rate=0.0)
        with pytest.raises(ValueError):
            ServerModel(2.0).process(-1, at=0.0)


class _EchoBackend:
    def predict_batch(self, requests):
        return [(request.user_id, request.timestamp) for request in requests]


class TestAdmissionAtTheQueue:
    def _queue(self, *, bound, mode="shed", batch=4, server=None, registry=None):
        registry = registry or MetricsRegistry()
        admission = AdmissionController(
            SloPolicy(max_queue_depth=bound), registry=registry, mode=mode
        )
        queue = MicroBatchQueue(
            _EchoBackend(), max_batch_size=batch, registry=registry, server=server, admission=admission
        )
        return queue, admission

    def test_depth_bound_sheds_and_meters(self):
        server = ServerModel(service_rate=1.0)
        queue, admission = self._queue(bound=2, batch=8, server=server)
        collected = []
        # Two admitted; the third trips the bound.  The pressure flush
        # scores the partial batch (freeing the micro-batch), but the
        # resulting server backlog (2 requests) still violates the bound.
        for step in range(4):
            collected += queue.submit(step, None, 0)
        assert admission.requests_offered == 4
        assert admission.requests_shed == 2
        assert admission.shed_rate == 0.5
        assert queue.pending == 0  # pressure-flushed
        collected += queue.flush() + queue.drain_completed()
        assert [user for user, _ in collected] == [0, 1]
        registry = admission.metrics
        assert registry.counter("slo.requests_shed").value == 2
        assert registry.counter("slo.requests_offered").value == 4
        assert registry.gauge("slo.in_violation").value == 1

    def test_pressure_flush_clears_pending_dominated_violations(self):
        # No server: depth is purely micro-batch pending, so flushing the
        # partial batch always clears the violation and nothing is shed.
        queue, admission = self._queue(bound=3, batch=64)
        collected = []
        for step in range(20):
            collected += queue.submit(step, None, step)
        collected += queue.flush() + queue.drain_completed()
        assert admission.requests_shed == 0
        assert [user for user, _ in collected] == list(range(20))

    def test_defer_parks_and_readmits_in_arrival_order(self):
        server = ServerModel(service_rate=1.0)
        queue, admission = self._queue(bound=2, batch=8, server=server, mode="defer")
        collected = []
        for step in range(5):
            collected += queue.submit(step, None, 0)
        assert admission.requests_deferred == 3 and queue.deferred == 3
        # Nothing re-enters while the backlog holds the depth at the bound…
        collected += queue.advance_to(0)
        assert queue.deferred == 3
        # …but once the server drains, clock advances re-admit in arrival
        # order — stopping again the moment the re-filled queue hits the
        # bound, so the drain takes flush/advance cycles, not one gulp.
        collected += queue.advance_to(1000)
        assert queue.deferred == 1 and queue.pending == 2
        collected += queue.flush()
        collected += queue.advance_to(2000)
        collected += queue.flush() + queue.drain_completed()
        assert queue.deferred == 0
        assert sorted(user for user, _ in collected) == [0, 1, 2, 3, 4]
        assert admission.requests_shed == 0

    def test_record_deferred_counts_each_park_exactly_once(self):
        """The deferral meter counts *parks*, not re-admission attempts:
        failed readmits while pressure holds must not re-count a parked
        request, and a successful readmit is unmetered by design."""
        server = ServerModel(service_rate=1.0)
        queue, admission = self._queue(bound=2, batch=8, server=server, mode="defer")
        collected = []
        for step in range(5):
            collected += queue.submit(step, None, 0)
        assert admission.requests_deferred == 3 and queue.deferred == 3
        # Hammer re-admission while the backlog still violates the bound:
        # every attempt fails, and none of them touches the meter.
        for _ in range(5):
            collected += queue.advance_to(0)
        assert queue.deferred == 3
        assert admission.requests_deferred == 3
        assert admission.metrics.counter("slo.requests_deferred").value == 3
        # Healthy again: the parked requests re-enter (and serve), still
        # without another tick of the meter — one park, one count, forever.
        collected += queue.advance_to(1000)
        collected += queue.flush()
        collected += queue.advance_to(2000)
        collected += queue.flush() + queue.drain_completed()
        assert queue.deferred == 0
        assert admission.requests_deferred == 3
        assert admission.requests_offered == 5  # readmits are not re-offers
        assert admission.requests_shed == 0
        assert sorted(user for user, _ in collected) == [0, 1, 2, 3, 4]

    def test_drain_deferred_serves_parked_requests_exactly_once(self):
        """The end-of-replay force-drain: every parked request is served
        exactly once and the monotone deferral meter keeps its count."""
        server = ServerModel(service_rate=1.0)
        queue, admission = self._queue(bound=2, batch=8, server=server, mode="defer")
        collected = []
        for step in range(6):
            collected += queue.submit(step, None, 0)
        assert queue.deferred == 4
        collected += queue.drain_deferred() + queue.drain_completed()
        assert queue.deferred == 0
        assert admission.requests_deferred == 4
        assert sorted(user for user, _ in collected) == [0, 1, 2, 3, 4, 5]
        assert queue.drain_deferred() == []  # no-op when nothing is parked

    def test_new_submits_never_overtake_parked_requests(self):
        """Regression: a newly offered request used to be admitted directly
        while older deferred requests sat parked (re-admission only ran on
        ``advance_to``), so a newer prediction could score against earlier
        store state than an older one.  ``submit`` now re-enters parked
        requests first, and parks the newcomer behind any that remain."""
        server = ServerModel(service_rate=1.0)
        queue, admission = self._queue(bound=2, batch=8, server=server, mode="defer")
        collected = []
        for step in range(3):
            collected += queue.submit(step, None, 0)
        assert queue.deferred == 1  # request 2 parked under the bound
        # Long after the backlog drained, a brand-new request arrives with
        # no intervening advance_to: the parked one must still go first.
        collected += queue.submit(3, None, 500)
        collected += queue.flush() + queue.drain_completed()
        assert [user for user, _ in collected] == [0, 1, 2, 3]
        assert queue.deferred == 0 and admission.requests_shed == 0

    def test_drain_deferred_force_admits_everything(self):
        server = ServerModel(service_rate=0.01)
        queue, admission = self._queue(bound=1, batch=4, server=server, mode="defer")
        for step in range(6):
            queue.submit(step, None, 0)
        assert queue.deferred > 0
        collected = queue.drain_deferred() + queue.drain_completed()
        assert queue.deferred == 0
        assert len(collected) + 1 == 6  # all but the one admitted up front
        assert admission.requests_shed == 0

    def test_predict_raises_when_rejected(self):
        server = ServerModel(service_rate=0.001)
        queue, _ = self._queue(bound=1, batch=4, server=server)
        queue.submit(0, None, 0)
        with pytest.raises(RuntimeError, match="admission"):
            queue.predict(1, None, 0)

    def test_rejected_defer_mode_predict_leaves_nothing_parked(self):
        """Regression: a defer-mode predict() rejection used to raise while
        leaving the request parked, so it later re-admitted and delivered an
        orphan prediction nobody submitted."""
        server = ServerModel(service_rate=0.001)
        queue, admission = self._queue(bound=1, batch=4, server=server, mode="defer")
        queue.submit(0, None, 0)
        with pytest.raises(RuntimeError, match="admission"):
            queue.predict(1, None, 0)
        assert queue.deferred == 0
        collected = queue.advance_to(10_000_000) + queue.flush() + queue.drain_completed()
        assert [user for user, _ in collected] == [0]  # no orphan from the predict
        assert admission.requests_deferred == 1  # the attempt stays metered

    def test_p99_latency_policy_reads_the_registry(self):
        registry = MetricsRegistry()
        admission = AdmissionController(
            SloPolicy(max_p99_update_delay=30.0), registry=registry, mode="shed"
        )
        queue = MicroBatchQueue(_EchoBackend(), max_batch_size=4, registry=registry, admission=admission)
        assert queue.submit(0, None, 0) == []
        assert admission.requests_shed == 0
        # Inflate the end-to-end update latency past the target…
        latency = registry.histogram("serving.update_latency_seconds")
        for _ in range(100):
            latency.observe(120.0)
        queue.submit(1, None, 1)
        assert admission.requests_shed == 1
        assert "p99 update latency" in admission.violations(1, queue)[0]

    def test_windowed_p99_recovers_after_quiet_traffic(self):
        """Regression: the p99 policy used to read the lifetime histogram,
        so one overload spike latched the controller into shedding forever.
        The windowed default forgets the spike once quiet traffic refills
        the window."""
        registry = MetricsRegistry()
        admission = AdmissionController(
            SloPolicy(max_p99_update_delay=30.0, p99_window=64), registry=registry, mode="shed"
        )
        queue = MicroBatchQueue(
            _EchoBackend(), max_batch_size=4, registry=registry, admission=admission
        )
        latency = registry.histogram("serving.update_latency_seconds")
        for _ in range(64):
            latency.observe(120.0)
        queue.submit(0, None, 0)
        assert admission.requests_shed == 1  # the spike is visible…
        for _ in range(64):
            latency.observe(1.0)
        queue.submit(1, None, 1)
        assert admission.requests_shed == 1  # …and forgotten once it drains.
        assert admission.violations(2, queue) == []

    def test_p99_window_validated(self):
        with pytest.raises(ValueError):
            SloPolicy(p99_window=0)


def _autoscale_config(**fields):
    block = {"policy": "reactive", "service_rate": 1.0, "start": 0, "until": 60, **fields}
    return EngineConfig(backend="hidden_state", session_length=600, autoscale=block)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize(
    "build",
    [
        lambda value: SloPolicy(max_queue_depth=value),
        lambda value: SloPolicy(max_p99_update_delay=value),
        ServerModel,
        ReplicaFleet,
        lambda value: _autoscale_config(service_rate=value),
        lambda value: _autoscale_config(target_queue_depth=value),
        lambda value: _autoscale_config(utilization=value),
    ],
    ids=[
        "SloPolicy.max_queue_depth",
        "SloPolicy.max_p99_update_delay",
        "ServerModel",
        "ReplicaFleet",
        "autoscale.service_rate",
        "autoscale.target_queue_depth",
        "autoscale.utilization",
    ],
)
def test_non_finite_numbers_are_rejected(build, value):
    """NaN compares False against every bound, so an unchecked NaN would
    construct and silently disable the feature it configures."""
    with pytest.raises(ValueError, match="finite"):
        build(value)


# ----------------------------------------------------------------------
# Engine-level overload: the acceptance criteria, pinned without training.
# (That an empty policy is bit-invisible is pinned by the twin matrix,
# tests/test_serving_twins.py.)
# ----------------------------------------------------------------------
def overload_replay(parts, events, *, bound, mode="shed", service_rate=0.15):
    engine = build_engine(
        parts,
        max_batch_size=16,
        server=ServerModel(service_rate),
        slo_policy=SloPolicy(max_queue_depth=bound),
        admission_mode=mode,
    )
    # engine.replay must compose with admission control: shed requests are
    # excluded from the expected delivery count, deferred ones force-drain
    # (regression: the replay idiom used to hard-crash on any shed).
    served = engine.replay(events)
    engine.close()
    return served, engine


class TestOverloadAcceptance:
    def test_shedding_keeps_p99_update_latency_strictly_lower(self, serving_parts):
        events = ramped_events(np.random.default_rng(43))
        open_served, open_engine = overload_replay(serving_parts, events, bound=None)
        slo_served, slo_engine = overload_replay(serving_parts, events, bound=16)
        open_p99 = open_engine.metrics.get("serving.update_latency_seconds").quantile(0.99)
        slo_p99 = slo_engine.metrics.get("serving.update_latency_seconds").quantile(0.99)
        # Overload is visible: a real backlog built up in the open run…
        assert open_engine.server.peak_backlog_seconds > 100.0
        assert open_p99 > slo_p99  # …and shedding strictly contains it.
        assert slo_engine.admission.requests_shed > 0
        assert len(slo_served) == len(events) - slo_engine.admission.requests_shed
        assert len(open_served) == len(events)
        # Every session still updated state, admitted or not.
        assert open_engine.updates_applied == slo_engine.updates_applied == len(events)

    def test_defer_mode_eventually_serves_everything(self, serving_parts):
        events = ramped_events(np.random.default_rng(44), n_events=150)
        served, engine = overload_replay(serving_parts, events, bound=16, mode="defer")
        assert engine.admission.requests_shed == 0
        assert engine.admission.requests_deferred > 0
        assert len(served) == len(events)
        assert engine.queue.deferred == 0

"""Autoscaling subsystem tests: fleet dynamics, policies, engine bit-identity.

The load-bearing claims:

* **Bit-identity** — a one-replica :class:`~repro.serving.autoscale.ReplicaFleet`
  is indistinguishable from :class:`~repro.serving.slo.ServerModel` in every
  float observable.  At engine level, a fleet pinned to one replica whose
  autoscaler ticks fire, and a fleet passed as ``server=``, reproduce the
  ``ServerModel`` path exactly; the twin matrix
  (``tests/test_serving_twins.py``) pins both.
* **Fleet dynamics are deterministic** — provisioning delays are honored to
  the simulated second, the replica-seconds cost meter is exact (including
  mid-backlog transitions), direction reversals cancel pending transitions
  instead of paying phantom delays, and outstanding work is conserved across
  capacity changes.
* **Forecasting pays** — over the same ramp, the predictive policy scales
  *before* the backlog the reactive policy waits for, and sheds less.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.experiments.serving_scenarios import _zipf_user_popularity
from repro.serving import (
    Autoscaler,
    EngineConfig,
    MetricsRegistry,
    ReactivePolicy,
    ReplicaFleet,
    ServerModel,
    ServingEngine,
    SessionUpdate,
    ShardedKeyValueStore,
    SloPolicy,
)
from serving_harness import build_engine, ramped_events


class TestReplicaFleetModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReplicaFleet(0.0)
        with pytest.raises(ValueError):
            ReplicaFleet(1.0, min_replicas=0)
        with pytest.raises(ValueError):
            ReplicaFleet(1.0, min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            ReplicaFleet(1.0, initial_replicas=5, max_replicas=4)
        with pytest.raises(ValueError):
            ReplicaFleet(1.0, provision_delay=-1)
        with pytest.raises(ValueError):
            ReplicaFleet(1.0).process(-1, at=0.0)

    def test_one_replica_is_bit_identical_to_server_model(self):
        """Every float op matches ServerModel over a random call stream —
        ``1 * rate == rate`` exactly, so the arithmetic is the same ops."""
        rng = np.random.default_rng(7)
        server = ServerModel(service_rate=0.15)
        fleet = ReplicaFleet(0.15)
        clock = 0.0
        for _ in range(200):
            clock += float(rng.exponential(4.0))
            op = rng.integers(0, 3)
            if op == 0:
                n = int(rng.integers(0, 9))
                assert fleet.process(n, at=clock) == server.process(n, at=clock)
            elif op == 1:
                assert fleet.backlog_seconds(clock) == server.backlog_seconds(clock)
            else:
                assert fleet.queue_depth(clock) == server.queue_depth(clock)
        assert fleet.busy_until == server.busy_until
        assert fleet.requests_processed == server.requests_processed
        assert fleet.busy_seconds == server.busy_seconds
        assert fleet.peak_backlog_seconds == server.peak_backlog_seconds
        assert fleet.replicas == fleet.target_replicas == fleet.peak_replicas == 1

    def test_provision_delay_is_honored(self):
        fleet = ReplicaFleet(1.0, max_replicas=3, provision_delay=10)
        fleet.scale_to(3, at=0.0)
        assert fleet.target_replicas == 3
        assert fleet.backlog_seconds(9.0) == 0.0 and fleet.replicas == 1
        assert fleet.capacity == 1.0  # still one replica of capacity
        fleet.backlog_seconds(10.0)
        assert fleet.replicas == 3 and fleet.capacity == 3.0
        assert fleet.peak_replicas == 3
        assert fleet.scale_up_events == 1

    def test_decommissioned_replicas_cost_until_effective(self):
        fleet = ReplicaFleet(
            1.0, initial_replicas=3, max_replicas=3, decommission_delay=5
        )
        fleet.backlog_seconds(0.0)  # open the cost accounting at t=0
        fleet.scale_to(1, at=0.0)
        assert fleet.target_replicas == 1
        assert fleet.backlog_seconds(4.0) == 0.0 and fleet.replicas == 3
        fleet.backlog_seconds(10.0)
        assert fleet.replicas == 1
        # 5s at three replicas (the drain window), then 5s at one.
        assert fleet.replica_seconds == 5 * 3 + 5 * 1

    def test_replica_seconds_exact_across_transitions(self):
        """The cost integral segments at each transition's effective time."""
        fleet = ReplicaFleet(
            1.0, max_replicas=3, provision_delay=10, decommission_delay=5
        )
        fleet.backlog_seconds(0.0)
        fleet.scale_to(3, at=0.0)  # effective at t=10
        fleet.backlog_seconds(20.0)
        assert fleet.replica_seconds == 10 * 1 + 10 * 3
        fleet.scale_to(1, at=20.0)  # effective at t=25
        fleet.backlog_seconds(30.0)
        assert fleet.replica_seconds == 10 * 1 + 10 * 3 + 5 * 3 + 5 * 1
        assert fleet.scale_up_events == 1 and fleet.scale_down_events == 1

    def test_direction_reversal_cancels_pending_transitions(self):
        # A full cancel: the not-yet-provisioned replicas never existed, so
        # reversing pays no decommission delay and accrues no cost for them.
        fleet = ReplicaFleet(1.0, max_replicas=4, provision_delay=10)
        fleet.backlog_seconds(0.0)
        fleet.scale_to(4, at=0.0)
        fleet.scale_to(1, at=2.0)
        fleet.backlog_seconds(50.0)
        assert fleet.replicas == 1 and fleet.target_replicas == 1
        assert fleet.replica_seconds == 50.0
        # A partial cancel: asking for 3 while +3 is pending trims the
        # pending batch to +2, still landing at the original effective time.
        fleet = ReplicaFleet(1.0, max_replicas=4, provision_delay=10)
        fleet.scale_to(4, at=0.0)
        fleet.scale_to(3, at=2.0)
        assert fleet.backlog_seconds(9.0) == 0.0 and fleet.replicas == 1
        fleet.backlog_seconds(10.0)
        assert fleet.replicas == 3 == fleet.target_replicas

    def test_outstanding_work_is_conserved_across_capacity_changes(self):
        fleet = ReplicaFleet(1.0, max_replicas=2, provision_delay=10)
        fleet.process(20, at=0.0)
        assert fleet.busy_until == 20.0
        fleet.scale_to(2, at=0.0)
        # 10s of the backlog drains at 1x, the remaining 10 requests at 2x.
        assert fleet.backlog_seconds(10.0) == 5.0
        assert fleet.busy_until == 15.0
        assert fleet.queue_depth(10.0) == 10.0  # 5s * 2 req/s

    def test_scale_to_clamps_and_noops(self):
        fleet = ReplicaFleet(1.0, min_replicas=1, max_replicas=3)
        assert fleet.scale_to(99, at=0.0) == 3
        assert fleet.scale_to(0, at=0.0) == 1
        events = fleet.scale_up_events + fleet.scale_down_events
        assert fleet.scale_to(1, at=1.0) == 1  # already the target: no event
        assert fleet.scale_up_events + fleet.scale_down_events == events

    def test_metrics_mirror_fleet_state(self):
        registry = MetricsRegistry()
        fleet = ReplicaFleet(1.0, max_replicas=3, registry=registry)
        fleet.backlog_seconds(0.0)
        fleet.scale_to(3, at=0.0)
        fleet.backlog_seconds(10.0)
        snapshot = registry.snapshot()
        assert snapshot["autoscale.fleet_size"]["value"] == 3
        assert snapshot["autoscale.target_replicas"]["value"] == 3
        assert snapshot["autoscale.scale_up_events"]["value"] == 1
        assert snapshot["autoscale.replica_seconds"]["value"] == fleet.replica_seconds == 30.0


class TestReactivePolicy:
    def test_windowed_target_tracking(self):
        policy = ReactivePolicy(target_queue_depth=4.0, depth_window=2)
        fleet = ReplicaFleet(1.0, max_replicas=8)
        assert policy.desired_replicas(0.0, fleet) == 1  # idle fleet
        fleet.process(16, at=0.0)
        # Window mean over {0, 16} requests of depth -> ceil(8 / 4) = 2.
        assert policy.desired_replicas(0.0, fleet) == 2
        # Window slides: mean over {16, 16} -> ceil(16 / 4) = 4.
        assert policy.desired_replicas(0.0, fleet) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            ReactivePolicy(target_queue_depth=0.0)
        with pytest.raises(ValueError):
            ReactivePolicy(depth_window=0)


class _ScriptedPolicy:
    def __init__(self, desired):
        self.desired = list(desired)

    def desired_replicas(self, at, fleet):
        return self.desired.pop(0)


class _StubStream:
    def __init__(self):
        self.timers = []

    def set_control_timer(self, fire_at, key, callback):
        self.timers.append((fire_at, key, callback))


class TestAutoscaler:
    def test_validation(self):
        fleet = ReplicaFleet(1.0)
        with pytest.raises(ValueError):
            Autoscaler(fleet, _ScriptedPolicy([]), _StubStream(), start=0, until=10, interval=0)
        with pytest.raises(ValueError):
            Autoscaler(fleet, _ScriptedPolicy([]), _StubStream(), start=10, until=0, interval=5)

    def test_ticks_installed_as_control_timers(self):
        stream = _StubStream()
        fleet = ReplicaFleet(1.0, max_replicas=4)
        Autoscaler(fleet, _ScriptedPolicy([1] * 3), stream, start=100, until=220, interval=60)
        assert [(at, key) for at, key, _ in stream.timers] == [
            (100, "autoscale:100"),
            (160, "autoscale:160"),
            (220, "autoscale:220"),
        ]
        for _, _, callback in stream.timers:
            callback("ignored", [])
        assert stream.timers[0][2].__name__ == "<lambda>"

    def test_scale_down_is_limited_to_one_replica_per_tick(self):
        fleet = ReplicaFleet(1.0, max_replicas=5)
        scaler = Autoscaler(
            fleet, _ScriptedPolicy([5, 1, 1, 1]), _StubStream(), start=0, until=0, interval=60
        )
        # Scale-up is unbounded; the drop back to 1 steps one replica a tick.
        assert [scaler.evaluate(at) for at in (0, 60, 120, 180)] == [5, 4, 3, 2]
        assert scaler.evaluations == 4
        assert scaler.history == [(0, 5, 5), (60, 1, 4), (120, 1, 3), (180, 1, 2)]
        assert scaler.first_scale_up_at is None  # first tick set the baseline

    def test_first_scale_up_at_reports_the_first_raise(self):
        fleet = ReplicaFleet(1.0, max_replicas=5)
        scaler = Autoscaler(
            fleet, _ScriptedPolicy([1, 1, 3]), _StubStream(), start=0, until=0, interval=60
        )
        for at in (0, 60, 120):
            scaler.evaluate(at)
        assert scaler.first_scale_up_at == 120


class TestEngineConfigAutoscale:
    def _block(self, **overrides):
        block = {
            "policy": "reactive",
            "service_rate": 0.15,
            "start": 1000,
            "until": 2000,
        }
        block.update(overrides)
        return block

    def _config(self, **overrides):
        return EngineConfig(
            backend="hidden_state",
            session_length=600,
            autoscale=self._block(**overrides),
        )

    def test_defaults_filled_and_json_round_trip(self):
        config = self._config()
        block = config.autoscale
        assert block["interval"] == 60 and block["max_replicas"] == 8
        assert block["horizon"] == block["provision_delay"] + block["interval"]
        rehydrated = EngineConfig(**json.loads(json.dumps(dataclasses.asdict(config))))
        assert rehydrated.autoscale == block

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown autoscale fields"):
            self._config(surprise=1)
        with pytest.raises(ValueError, match="autoscale.policy"):
            self._config(policy="oracle")
        with pytest.raises(ValueError, match="needs a service_rate"):
            EngineConfig(
                backend="hidden_state",
                session_length=600,
                autoscale={"policy": "reactive", "start": 0, "until": 1},
            )
        with pytest.raises(ValueError, match="must not precede"):
            self._config(start=2000, until=1000)
        with pytest.raises(ValueError, match="must be an int"):
            self._config(interval=60.0)
        with pytest.raises(ValueError, match="replica bounds"):
            self._config(initial_replicas=9)
        with pytest.raises(ValueError, match="utilization"):
            self._config(utilization=1.5)

    def test_predictive_needs_the_gru_and_telemetry(self):
        with pytest.raises(ValueError, match="hidden_state backend"):
            EngineConfig(
                backend="aggregation",
                session_length=600,
                autoscale=self._block(policy="predictive"),
            )

    def test_build_rejects_a_caller_server(self, serving_parts):
        _, builder, network = serving_parts
        with pytest.raises(ValueError, match="do not also pass server="):
            ServingEngine.build(
                EngineConfig(
                    backend="hidden_state",
                    session_length=600,
                    autoscale=self._block(),
                ),
                network=network,
                builder=builder,
                server=ServerModel(0.15),
            )


# ----------------------------------------------------------------------
# Engine level: the forecasting dividend.  That a pinned one-replica
# autoscaler and a drop-in ReplicaFleet are bit-invisible is pinned by the
# twin matrix (tests/test_serving_twins.py).
# ----------------------------------------------------------------------
class TestPredictiveBeatsReactive:
    def _elastic_replay(self, parts, events, *, policy):
        t0, t_end = int(events[0][0]), int(events[-1][0])
        engine = build_engine(
            parts,
            max_batch_size=16,
            store_name=f"elastic-{policy}",
            autoscale={
                "policy": policy,
                "service_rate": 0.15,
                "start": t0 + 60,
                "until": t_end,
                "interval": 60,
                "max_replicas": 6,
                "provision_delay": 120,
                "decommission_delay": 30,
                "target_queue_depth": 4.0,
            },
            slo_policy=SloPolicy(max_queue_depth=16),
            admission_mode="shed",
        )
        # Warm every user's state (the production scenarios do the same) so
        # the predictive arm's GRU aggregate has signal from the first tick.
        engine.backend.apply_wave(
            [
                SessionUpdate(
                    user_id=user,
                    timestamp=t0 - 3600,
                    context={"badge": 0.0, "surface": 0.0},
                    accessed=True,
                )
                for user in sorted({user_id for _, user_id, _, _ in events})
            ]
        )
        engine.store.reset_stats()
        served = engine.replay(events)
        engine.close()
        return served, engine

    def test_predictive_scales_before_the_ramp_the_reactive_arm_sheds_on(
        self, serving_parts
    ):
        # Deterministic gaps (``1 / rate``): no burst noise, so the comparison
        # isolates the *signal* each arm scales on — the measured demand
        # trajectory versus the backlog it eventually causes — not which arm
        # a random early burst happens to trip first.
        events = ramped_events(np.random.default_rng(45), jitter=False)
        _, reactive = self._elastic_replay(serving_parts, events, policy="reactive")
        _, predictive = self._elastic_replay(serving_parts, events, policy="predictive")
        assert reactive.autoscaler.evaluations == predictive.autoscaler.evaluations
        # Both arms saw the ramp and scaled…
        assert reactive.server.peak_replicas > 1
        assert predictive.server.peak_replicas > 1
        assert predictive.autoscaler.first_scale_up_at is not None
        assert reactive.autoscaler.first_scale_up_at is not None
        assert (
            predictive.autoscaler.first_scale_up_at <= reactive.autoscaler.first_scale_up_at
        )

        # …but the forecast builds the ramp's capacity ahead of the backlog
        # signal: the predictive arm reaches the fleet size the ramp needs at
        # least one provisioning delay's worth of ticks earlier…
        def first_target_at_least(scaler, size):
            return next(at for at, _, target in scaler.history if target >= size)

        ramp_size = 3
        assert first_target_at_least(predictive.autoscaler, ramp_size) < first_target_at_least(
            reactive.autoscaler, ramp_size
        )
        # …and the earlier capacity sheds strictly less.
        assert predictive.admission.requests_shed < reactive.admission.requests_shed


class TestZipfKeyDistribution:
    def test_zero_skew_is_exactly_uniform(self):
        np.testing.assert_array_equal(
            _zipf_user_popularity(8, 0.0), np.full(8, 1.0 / 8)
        )

    def test_skew_concentrates_mass_on_the_head(self):
        weights = _zipf_user_popularity(20, 2.5)
        assert weights[0] > 0.7  # rank-1 dominates at heavy skew
        assert np.all(np.diff(weights) < 0)
        assert weights.sum() == pytest.approx(1.0)

    def test_skewed_arrivals_inflate_shard_load_imbalance(self):
        """The hot-key workload: fewer distinct users carry the traffic, so
        stored-state keys pile onto fewer shards than a uniform draw."""
        rng = np.random.default_rng(11)
        n_users, n_draws = 40, 60

        def imbalance(skew):
            chosen = rng.choice(n_users, size=n_draws, p=_zipf_user_popularity(n_users, skew))
            store = ShardedKeyValueStore(4, name=f"zipf-{skew}")
            for user in sorted(set(int(user) for user in chosen)):
                store.put(f"hidden:{user}", {"state": user})
            return store.load_imbalance()

        assert imbalance(2.5) > imbalance(0.0)

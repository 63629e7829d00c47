"""Telemetry subsystem tests: instruments, views read in place, wiring.

Three contracts anchor this suite:

* **One copy** — a counter or gauge with an attribute behind it
  (``store.stats.gets``, ``queue.batches_flushed``, ...) is a registry
  *view*: it holds no value of its own, so it is current at every read —
  before any ``snapshot()``, when held across traffic, after
  ``reset_stats()``.
* **Wiring** — every view name reads the attribute it is named after:
  randomized workloads compare ``registry.snapshot(prefix=...)`` with
  ``stats.snapshot()`` / the attribute, per store, per shard, pool-wide and
  for the backend / queue / delay meters of a facade-built engine.
* **Null plane** — ``NULL_REGISTRY``, what a hand-built component without
  a registry meters into, records nothing.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import ContextField, ContextSchema
from repro.features.sequence import SequenceBuilder
from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork
from repro.serving import (
    Counter,
    EngineConfig,
    Gauge,
    Histogram,
    KeyValueStore,
    MetricsRegistry,
    NULL_REGISTRY,
    ServingEngine,
    ShardedKeyValueStore,
)

N_TRIALS = 40


# ----------------------------------------------------------------------
# Instruments
# ----------------------------------------------------------------------
class TestInstruments:
    def test_counter_is_monotone(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_tracks_high_water_mark(self):
        gauge = Gauge("g")
        gauge.set(4)
        gauge.set(9)
        gauge.set(2)
        assert gauge.value == 2 and gauge.max_value == 9

    def test_histogram_quantiles_are_bucket_bounds(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 0.7, 3.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 4 and histogram.quantile(0.5) == 1.0
        assert histogram.quantile(0.99) == 100.0
        # Overflow reports the exact observed maximum, not a bucket bound.
        histogram.observe(123456.0)
        assert histogram.quantile(1.0) == 123456.0
        assert histogram.overflow == 1

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram("h").quantile(0.99) == 0.0

    def test_histogram_rejects_bad_buckets_and_quantiles(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(3.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)

    def test_quantiles_deterministic_across_permutations(self):
        rng = np.random.default_rng(0)
        values = rng.exponential(60.0, size=500)
        reference = Histogram("a")
        for value in values:
            reference.observe(value)
        shuffled = Histogram("b")
        for value in rng.permutation(values):
            shuffled.observe(value)
        for q in (0.5, 0.9, 0.95, 0.99):
            assert reference.quantile(q) == shuffled.quantile(q)

    def test_window_quantile_forgets_old_observations(self):
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        histogram.enable_window(8)
        for _ in range(8):
            histogram.observe(50.0)
        assert histogram.window_quantile(0.99) == 100.0
        # Quiet traffic pushes the spike out of the window; the lifetime
        # view stays latched high — that asymmetry is the whole point.
        for _ in range(8):
            histogram.observe(0.5)
        assert histogram.window_quantile(0.99) == 1.0
        assert histogram.quantile(0.99) == 100.0

    def test_window_guards_and_snapshot(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        with pytest.raises(ValueError, match="enable_window"):
            histogram.window_quantile(0.5)
        histogram.enable_window(4)
        histogram.enable_window(4)  # idempotent at the same size
        with pytest.raises(ValueError):
            histogram.enable_window(8)
        with pytest.raises(ValueError):
            Histogram("h2").enable_window(0)
        assert histogram.window_quantile(0.99) == 0.0  # empty window
        histogram.observe(2.0)
        snapshot = histogram.snapshot()
        assert snapshot["window"] == {"size": 4, "count": 1, "p50": 10.0, "p99": 10.0}

    def test_window_quantile_with_fewer_observations_than_the_window(self):
        # A partially filled window ranks over what it holds, not the size.
        histogram = Histogram("h", buckets=(1.0, 10.0, 100.0))
        histogram.enable_window(64)
        histogram.observe(0.5)
        histogram.observe(50.0)
        assert histogram.window_quantile(0.5) == 1.0
        assert histogram.window_quantile(1.0) == 100.0

    def test_window_of_size_one_tracks_only_the_last_observation(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        histogram.enable_window(1)
        histogram.observe(50.0)
        histogram.observe(0.5)
        assert histogram.window_quantile(0.5) == 1.0
        assert histogram.window_quantile(0.99) == 1.0
        histogram.observe(5.0)
        assert histogram.window_quantile(0.5) == 10.0

    def test_window_overflow_reports_the_lifetime_maximum(self):
        # The overflow bucket has no upper bound and the window keeps no max
        # of its own, so an in-window overflow falls back to the lifetime
        # latched maximum — even when a larger overflow has already rotated
        # *out* of the window (the documented approximation).
        histogram = Histogram("h", buckets=(1.0, 10.0))
        histogram.enable_window(2)
        histogram.observe(500.0)
        histogram.observe(0.5)
        histogram.observe(20.0)  # window now {0.5, 20.0}; lifetime max 500.0
        assert histogram.window_quantile(1.0) == 500.0

    def test_reset_clears_the_window_but_keeps_it_enabled(self):
        histogram = Histogram("h", buckets=(1.0, 10.0))
        histogram.enable_window(4)
        for value in (0.5, 5.0, 50.0):
            histogram.observe(value)
        histogram.reset()
        assert histogram.count == 0
        assert histogram.window_quantile(0.99) == 0.0  # empty again
        assert histogram.snapshot()["window"] == {"size": 4, "count": 0, "p50": 0.0, "p99": 0.0}
        # Observations after the reset start a fresh window at the same size:
        # no stale bucket counts survive to skew the first new quantiles.
        histogram.observe(5.0)
        assert histogram.window_quantile(0.5) == 10.0
        assert histogram.quantile(0.5) == 10.0
        with pytest.raises(ValueError):
            histogram.enable_window(8)  # still enabled at size 4

    def test_registry_get_or_create_and_kind_conflicts(self):
        registry = MetricsRegistry()
        counter = registry.counter("x")
        assert registry.counter("x") is counter
        with pytest.raises(ValueError):
            registry.gauge("x")
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", buckets=(1.0, 3.0))
        assert "x" in registry and registry.get("missing") is None
        assert registry.names() == ["h", "x"]

    def test_snapshot_is_json_serializable_and_stable(self):
        registry = MetricsRegistry()
        registry.counter("b.count").inc(3)
        registry.gauge("a.depth").set(7)
        histogram = registry.histogram("c.latency", buckets=(1.0, 60.0))
        histogram.observe(0.5)
        histogram.observe(2.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a.depth", "b.count", "c.latency"]
        round_tripped = json.loads(json.dumps(snapshot))
        assert round_tripped == snapshot
        assert snapshot["c.latency"]["p50"] == 1.0 and snapshot["c.latency"]["count"] == 2
        assert registry.snapshot(prefix="a.") == {"a.depth": snapshot["a.depth"]}

    def test_null_registry_is_inert(self):
        NULL_REGISTRY.counter("x").inc(5)
        NULL_REGISTRY.gauge("y").set(3)
        NULL_REGISTRY.histogram("z").observe(1.0)
        assert NULL_REGISTRY.snapshot() == {}
        assert not NULL_REGISTRY.enabled


# ----------------------------------------------------------------------
# Views: the registry reads the component's own counter, at every read
# ----------------------------------------------------------------------
class TestViewsReadInPlace:
    def test_counter_reads_the_attribute_with_no_snapshot_in_between(self):
        registry = MetricsRegistry()
        store = KeyValueStore("kv", registry=registry)
        store.put("a", 1, size_bytes=8)
        store.get("a")
        assert registry.counter("kv.kv.gets").value == 1
        assert registry.counter("kv.kv.bytes_written").value == 8

    def test_instrument_held_across_traffic_advances(self):
        registry = MetricsRegistry()
        store = KeyValueStore("kv", registry=registry)
        gets = registry.get("kv.kv.gets")
        assert gets.value == 0
        for _ in range(3):
            store.get("missing")
        assert gets.value == 3 and gets.snapshot() == {"type": "counter", "value": 3}

    def test_gauge_view_reads_level_and_high_water_mark(self):
        registry = MetricsRegistry()
        level = {"now": 2, "peak": 9}
        depth = registry.view("depth", "gauge", lambda: level["now"], lambda: level["peak"])
        assert registry.gauge("depth") is depth
        assert registry.snapshot() == {"depth": {"type": "gauge", "value": 2, "max": 9}}
        # Without a peak reader the level is its own high-water mark.
        registry.view("size", "gauge", lambda: level["now"])
        assert registry.get("size").max_value == 2

    def test_kind_conflicts_stay_hard_errors(self):
        registry = MetricsRegistry()
        registry.histogram("h")
        with pytest.raises(ValueError, match="histogram"):
            registry.view("h", "counter", lambda: 0)
        with pytest.raises(ValueError, match="kind"):
            registry.view("x", "histogram", lambda: 0)

    def test_re_registering_a_name_rebinds_it_to_the_newest_component(self):
        registry = MetricsRegistry()
        first = KeyValueStore("kv", registry=registry)
        second = KeyValueStore("kv", registry=registry)
        first.get("a")
        second.get("a")
        second.get("b")
        assert registry.counter("kv.kv.gets").value == second.stats.gets == 2


# ----------------------------------------------------------------------
# Reset parity: reset_stats rebinds ``store.stats``; the views follow it
# ----------------------------------------------------------------------
class TestResetParity:
    def test_reset_stats_zeroes_what_a_held_instrument_reads(self):
        registry = MetricsRegistry()
        store = KeyValueStore("kv", registry=registry)
        puts = registry.counter("kv.kv.puts")
        store.put("a", 1, size_bytes=8)
        assert puts.value == 1
        store.reset_stats()
        assert puts.value == 0
        store.put("a", 2, size_bytes=8)
        assert puts.value == 1

    def test_store_reset_stats_survives_a_snapshot_after_reset(self):
        registry = MetricsRegistry()
        store = KeyValueStore("kv", registry=registry)
        store.put("a", 1, size_bytes=8)
        store.get("a")
        assert registry.snapshot()["kv.kv.gets"]["value"] == 1
        store.reset_stats()
        snapshot = registry.snapshot()
        assert snapshot["kv.kv.gets"]["value"] == 0
        assert snapshot["kv.kv.puts"]["value"] == 0


# ----------------------------------------------------------------------
# snapshot(prefix=): filtering is by name prefix, over live values
# ----------------------------------------------------------------------
class TestSnapshotPrefix:
    def build_registry(self):
        registry = MetricsRegistry()
        registry.counter("kv.rnn/shard0.gets").inc(3)
        registry.counter("kv.rnn/shard1.gets").inc(4)
        registry.counter("queue.requests_submitted").inc(9)
        registry.gauge("queue.depth").set(2)
        registry.histogram("serving.update_latency_seconds").observe(1.5)
        return registry

    def test_prefix_filters_by_string_prefix(self):
        registry = self.build_registry()
        assert list(registry.snapshot(prefix="kv.")) == [
            "kv.rnn/shard0.gets",
            "kv.rnn/shard1.gets",
        ]
        assert list(registry.snapshot(prefix="queue.")) == [
            "queue.depth",
            "queue.requests_submitted",
        ]
        # A prefix is not a namespace match: "queue" (no dot) also catches
        # nothing extra here, and an unknown prefix is simply empty.
        assert registry.snapshot(prefix="nothing.") == {}

    def test_empty_prefix_is_the_full_snapshot(self):
        registry = self.build_registry()
        full = registry.snapshot()
        assert registry.snapshot(prefix="") == full
        # The filtered views are restrictions of the same dump, not
        # re-renders: union of a partition == the full snapshot.
        merged = {}
        for prefix in ("kv.", "queue.", "serving."):
            merged.update(registry.snapshot(prefix=prefix))
        assert merged == full

    def test_prefix_snapshot_reads_views_live(self):
        registry = MetricsRegistry()
        meter = {"gets": 0}
        registry.view("kv.gets", "counter", lambda: meter["gets"])
        meter["gets"] = 5
        assert registry.snapshot(prefix="queue.") == {}
        assert registry.snapshot(prefix="kv.") == {"kv.gets": {"type": "counter", "value": 5}}
        meter["gets"] = 6
        assert registry.snapshot(prefix="kv.")["kv.gets"]["value"] == 6


# ----------------------------------------------------------------------
# Wiring: every kv.* name reads the KVStats field it is named after
# ----------------------------------------------------------------------
def random_kv_workload(rng, n_ops=300):
    ops = []
    for _ in range(n_ops):
        key = f"hidden:{int(rng.integers(0, 50))}"
        kind = rng.choice(["put", "get", "delete"], p=[0.5, 0.4, 0.1])
        ops.append((kind, key, int(rng.integers(1, 400))))
    return ops


def apply_kv_workload(store, ops):
    for kind, key, size in ops:
        if kind == "put":
            store.put(key, {"size": size}, size_bytes=size)
        elif kind == "get":
            store.get(key)
        else:
            store.delete(key)


def registry_kv_stats(registry, store_name):
    """``{field: value}`` as the registry reports it under ``kv.<store_name>.``."""
    prefix = f"kv.{store_name}."
    return {
        name[len(prefix):]: entry["value"]
        for name, entry in registry.snapshot(prefix=prefix).items()
    }


def registry_pool_stats(registry, store):
    """Pool rollup of the shards' registry counters, field by field."""
    per_shard = [registry_kv_stats(registry, shard.name) for shard in store.shards]
    return {field: sum(stats[field] for stats in per_shard) for field in per_shard[0]}


class TestStoreRollupsBitExact:
    def test_unsharded_registry_view_equals_stats_after_any_workload(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(100 + trial)
            registry = MetricsRegistry()
            store = KeyValueStore("kv", registry=registry)
            apply_kv_workload(store, random_kv_workload(rng))
            assert store.stats.gets > 0
            assert registry_kv_stats(registry, "kv") == store.stats.snapshot()

    def test_sharded_registry_rollup_equals_stats_after_any_workload(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(200 + trial)
            registry = MetricsRegistry()
            store = ShardedKeyValueStore(
                n_shards=int(rng.integers(2, 8)), name="pool", registry=registry
            )
            apply_kv_workload(store, random_kv_workload(rng))
            # Per-shard decomposition: each shard's names read its own meter.
            for shard in store.shards:
                assert registry_kv_stats(registry, shard.name) == shard.stats.snapshot()
            assert store.stats.gets > 0
            assert registry_pool_stats(registry, store) == store.stats.snapshot()

    def test_store_name_prefixes_do_not_absorb_each_other(self):
        registry = MetricsRegistry()
        store = KeyValueStore("rnn", registry=registry)
        lookalike = KeyValueStore("rnn-b64", registry=registry)
        store.put("a", 1, size_bytes=8)
        store.get("a")
        lookalike.get("b")
        assert registry_kv_stats(registry, "rnn") == store.stats.snapshot()
        assert registry_kv_stats(registry, "rnn-b64") == lookalike.stats.snapshot()
        assert store.stats.snapshot() != lookalike.stats.snapshot()

    def test_reset_stats_resets_both_views_together(self):
        registry = MetricsRegistry()
        store = ShardedKeyValueStore(n_shards=3, name="kv", registry=registry)
        apply_kv_workload(store, random_kv_workload(np.random.default_rng(7)))
        assert registry_pool_stats(registry, store)["gets"] > 0
        store.reset_stats()
        assert registry_pool_stats(registry, store) == store.stats.snapshot()
        assert store.stats.gets == 0


# ----------------------------------------------------------------------
# Engine-level: the whole pipeline's names read the right attributes, and
# telemetry is bit-invisible to serving.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_parts():
    schema = ContextSchema(
        fields=(
            ContextField("badge", "numeric"),
            ContextField("surface", "categorical", cardinality=3),
        )
    )
    builder = SequenceBuilder(schema)
    config = RNNNetworkConfig(feature_dim=builder.feature_dim, hidden_size=12, mlp_hidden=8)
    network = RNNPrecomputeNetwork(config, rng=np.random.default_rng(5)).eval()
    return schema, builder, network


def random_session_events(rng, n_events=150, n_users=10):
    base = 1_600_000_000
    raw = rng.integers(0, 4_000, size=n_events)
    bursty = rng.random(n_events) < 0.6
    raw[bursty] -= raw[bursty] % 300
    return [
        (
            int(timestamp),
            int(rng.integers(0, n_users)),
            {"badge": float(rng.integers(0, 9)), "surface": float(rng.integers(0, 3))},
            bool(rng.random() < 0.4),
        )
        for timestamp in np.sort(base + raw)
    ]


def build_engine(parts, *, n_shards=None, batch_size=8, window=30):
    _, builder, network = parts
    return ServingEngine.build(
        EngineConfig(
            backend="hidden_state",
            max_batch_size=batch_size,
            coalescing_window=window,
            n_shards=n_shards,
            session_length=600,
            store_name="rnn",
        ),
        network=network,
        builder=builder,
    )


class TestEngineTelemetry:
    @pytest.mark.parametrize("n_shards", [None, 4])
    def test_registry_mirrors_equal_legacy_meters_after_replay(self, serving_parts, n_shards):
        for trial in range(6):
            rng = np.random.default_rng(3000 + trial)
            engine = build_engine(serving_parts, n_shards=n_shards)
            engine.replay(random_session_events(rng))
            registry = engine.metrics
            # Store rollup.
            if n_shards is None:
                assert registry_kv_stats(registry, "rnn") == engine.store.stats.snapshot()
            else:
                assert registry_pool_stats(registry, engine.store) == engine.store.stats.snapshot()
            # Backend counters.
            assert engine.predictions_served > 0 and engine.updates_applied > 0
            assert registry.counter("backend.predictions_served").value == engine.predictions_served
            assert registry.counter("backend.updates_applied").value == engine.updates_applied
            # The update-delay meter: the histogram's streamed sum and the
            # counter are the attribute's float, exactly.
            delay_histogram = registry.get("serving.update_delay_seconds")
            assert delay_histogram.total == engine.update_delay_seconds
            assert registry.counter("serving.update_delay_seconds_total").value == engine.update_delay_seconds
            # Queue counters and the depth gauge.
            assert registry.counter("queue.requests_submitted").value == engine.queue.requests_submitted > 0
            assert registry.counter("queue.batches_flushed").value == engine.queue.batches_flushed > 0
            assert registry.get("queue.batch_size").count == engine.queue.batches_flushed
            depth = registry.gauge("queue.depth")
            assert (depth.value, depth.max_value) == (engine.queue.pending, engine.queue._peak_pending)
            assert depth.max_value > 0
            with pytest.raises(ValueError):
                registry.counter("queue.depth")
            # Wave-size histogram counts every delivery's updates.
            assert registry.get("stream.wave_size").total == engine.updates_applied
            engine.close()

    def test_engine_metrics_snapshot_is_json_round_trippable(self, serving_parts):
        engine = build_engine(serving_parts, n_shards=2)
        engine.replay(random_session_events(np.random.default_rng(5000)))
        snapshot = engine.metrics.snapshot()
        assert snapshot and json.loads(json.dumps(snapshot)) == snapshot
        assert "queue.batch_size" in snapshot and "serving.update_delay_seconds" in snapshot
        engine.close()

"""Property-based tests for the serving substrate.

Randomized invariants (fixed seeds, many trials) for the components the
batched engine leans on:

* ``serving/quantization.py`` — the int8 round trip must stay within half a
  quantization step of the original state for *any* hidden state, not just
  the friendly ones;
* ``serving/router.py`` — consistent hashing must give every key exactly one
  owner, keep that owner stable, move only the necessary keys when the pool
  is resized, and the per-shard meters must sum to exactly what a single
  unsharded store would report for the same workload;
* ``serving/batching.py`` — the queue's drained delivery cursor must hand
  out every completed prediction exactly once, in submission order, no
  matter how submits, flushes, drains and clock advances interleave.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    ConsistentHashRing,
    CostParameters,
    KeyValueStore,
    MicroBatchQueue,
    ShardedKeyValueStore,
    StreamProcessor,
    dequantize_state,
    kv_traffic_cost,
    quantization_error,
    quantize_state,
)

N_TRIALS = 200


class TestQuantizationRoundTrip:
    def test_round_trip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        for trial in range(N_TRIALS):
            size = int(rng.integers(1, 129))
            scale_of_state = 10.0 ** rng.uniform(-6, 6)
            state = rng.normal(scale=scale_of_state, size=size)
            quantized, scale = quantize_state(state)
            assert quantized.dtype == np.int8
            assert scale >= 0.0
            restored = dequantize_state(quantized, scale)
            # Symmetric rounding to the nearest level: at most half a step off.
            assert np.max(np.abs(restored - state)) <= 0.5 * scale + 1e-12

    def test_peak_value_is_representable_and_signs_preserved(self):
        rng = np.random.default_rng(1)
        for _ in range(N_TRIALS):
            state = rng.normal(size=int(rng.integers(2, 64)))
            quantized, scale = quantize_state(state)
            peak = np.argmax(np.abs(state))
            assert abs(int(quantized[peak])) == 127
            nonzero = np.abs(state) > 0.5 * scale
            assert np.array_equal(np.sign(quantized[nonzero]), np.sign(state[nonzero]))

    def test_zero_and_constant_states(self):
        quantized, scale = quantize_state(np.zeros(16))
        assert scale == 0.0 and not quantized.any()
        assert not dequantize_state(quantized, scale).any()
        quantized, scale = quantize_state(np.full(8, -3.5))
        np.testing.assert_allclose(dequantize_state(quantized, scale), np.full(8, -3.5))

    def test_error_report_matches_direct_round_trip(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(10, 32))
        report = quantization_error(states)
        worst = max(
            float(np.max(np.abs(dequantize_state(*quantize_state(row)) - row))) for row in states
        )
        assert report["max_abs_error"] == pytest.approx(worst)
        assert report["storage_reduction"] == 4.0


class TestConsistentHashRing:
    def test_every_key_has_exactly_one_stable_owner(self):
        ring = ConsistentHashRing([f"shard{i}" for i in range(5)])
        for trial in range(N_TRIALS):
            key = f"hidden:{trial * 7919}"
            owner = ring.node_for(key)
            assert owner in ring.nodes
            assert ring.node_for(key) == owner  # deterministic across calls

    def test_adding_a_node_only_moves_keys_to_the_new_node(self):
        keys = [f"hidden:{i}" for i in range(500)]
        ring = ConsistentHashRing([f"shard{i}" for i in range(4)])
        before = {key: ring.node_for(key) for key in keys}
        ring.add_node("shard4")
        moved = 0
        for key in keys:
            after = ring.node_for(key)
            if after != before[key]:
                assert after == "shard4"  # consistent hashing: no shuffling among survivors
                moved += 1
        assert 0 < moved < len(keys)  # the new node took some arcs, not all

    def test_removing_a_node_only_moves_its_own_keys(self):
        keys = [f"agg:{i}" for i in range(500)]
        ring = ConsistentHashRing([f"shard{i}" for i in range(5)])
        before = {key: ring.node_for(key) for key in keys}
        ring.remove_node("shard2")
        for key in keys:
            if before[key] != "shard2":
                assert ring.node_for(key) == before[key]
            else:
                assert ring.node_for(key) != "shard2"
        with pytest.raises(KeyError):
            ring.remove_node("shard2")

    def test_empty_ring_rejected(self):
        with pytest.raises(RuntimeError):
            ConsistentHashRing([]).node_for("x")


class TestShardedStore:
    def _workload(self, rng, n_ops=400):
        ops = []
        for _ in range(n_ops):
            key = f"hidden:{int(rng.integers(0, 60))}"
            kind = rng.choice(["put", "get", "delete"], p=[0.5, 0.4, 0.1])
            ops.append((kind, key, int(rng.integers(1, 400))))
        return ops

    def _apply(self, store, ops):
        for kind, key, size in ops:
            if kind == "put":
                store.put(key, {"size": size}, size_bytes=size)
            elif kind == "get":
                store.get(key)
            else:
                store.delete(key)

    def test_each_key_lives_on_exactly_one_shard(self):
        sharded = ShardedKeyValueStore(n_shards=6)
        rng = np.random.default_rng(3)
        keys = {f"hidden:{int(rng.integers(0, 10_000))}" for _ in range(N_TRIALS)}
        for key in keys:
            sharded.put(key, {"v": 1}, size_bytes=8)
        for key in keys:
            owners = [shard for shard in sharded.shards if shard.contains(key)]
            assert len(owners) == 1
            assert owners[0] is sharded.shard_for(key)
            assert sharded.shards[sharded.shard_index(key)] is owners[0]
        assert len(sharded) == len(keys)

    def test_shard_meters_sum_to_unsharded_totals(self):
        rng = np.random.default_rng(4)
        ops = self._workload(rng)
        flat, sharded = KeyValueStore(), ShardedKeyValueStore(n_shards=7)
        self._apply(flat, ops)
        self._apply(sharded, ops)
        assert sharded.stats.snapshot() == flat.stats.snapshot()
        assert sharded.total_bytes == flat.total_bytes
        assert sharded.n_keys == flat.n_keys
        assert sharded.bytes_for_prefix("hidden:") == flat.bytes_for_prefix("hidden:")
        assert sorted(sharded.keys()) == sorted(flat.keys())
        # Per-shard snapshots decompose the aggregate exactly.
        snapshots = sharded.shard_snapshots()
        for counter in ("gets", "puts", "deletes", "hits", "misses", "bytes_read", "bytes_written"):
            assert sum(s[counter] for s in snapshots) == flat.stats.snapshot()[counter]

    def test_get_put_round_trip_routes_consistently(self):
        sharded = ShardedKeyValueStore(n_shards=3)
        sharded.put("hidden:42", {"state": 1.0})
        assert "hidden:42" in sharded
        assert sharded.get("hidden:42") == {"state": 1.0}
        assert sharded.delete("hidden:42") and not sharded.delete("hidden:42")
        assert sharded.get("missing") is None

    def test_cost_report_rolls_up_to_aggregate_traffic_cost(self):
        rng = np.random.default_rng(5)
        sharded = ShardedKeyValueStore(n_shards=4)
        self._apply(sharded, self._workload(rng))
        params = CostParameters()
        report = sharded.cost_report(params)
        assert len(report["per_shard"]) == 4
        assert report["total"] == pytest.approx(kv_traffic_cost(sharded.stats, params))
        assert report["storage_bytes"] == sharded.total_bytes
        assert report["load_imbalance"] >= 1.0

    def test_reset_stats_clears_every_shard(self):
        sharded = ShardedKeyValueStore(n_shards=3)
        sharded.put("a", 1)
        sharded.get("a")
        sharded.reset_stats()
        assert sharded.stats.snapshot() == KeyValueStore().stats.snapshot()

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            ShardedKeyValueStore(n_shards=0)


class _EchoBackend:
    """Scores a batch by echoing (user_id, timestamp) — cheap enough for
    thousands of randomized queue interleavings."""

    def predict_batch(self, requests):
        return [(request.user_id, request.timestamp) for request in requests]


class TestDeliveryCursorProperty:
    """Exactly-once, in-order delivery under randomized interleavings.

    Each trial interleaves ``submit`` / ``flush`` / ``drain_completed`` /
    ``advance_to`` (plus direct stream advances and timers, which trigger
    callerless barrier flushes) and checks that concatenating everything any
    call returned with a final drain yields every submitted request exactly
    once, in submission order.
    """

    def _run_trial(self, rng):
        stream = StreamProcessor()
        queue = MicroBatchQueue(
            _EchoBackend(), max_batch_size=int(rng.integers(1, 9)), stream=stream
        )
        clock = 0
        submitted: list[tuple[int, int]] = []
        collected: list[tuple[int, int]] = []
        for _ in range(int(rng.integers(20, 60))):
            action = rng.choice(["submit", "flush", "drain", "advance", "stream", "timer"])
            if action == "submit":
                user_id = int(rng.integers(0, 6))
                collected += queue.submit(user_id, None, clock)
                submitted.append((user_id, clock))
            elif action == "flush":
                collected += queue.flush()
            elif action == "drain":
                collected += queue.drain_completed()
            elif action == "advance":
                clock += int(rng.integers(0, 20))
                collected += queue.advance_to(clock)
            elif action == "stream":
                # Caller drives the stream directly: barrier flushes retain.
                clock += int(rng.integers(0, 20))
                stream.advance_to(clock)
            elif action == "timer":
                stream.set_timer(clock + int(rng.integers(0, 30)), f"t{clock}", lambda k, e: None)
        collected += queue.flush()
        stream.flush()
        collected += queue.drain_completed()
        return submitted, collected, queue

    def test_every_prediction_delivered_exactly_once_in_order(self):
        for trial in range(60):
            rng = np.random.default_rng(10_000 + trial)
            submitted, collected, queue = self._run_trial(rng)
            assert collected == submitted
            assert queue.undelivered == 0 and queue.pending == 0

    def test_predict_never_steals_or_duplicates(self):
        for trial in range(40):
            rng = np.random.default_rng(20_000 + trial)
            queue = MicroBatchQueue(_EchoBackend(), max_batch_size=int(rng.integers(2, 6)), stream=StreamProcessor())
            submitted: list[tuple[int, int]] = []
            collected: list[tuple[int, int]] = []
            for step in range(int(rng.integers(10, 30))):
                user_id = int(rng.integers(0, 6))
                if rng.random() < 0.3:
                    own = queue.predict(user_id, None, step)
                    assert own == (user_id, step)
                    submitted.append((user_id, step))
                    collected.append(own)
                else:
                    collected += queue.submit(user_id, None, step)
                    submitted.append((user_id, step))
            collected += queue.flush()
            collected += queue.drain_completed()
            assert sorted(collected) == sorted(submitted)
            # Out-of-order deliveries can only come from predict() jumping its
            # own result ahead; everything else stays in submission order.
            assert queue.undelivered == 0

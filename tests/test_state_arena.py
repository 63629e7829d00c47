"""State-arena tests: the slab layout is bit-invisible to serving.

The load-bearing claims:

* **The arena is a faithful record store** — a record absorbed into the
  slab materializes back bit-identical (values, dtypes, Python scalar
  types), and the batch encode is row-for-row bit-equal to
  ``quantize_state``.
* **The hosting store meters the arena like per-key records** —
  ``gather_states`` / ``scatter_states`` read, store and meter exactly
  like the per-key state twin (``serving_harness.PerKeyStates``, one
  ``get``/``put`` of a record per key), plain and quantized, including
  mixed storage (records written before the arena attached stay readable).
* **The arena is bit-invisible end to end** — pinned by the twin matrix
  (``tests/test_serving_twins.py``): every engine against its per-key twin
  at batch 1/7/64 on every topology, and composed with a mid-run resize, a
  fail/recover schedule and every other feature; every other feature is
  also pinned on a ``per_key`` topology, off the arena.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    ArenaSpec,
    EngineConfig,
    KeyValueStore,
    StateArena,
    dequantize_state,
    quantize_state,
)
from repro.serving.twins import first_difference
from serving_harness import PerKeyStates, build_engine


# ----------------------------------------------------------------------
# ArenaSpec: the shape contract
# ----------------------------------------------------------------------
class TestArenaSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="prefix"):
            ArenaSpec(prefix="", state_size=8)
        with pytest.raises(ValueError, match="state_size"):
            ArenaSpec(prefix="hidden:", state_size=0)

    def test_byte_accounting_matches_the_entry_layout(self):
        plain = ArenaSpec(prefix="hidden:", state_size=12)
        assert plain.dtype == np.float32
        assert plain.payload_bytes == 12 * 4 + 8  # state nbytes + timestamp
        assert plain.record_bytes == plain.payload_bytes  # no scale field
        quantized = ArenaSpec(prefix="hidden:", state_size=12, quantized=True)
        assert quantized.dtype == np.int8
        assert quantized.payload_bytes == 12 + 8
        assert quantized.record_bytes == 12 + 16  # + the 8-byte scale


# ----------------------------------------------------------------------
# StateArena: record fidelity and the vectorized surface
# ----------------------------------------------------------------------
def plain_record(rng, size=6, timestamp=100):
    return {
        "state": rng.normal(size=size).astype(np.float32),
        "timestamp": timestamp,
    }


def quantized_record(rng, size=6, timestamp=100):
    quantized, scale = quantize_state(rng.normal(size=size))
    return {"state": quantized, "timestamp": timestamp, "scale": scale}


class TestStateArena:
    def test_accepts_only_exact_entry_records(self):
        rng = np.random.default_rng(0)
        arena = StateArena(ArenaSpec(prefix="hidden:", state_size=6))
        good = plain_record(rng)
        assert arena.accepts("hidden:1", good)
        assert not arena.accepts("other:1", good)  # wrong prefix
        assert not arena.accepts("hidden:1", {"state": good["state"]})  # missing field
        assert not arena.accepts("hidden:1", {**good, "extra": 1})  # extra field
        assert not arena.accepts("hidden:1", {**good, "state": good["state"][:3]})
        assert not arena.accepts(
            "hidden:1", {**good, "state": good["state"].astype(np.float64)}
        )
        # np-typed scalars would change type on the way back out: rejected.
        assert not arena.accepts("hidden:1", {**good, "timestamp": np.int64(100)})
        assert not arena.accepts("hidden:1", [1, 2, 3])

    def test_quantized_accepts_requires_float_scale(self):
        rng = np.random.default_rng(1)
        arena = StateArena(ArenaSpec(prefix="hidden:", state_size=6, quantized=True))
        good = quantized_record(rng)
        assert arena.accepts("hidden:1", good)
        assert not arena.accepts("hidden:1", {**good, "scale": np.float64(good["scale"])})
        assert not arena.accepts("hidden:1", plain_record(rng))  # float32, no scale

    @pytest.mark.parametrize("quantized", [False, True])
    def test_ingest_record_round_trip_is_bit_identical(self, quantized):
        rng = np.random.default_rng(2)
        spec = ArenaSpec(prefix="hidden:", state_size=6, quantized=quantized)
        arena = StateArena(spec)
        original = quantized_record(rng) if quantized else plain_record(rng)
        arena.ingest("hidden:1", original)
        out = arena.record("hidden:1")
        assert set(out) == set(original)
        np.testing.assert_array_equal(out["state"], original["state"])
        assert out["state"].dtype == original["state"].dtype
        assert out["state"] is not original["state"]  # fresh copy, not a view
        assert out["timestamp"] == original["timestamp"]
        assert type(out["timestamp"]) is int
        if quantized:
            assert out["scale"] == original["scale"]
            assert type(out["scale"]) is float

    def test_encode_is_bit_equal_to_quantize_state_per_row(self):
        rng = np.random.default_rng(3)
        states = rng.normal(scale=3.0, size=(9, 6))
        states[4] = 0.0  # the all-zero row quantize_state special-cases
        arena = StateArena(ArenaSpec(prefix="hidden:", state_size=6, quantized=True))
        encoded, scales = arena.encode(states)
        for row in range(states.shape[0]):
            expected_state, expected_scale = quantize_state(states[row])
            np.testing.assert_array_equal(encoded[row], expected_state)
            assert scales[row] == expected_scale

    @pytest.mark.parametrize("quantized", [False, True])
    def test_gather_is_bit_equal_to_record_decode(self, quantized):
        rng = np.random.default_rng(4)
        spec = ArenaSpec(prefix="hidden:", state_size=6, quantized=quantized)
        arena = StateArena(spec)
        keys = [f"hidden:{i}" for i in range(7)]
        for i, key in enumerate(keys):
            record = (
                quantized_record(rng, timestamp=100 + i)
                if quantized
                else plain_record(rng, timestamp=100 + i)
            )
            arena.ingest(key, record)
        rows = np.asarray([arena.row_of(key) for key in keys], dtype=np.intp)
        states, timestamps = arena.gather(rows)
        assert states.dtype == np.float64 and timestamps.dtype == np.int64
        for i, key in enumerate(keys):
            record = arena.record(key)
            expected = (
                dequantize_state(record["state"], record["scale"])
                if quantized
                else record["state"].astype(np.float64)
            )
            np.testing.assert_array_equal(states[i], expected)
            assert timestamps[i] == record["timestamp"]

    @pytest.mark.parametrize("quantized", [False, True])
    def test_scatter_is_bit_equal_to_the_per_key_save_path(self, quantized):
        rng = np.random.default_rng(5)
        spec = ArenaSpec(prefix="hidden:", state_size=6, quantized=quantized)
        arena = StateArena(spec)
        keys = [f"hidden:{i}" for i in range(5)]
        states = rng.normal(scale=2.0, size=(5, 6))
        timestamps = np.arange(200, 205, dtype=np.int64)
        arena.scatter(arena.assign_rows(keys), states, timestamps)
        for i, key in enumerate(keys):
            record = arena.record(key)
            if quantized:
                expected_state, expected_scale = quantize_state(states[i])
                np.testing.assert_array_equal(record["state"], expected_state)
                assert record["scale"] == expected_scale
            else:
                np.testing.assert_array_equal(
                    record["state"], states[i].astype(np.float32)
                )
            assert record["timestamp"] == int(timestamps[i])

    def test_grow_preserves_rows_and_doubles_capacity(self):
        arena = StateArena(ArenaSpec(prefix="hidden:", state_size=4), capacity=2)
        rng = np.random.default_rng(6)
        records = {f"hidden:{i}": plain_record(rng, size=4, timestamp=i) for i in range(9)}
        for key, record in records.items():
            arena.ingest(key, record)
        assert arena.capacity == 16  # doubled 2 → 4 → 8 → 16
        for key, record in records.items():
            np.testing.assert_array_equal(arena.record(key)["state"], record["state"])

    def test_discard_recycles_rows(self):
        arena = StateArena(ArenaSpec(prefix="hidden:", state_size=4), capacity=4)
        rng = np.random.default_rng(7)
        arena.ingest("hidden:a", plain_record(rng, size=4))
        row = arena.row_of("hidden:a")
        arena.discard("hidden:a")
        assert "hidden:a" not in arena and len(arena) == 0
        arena.ingest("hidden:b", plain_record(rng, size=4))
        assert arena.row_of("hidden:b") == row  # freed row reused
        arena.discard("hidden:missing")  # no-op, never raises

    def test_clear_forgets_everything(self):
        arena = StateArena(ArenaSpec(prefix="hidden:", state_size=4), capacity=4)
        rng = np.random.default_rng(8)
        for i in range(3):
            arena.ingest(f"hidden:{i}", plain_record(rng, size=4))
        arena.clear()
        assert len(arena) == 0
        arena.ingest("hidden:new", plain_record(rng, size=4))
        assert arena.row_of("hidden:new") == 0


# ----------------------------------------------------------------------
# KeyValueStore hosting: parity with the per-key state twin
# ----------------------------------------------------------------------
SPEC = ArenaSpec(prefix="hidden:", state_size=6)


class TestStoreHosting:
    def test_attach_is_idempotent_and_rejects_contradictions(self):
        store = KeyValueStore("s")
        arena = store.attach_state_arena(SPEC)
        assert store.attach_state_arena(SPEC) is arena
        with pytest.raises(ValueError, match="already hosts"):
            store.attach_state_arena(ArenaSpec(prefix="hidden:", state_size=7))

    def test_put_get_round_trip_through_the_slab(self):
        rng = np.random.default_rng(9)
        store = KeyValueStore("s")
        store.attach_state_arena(SPEC)
        record = plain_record(rng)
        store.put("hidden:1", record, size_bytes=32)
        assert store._data["hidden:1"] is not record  # absorbed, not stored
        out = store.get("hidden:1")
        assert set(out) == {"state", "timestamp"}
        np.testing.assert_array_equal(out["state"], record["state"])
        assert out["timestamp"] == record["timestamp"]
        assert store.size_of("hidden:1") == 32
        assert store.stats.hits == 1 and store.stats.bytes_read == 32

    def test_non_record_values_stay_plain_entries(self):
        store = KeyValueStore("s")
        store.attach_state_arena(SPEC)
        store.put("hidden:meta", {"count": 3})
        store.put("other:1", {"state": 1.0})
        assert store.get("hidden:meta") == {"count": 3}
        assert len(store.arena) == 0
        # Overwriting an arena-resident key with an odd value evicts its row.
        rng = np.random.default_rng(10)
        store.put("hidden:1", plain_record(rng))
        assert "hidden:1" in store.arena
        store.put("hidden:1", {"tombstone": True})
        assert "hidden:1" not in store.arena
        assert store.get("hidden:1") == {"tombstone": True}

    def test_delete_and_clear_release_rows(self):
        rng = np.random.default_rng(11)
        store = KeyValueStore("s")
        store.attach_state_arena(SPEC)
        store.put("hidden:1", plain_record(rng))
        assert store.delete("hidden:1") and "hidden:1" not in store.arena
        store.put("hidden:2", plain_record(rng))
        store.clear()
        assert len(store.arena) == 0 and store.n_keys == 0

    @pytest.mark.parametrize("quantized", [False, True], ids=["plain", "quantized"])
    def test_gather_scatter_match_the_per_key_twin(self, quantized):
        rng = np.random.default_rng(12)
        spec = ArenaSpec(prefix="hidden:", state_size=6, quantized=quantized)
        arena, twin = KeyValueStore("v"), PerKeyStates(KeyValueStore("l"))
        for store in (arena, twin):
            store.attach_state_arena(spec)
        keys = [f"hidden:{i}" for i in range(8)]
        states = rng.normal(size=(8, 6))
        states[3] = 0.0  # the all-zero row quantization special-cases
        timestamps = np.arange(300, 308, dtype=np.int64)
        for store in (arena, twin):
            store.scatter_states(keys, states, timestamps)
        assert twin.store.arena is None and len(arena.arena) == len(keys)
        probe = keys + ["hidden:missing", keys[0]]  # hits, a miss, a duplicate
        gathered = arena.gather_states(probe)
        assert first_difference({"gather": list(gathered)}, {"gather": list(twin.gather_states(probe))}) is None
        assert gathered[2].tolist() == [spec.payload_bytes] * 8 + [0, spec.payload_bytes]
        assert sorted(arena.keys()) == sorted(twin.keys())
        for key in keys:
            assert first_difference({"record": arena.peek(key)}, {"record": twin.peek(key)}) is None
            assert arena.size_of(key) == twin.size_of(key) == spec.record_bytes
        assert arena.stats.snapshot() == twin.stats.snapshot()

    def test_pre_attach_records_stay_readable_mixed_with_slab_rows(self):
        rng = np.random.default_rng(13)
        store = KeyValueStore("s")
        stray = plain_record(rng, timestamp=400)
        store.put("hidden:old", stray, size_bytes=SPEC.record_bytes)  # before attach
        store.attach_state_arena(SPEC)
        store.scatter_states(
            ["hidden:new"], rng.normal(size=(1, 6)), np.asarray([500], dtype=np.int64)
        )
        assert "hidden:old" not in store.arena and "hidden:new" in store.arena
        states, timestamps, present = store.gather_states(["hidden:old", "hidden:new"])
        assert present.all()
        np.testing.assert_array_equal(states[0], stray["state"].astype(np.float64))
        assert timestamps[0] == 400 and timestamps[1] == 500
        # The next write absorbs the stray key into the slab.
        store.put("hidden:old", plain_record(rng, timestamp=401), size_bytes=32)
        assert "hidden:old" in store.arena


# ----------------------------------------------------------------------
# Engine level: the arena is pinned bit-invisible against the per-key twin
# by the twin matrix (tests/test_serving_twins.py); here, the retired
# state_layout field.
# ----------------------------------------------------------------------
class TestRetiredStateLayout:
    def test_state_layout_validation(self):
        with pytest.raises(ValueError, match="state_layout"):
            EngineConfig(backend="hidden_state", session_length=600, state_layout="slab")

    @pytest.mark.parametrize("layout", ["entries", "arena"])
    def test_both_legal_names_build_the_one_layout(self, serving_parts, layout):
        engine = build_engine(serving_parts, state_layout=layout)
        network = serving_parts[2]
        assert engine.store.arena.spec == ArenaSpec(prefix="hidden:", state_size=network.state_size)
        engine.close()

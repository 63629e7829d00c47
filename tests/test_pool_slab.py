"""One pool slab: a placed read wave against the per-shard reference.

The load-bearing claims:

* **A placed wave is the per-shard path, wave by wave** — an in-sync pool
  whose every key's primary holds a slab row reads the wave with one
  placement lookup per key and one ``take`` per slab array.  Against a twin
  pool forced down the per-shard ``_read_groups`` path, seeded programs of
  scatter / put / delete / gather waves (duplicate and missing keys, keys
  written before the arena attached, records billed off the slab's size),
  failures, lazy and eager recoveries, added and removed shards and slab
  re-layouts leave every gather's arrays, every shard's meters and the
  traced ``kv_op`` events identical, at 1–6 shards, r = 1–3, plain and
  quantized.  Mutants the module kills (each run in a scratch copy): the
  placement map not cleared when an arena frees a row (``discard``; and
  ``clear``, by the unit test below), region offsets left stale after a
  re-layout, local rows read without their region offset, a region grown
  within the stride pointed at the wrong rows, per-shard meters billed to
  shard 0, ``kv_op`` events in shard-index rather than first-appearance
  order, and ``accepts`` ignoring the billed size.  The pool's own clears
  on a membership change, failure or recovery survive as mutants: the rows
  those operations free (a migration's deletes, a failed shard's wipe)
  already clear the map, and a degraded pool places nothing.
* **Each arena is still its own region** — ``len``, ``capacity`` and
  doubling are per arena; re-layouts stay logarithmic in the row count,
  an unsharded store keeps a private one-region slab, and a record billed
  at any size but ``record_bytes`` stays a per-key entry.
* **The ring hashes a key once** — a read then a write of a new key runs
  ``_stable_hash`` once for it, at every replication.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.serving import ArenaSpec, KeyValueStore, ShardedKeyValueStore, router
from test_batch_kv import fingerprint, plain

POPULATION = [f"user:{i}" for i in range(120)]
MISSING = [f"user:missing-{i}" for i in range(6)]
PRE_ATTACH = [f"user:pre-{i}" for i in range(6)]


class PerShardPool(ShardedKeyValueStore):
    """A pool that never places a wave: every gather takes ``_read_groups``."""

    def _place(self, keys):
        return None


class KvLog:
    """A tracer that records every metered KV operation."""

    enabled = True

    def __init__(self) -> None:
        self.ops: list[tuple[str, str, int, int]] = []

    def kv_op(self, op: str, shard: str, n_keys: int, n_bytes: int) -> None:
        self.ops.append((op, shard, n_keys, n_bytes))


def spec_for(quantized: bool) -> ArenaSpec:
    return ArenaSpec(prefix="user:", state_size=5, quantized=quantized)


def record(spec: ArenaSpec, rng, stamp: int) -> dict:
    state = rng.standard_normal(spec.state_size)
    if spec.quantized:
        scale = float(np.abs(state).max() / 127.0)
        return {"state": np.rint(state / scale).astype(np.int8), "timestamp": stamp, "scale": scale}
    return {"state": state.astype(np.float32), "timestamp": stamp}


def twin_pools(n_shards: int, replication: int, spec: ArenaSpec):
    """The pool under test and its per-shard twin, each traced, each holding
    records written before the arena attached."""
    pools = []
    for cls in (ShardedKeyValueStore, PerShardPool):
        pool = cls(n_shards, replication=replication)
        rng = np.random.default_rng(1)
        for stamp, key in enumerate(PRE_ATTACH):
            pool.put(key, record(spec, rng, stamp), size_bytes=spec.record_bytes)
        pool.attach_state_arena(spec)
        pool.attach_tracer(KvLog())
        pools.append(pool)
    return pools


def put_before_attach(pool, key, value, size):
    """Write ``value`` as a store holds one written before its arena attached."""
    arenas = [shard.arena for shard in pool.shards]
    for shard in pool.shards:
        shard.arena = None
    pool.put(key, value, size_bytes=size)
    for shard, arena in zip(pool.shards, arenas):
        shard.arena = arena


def wave(rng, size, early):
    """Keys drawn with replacement: duplicates, misses, and keys written
    before the arena attached or while it was detached."""
    pool = POPULATION + MISSING + PRE_ATTACH + early
    weights = np.r_[np.full(len(POPULATION), 1.0), np.full(len(pool) - len(POPULATION), 0.05)]
    return [pool[i] for i in rng.choice(len(pool), size=size, p=weights / weights.sum())]


def client_step(rng, spec, stamp, early):
    """One seeded client operation as ``pool -> result``; the arguments are
    drawn here, once, so both pools are handed the very same call."""
    kind = str(rng.choice(["gather", "gather", "mixed", "scatter", "put", "off_size", "delete", "early"]))
    if kind == "gather":
        keys = [POPULATION[i] for i in rng.integers(0, len(POPULATION), size=int(rng.integers(1, 33)))]
        return kind, lambda pool: pool.gather_states(keys)
    if kind == "mixed":
        keys = wave(rng, int(rng.integers(1, 65)), early)
        return "gather", lambda pool: pool.gather_states(keys)
    if kind == "scatter":
        keys = [POPULATION[i] for i in rng.integers(0, len(POPULATION), size=int(rng.integers(1, 40)))]
        states = rng.standard_normal((len(keys), spec.state_size))
        return kind, lambda pool: pool.scatter_states(keys, states, [stamp] * len(keys))
    key = POPULATION[int(rng.integers(0, len(POPULATION)))]
    value = record(spec, rng, stamp)
    if kind == "put":
        return kind, lambda pool: pool.put(key, value, size_bytes=spec.record_bytes)
    if kind == "off_size":  # billed off the slab's size: leaves the slab
        return kind, lambda pool: pool.put(key, value, size_bytes=spec.record_bytes + 8)
    if kind == "delete":
        return kind, lambda pool: pool.delete(key)
    key = f"user:early-{len(early)}"
    early.append(key)
    return kind, lambda pool: put_before_attach(pool, key, value, spec.record_bytes)


def membership_steps(n_shards, replication, spec, rng):
    """A growth wave that re-lays the slab out, then failures, both
    recoveries and a shard added and removed (what the pool allows)."""
    growth = [f"user:grown-{i}" for i in range(700)]
    states = rng.standard_normal((len(growth), spec.state_size))
    steps = [lambda pool: pool.scatter_states(growth + POPULATION[:8], np.r_[states, states[:8]], [0] * 708)]
    if replication > 1:
        steps += [
            lambda pool: pool.fail_shard(pool.shards[0].name),
            lambda pool: pool.recover_shard(pool.shards[0].name, rehydrate=False),
            lambda pool: pool.gather_states(list(pool.keys())),  # repairs every key
            lambda pool: pool.fail_shard(pool.shards[-1].name),
            lambda pool: pool.recover_shard(pool.shards[-1].name),
        ]
    steps += [lambda pool: pool.add_shard()]
    if n_shards > replication:
        steps += [lambda pool: pool.remove_shard(pool.shards[0].name)]
    return steps


def program(rng, n_shards, replication, spec, *, steps_per_round=20):
    """Rounds of client operations before, between and after the membership
    steps, each round starting from a rewrite of the whole population."""
    early: list[str] = []
    stamp = 0
    for membership in [None, *membership_steps(n_shards, replication, spec, rng)]:
        if membership is not None:
            yield "membership", membership
        states = rng.standard_normal((len(POPULATION), spec.state_size))
        yield "scatter", lambda pool, states=states, stamp=stamp: pool.scatter_states(
            POPULATION, states, [stamp] * len(POPULATION)
        )
        for _ in range(steps_per_round):
            stamp += 1
            yield client_step(rng, spec, stamp, early)


def shard_meters(pool):
    return [(shard.name, shard.stats.snapshot()) for shard in pool.shards]


CASES = [(n, r) for n in range(1, 7) for r in range(1, 4) if r <= n]


@pytest.mark.parametrize("quantized", [False, True], ids=["plain", "quantized"])
@pytest.mark.parametrize("n_shards,replication", CASES)
def test_placed_waves_equal_the_per_shard_path(n_shards, replication, quantized):
    spec = spec_for(quantized)
    placed_pool, reference = twin_pools(n_shards, replication, spec)
    placed = []
    gather_placed = placed_pool._gather_placed
    placed_pool._gather_placed = lambda rows, shards: placed.append(len(rows)) or gather_placed(rows, shards)
    rng = np.random.default_rng(1000 * n_shards + 10 * replication + quantized)
    gathers = relayouts = 0
    for kind, step in program(rng, n_shards, replication, spec):
        before = placed_pool._slab.relayouts
        got, expected = step(placed_pool), step(reference)
        relayouts += placed_pool._slab.relayouts > before
        assert plain(got) == plain(expected), kind
        assert shard_meters(placed_pool) == shard_meters(reference), kind
        assert placed_pool.tracer.ops == reference.tracer.ops, kind
        gathers += kind == "gather"
    assert fingerprint(placed_pool) == fingerprint(reference)
    # Both paths ran in the pool under test: placed waves, and waves that
    # fell back (misses, pre-attach records, a degraded pool).
    assert len(placed) > 10 and gathers > len(placed)
    assert relayouts >= 2  # the growth wave and the membership changes
    # Each arena kept its own region: local rows read the same bits as the slab.
    slab = placed_pool._slab
    for index, shard in enumerate(placed_pool.shards):
        assert slab.arenas[index] is shard.arena
        keys = [key for key in shard.keys() if key in shard.arena]
        rows = np.asarray(shard.arena.rows_of(keys), dtype=np.intp)
        assert plain(shard.arena.gather(rows)) == plain(slab.gather(rows + slab.offsets[index]))


class TestSlabLayout:
    def test_regions_grow_per_arena_with_logarithmic_relayouts(self):
        spec = spec_for(quantized=True)
        pool = ShardedKeyValueStore(4, replication=2)
        pool.attach_state_arena(spec)
        slab = pool._slab
        assert slab.relayouts == 4  # one per region attached
        keys = [f"user:{i}" for i in range(20_000)]
        rng = np.random.default_rng(2)
        for start in range(0, len(keys), 500):
            block = keys[start : start + 500]
            pool.scatter_states(block, rng.standard_normal((len(block), spec.state_size)), [1] * len(block))
        capacities = [shard.arena.capacity for shard in pool.shards]
        for shard in pool.shards:  # each arena doubles from 256 on its own rows
            assert shard.arena.capacity == 256 * 2 ** math.ceil(math.log2(len(shard.arena) / 256))
        assert slab.stride == max(capacities)
        assert slab.relayouts - 4 <= math.log2(slab.stride / 256)
        assert slab.states.shape[0] == 4 * slab.stride
        states, timestamps, fetched = pool.gather_states(keys)
        assert (fetched == spec.payload_bytes).all() and (timestamps == 1).all()

    def test_an_unsharded_store_has_a_private_one_region_slab(self):
        store = KeyValueStore("s")
        arena = store.attach_state_arena(spec_for(quantized=False))
        assert arena.slab.arenas == [arena] and arena.slab.stride == arena.capacity == 256
        store.scatter_states([f"user:{i}" for i in range(300)], np.ones((300, 5)), [1] * 300)
        assert arena.capacity == arena.slab.stride == 512 and arena.slab.relayouts == 2
        assert arena.slab.states is not None and arena._states.base is arena.slab.states

    def test_a_record_billed_off_the_slab_size_stays_a_per_key_entry(self):
        spec = spec_for(quantized=False)
        store = KeyValueStore("s")
        store.attach_state_arena(spec)
        value = record(spec, np.random.default_rng(3), 7)
        store.put("user:1", value, size_bytes=spec.record_bytes)
        assert "user:1" in store.arena and store.size_of("user:1") == spec.record_bytes
        store.put("user:1", value, size_bytes=spec.record_bytes + 8)
        assert "user:1" not in store.arena and store.size_of("user:1") == spec.record_bytes + 8
        assert store.arena._free == [0]  # its row was freed
        store.put("user:2", value)  # unbilled: billed at the slab's size
        assert "user:2" in store.arena and store.size_of("user:2") == spec.record_bytes
        states, _, fetched = store.gather_states(["user:1", "user:2"])
        assert (fetched == spec.payload_bytes).all()
        assert store.stats.bytes_read == 2 * spec.record_bytes + 8

    def test_freeing_a_row_forgets_every_placement(self):
        spec = spec_for(quantized=False)
        pool = ShardedKeyValueStore(3)
        pool.attach_state_arena(spec)
        keys = [f"user:{i}" for i in range(30)]
        pool.scatter_states(keys, np.ones((30, spec.state_size)), [1] * 30)
        pool.gather_states(keys)
        assert len(pool._placement) == 30
        pool.delete(keys[0])
        assert not pool._placement
        pool.gather_states(keys[1:])
        pool.shards[1].clear()
        assert not pool._placement


@pytest.mark.parametrize("replication", [1, 2, 3])
def test_a_new_key_is_hashed_once_through_a_read_and_a_write(monkeypatch, replication):
    pool = ShardedKeyValueStore(4, replication=replication)
    pool.attach_state_arena(spec_for(quantized=False))
    hashed = []
    stable_hash = router._stable_hash
    monkeypatch.setattr(router, "_stable_hash", lambda value: hashed.append(value) or stable_hash(value))
    keys = [f"user:{i}" for i in range(40)]
    for key in keys[:20]:  # per-key entry points
        pool.get(key)
        pool.put(key, {"v": 1}, size_bytes=8)
        pool.get(key)
    pool.gather_states(keys[20:])  # a read wave, then a write wave
    pool.scatter_states(keys[20:], np.ones((20, 5)), [1] * 20)
    pool.gather_states(keys[20:])
    assert hashed == keys
    # A membership change hashes the new shard's points, then each key once more.
    hashed.clear()
    pool.add_shard()
    pool.get_many(keys)
    pool.put_many([(key, {"v": 2}, 8) for key in keys[:20]])
    assert len(hashed) == pool._ring.replicas + len(keys) and set(hashed[-len(keys):]) == set(keys)

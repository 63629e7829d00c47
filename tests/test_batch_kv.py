"""Batch KV APIs and replication-metering fixes.

The load-bearing claims:

* **``get_many``/``put_many`` are the loops, batched** — against a twin
  pool driven by per-key ``get``/``put``, a seeded mixed workload leaves
  values, per-shard contents, every traffic meter and the logical key
  order bit-identical, at r=1 and r=3, through a mid-run resize and
  through a shard failure + lazy recovery.
* **State waves are the per-key records, batched** — a pool's
  ``scatter_states``/``gather_states`` against the per-key state twin
  (``serving_harness.PerKeyStates``) leave the same records, reads and
  meters, plain and quantized, at r=1 and r=3 through a failure and
  recovery.
* **In sync, a replicated pool routes like an unreplicated one** — against
  a twin pinned to the per-key read planner, a seeded program over every
  read/write entry point, ``delete``, shard failures, eager and lazy
  recoveries and resizes leaves results and fingerprints identical after
  every step, and the key → owners-behind map stays *exact*: a live owner
  holds a key's value unless the map names it, and the map names nothing
  else.
* **Orphaning faults fail loudly** — a lazy recovery followed by the
  failure of the last current owner leaves keys no live shard holds; every
  read of one raises, the other keys read correctly, and a write heals it.
* **Repair traffic is not client traffic** — read-repair and re-hydration
  copies land on the dedicated ``ring.repair_*`` meters; a stale-replica
  read leaves the client ``puts`` rollup unchanged.
* **Storage accounting is logical** — ``bytes_for_prefix`` /
  ``cost_report['storage_bytes']`` count each key once, so replication no
  longer multiplies the per-user footprint (physical stays available).
* **``load_imbalance`` describes the live pool** — wiped shards no longer
  drag the mean down during exactly the failover window that matters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    RING_COUNTER_FIELDS,
    ArenaSpec,
    KeyValueStore,
    MetricsRegistry,
    ShardedKeyValueStore,
)
from serving_harness import PerKeyStates

KEYS = [f"user:{i}" for i in range(40)]
POPULATION = KEYS + ["user:missing-a", "user:missing-b"]  # reads also miss


# ----------------------------------------------------------------------
# Single-store batching
# ----------------------------------------------------------------------
class TestStoreBatchOps:
    def test_get_many_is_the_get_loop(self):
        batched, looped = KeyValueStore("b"), KeyValueStore("l")
        for store in (batched, looped):
            for i, key in enumerate(KEYS[:10]):
                store.put(key, {"v": i}, size_bytes=24)
        probe = KEYS[:10] + ["user:missing", KEYS[0], KEYS[0]]  # misses + duplicates
        assert batched.get_many(probe, default="absent") == [
            looped.get(key, "absent") for key in probe
        ]
        assert batched.stats.snapshot() == looped.stats.snapshot()

    def test_put_many_is_the_put_loop(self):
        batched, looped = KeyValueStore("b"), KeyValueStore("l")
        items = [(KEYS[i % 4], {"v": i}, 24 if i % 2 else None) for i in range(9)]
        batched.put_many(items)
        for key, value, size in items:
            looped.put(key, value, size_bytes=size)
        assert batched.stats.snapshot() == looped.stats.snapshot()
        assert {k: batched.get(k) for k in KEYS[:4]} == {k: looped.get(k) for k in KEYS[:4]}
        assert batched.total_bytes == looped.total_bytes

    def test_empty_batches_still_meter_like_empty_loops(self):
        store = KeyValueStore("s")
        assert store.get_many([]) == []
        store.put_many([])
        assert store.stats.snapshot() == KeyValueStore("fresh").stats.snapshot()


# ----------------------------------------------------------------------
# Pool-level property suite: batched twin vs looped twin
# ----------------------------------------------------------------------
def twin_pools(n_shards=5, replication=1):
    return (
        ShardedKeyValueStore(n_shards, replication=replication),
        ShardedKeyValueStore(n_shards, replication=replication),
    )


def plain(value):
    """``value`` with every ndarray replaced by ``(dtype, shape, bytes)``, so
    records and gather results compare with ``==``, bit for bit."""
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def fingerprint(pool):
    """Everything observable about a pool: per-shard contents and meters,
    the rollup, the logical keys in order and the ring meters."""
    return {
        "stats": pool.stats.snapshot(),
        "shards": [
            (
                shard.name,
                shard.stats.snapshot(),
                {key: plain(shard.peek(key)) for key in sorted(shard.keys())},
                shard.total_bytes,
            )
            for shard in pool.shards
        ],
        "keys": list(pool.keys()),
        "ring": {field: getattr(pool, field) for field in RING_COUNTER_FIELDS},
    }


def run_workload(batched, looped, rng, *, rounds=10, allow_duplicates=True):
    """Drive both pools through the same seeded mix of batch writes and
    reads (misses and, when safe, duplicate keys included) and require the
    batched pool to stay bit-identical to the looped one every round."""
    population = np.asarray(POPULATION)
    for round_index in range(rounds):
        n_writes = int(rng.integers(1, 18))
        chosen = rng.choice(len(KEYS), size=n_writes, replace=True)
        items = [
            (KEYS[i], {"v": int(rng.integers(0, 1000)), "round": round_index}, 56)
            for i in chosen
        ]
        batched.put_many(items)
        for key, value, size in items:
            looped.put(key, value, size_bytes=size)
        n_reads = int(rng.integers(1, 24 if allow_duplicates else len(population)))
        read_keys = list(rng.choice(population, size=n_reads, replace=allow_duplicates))
        assert batched.get_many(read_keys, default="absent") == [
            looped.get(key, "absent") for key in read_keys
        ]
        assert fingerprint(batched) == fingerprint(looped)


class TestPoolBatchProperty:
    def test_unreplicated(self):
        batched, looped = twin_pools(replication=1)
        run_workload(batched, looped, np.random.default_rng(100))

    def test_replicated(self):
        batched, looped = twin_pools(replication=3)
        run_workload(batched, looped, np.random.default_rng(101))

    def test_replicated_through_a_resize(self):
        batched, looped = twin_pools(replication=3)
        rng = np.random.default_rng(102)
        run_workload(batched, looped, rng, rounds=4)
        for pool in (batched, looped):
            pool.resize(7)
        run_workload(batched, looped, rng, rounds=4)
        for pool in (batched, looped):
            pool.resize(5)
        run_workload(batched, looped, rng, rounds=4)

    def test_replicated_through_failure_and_lazy_recovery(self):
        batched, looped = twin_pools(replication=3)
        rng = np.random.default_rng(103)
        run_workload(batched, looped, rng, rounds=3)
        victim = batched.shards[1].name
        for pool in (batched, looped):
            pool.fail_shard(victim)
        run_workload(batched, looped, rng, rounds=3)
        for pool in (batched, looped):
            pool.recover_shard(victim, rehydrate=False)
        # Post-recovery reads hit stale replicas: read-repair fires inside
        # get_many exactly where the looped path repairs.  Duplicate keys
        # are excluded here — the loop repairs between the two reads of a
        # duplicate, which can legitimately shift which shard serves the
        # second one (totals agree, attribution may not).
        run_workload(batched, looped, rng, rounds=4, allow_duplicates=False)
        assert batched.repair_puts > 0
        assert fingerprint(batched) == fingerprint(looped)


# ----------------------------------------------------------------------
# State waves vs the per-key state twin: same waves, twin pools
# ----------------------------------------------------------------------
@pytest.mark.parametrize("quantized", [False, True], ids=["plain", "quantized"])
@pytest.mark.parametrize("replication", [1, 3])
def test_state_waves_match_the_per_key_twin(replication, quantized):
    """A pool's slab ``scatter_states`` / ``gather_states`` store, read and
    meter what one ``put`` / ``get`` of a record per key does, through a
    shard failure and its recovery under replication."""
    spec = ArenaSpec(prefix="user:", state_size=4, quantized=quantized)
    arena, looped = twin_pools(replication=replication)
    twin = PerKeyStates(looped)
    for pool in (arena, twin):
        pool.attach_state_arena(spec)
    victim = arena.shards[1].name
    faults = {3: "fail_shard", 6: "recover_shard"} if replication > 1 else {}
    rng = np.random.default_rng(300 + replication)
    written: set[str] = set()
    for round_index in range(8):
        if round_index in faults:
            for pool in (arena, looped):
                getattr(pool, faults[round_index])(victim)
        keys = [KEYS[i] for i in rng.integers(0, len(KEYS), size=int(rng.integers(1, 18)))]
        written.update(keys)
        states = rng.standard_normal((len(keys), spec.state_size))
        states[0] = 0.0  # the all-zero row quantization special-cases
        for pool in (arena, twin):
            pool.scatter_states(keys, states, np.full(len(keys), round_index, np.int64))
        # Stored keys only (an in-sync pool places the wave), then a mix with misses.
        for read_keys in (sorted(written), [POPULATION[i] for i in rng.integers(0, len(POPULATION), size=12)]):
            assert plain(list(arena.gather_states(read_keys))) == plain(list(twin.gather_states(read_keys)))
        assert fingerprint(arena) == fingerprint(looped)
    assert looped.shards[0].arena is None and len(arena.shards[0].arena)


# ----------------------------------------------------------------------
# In-sync routing vs the per-key planner: same program, twin pools
# ----------------------------------------------------------------------
SPEC = ArenaSpec(prefix="user:", state_size=4)
PIN = "user:never-touched"


def in_sync_and_pinned(replication, n_shards=5):
    """Twin arena pools; the second is held on the per-key path for good by
    a map entry for a key no operation ever reads, writes or deletes, naming
    a shard that never exists (so no ``fail_shard`` forgets it)."""
    fast, pinned = twin_pools(n_shards, replication)
    for pool in (fast, pinned):
        pool.attach_state_arena(SPEC)
    pinned._behind[PIN] = {"nobody"}
    return fast, pinned


def random_step(rng, stamp):
    """One seeded client operation as ``pool -> result``; the arguments are
    drawn here, once, so both pools are handed the very same call."""
    kind = str(rng.choice(
        ["put", "put_many", "scatter_states", "get", "get_many", "gather_states", "peek", "delete"]
    ))
    if kind in ("put", "put_many", "scatter_states", "delete"):
        keys = [KEYS[i] for i in rng.integers(0, len(KEYS), size=int(rng.integers(1, 9)))]
    else:
        keys = [POPULATION[i] for i in rng.integers(0, len(POPULATION), size=int(rng.integers(1, 12)))]
    states = rng.standard_normal((len(keys), SPEC.state_size))
    records = [{"state": row.astype(np.float32), "timestamp": stamp} for row in states]
    return {
        "put": lambda pool: pool.put(keys[0], records[0], size_bytes=SPEC.record_bytes),
        "put_many": lambda pool: pool.put_many(
            [(key, record, SPEC.record_bytes) for key, record in zip(keys, records)]
        ),
        "scatter_states": lambda pool: pool.scatter_states(keys, states, [stamp] * len(keys)),
        "get": lambda pool: pool.get(keys[0], "absent"),
        "get_many": lambda pool: pool.get_many(keys, "absent"),
        "gather_states": lambda pool: pool.gather_states(keys),
        "peek": lambda pool: pool.peek(keys[0], "absent"),
        "delete": lambda pool: pool.delete(keys[0]),
    }[kind]


def membership_steps(names, replication):
    """Failures, both recovery modes and a resize there and back — one
    resize with stale keys outstanding, one after a full sweep has repaired
    them; at r=3 two shards are then down at once and come back one lazily,
    one eagerly."""
    first, second = names[1], names[3]
    steps = [
        lambda pool: pool.fail_shard(first),
        lambda pool: pool.recover_shard(first, rehydrate=False),
        lambda pool: pool.resize(7),
        lambda pool: pool.gather_states(KEYS),
        lambda pool: pool.fail_shard(second),
        lambda pool: pool.recover_shard(second),
        lambda pool: pool.resize(5),
    ]
    if replication > 2:
        steps += [
            lambda pool: pool.fail_shard(first),
            lambda pool: pool.fail_shard(second),
            lambda pool: pool.recover_shard(second, rehydrate=False),
            lambda pool: pool.recover_shard(first),
            lambda pool: pool.get_many(KEYS),
        ]
    return steps


def program(rng, names, replication, *, steps_per_round=12):
    """The whole seeded program: a round of client operations before, between
    and after the membership steps."""
    stamp = 0
    for membership in [None, *membership_steps(names, replication)]:
        if membership is not None:
            yield membership
        for _ in range(steps_per_round):
            stamp += 1
            yield random_step(rng, stamp)


def assert_behind_map_is_exact(pool):
    """The map is exact: a live owner holds a logical key unless the map
    names it — what lets an in-sync read go to the primary — a failed shard
    holds nothing, and the map names only live owners of keys that exist
    (the pinning entry aside)."""
    by_name = {shard.name: shard for shard in pool.shards}
    assert all(len(by_name[name]) == 0 for name in pool.failed_shards)
    behind = {key: names for key, names in pool._behind.items() if key != PIN}
    logical = list(pool.keys())
    for key in logical:
        for name in pool.owner_names(key):
            if name not in pool.failed_shards:
                assert by_name[name].contains(key) == (name not in behind.get(key, ())), (key, name)
    for key, names in behind.items():
        assert key in logical and names, key
        assert names <= set(pool.owner_names(key)) - set(pool.failed_shards), key


@pytest.mark.parametrize("replication", [2, 3])
class TestInSyncRouting:
    def test_in_sync_pool_equals_a_twin_pinned_to_the_planner(self, replication):
        fast, pinned = in_sync_and_pinned(replication)
        rng = np.random.default_rng(200 + replication)
        steps_in_sync = steps_degraded = 0
        for step in program(rng, [shard.name for shard in fast.shards], replication):
            if fast.failed_shards or fast._behind:
                steps_degraded += 1
            else:
                steps_in_sync += 1
            assert plain(step(fast)) == plain(step(pinned))
            assert pinned._behind == {**fast._behind, PIN: {"nobody"}}
            assert fingerprint(fast) == fingerprint(pinned)
            assert_behind_map_is_exact(fast)
            assert_behind_map_is_exact(pinned)
        # Both sides of the selection ran — the fast pool took steps in sync
        # and steps degraded, and ends in sync — and every repair path fired.
        assert steps_in_sync > 30 and steps_degraded > 30
        assert not (fast.failed_shards or fast._behind)
        assert fast.repair_puts > 0 and fast.repair_gets > 0 and fast.keys_migrated > 0

    def test_lazy_recovery_fills_the_stale_set_and_reads_drain_it(self, replication):
        pool = ShardedKeyValueStore(5, replication=replication)
        pool.attach_state_arena(SPEC)
        pool.scatter_states(KEYS, np.ones((len(KEYS), SPEC.state_size)), [1] * len(KEYS))
        victim = pool.shards[2].name
        owned = [key for key in KEYS if victim in pool.owner_names(key)]
        pool.fail_shard(victim)
        pool.recover_shard(victim, rehydrate=False)
        assert set(pool._behind) == set(owned) and owned
        pool.peek(owned[0])  # looking repairs nothing
        assert set(pool._behind) == set(owned) and pool.repair_puts == 0
        # Every read entry point drains what it repairs, duplicates once.
        pool.get(owned[0])
        pool.get_many(owned[1:3] + owned[1:2])
        assert set(pool._behind) == set(owned[3:]) and pool.repair_puts == 3
        pool.gather_states(KEYS)
        assert not pool._behind and pool.repair_puts == len(owned)
        assert_behind_map_is_exact(pool)
        # Back in sync: further reads repair nothing and go to the primary.
        gets_before = [shard.stats.gets for shard in pool.shards]
        pool.get_many(KEYS)
        assert pool.repair_puts == len(owned)
        primary_reads = [sum(pool.shard_index(key) == i for key in KEYS) for i in range(5)]
        assert [s.stats.gets - g for s, g in zip(pool.shards, gets_before)] == primary_reads

    def test_writes_and_deletes_drain_the_stale_set(self, replication):
        pool, victim = stale_pool(replication=replication)
        owned = sorted(pool._behind)
        assert len(owned) >= 4
        pool.put(owned[0], {"v": -1}, size_bytes=56)
        pool.put_many([(owned[1], {"v": -2}, 56)])
        pool.put_unmetered(owned[2], {"v": -3}, 56)
        pool.delete(owned[3])
        assert set(pool._behind) == set(owned[4:])
        assert pool.repair_puts == 0  # a write is not a repair
        assert_behind_map_is_exact(pool)

    def test_a_behind_shard_that_fails_again_is_forgotten(self, replication):
        pool, victim = stale_pool(replication=replication)
        assert pool._behind
        pool.fail_shard(victim)
        assert not pool._behind  # the map names live owners only
        assert_behind_map_is_exact(pool)
        pool.recover_shard(victim)
        owned = [key for key in KEYS if victim in pool.owner_names(key)]
        assert not pool._behind and pool.repair_puts == len(owned)
        assert pool.get_many(KEYS) == [{"v": i} for i in range(len(KEYS))]


# ----------------------------------------------------------------------
# Repair traffic is infrastructure, not client traffic (the metering fix)
# ----------------------------------------------------------------------
def stale_pool(registry=None, replication=2):
    """A pool with one recovered-but-empty shard: every key it owns is
    stale, so the next read of each one must read-repair."""
    pool = ShardedKeyValueStore(4, replication=replication, registry=registry)
    for i, key in enumerate(KEYS):
        pool.put(key, {"v": i}, size_bytes=56)
    victim = pool.shards[0].name
    pool.fail_shard(victim)
    pool.recover_shard(victim, rehydrate=False)
    return pool, victim


class TestRepairMetering:
    def test_stale_replica_read_leaves_client_puts_unchanged(self):
        pool, victim = stale_pool()
        owned = [key for key in KEYS if victim in pool.owner_names(key)]
        assert owned, "victim must own something for the test to bite"
        before = pool.stats.snapshot()
        values = pool.get_many(owned)
        assert values == [{"v": KEYS.index(key)} for key in owned]
        after = pool.stats.snapshot()
        # Reads metered as reads; the repair copies billed no client write.
        assert after["gets"] == before["gets"] + len(owned)
        assert after["puts"] == before["puts"]
        assert after["bytes_written"] == before["bytes_written"]
        assert pool.repair_puts == len(owned)
        assert pool.repair_bytes_written == len(owned) * 56
        # ...and the repaired replica is actually current again.
        by_name = {shard.name: shard for shard in pool.shards}
        for key in owned:
            assert by_name[victim].peek(key) == {"v": KEYS.index(key)}

    def test_looped_reads_meter_repairs_identically(self):
        pool, victim = stale_pool()
        owned = [key for key in KEYS if victim in pool.owner_names(key)]
        puts_before = pool.stats.puts
        for key in owned:
            pool.get(key)
        assert pool.stats.puts == puts_before
        assert pool.repair_puts == len(owned)

    def test_eager_rehydration_meters_source_reads_as_repair_gets(self):
        pool = ShardedKeyValueStore(4, replication=2)
        for i, key in enumerate(KEYS):
            pool.put(key, {"v": i}, size_bytes=56)
        victim = pool.shards[0].name
        owned = [key for key in KEYS if victim in pool.owner_names(key)]
        pool.fail_shard(victim)
        before = pool.stats.snapshot()
        pool.recover_shard(victim)
        # Re-hydration reads the surviving replica and writes the recovered
        # shard without touching any client counter.
        assert pool.stats.snapshot() == before
        assert pool.repair_gets == len(owned)
        assert pool.repair_bytes_read == len(owned) * 56
        assert pool.repair_puts == len(owned)
        assert pool.keys_rehydrated == len(owned)

    def test_repair_meters_flow_to_the_registry(self):
        registry = MetricsRegistry()
        pool, victim = stale_pool(registry=registry)
        owned = [key for key in KEYS if victim in pool.owner_names(key)]
        pool.get_many(owned)
        snapshot = registry.snapshot(prefix="ring.kv.")
        assert snapshot["ring.kv.repair_puts"]["value"] == pool.repair_puts == len(owned)
        assert snapshot["ring.kv.repair_bytes_written"]["value"] == pool.repair_bytes_written
        assert snapshot["ring.kv.repair_gets"]["value"] == 0  # lazy path: no source scan


# ----------------------------------------------------------------------
# Orphaning faults: no live copy is an error, never a miss
# ----------------------------------------------------------------------
ORPHAN_STATES = np.arange(len(KEYS) * SPEC.state_size, dtype=np.float64).reshape(len(KEYS), -1)
NO_LIVE_COPY = "no live replica holds the current version"

ORPHAN_READS = {
    "get": lambda pool, healthy, orphan: pool.get(orphan),
    "get_many": lambda pool, healthy, orphan: pool.get_many([healthy, orphan]),
    "gather_states": lambda pool, healthy, orphan: pool.gather_states([healthy, orphan]),
    "peek": lambda pool, healthy, orphan: pool.peek(orphan),
    "size_of": lambda pool, healthy, orphan: pool.size_of(orphan),
    "resize": lambda pool, healthy, orphan: pool.resize(5),
}


def orphaned_pool():
    """r=2; ``first`` fails and recovers lazily (empty, behind on everything
    it owns), then ``second`` fails: a key owned by exactly those two has no
    live copy left.  Returns ``(pool, orphaned keys, the other keys)``."""
    pool = ShardedKeyValueStore(4, replication=2)
    pool.attach_state_arena(SPEC)
    pool.scatter_states(KEYS, ORPHAN_STATES, list(range(len(KEYS))))
    first, second = pool.owner_names(KEYS[0])
    pool.fail_shard(first)
    pool.recover_shard(first, rehydrate=False)
    pool.fail_shard(second)
    orphaned = [key for key in KEYS if set(pool.owner_names(key)) == {first, second}]
    return pool, orphaned, [key for key in KEYS if key not in orphaned]


class TestOrphaningFaults:
    @pytest.mark.parametrize("read", sorted(ORPHAN_READS))
    def test_every_read_of_an_orphaned_key_raises(self, read):
        pool, orphaned, healthy = orphaned_pool()
        assert len(orphaned) > 1 and healthy
        with pytest.raises(RuntimeError, match=NO_LIVE_COPY):
            ORPHAN_READS[read](pool, healthy[0], orphaned[1])

    def test_keys_with_a_current_owner_still_read_correctly(self):
        pool, orphaned, healthy = orphaned_pool()
        states, timestamps, present = pool.gather_states(healthy)
        rows = [KEYS.index(key) for key in healthy]
        assert present.all() and list(timestamps) == rows
        assert np.array_equal(states, ORPHAN_STATES[rows])
        assert [pool.get(key)["timestamp"] for key in healthy] == rows

    def test_a_put_heals_an_orphaned_key(self):
        pool, orphaned, healthy = orphaned_pool()
        repairs = pool.repair_puts
        record = {"state": np.full(SPEC.state_size, 7.0, dtype=np.float32), "timestamp": 99}
        pool.put(orphaned[0], record, size_bytes=SPEC.record_bytes)
        # The write landed on the one live owner, which is therefore current:
        # readable again, nothing owed, and a write is not a repair.
        assert orphaned[0] not in pool._behind
        assert plain(pool.get(orphaned[0])) == plain(record)
        assert pool.size_of(orphaned[0]) == SPEC.record_bytes
        assert pool.repair_puts == repairs
        with pytest.raises(RuntimeError, match=NO_LIVE_COPY):
            pool.get(orphaned[1])


# ----------------------------------------------------------------------
# Logical storage accounting (the replication-inflation fix)
# ----------------------------------------------------------------------
class TestLogicalStorage:
    def test_unreplicated_logical_equals_physical(self):
        pool = ShardedKeyValueStore(5, replication=1)
        for key in KEYS:
            pool.put(key, {"v": 1}, size_bytes=64)
        assert pool.total_bytes == len(KEYS) * 64
        assert pool.logical_total_bytes == pool.total_bytes
        assert pool.bytes_for_prefix("user:") == len(KEYS) * 64
        assert pool.physical_bytes_for_prefix("user:") == len(KEYS) * 64
        report = pool.cost_report()
        assert report["storage_bytes"] == report["physical_storage_bytes"] == len(KEYS) * 64

    def test_replicated_logical_is_physical_over_r(self):
        pool = ShardedKeyValueStore(5, replication=3)
        for key in KEYS:
            pool.put(key, {"v": 1}, size_bytes=64)
        # Uniform sizes, all shards live: every key holds exactly r copies.
        assert pool.total_bytes == 3 * len(KEYS) * 64
        assert pool.logical_total_bytes == len(KEYS) * 64
        assert pool.logical_total_bytes == pool.total_bytes // 3
        assert pool.bytes_for_prefix("user:") == len(KEYS) * 64
        assert pool.physical_bytes_for_prefix("user:") == 3 * len(KEYS) * 64
        assert pool.bytes_for_prefix("other:") == 0
        report = pool.cost_report()
        assert report["storage_bytes"] == len(KEYS) * 64
        assert report["physical_storage_bytes"] == 3 * len(KEYS) * 64

    def test_logical_accounting_survives_a_failed_replica(self):
        pool = ShardedKeyValueStore(5, replication=3)
        for key in KEYS:
            pool.put(key, {"v": 1}, size_bytes=64)
        pool.fail_shard(pool.shards[0].name)
        # The wiped copies leave the physical sum; the logical footprint is
        # a per-user figure and must not flinch.
        assert pool.logical_total_bytes == len(KEYS) * 64
        assert pool.bytes_for_prefix("user:") == len(KEYS) * 64
        assert pool.total_bytes < 3 * len(KEYS) * 64


# ----------------------------------------------------------------------
# Live-shard load imbalance + the failed flag (the failover-window fix)
# ----------------------------------------------------------------------
class TestLoadImbalance:
    def test_snapshots_flag_failed_shards(self):
        pool = ShardedKeyValueStore(4, replication=2)
        for key in KEYS:
            pool.put(key, {"v": 1}, size_bytes=56)
        assert [snap["failed"] for snap in pool.shard_snapshots()] == [False] * 4
        victim = pool.shards[2].name
        pool.fail_shard(victim)
        flags = {snap["shard"]: snap["failed"] for snap in pool.shard_snapshots()}
        assert flags == {0: False, 1: False, 2: True, 3: False}

    def test_imbalance_is_computed_over_live_shards_only(self):
        pool = ShardedKeyValueStore(4, replication=2)
        for key in KEYS:
            pool.put(key, {"v": 1}, size_bytes=56)
        balanced = pool.load_imbalance()
        victim = pool.shards[0].name
        pool.fail_shard(victim)
        live_counts = [
            shard.n_keys for shard in pool.shards if shard.name != victim
        ]
        expected = max(live_counts) / (sum(live_counts) / len(live_counts))
        assert pool.load_imbalance() == pytest.approx(expected)
        # The wiped shard's zero would have overstated imbalance by ~4/3.
        all_counts = [shard.n_keys for shard in pool.shards]
        naive = max(all_counts) / (sum(all_counts) / len(all_counts))
        assert pool.load_imbalance() < naive
        assert balanced > 0
        assert pool.cost_report()["load_imbalance"] == round(pool.load_imbalance(), 4)

    def test_empty_pool_reports_balanced(self):
        assert ShardedKeyValueStore(3).load_imbalance() == 1.0

"""Elastic ring tests: replica groups, live resharding, shard failure.

The load-bearing claims:

* **Replica groups are an extension of routing, not a new router** —
  ``nodes_for(key, r)[0] == node_for(key)`` always, owners are distinct,
  and membership changes remap only the affected arcs (an added node can
  only insert *itself* into a group; a removed node's survivors all stay).
* **Route caches never go stale** — lookups interleaved with membership
  changes always agree with a freshly built ring over the same nodes.
* **Failure is survivable and invisible to readers** — with ``r >= 2``,
  every pre-failure value is still served while a shard is down, and
  recovery re-hydrates it (eagerly or lazily through read-repair).
* **Elasticity preserves the serving contract** — a pipeline that resizes
  mid-run or loses-and-recovers a shard serves the static ring's bits;
  pinned by the twin matrix (``tests/test_serving_twins.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import (
    ConsistentHashRing,
    EngineConfig,
    MetricsRegistry,
    ShardedKeyValueStore,
)
from serving_harness import build_engine, poisson_events, replay

KEYS = [f"user:{i}" for i in range(120)]


def fresh_ring(nodes):
    ring = ConsistentHashRing()
    for node in nodes:
        ring.add_node(node)
    return ring


class TestReplicaGroups:
    def test_owners_distinct_primary_first_deterministic(self):
        ring = fresh_ring(["a", "b", "c", "d", "e"])
        for key in KEYS:
            group = ring.nodes_for(key, 3)
            assert len(group) == 3
            assert len(set(group)) == 3
            assert group[0] == ring.node_for(key)
            assert ring.nodes_for(key, 3) == group  # cached path agrees
            assert fresh_ring(["a", "b", "c", "d", "e"]).nodes_for(key, 3) == group

    def test_count_validation(self):
        ring = fresh_ring(["a", "b"])
        with pytest.raises(ValueError):
            ring.nodes_for("k", 0)
        with pytest.raises(ValueError):
            ring.nodes_for("k", 3)
        assert ring.nodes_for("k", 1) == (ring.node_for("k"),)

    def test_add_node_only_inserts_itself_into_groups(self):
        ring = fresh_ring(["a", "b", "c", "d"])
        before = {key: ring.nodes_for(key, 2) for key in KEYS}
        ring.add_node("e")
        moved = 0
        for key in KEYS:
            after = ring.nodes_for(key, 2)
            if after != before[key]:
                moved += 1
                # The only new owner a grown ring can introduce is the new
                # node itself; everyone else it displaces was already there.
                assert set(after) <= set(before[key]) | {"e"}
                assert "e" in after
        assert 0 < moved < len(KEYS)  # some arcs remap, never all

    def test_remove_node_keeps_all_survivors(self):
        ring = fresh_ring(["a", "b", "c", "d"])
        before = {key: ring.nodes_for(key, 2) for key in KEYS}
        ring.remove_node("b")
        for key in KEYS:
            after = ring.nodes_for(key, 2)
            assert "b" not in after
            # Surviving owners keep their arcs: removal only pulls in the
            # next successor to backfill the departed node's slots.
            assert set(before[key]) - {"b"} <= set(after)
            if "b" not in before[key]:
                assert after == before[key]

    def test_route_cache_never_stale_across_membership_changes(self):
        ring = fresh_ring(["a", "b"])
        live = ["a", "b"]
        for step, (action, node) in enumerate(
            [("add", "c"), ("add", "d"), ("remove", "a"), ("add", "e"), ("remove", "c")]
        ):
            # Touch both caches before mutating so staleness would be visible.
            for key in KEYS[: 40 + step]:
                ring.node_for(key)
                ring.nodes_for(key, 2)
            if action == "add":
                ring.add_node(node)
                live.append(node)
            else:
                ring.remove_node(node)
                live.remove(node)
            # The ring keeps its node set, it does not re-derive it per call.
            assert ring.nodes == sorted(live) and len(ring) == len(ring.nodes)
            oracle = fresh_ring(live)
            for key in KEYS:
                assert ring.node_for(key) == oracle.node_for(key)
                assert ring.nodes_for(key, 2) == oracle.nodes_for(key, 2)
        with pytest.raises(KeyError):
            ring.remove_node("a")  # already gone: membership is untouched
        assert ring.nodes == sorted(live) and len(ring) == len(live)


def seeded_store(n_shards=6, replication=2, **kwargs):
    store = ShardedKeyValueStore(n_shards, replication=replication, **kwargs)
    values = {}
    for i, key in enumerate(KEYS):
        values[key] = {"state": float(i), "timestamp": i}
        store.put(key, values[key], size_bytes=56)
    return store, values


class TestShardFailureRecovery:
    def test_replicated_reads_survive_a_failure(self):
        store, values = seeded_store()
        victim = store.owner_names(KEYS[0])[0]  # a primary, the worst case
        store.fail_shard(victim)
        assert store.failed_shards == (victim,)
        assert store.shard_failures == 1
        for key in KEYS:
            assert store.get(key) == values[key]
        assert len(store) == len(KEYS)  # logical view unaffected

    def test_eager_recovery_rehydrates_owned_keys(self):
        store, values = seeded_store()
        victim = store.shards[0].name
        owned = [k for k in KEYS if victim in store.owner_names(k)]
        store.fail_shard(victim)
        store.recover_shard(victim)
        assert store.failed_shards == ()
        assert store.keys_rehydrated >= len(owned) > 0
        assert store.shard_recoveries == 1
        by_name = {s.name: s for s in store.shards}
        for key in owned:
            assert by_name[victim].get(key) == values[key]

    def test_lazy_recovery_read_repairs_on_access(self):
        store, values = seeded_store()
        victim = store.shards[0].name
        owned = [k for k in KEYS if victim in store.owner_names(k)]
        store.fail_shard(victim)
        store.recover_shard(victim, rehydrate=False)
        assert store.keys_rehydrated == 0
        by_name = {s.name: s for s in store.shards}
        for key in owned:
            assert store.get(key) == values[key]  # served from a live replica…
            assert by_name[victim].get(key) == values[key]  # …then repaired
        assert store.keys_rehydrated == len(owned)

    def test_writes_during_failure_land_on_recovery(self):
        store, _ = seeded_store()
        victim = store.shards[0].name
        store.fail_shard(victim)
        hot = next(k for k in KEYS if victim in store.owner_names(k))
        store.put(hot, {"state": -1.0, "timestamp": 999}, size_bytes=56)
        store.recover_shard(victim)
        by_name = {s.name: s for s in store.shards}
        assert by_name[victim].get(hot) == {"state": -1.0, "timestamp": 999}

    def test_failure_guards(self):
        store, _ = seeded_store(n_shards=4, replication=2)
        with pytest.raises(KeyError):
            store.fail_shard("kv/no-such-shard")
        store.fail_shard(store.shards[0].name)
        with pytest.raises(ValueError, match="already failed"):
            store.fail_shard(store.shards[0].name)
        with pytest.raises(ValueError, match="every live replica"):
            store.fail_shard(store.shards[1].name)  # r=2 tolerates one fault
        unreplicated = ShardedKeyValueStore(4)
        unreplicated.put("k", 1)
        with pytest.raises(ValueError, match="without replication"):
            unreplicated.fail_shard(unreplicated.shards[0].name)
        with pytest.raises(ValueError, match="not failed"):
            store.recover_shard(store.shards[1].name)


class TestLiveResharding:
    def test_resized_pool_routes_like_a_fresh_one(self):
        store, values = seeded_store(n_shards=4, replication=2)
        store.resize(6)
        assert store.keys_migrated > 0 and store.migration_bytes > 0
        assert store.membership_changes == 2
        fresh = ShardedKeyValueStore(6, replication=2)
        assert [s.name for s in store.shards] == [s.name for s in fresh.shards]
        for key in KEYS:
            assert store.owner_names(key) == fresh.owner_names(key)
            assert store.get(key) == values[key]

    def test_only_remapped_keys_move(self):
        store, _ = seeded_store(n_shards=4, replication=2)
        before = {key: store.owner_names(key) for key in KEYS}
        store.add_shard()
        remapped = sum(1 for key in KEYS if store.owner_names(key) != before[key])
        # Each gained owner is one metered copy; unchanged groups cost zero.
        assert 0 < store.keys_migrated <= 2 * remapped
        assert remapped < len(KEYS)

    def test_shrink_restores_original_placement(self):
        store, values = seeded_store(n_shards=4, replication=2)
        before = {key: store.owner_names(key) for key in KEYS}
        store.resize(7)
        store.resize(4)  # highest ids leave first, restoring the membership
        for key in KEYS:
            assert store.owner_names(key) == before[key]
            assert store.get(key) == values[key]

    def test_remove_shard_refuses_to_drop_below_replication(self):
        store, _ = seeded_store(n_shards=2, replication=2)
        with pytest.raises(ValueError, match="fewer than replication"):
            store.remove_shard(store.shards[-1].name)
        with pytest.raises(KeyError):
            store.remove_shard("kv/no-such-shard")

    def test_meters_flow_to_the_registry(self):
        registry = MetricsRegistry()
        store, _ = seeded_store(n_shards=4, replication=2, name="kv", registry=registry)
        store.resize(5)
        store.fail_shard(store.shards[0].name)
        store.recover_shard(store.shards[0].name)
        snapshot = registry.snapshot(prefix="ring.kv.")
        assert snapshot["ring.kv.keys_migrated"]["value"] == store.keys_migrated > 0
        assert snapshot["ring.kv.keys_rehydrated"]["value"] == store.keys_rehydrated > 0
        assert snapshot["ring.kv.shard_failures"]["value"] == 1
        assert snapshot["ring.kv.shard_recoveries"]["value"] == 1
        assert snapshot["ring.kv.membership_changes"]["value"] == 1


# ----------------------------------------------------------------------
# Engine level: failure schedules.  That a fail/recover schedule or a
# mid-run resize serves the static ring's bits is pinned by the twin matrix
# (tests/test_serving_twins.py).
# ----------------------------------------------------------------------
class TestElasticAcceptance:
    def test_failure_schedule_config_validation(self):
        with pytest.raises(ValueError, match="replication >= 2"):
            EngineConfig(
                backend="hidden_state",
                session_length=600,
                n_shards=4,
                failure_schedule=((10, "fail", 0),),
            )
        with pytest.raises(ValueError, match="'fail' or 'recover'"):
            EngineConfig(
                backend="hidden_state",
                session_length=600,
                n_shards=4,
                replication=2,
                failure_schedule=((10, "wipe", 0),),
            )
        with pytest.raises(ValueError, match="outside the"):
            EngineConfig(
                backend="hidden_state",
                session_length=600,
                n_shards=4,
                replication=2,
                failure_schedule=((10, "fail", 4),),
            )
        with pytest.raises(ValueError, match="triples"):
            EngineConfig(
                backend="hidden_state",
                session_length=600,
                n_shards=4,
                replication=2,
                failure_schedule=((10, "fail"),),
            )

    @pytest.mark.parametrize(
        "replication, schedule, message",
        [
            # Two shards down at once at r=2 could orphan a key.
            (2, ((10, "fail", 0), (20, "fail", 1)), "every live replica"),
            (3, ((10, "fail", 0), (20, "fail", 1), (30, "fail", 2)), "every live replica"),
            (3, ((10, "fail", 0), (20, "fail", 0)), "already failed"),
            (2, ((10, "recover", 0),), "not failed"),
            (2, ((10, "fail", 0), (20, "recover", 0), (30, "recover", 0)), "not failed"),
            # Fire order, not list order: a stable sort on fire_at.
            (2, ((20, "fail", 0), (10, "recover", 0)), "not failed"),
            (2, ((10, "recover", 0), (10, "fail", 0)), "not failed"),
        ],
        ids=["second-fail-at-r2", "third-fail-at-r3", "double-fail", "recover-live",
             "double-recover", "recover-fires-first", "same-second-recover-first"],
    )
    def test_a_schedule_that_would_raise_mid_replay_is_refused_at_config_time(
        self, replication, schedule, message
    ):
        with pytest.raises(ValueError, match=message):
            EngineConfig(
                backend="hidden_state",
                session_length=600,
                n_shards=4,
                replication=replication,
                failure_schedule=schedule,
            )

    @pytest.mark.parametrize(
        "schedule",
        [
            ((10, "fail", 0), (20, "recover", 0), (30, "fail", 1), (40, "recover", 1)),
            ((20, "recover", 0), (10, "fail", 0)),  # listed out of fire order
            ((10, "fail", 0), (10, "recover", 0), (10, "fail", 1)),
        ],
        ids=["one-at-a-time", "out-of-list-order", "same-second"],
    )
    def test_a_schedule_the_pool_can_run_is_accepted(self, serving_parts, schedule):
        events = poisson_events(np.random.default_rng(17))
        start = events[0][0]
        shifted = tuple((start + fire_at, action, index) for fire_at, action, index in schedule)
        engine = build_engine(
            serving_parts, max_batch_size=16, n_shards=4, replication=2, failure_schedule=shifted
        )
        replay(engine, events)  # fires every fault without raising
        fails = sum(action == "fail" for _, action, _ in schedule)
        assert engine.store.shard_failures == fails
        assert engine.store.shard_recoveries == len(schedule) - fails
        engine.close()

    def test_failure_schedule_survives_a_json_round_trip(self):
        config = EngineConfig(
            backend="hidden_state",
            session_length=600,
            n_shards=4,
            replication=2,
            failure_schedule=[[10, "fail", 0], [20, "recover", 0]],
        )
        assert config.failure_schedule == ((10, "fail", 0), (20, "recover", 0))
        import json

        assert EngineConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

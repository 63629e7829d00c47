"""Consistent-hash sharded key-value pool (the scale-out layer of Section 9).

A single in-process :class:`~repro.serving.kvstore.KeyValueStore` models the
store's *cost profile* but not its *deployment shape*: at "millions of users"
the per-user state lives on a pool of store shards, with keys routed by
consistent hashing so that adding or removing a shard only remaps the keys
owned by the affected shard.  :class:`ShardedKeyValueStore` is a drop-in
replacement for ``KeyValueStore`` that routes every operation through a
:class:`ConsistentHashRing`, meters traffic and storage per shard, and rolls
the per-shard meters up into the same aggregate counters (and, via
:func:`~repro.serving.cost.kv_traffic_cost`, the same cost accounting) the
unsharded store reports.

The pool is *elastic*:

* **Replica groups** — with ``replication=r`` every key is owned by the
  ``r`` distinct shards that follow its hash clockwise on the ring
  (:meth:`ConsistentHashRing.nodes_for`).  A failure wipes the shard,
  every write lands on every live owner and a membership change deletes
  the copy of every owner that loses a key, so **a live shard holds the
  current value of a key or nothing** — a stale value cannot exist.
* **Divergence by exception** — the pool records only the exceptions: one
  map from a key to the live owners that hold no copy of it.  Only a
  recovery adds to it (every key the recovered shard owns); read-repair,
  writes, ``delete`` and losing the key in a migration drain it, and a
  shard that fails is forgotten.  The **in-sync rule**: while no shard is
  failed and the map is empty, reads take the memoised ``node_for``
  dispatch an unreplicated pool uses and writes the cached owner tuple,
  unfiltered.  Otherwise ``_read_plan`` picks, once per key and for every
  read entry point, the first live owner not behind to serve and the live
  owners behind to read-repair, and ``_write_owners`` the live owners for
  every write entry point.
* **Live resharding** — :meth:`add_shard` / :meth:`remove_shard` /
  :meth:`resize` change membership while serving: only keys whose owner set
  actually changed are copied to their new owners (and dropped from the old
  ones), with the migration traffic metered into the registry
  (``ring.<name>.keys_migrated``, ``ring.<name>.migration_bytes``).
* **Fault injection** — :meth:`fail_shard` wipes a shard's data (a crash
  loses state, not client traffic) and takes it out of the write/read fan
  out; :meth:`recover_shard` brings it back and eagerly re-hydrates its
  owned keys from live replicas (``ring.<name>.keys_rehydrated`` /
  ``ring.<name>.rehydration_bytes``).  At most ``replication - 1`` shards
  may be failed at once, so every key keeps a live owner; a key whose
  live owners are all behind (a lazy recovery, then the failure of the
  last current owner) is orphaned, and reading it raises.

All of it is bit-invisible to serving results by construction: a pipeline
that resizes mid-run or loses-and-recovers a shard returns the same values
for every ``get`` as a static pool — only placement and the traffic /
migration meters differ (pinned by ``tests/test_elastic_ring.py``).

``EngineConfig.failure_schedule`` is this module's block: :func:`check_block`
/ :func:`check_config` validate it and :func:`install` puts its faults on the
stream clock.
"""

from __future__ import annotations

import bisect
import hashlib
from functools import partial
from typing import Any, Iterable, Iterator

import numpy as np

from .checks import is_int
from .cost import CostParameters, kv_traffic_cost
from .kvstore import KV_COUNTER_FIELDS, KeyValueStore, KVStats
from .telemetry import NULL_REGISTRY, MetricsRegistry
from .tracing import NULL_TRACER

__all__ = ["ConsistentHashRing", "ShardedKeyValueStore", "RING_COUNTER_FIELDS"]

#: The elastic-pool meters, in registry order — plain attributes of the
#: pool, each also readable in place as the registry counter
#: ``ring.<pool name>.<field>``.  The ``repair_*`` fields carry read-repair /
#: re-hydration traffic: infrastructure copies that do NOT appear in the
#: per-shard ``kv.*`` client counters (and therefore stay out of
#: ``cost_report``, which bills client traffic only).
RING_COUNTER_FIELDS = (
    "keys_migrated",
    "migration_bytes",
    "keys_rehydrated",
    "rehydration_bytes",
    "repair_gets",
    "repair_puts",
    "repair_bytes_read",
    "repair_bytes_written",
    "shard_failures",
    "shard_recoveries",
    "membership_changes",
)


def _stable_hash(value: str) -> int:
    """Process-independent 64-bit hash (Python's ``hash`` is salted per run)."""
    return int.from_bytes(hashlib.blake2b(value.encode("utf-8"), digest_size=8).digest(), "big")


def _check_replication(replication: int, n_shards: int) -> None:
    if replication > n_shards:
        raise ValueError(f"replication {replication} exceeds n_shards {n_shards}")


def _may_fail(n_failed: int, replication: int) -> bool:
    """Whether one more shard may fail: at most ``replication - 1`` may be
    down at once, so every key keeps a live owner."""
    return n_failed + 1 < replication


class ConsistentHashRing:
    """Classic consistent-hash ring with virtual nodes.

    Each node is placed at ``replicas`` pseudo-random points on a 64-bit
    ring; a key is owned by the first node clockwise from the key's hash.
    Adding a node steals only the keys that now fall in its arcs; removing a
    node reassigns only the keys it owned.  :meth:`nodes_for` generalises
    ownership to replica groups: the first ``count`` *distinct* nodes
    clockwise from the key, so replica placement inherits the same minimal
    movement property under membership changes.
    """

    def __init__(self, nodes: list[str] | None = None, *, replicas: int = 64) -> None:
        if replicas <= 0:
            raise ValueError("replicas must be positive")
        self.replicas = replicas
        self._points: list[int] = []
        self._owners: dict[int, str] = {}
        self._nodes: set[str] = set()
        # Route caches: key → owning node / owner group.  Serving traffic is
        # heavily key-repetitive (one hidden-state record per user), so
        # memoising the blake2b + ring search turns the per-request routing
        # cost into a dict hit.  Membership changes invalidate both caches —
        # resizes are rare, lookups are the hot path.
        self._route_cache: dict[str, str] = {}
        self._multi_cache: dict[str, tuple[str, ...]] = {}
        for node in nodes or []:
            self.add_node(node)

    def _virtual_points(self, node: str) -> list[int]:
        return [_stable_hash(f"{node}#{replica}") for replica in range(self.replicas)]

    def add_node(self, node: str) -> None:
        for point in self._virtual_points(node):
            if point in self._owners:
                raise ValueError(f"hash collision adding node {node!r}")
            bisect.insort(self._points, point)
            self._owners[point] = node
        self._nodes.add(node)
        self._route_cache.clear()
        self._multi_cache.clear()

    def remove_node(self, node: str) -> None:
        points = [p for p in self._virtual_points(node) if self._owners.get(p) == node]
        if not points:
            raise KeyError(f"node {node!r} is not on the ring")
        for point in points:
            # bisect_left gives the exact slot in the sorted list: an O(log n)
            # lookup + O(n) del, not the O(n) equality scan list.remove does
            # per virtual point (which made each removal quadratic).
            del self._points[bisect.bisect_left(self._points, point)]
            del self._owners[point]
        self._nodes.discard(node)
        self._route_cache.clear()
        self._multi_cache.clear()

    def node_for(self, key: str) -> str:
        owner = self._route_cache.get(key)
        if owner is not None:
            return owner
        if not self._points:
            raise RuntimeError("the hash ring has no nodes")
        index = bisect.bisect_right(self._points, _stable_hash(key))
        if index == len(self._points):
            index = 0
        owner = self._owners[self._points[index]]
        self._route_cache[key] = owner
        return owner

    def nodes_for(self, key: str, count: int) -> tuple[str, ...]:
        """The first ``count`` distinct nodes clockwise from ``key``'s hash.

        ``nodes_for(key, count)[0] == node_for(key)`` always: the replica
        group extends primary ownership, it never changes it.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if count == 1:
            return (self.node_for(key),)
        cached = self._multi_cache.get(key)
        if cached is not None and len(cached) == count:
            return cached
        if not self._points:
            raise RuntimeError("the hash ring has no nodes")
        if count > len(self):
            raise ValueError(f"cannot pick {count} distinct owners from a {len(self)}-node ring")
        start = bisect.bisect_right(self._points, _stable_hash(key))
        owners: list[str] = []
        for step in range(len(self._points)):
            node = self._owners[self._points[(start + step) % len(self._points)]]
            if node not in owners:
                owners.append(node)
                if len(owners) == count:
                    break
        group = tuple(owners)
        self._multi_cache[key] = group
        # The group's head is the primary: an in-sync replicated read routes
        # through node_for, and must not hash the key a second time.
        self._route_cache[key] = group[0]
        return group

    @property
    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)


class ShardedKeyValueStore:
    """Elastic pool of :class:`KeyValueStore` shards behind a consistent-hash router.

    API-compatible with a single ``KeyValueStore`` (every read/write/metering
    accessor the serving backends use), so they can be pointed at either.  Per-shard traffic and storage stay visible through
    :meth:`shard_snapshots` / :meth:`cost_report`, while the aggregate
    :attr:`stats` sums the shard meters — by construction, the totals for a
    given workload equal what the unsharded store would report (at the
    default ``replication=1``; replicated writes fan out, so their meters
    count each physical copy).

    ``replication=r`` keeps each key on the ``r`` distinct shards that
    follow its hash on the ring; see the module docstring for the
    replication / resharding / failover semantics.  A live shard holds the
    current value of a key or nothing, and the pool records the exceptions
    (nothing at all at ``r == 1``); while there are none and no shard is
    failed, reads go to the primary as in an unreplicated pool, and only a
    degraded pool consults the per-key planner.
    """

    def __init__(
        self,
        n_shards: int = 4,
        name: str = "kv",
        *,
        replication: int = 1,
        replicas: int = 64,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        _check_replication(replication, n_shards)
        self.name = name
        self.replication = replication
        self.metrics = registry if registry is not None else NULL_REGISTRY
        self.shards = [
            KeyValueStore(f"{name}/shard{index}", registry=registry) for index in range(n_shards)
        ]
        self._ring = ConsistentHashRing([shard.name for shard in self.shards], replicas=replicas)
        self._by_name = {shard.name: shard for shard in self.shards}
        self._index_by_name = {shard.name: index for index, shard in enumerate(self.shards)}
        # Shard ids are monotone and never reused: a shard added after a
        # removal gets a fresh name, so registry counters (keyed by shard
        # name) can never silently merge two generations of a shard.
        self._next_shard_id = n_shards
        self._failed: set[str] = set()
        # Both only at replication > 1.  The logical keys, as a dict because
        # migration and re-hydration walk them: a ``set`` of strings would
        # make that order differ between processes.
        self._keys: dict[str, None] = {}
        # key → the live owners holding no copy of it; empty while in sync.
        self._behind: dict[str, set[str]] = {}
        # Elastic-pool meters (RING_COUNTER_FIELDS).
        self.keys_migrated = 0
        self.migration_bytes = 0
        self.keys_rehydrated = 0
        self.rehydration_bytes = 0
        self.repair_gets = 0
        self.repair_puts = 0
        self.repair_bytes_read = 0
        self.repair_bytes_written = 0
        self.shard_failures = 0
        self.shard_recoveries = 0
        self.membership_changes = 0
        # Arena spec, when a backend attaches one: new shards created by
        # add_shard host the same slab layout as the founding pool.
        self._arena_spec = None
        for field_name in RING_COUNTER_FIELDS:
            self.metrics.view(
                f"ring.{name}.{field_name}", "counter", lambda f=field_name: getattr(self, f)
            )
        self.tracer = NULL_TRACER

    def attach_tracer(self, tracer) -> None:
        """Fan the tracer out to every shard (and, via :meth:`add_shard`,
        to shards added later).  The pool itself records nothing — its
        batch operations delegate per shard, and each shard's own hooks
        stamp the ``shard=`` attribute, so per-shard attribution falls out
        with no double counting."""
        self.tracer = tracer
        for shard in self.shards:
            shard.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_for(self, key: str) -> KeyValueStore:
        """The shard that primarily owns ``key`` (first on its replica group)."""
        return self._by_name[self._ring.node_for(key)]

    def shard_index(self, key: str) -> int:
        """Index of ``key``'s primary shard in :attr:`shards` — a dict hit
        against a name→index map membership changes keep current, not a
        linear ``list.index`` scan of the pool per routed request."""
        return self._index_by_name[self._ring.node_for(key)]

    def owner_names(self, key: str) -> tuple[str, ...]:
        """``key``'s replica group, primary first (length :attr:`replication`)."""
        return self._ring.nodes_for(key, self.replication)

    def _read_plan(self, key: str) -> tuple[str, list[str]]:
        """``(serving shard, live owners behind)`` for one read of ``key`` on
        the per-key path: the first live owner not behind serves, every live
        owner behind is owed a read-repair."""
        live = [name for name in self.owner_names(key) if name not in self._failed]
        if key not in self._keys:
            # Never written (or deleted): meter the miss where the primary
            # live owner would have served it.
            return live[0], []
        behind = self._behind.get(key, ())
        source = next((name for name in live if name not in behind), None)
        if source is None:
            raise RuntimeError(
                f"no live replica holds the current version of {key!r} "
                "(the fail-shard guard should make this unreachable)"
            )
        return source, [name for name in live if name in behind]

    def _source(self, key: str) -> KeyValueStore:
        """The shard a read of ``key`` is served from: the primary while the
        pool is in sync, the planner's pick otherwise."""
        if self._failed or self._behind:
            return self._by_name[self._read_plan(key)[0]]
        return self.shard_for(key)

    @property
    def failed_shards(self) -> tuple[str, ...]:
        return tuple(sorted(self._failed))

    # ------------------------------------------------------------------
    # State arena hosting
    # ------------------------------------------------------------------
    def attach_state_arena(self, spec) -> None:
        """Host a per-shard :class:`~repro.serving.arena.StateArena` on every
        shard (current and future — ``add_shard`` attaches the same spec).
        Idempotent for an identical spec, like the per-store attach."""
        if self._arena_spec is not None and self._arena_spec != spec:
            raise ValueError(
                f"pool {self.name!r} already hosts arenas with spec "
                f"{self._arena_spec}, cannot attach {spec}"
            )
        self._arena_spec = spec
        for shard in self.shards:
            shard.attach_state_arena(spec)

    # ------------------------------------------------------------------
    # KeyValueStore-compatible operations
    # ------------------------------------------------------------------
    def _caught_up(self, key: str, name: str) -> None:
        """``name`` is no longer a live owner behind on ``key``."""
        behind = self._behind.get(key)
        if behind is not None:
            behind.discard(name)
            if not behind:
                del self._behind[key]

    def _repair_copy(self, key: str, source_name: str, target_name: str) -> None:
        """Copy ``key`` from a current owner to one live owner that is behind.

        Repair is infrastructure traffic, not client traffic: the value comes
        from the source's unmetered ``peek`` (a client's metered read is its
        caller's), lands through the target's unmetered write path and is
        accounted under the pool's ``ring.repair_*`` meters, so
        ``cost_report`` — which bills the shards' ``kv.*`` client counters —
        never sees it.  ``keys_rehydrated`` / ``rehydration_bytes`` keep
        their historical meaning (how much state repair restored).
        """
        source = self._by_name[source_name]
        size = source.size_of(key)
        self._by_name[target_name].put_unmetered(key, source.peek(key), size_bytes=size)
        self._caught_up(key, target_name)
        self.keys_rehydrated += 1
        self.rehydration_bytes += size
        self.repair_puts += 1
        self.repair_bytes_written += size

    def _write_owners(self, key: str) -> Iterable[str]:
        """The shards a write of ``key`` lands on, for every write entry
        point: the primary at ``replication == 1``; otherwise the key is
        recorded and every live owner becomes current, so it leaves the map."""
        if self.replication == 1:
            return (self._ring.node_for(key),)
        self._keys[key] = None
        owners = self._ring.nodes_for(key, self.replication)
        if self._failed or self._behind:
            self._behind.pop(key, None)
            return [name for name in owners if name not in self._failed]
        return owners

    def get(self, key: str, default: Any = None) -> Any:
        if not (self._failed or self._behind):
            return self._by_name[self._ring.node_for(key)].get(key, default)
        source_name, stale = self._read_plan(key)
        value = self._by_name[source_name].get(key, default)
        for name in stale:
            self._repair_copy(key, source_name, name)
        return value

    def put(self, key: str, value: Any, size_bytes: int | None = None) -> None:
        for name in self._write_owners(key):
            self._by_name[name].put(key, value, size_bytes=size_bytes)

    def peek(self, key: str, default: Any = None) -> Any:
        """Unmetered read (pool twin of :meth:`KeyValueStore.peek`).

        Serves from the first live owner not behind but — unlike :meth:`get`
        — never read-repairs: callers that bill their own traffic (rollout
        shadow namespaces, assertions in tests) must not perturb the pool's
        client or ``ring.repair_*`` meters as a side effect of looking.
        """
        return self._source(key).peek(key, default)

    def put_unmetered(self, key: str, value: Any, size_bytes: int) -> None:
        """Unmetered write (pool twin of :meth:`KeyValueStore.put_unmetered`).

        Lands on the shards :meth:`put` writes and records the key the same
        way — so unmetered keys survive ``fail_shard``/``recover_shard`` —
        without touching any shard's client traffic meters.
        """
        for name in self._write_owners(key):
            self._by_name[name].put_unmetered(key, value, size_bytes)

    def size_of(self, key: str) -> int:
        """Recorded size of ``key``'s value, counted once however many
        replicas hold it (0 when absent); unmetered."""
        return self._source(key).size_of(key)

    # ------------------------------------------------------------------
    # Batch APIs: route once per shard, meter identically to the loops
    # ------------------------------------------------------------------
    def _read_groups(self, keys: list[str]) -> Iterator[tuple[KeyValueStore, list[int]]]:
        """Yield ``(serving shard, positions of its keys)`` for a batched read.

        In sync, that is the primary of every key.  Otherwise every key is
        planned, and the read-repairs a shard's keys owe (once per distinct
        key) run when the caller comes back for the next group — after its
        metered read of that shard, exactly where the looped :meth:`get`
        repairs.
        """
        groups: dict[str, list[int]] = {}
        owed: dict[str, dict[str, list[str]]] = {}
        if self._failed or self._behind:
            for position, key in enumerate(keys):
                source_name, stale = self._read_plan(key)
                groups.setdefault(source_name, []).append(position)
                owed.setdefault(source_name, {})[key] = stale
        else:
            node_for = self._ring.node_for
            for position, key in enumerate(keys):
                groups.setdefault(node_for(key), []).append(position)
        for name, positions in groups.items():
            yield self._by_name[name], positions
            for key, stale in owed.get(name, {}).items():
                for target in stale:
                    self._repair_copy(key, name, target)

    def get_many(self, keys: list[str], default: Any = None) -> list[Any]:
        """``[self.get(key, default) for key in keys]`` with per-shard batching.

        Keys are grouped by serving shard and fetched with one
        :meth:`KeyValueStore.get_many` per shard; read-repair fires for the
        same keys the looped path would repair.  Counters are additive, so
        every shard's meters — and the pool rollup — read exactly like the
        loop (pinned by ``tests/test_batch_kv.py``).
        """
        values: list[Any] = [default] * len(keys)
        for shard, positions in self._read_groups(keys):
            shard_values = shard.get_many([keys[p] for p in positions], default)
            for position, value in zip(positions, shard_values):
                values[position] = value
        return values

    def put_many(self, items: Iterable[tuple[str, Any, int | None]]) -> None:
        """Apply ``(key, value, size_bytes)`` writes with per-shard batching;
        each item lands on, and is recorded for, the shards the looped
        :meth:`put` would write."""
        groups: dict[str, list[tuple[str, Any, int | None]]] = {}
        for key, value, size_bytes in items:
            for name in self._write_owners(key):
                groups.setdefault(name, []).append((key, value, size_bytes))
        for name, shard_items in groups.items():
            self._by_name[name].put_many(shard_items)

    # ------------------------------------------------------------------
    # Vectorized state waves (requires attached arenas)
    # ------------------------------------------------------------------
    def gather_states(self, keys: list[str]):
        """Pool-wide vectorized state read: one slab gather per shard.

        Same contract as :meth:`KeyValueStore.gather_states` —
        ``(float64 states, int64 last-write timestamps, int64 fetched
        bytes)`` — with replication's source selection and read-repair
        preserved.  Every key is read from exactly one shard, so each
        position is written once, straight from that shard's arrays.
        """
        if self._arena_spec is None:
            raise RuntimeError(f"pool {self.name!r} has no state arena attached")
        states = np.empty((len(keys), self._arena_spec.state_size), dtype=np.float64)
        timestamps = np.empty(len(keys), dtype=np.int64)
        fetched = np.empty(len(keys), dtype=np.int64)
        for shard, positions in self._read_groups(keys):
            index = np.array(positions, np.intp)
            states[index], timestamps[index], fetched[index] = shard.gather_states(
                [keys[p] for p in positions]
            )
        return states, timestamps, fetched

    def scatter_states(self, keys: list[str], states, timestamps) -> None:
        """Pool-wide vectorized state write: one slab scatter per shard,
        fanned out to every live owner under replication (each owner encodes
        the same float64 rows, so the replicas are bit-equal copies)."""
        if self._arena_spec is None:
            raise RuntimeError(f"pool {self.name!r} has no state arena attached")
        groups: dict[str, list[int]] = {}
        for position, key in enumerate(keys):
            for name in self._write_owners(key):
                groups.setdefault(name, []).append(position)
        timestamps = np.asarray(timestamps, dtype=np.int64)
        for name, positions in groups.items():
            index = np.array(positions, np.intp)
            self._by_name[name].scatter_states(
                [keys[p] for p in positions], states[index], timestamps[index]
            )

    def delete(self, key: str) -> bool:
        deleted = False
        for name in self.owner_names(key):
            if name not in self._failed:
                deleted = self._by_name[name].delete(key) or deleted
        self._keys.pop(key, None)
        self._behind.pop(key, None)
        return deleted

    def contains(self, key: str) -> bool:
        return self._source(key).contains(key)

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        """Logical key count (each key once, however many replicas hold it)."""
        if self.replication == 1:
            return sum(len(shard) for shard in self.shards)
        return len(self._keys)

    def keys(self) -> Iterator[str]:
        """Logical keys (each once; replicated copies are not repeated)."""
        if self.replication == 1:
            for shard in self.shards:
                yield from shard.keys()
        else:
            yield from self._keys

    def reset_stats(self) -> None:
        for shard in self.shards:
            shard.reset_stats()

    # ------------------------------------------------------------------
    # Elastic membership: resize, failure, recovery
    # ------------------------------------------------------------------
    def _ownership_snapshot(self) -> dict[str, tuple[str, ...]]:
        return {key: self.owner_names(key) for key in self.keys()}

    def _migrate(self, before: dict[str, tuple[str, ...]]) -> None:
        """Move exactly the keys whose owner set changed under the new ring.

        For each changed key, a live old owner that is not behind serves as
        the migration source (under ``remove_shard`` this may be the
        departing shard itself, which stays readable until migration
        completes); each gained owner receives a metered copy, each lost
        owner drops its copy.  Keys whose replica group is unchanged are
        never touched — the consistent-hashing minimal-movement property.
        """
        for key, old_owners in before.items():
            new_owners = self.owner_names(key)
            if new_owners == old_owners:
                continue
            behind = self._behind.get(key, ())
            source_name = next(
                (name for name in old_owners if name not in self._failed and name not in behind),
                None,
            )
            if source_name is None:
                raise RuntimeError(
                    f"no live replica holds the current version of {key!r} during migration"
                )
            source = self._by_name[source_name]
            gained = [name for name in new_owners if name not in old_owners]
            lost = [name for name in old_owners if name not in new_owners]
            if gained:
                value = source.get(key)
                size = source.size_of(key)
                for name in gained:
                    if name in self._failed:
                        # A failed shard gains ownership on paper only; it is
                        # re-hydrated when it recovers.
                        continue
                    self._by_name[name].put(key, value, size_bytes=size)
                    self.keys_migrated += 1
                    self.migration_bytes += size
            for name in lost:
                self._caught_up(key, name)
                if name not in self._failed:
                    self._by_name[name].delete(key)

    def add_shard(self) -> str:
        """Grow the pool by one shard, migrating the keys it now owns.

        The new shard's name continues the monotone id sequence
        (``<name>/shard<next>``), so a pool grown to ``n`` shards routes
        identically to one constructed with ``n_shards=n`` — placement
        depends only on current membership, never on history.
        """
        name = f"{self.name}/shard{self._next_shard_id}"
        before = self._ownership_snapshot()
        shard = KeyValueStore(name, registry=self.metrics)
        if self._arena_spec is not None:
            shard.attach_state_arena(self._arena_spec)
        if self.tracer.enabled:
            shard.attach_tracer(self.tracer)
        self._next_shard_id += 1
        self.shards.append(shard)
        self._by_name[name] = shard
        self._index_by_name[name] = len(self.shards) - 1
        self._ring.add_node(name)
        self._migrate(before)
        self.membership_changes += 1
        return name

    def remove_shard(self, name: str) -> None:
        """Shrink the pool by one shard, migrating its keys out first.

        The departing shard stays readable as a migration source until every
        key it owned has a new home; its traffic counters leave the
        aggregate :attr:`stats` with it (the rollup always describes the
        current pool).
        """
        if name not in self._by_name:
            raise KeyError(f"shard {name!r} is not in the pool")
        if len(self.shards) - 1 < self.replication:
            raise ValueError(
                f"removing {name!r} would leave {len(self.shards) - 1} shards, "
                f"fewer than replication {self.replication}"
            )
        before = self._ownership_snapshot()
        self._ring.remove_node(name)
        self._migrate(before)
        shard = self._by_name.pop(name)
        self.shards.remove(shard)
        self._failed.discard(name)
        self._index_by_name = {shard.name: index for index, shard in enumerate(self.shards)}
        self.membership_changes += 1

    def resize(self, n_shards: int) -> None:
        """Grow or shrink the pool to ``n_shards`` live migration steps.

        Shrinking removes the most recently added shards first (highest ids),
        so ``resize(n)`` after ``resize(m > n)`` restores the original
        membership — and with it, bit-identical placement.
        """
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if n_shards < self.replication:
            raise ValueError(f"n_shards {n_shards} below replication {self.replication}")
        while len(self.shards) < n_shards:
            self.add_shard()
        while len(self.shards) > n_shards:
            self.remove_shard(self.shards[-1].name)

    def fail_shard(self, name: str) -> None:
        """Fault injection: the shard loses its data and leaves the fan-out.

        A crash loses state, not client traffic — the wipe does not meter.
        At most ``replication - 1`` shards may be failed at once, so every
        key keeps at least one live owner (all live owners receive every
        write while a peer is down).  The map names live owners only, so it
        forgets the failed shard.
        """
        if name not in self._by_name:
            raise KeyError(f"shard {name!r} is not in the pool")
        if name in self._failed:
            raise ValueError(f"shard {name!r} is already failed")
        if self.replication == 1:
            raise ValueError("cannot fail a shard without replication: its keys would be lost")
        if not _may_fail(len(self._failed), self.replication):
            raise ValueError(
                f"failing {name!r} would allow a key to lose every live replica "
                f"(replication={self.replication}, already failed: {self.failed_shards})"
            )
        self._by_name[name].clear()
        for key in [key for key, behind in self._behind.items() if name in behind]:
            self._caught_up(key, name)
        self._failed.add(name)
        self.shard_failures += 1

    def recover_shard(self, name: str, *, rehydrate: bool = True) -> None:
        """Bring a failed shard back, re-hydrating its owned keys from replicas.

        The shard rejoins the fan-out empty, so it is first recorded as
        behind on every key it owns (which also keeps ``_read_plan`` from
        picking it as its own repair source).  ``rehydrate=False`` stops
        there: read-repair restores keys on access — cheaper up front, but
        another failure before repair completes can orphan keys, so eager
        re-hydration is the default.

        Re-hydration copies are repair traffic: the source reads and target
        writes are metered under ``ring.repair_*`` (plus the historical
        ``keys_rehydrated``/``rehydration_bytes``), never under the shards'
        ``kv.*`` client counters.
        """
        if name not in self._failed:
            raise ValueError(f"shard {name!r} is not failed")
        self._failed.discard(name)
        self.shard_recoveries += 1
        owned = [key for key in self._keys if name in self.owner_names(key)]
        for key in owned:
            self._behind.setdefault(key, set()).add(name)
        if not rehydrate:
            return
        for key in owned:
            source_name = self._read_plan(key)[0]
            self.repair_gets += 1
            self.repair_bytes_read += self._by_name[source_name].size_of(key)
            self._repair_copy(key, source_name, name)

    # ------------------------------------------------------------------
    # Metering rollup
    # ------------------------------------------------------------------
    @property
    def stats(self) -> KVStats:
        """Aggregate traffic meters: the sum of every current shard's counters.

        Unlike ``KeyValueStore.stats`` this is a *snapshot*, recomputed per
        access, not a live counter object — hold onto the returned value and
        it will not advance.  Re-read the property (or use
        :meth:`shard_snapshots`) after further traffic.  A removed shard's
        counters leave the rollup with it.
        """
        return KVStats(**{
            field_name: sum(getattr(shard.stats, field_name) for shard in self.shards)
            for field_name in KV_COUNTER_FIELDS
        })

    @property
    def n_keys(self) -> int:
        return len(self)

    @property
    def total_bytes(self) -> int:
        """Physical storage footprint (replicated copies each count)."""
        return sum(shard.total_bytes for shard in self.shards)

    @property
    def logical_total_bytes(self) -> int:
        """Storage footprint counting each key once, however many replicas
        hold it — the per-user number the paper's ~512 B/user figure is
        about.  Equals :attr:`total_bytes` at ``replication=1``."""
        return self.bytes_for_prefix("")

    def bytes_for_prefix(self, prefix: str) -> int:
        """Logical bytes stored under ``prefix`` (each key once).

        This is what backend ``storage_bytes`` reports, so replication no
        longer inflates the per-user footprint by ``r``; the physical sum
        across replicas is :meth:`physical_bytes_for_prefix`.
        """
        if self.replication == 1:
            return sum(shard.bytes_for_prefix(prefix) for shard in self.shards)
        return sum(self.size_of(key) for key in self._keys if key.startswith(prefix))

    def physical_bytes_for_prefix(self, prefix: str) -> int:
        """Bytes stored under ``prefix`` across every replica copy."""
        return sum(shard.bytes_for_prefix(prefix) for shard in self.shards)

    def shard_snapshots(self) -> list[dict[str, int | bool]]:
        """Per-shard meters: traffic counters, storage footprint and whether
        the shard is currently failed (wiped and out of the fan-out)."""
        return [
            {
                "shard": index,
                "n_keys": shard.n_keys,
                "storage_bytes": shard.total_bytes,
                "failed": shard.name in self._failed,
                **shard.stats.snapshot(),
            }
            for index, shard in enumerate(self.shards)
        ]

    def load_imbalance(self) -> float:
        """Max-over-mean key count across *live* shards (1.0 = balanced).

        Failed shards are wiped, so counting them would drag the mean down
        and overstate imbalance exactly when balance matters most — during
        a failover window.  With every shard failed (impossible under the
        fail-shard guard, but cheap to define) the pool reports 1.0.
        """
        counts = [
            shard.n_keys for shard in self.shards if shard.name not in self._failed
        ]
        if not counts:
            return 1.0
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean

    def cost_report(self, parameters: CostParameters | None = None) -> dict[str, Any]:
        """Measured traffic cost per shard, rolled up into a pool total.

        Uses the same :class:`~repro.serving.cost.CostParameters` charges as
        the analytic model, so the pool total is directly comparable to
        :func:`~repro.serving.cost.estimate_serving_costs` outputs.
        ``storage_bytes`` is the logical (per-key-once) footprint the paper's
        per-user numbers are about; ``physical_storage_bytes`` is the raw
        replica-multiplied sum.  Repair traffic is not billed — it lives on
        the ``ring.repair_*`` meters, not the shards' client counters.
        """
        params = parameters or CostParameters()
        per_shard = [kv_traffic_cost(shard.stats, params) for shard in self.shards]
        return {
            "per_shard": per_shard,
            "total": sum(per_shard),
            "storage_bytes": self.logical_total_bytes,
            "physical_storage_bytes": self.total_bytes,
            "load_imbalance": round(self.load_imbalance(), 4),
        }


# ----------------------------------------------------------------------
# EngineConfig.failure_schedule: checked, then installed by the engine.
# ----------------------------------------------------------------------
def check_block(name: str, value: Any) -> tuple[tuple[int, str, int], ...]:
    """``(fire_at, action, shard_index)`` triples, canonicalized to tuples so
    a config survives a JSON round trip intact (json turns tuples into lists;
    to_dict/from_dict equality is pinned by tests/test_engine.py)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of (fire_at, action, shard_index) triples")
    entries = []
    for raw in value:
        if not isinstance(raw, (list, tuple)) or len(raw) != 3:
            raise ValueError(f"{name} entries are (fire_at, action, shard_index) triples")
        fire_at, action, shard_index = raw
        if not is_int(fire_at):
            raise ValueError(f"{name} fire_at must be an int (simulated seconds)")
        if action not in ("fail", "recover"):
            raise ValueError(f"unknown {name} action {action!r}; expected 'fail' or 'recover'")
        if not is_int(shard_index):
            raise ValueError(f"{name} shard_index must be an int")
        entries.append((fire_at, action, shard_index))
    return tuple(entries)


def check_config(config) -> None:
    """The pool's cross-field rules, and a ``failure_schedule`` walked in
    fire order against :meth:`ShardedKeyValueStore.fail_shard` /
    :meth:`~ShardedKeyValueStore.recover_shard`'s own rules — so a fault
    that would raise mid-replay is refused here, before any traffic."""
    if config.replication > 1:
        if config.n_shards is None:
            raise ValueError("replication needs a sharded store: set n_shards")
        _check_replication(config.replication, config.n_shards)
    if not config.failure_schedule:
        return
    if config.replication < 2:
        raise ValueError(
            "a failure_schedule needs replication >= 2: failing an "
            "unreplicated shard would lose its keys"
        )
    # Same-second control timers fire in registration order, so a stable
    # sort on fire_at is the order the faults will fire in.
    failed: set[int] = set()
    for fire_at, action, shard_index in sorted(config.failure_schedule, key=lambda entry: entry[0]):
        where = f"failure_schedule {action} of shard_index {shard_index} at {fire_at}"
        if not 0 <= shard_index < config.n_shards:
            raise ValueError(f"{where}: outside the initial pool (n_shards={config.n_shards})")
        if action == "recover":
            if shard_index not in failed:
                raise ValueError(f"{where}: the shard is not failed")
            failed.discard(shard_index)
        elif shard_index in failed:
            raise ValueError(f"{where}: the shard is already failed")
        elif not _may_fail(len(failed), config.replication):
            raise ValueError(
                f"{where} would allow a key to lose every live replica "
                f"(replication={config.replication}, already failed: {sorted(failed)})"
            )
        else:
            failed.add(shard_index)


def _fire_fault(store, tracer, action, shard_name, shard_index, fire_at, key, events) -> None:
    if action == "fail":
        store.fail_shard(shard_name)
    else:
        store.recover_shard(shard_name)
    if tracer.enabled:
        tracer.control_event(f"ring.{action}", fire_at, shard=shard_name, shard_index=shard_index)


def install(parts, schedule: tuple[tuple[int, str, int], ...] | None):
    """Each fault becomes a *control-plane* stream timer: faults fire
    interleaved with update waves in deterministic simulated-clock order,
    but do not trigger the micro-batch flush barrier — a fault changes key
    placement, never a stored value, so flushing for it would alter batch
    composition and break bit-equivalence with a fault-free run.
    :func:`check_config` guarantees a stream and a replicated pool."""
    for fire_at, action, shard_index in schedule or ():
        shard_name = parts.store.shards[shard_index].name
        parts.stream.set_control_timer(
            fire_at,
            f"ring:{action}:{shard_index}@{fire_at}",
            partial(_fire_fault, parts.store, parts.tracer, action, shard_name, shard_index, fire_at),
        )
    return parts

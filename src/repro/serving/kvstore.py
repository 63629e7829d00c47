"""In-process key-value store with cost accounting (the "Redis-like" store of Section 9).

The production system stores each user's most recent RNN hidden state (a
512-byte vector) — or, for the traditional models, the per-user aggregation
state — in a real-time key-value store.  For the reproduction what matters is
not the store's implementation but its *cost profile*: how many reads and
writes each serving path issues and how many bytes it must keep per user.
:class:`KeyValueStore` therefore tracks every operation and the size of every
stored value so the serving cost model can report them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

import numpy as np

from .arena import ArenaSpec, StateArena, StateSlab
from .telemetry import NULL_REGISTRY, MetricsRegistry
from .tracing import NULL_TRACER, Tracer

__all__ = ["KVStats", "KeyValueStore"]

#: Sentinels.  ``_IN_ARENA`` is what ``_data`` holds for a key whose value
#: lives in the attached :class:`StateArena` slab — key membership, sizes and
#: metering stay in the store's own dicts, only the payload moves.
_MISSING = object()
_IN_ARENA = object()

#: The last-write timestamp :meth:`KeyValueStore.gather_states` reports for a
#: missing key: ``max(now, NEVER_WRITTEN) - NEVER_WRITTEN`` is 0, so no time
#: has elapsed since a write that never happened, with no int64 overflow.
NEVER_WRITTEN = np.iinfo(np.int64).max

#: The KVStats counter fields, in snapshot order — the one spelling behind
#: ``KVStats.snapshot``, the pool rollup and the ``kv.<store>.*`` registry names.
KV_COUNTER_FIELDS = ("gets", "puts", "deletes", "hits", "misses", "bytes_read", "bytes_written")


@dataclass
class KVStats:
    """Operation counters for a key-value store."""

    gets: int = 0
    puts: int = 0
    deletes: int = 0
    hits: int = 0
    misses: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in KV_COUNTER_FIELDS}


def _estimate_size(value: Any) -> int:
    """Approximate serialized size of a stored value in bytes."""
    if value is None:
        return 0
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, dict):
        return sum(_estimate_size(k) + _estimate_size(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return sum(_estimate_size(v) for v in value)
    return 64  # conservative default for unknown objects


class KeyValueStore:
    """Dictionary-backed KV store that meters reads, writes and storage.

    :attr:`stats` is the only copy of the traffic meters.  With a
    :class:`~repro.serving.telemetry.MetricsRegistry` attached each field
    is also readable as the counter ``kv.<name>.<field>`` — a view that
    reads ``self.stats`` in place, so the hot path (get/put/delete under
    every prediction and update) pays nothing for it.  Store names must be
    unique within a registry: the newest store takes a contested name.
    """

    def __init__(self, name: str = "kv", *, registry: MetricsRegistry | None = None) -> None:
        self.name = name
        self._data: dict[str, Any] = {}
        self._sizes: dict[str, int] = {}
        self.arena: StateArena | None = None
        self.stats = KVStats()
        self.metrics = registry if registry is not None else NULL_REGISTRY
        for field_name in KV_COUNTER_FIELDS:
            # Through ``self.stats`` on every read: reset_stats rebinds it.
            self.metrics.view(
                f"kv.{name}.{field_name}", "counter", lambda f=field_name: getattr(self.stats, f)
            )
        self.tracer: Tracer = NULL_TRACER

    def attach_tracer(self, tracer: Tracer) -> None:
        """Record metered operations as ``kv.*`` trace instants.

        Hooks are observation only — they read the amounts the meters
        already computed and never touch stored data, so a traced store
        stays bit- and meter-identical to an untraced one.  Unmetered
        paths (``peek``/``put_unmetered``, i.e. repair and migration
        traffic) record nothing, mirroring the metering rules.
        """
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Arena hosting
    # ------------------------------------------------------------------
    def attach_state_arena(self, spec: ArenaSpec, slab: StateSlab | None = None) -> StateArena:
        """Host a :class:`StateArena` for records matching ``spec``.

        Idempotent for an identical spec (backends attach on construction,
        and several backends may share a store); a contradictory spec is a
        hard error — one slab cannot hold two record shapes.  The arena's
        rows are a region of ``slab`` (a sharded pool passes its shared
        one), or of a private slab.  Existing per-key records under the
        prefix are left in place: reads keep finding them, and the next
        write of each key absorbs it into the slab.
        """
        if self.arena is not None:
            if self.arena.spec != spec:
                raise ValueError(
                    f"store {self.name!r} already hosts an arena with spec "
                    f"{self.arena.spec}, cannot attach {spec}"
                )
            return self.arena
        self.arena = StateArena(spec, slab=slab)
        return self.arena

    def _materialize(self, value: Any, key: str) -> Any:
        return self.arena.record(key) if value is _IN_ARENA else value

    def _store(self, key: str, value: Any, size_bytes: int | None) -> int:
        """Shared unmetered write: route record-shaped values into the arena.

        Returns the size the value is billed at: ``size_bytes``, or the
        value's estimate when the caller names none — except that a record
        the slab absorbs (which ``size_bytes`` must then not contradict) is
        always billed at the spec's ``record_bytes``.
        """
        arena = self.arena
        if arena is not None:
            if arena.accepts(key, value, size_bytes):
                arena.ingest(key, value)
                self._data[key] = _IN_ARENA
                size = self._sizes[key] = arena.spec.record_bytes
                return size
            if self._data.get(key) is _IN_ARENA:
                arena.discard(key)
        size = size_bytes if size_bytes is not None else _estimate_size(value)
        self._data[key] = value
        self._sizes[key] = size
        return size

    # ------------------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        self.stats.gets += 1
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self.stats.hits += 1
            self.stats.bytes_read += self._sizes[key]
            if self.tracer.enabled:
                self.tracer.kv_op("get", self.name, 1, self._sizes[key])
            return self._materialize(value, key)
        self.stats.misses += 1
        if self.tracer.enabled:
            self.tracer.kv_op("get", self.name, 1, 0)
        return default

    def put(self, key: str, value: Any, size_bytes: int | None = None) -> None:
        size = self._store(key, value, size_bytes)
        self.stats.puts += 1
        self.stats.bytes_written += size
        if self.tracer.enabled:
            self.tracer.kv_op("put", self.name, 1, size)

    def delete(self, key: str) -> bool:
        self.stats.deletes += 1
        value = self._data.pop(key, _MISSING)
        if value is not _MISSING:
            del self._sizes[key]
            if value is _IN_ARENA:
                self.arena.discard(key)
            return True
        return False

    # ------------------------------------------------------------------
    # Batch APIs: bit- and meter-identical to the equivalent loops
    # ------------------------------------------------------------------
    def get_many(self, keys: list[str], default: Any = None) -> list[Any]:
        """``[self.get(key, default) for key in keys]`` in one call.

        Counters are additive, so metering the batch in one pass reads
        exactly like the loop (pinned by ``tests/test_batch_kv.py``).
        """
        values: list[Any] = []
        hits = 0
        bytes_read = 0
        for key in keys:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                values.append(default)
            else:
                hits += 1
                bytes_read += self._sizes[key]
                values.append(self._materialize(value, key))
        stats = self.stats
        stats.gets += len(keys)
        stats.hits += hits
        stats.misses += len(keys) - hits
        stats.bytes_read += bytes_read
        if self.tracer.enabled:
            self.tracer.kv_op("get_many", self.name, len(keys), bytes_read)
        return values

    def put_many(self, items: Iterable[tuple[str, Any, int | None]]) -> None:
        """Apply ``(key, value, size_bytes)`` writes; the looped equivalent
        of calling :meth:`put` per item, with one meter update."""
        count = 0
        bytes_written = 0
        for key, value, size_bytes in items:
            count += 1
            bytes_written += self._store(key, value, size_bytes)
        self.stats.puts += count
        self.stats.bytes_written += bytes_written
        if self.tracer.enabled:
            self.tracer.kv_op("put_many", self.name, count, bytes_written)

    # ------------------------------------------------------------------
    # Vectorized state waves (requires an attached arena)
    # ------------------------------------------------------------------
    def gather_states(self, keys: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized state read: ``(float64 states, int64 last-write
        timestamps, int64 fetched bytes)``.

        Meters exactly like one :meth:`get` per key.  A wave whose keys all
        live in the slab costs one row lookup per key and one slab read, and
        hands back what :meth:`StateArena.gather` read.  Otherwise the wave
        takes the general path: a missing key reads as a zero state with
        timestamp :data:`NEVER_WRITTEN`, and a key whose value still lives as
        a per-key record (written before the arena attached, or oddly
        shaped) decodes through the record path, so mixed storage stays
        correct.  Fetched bytes are the spec's ``payload_bytes`` for a hit
        (what the entry layout's load reports) and 0 for a miss, so they
        double as the presence mask.
        """
        arena = self.arena
        if arena is None:
            raise RuntimeError(f"store {self.name!r} has no state arena attached")
        n = len(keys)
        rows = arena.rows_of(keys)
        if None in rows:
            states, timestamps, fetched = self._gather_mixed(keys, rows)
            bytes_read = sum([self._sizes.get(key, 0) for key in keys])
            hits = int(np.count_nonzero(fetched))
        else:
            states, timestamps = arena.gather(np.array(rows, np.intp))
            fetched = np.array([arena.spec.payload_bytes] * n, np.int64)
            bytes_read = sum(map(self._sizes.__getitem__, keys))
            hits = n
        stats = self.stats
        stats.gets += n
        stats.hits += hits
        stats.misses += n - hits
        stats.bytes_read += bytes_read
        if self.tracer.enabled:
            self.tracer.kv_op("gather_states", self.name, n, bytes_read)
        return states, timestamps, fetched

    def _gather_mixed(self, keys: list[str], rows: list[int | None]):
        """:meth:`gather_states` for a wave with keys outside the slab."""
        arena = self.arena
        spec = arena.spec
        states = np.zeros((len(keys), spec.state_size), dtype=np.float64)
        timestamps = np.full(len(keys), NEVER_WRITTEN, dtype=np.int64)
        fetched = np.zeros(len(keys), dtype=np.int64)
        resident = [position for position, row in enumerate(rows) if row is not None]
        if resident:
            index = np.array(resident, dtype=np.intp)
            states[index], timestamps[index] = arena.gather(
                np.array([rows[position] for position in resident], dtype=np.intp)
            )
            fetched[index] = spec.payload_bytes
        data = self._data
        for position, (key, row) in enumerate(zip(keys, rows)):
            record = _MISSING if row is not None else data.get(key, _MISSING)
            if record is _MISSING:
                continue
            stored = np.asarray(record["state"], dtype=np.float64)
            if spec.quantized:
                stored = stored * float(record["scale"])
            states[position] = stored
            timestamps[position] = record["timestamp"]
            fetched[position] = spec.payload_bytes
        return states, timestamps, fetched

    def scatter_states(self, keys: list[str], states: np.ndarray, timestamps: np.ndarray) -> None:
        """Vectorized state write: one slab scatter for the whole wave.

        Meters exactly like one :meth:`put` of a fresh record per key (size
        = the spec's per-record bytes, the same value the per-key save path
        computes).  Duplicate keys behave like sequential puts (last wins).
        """
        arena = self.arena
        if arena is None:
            raise RuntimeError(f"store {self.name!r} has no state arena attached")
        arena.scatter(arena.assign_rows(keys), states, timestamps)
        size = arena.spec.record_bytes
        data = self._data
        sizes = self._sizes
        for key in keys:
            data[key] = _IN_ARENA
            sizes[key] = size
        n = len(keys)
        self.stats.puts += n
        self.stats.bytes_written += n * size
        if self.tracer.enabled:
            self.tracer.kv_op("scatter_states", self.name, n, n * size)

    def contains(self, key: str) -> bool:
        return key in self._data

    def __contains__(self, key: str) -> bool:
        return self.contains(key)

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        return iter(self._data.keys())

    def size_of(self, key: str) -> int:
        """Recorded size of ``key``'s value (0 when absent).  Does not meter:
        replication and migration use it to forward a value's original size
        without charging a phantom read."""
        return self._sizes.get(key, 0)

    def peek(self, key: str, default: Any = None) -> Any:
        """Unmetered read.  The replica pool uses it for read-repair and
        re-hydration copies, which are infrastructure traffic — they are
        accounted under the pool's ``ring.repair_*`` meters, not billed as
        client reads."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            return default
        return self._materialize(value, key)

    def put_unmetered(self, key: str, value: Any, size_bytes: int) -> None:
        """Unmetered write (the repair counterpart of :meth:`peek`): stores
        the value and its size without touching the client traffic meters."""
        self._store(key, value, size_bytes)

    def clear(self) -> None:
        """Drop every stored value, keeping the traffic meters.  Models a
        crash that loses a shard's *state* — the requests it already served
        still happened."""
        self._data.clear()
        self._sizes.clear()
        if self.arena is not None:
            self.arena.clear()

    # ------------------------------------------------------------------
    @property
    def n_keys(self) -> int:
        return len(self._data)

    @property
    def total_bytes(self) -> int:
        """Current storage footprint across all keys."""
        return int(sum(self._sizes.values()))

    def bytes_for_prefix(self, prefix: str) -> int:
        return int(sum(size for key, size in self._sizes.items() if key.startswith(prefix)))

    def reset_stats(self) -> None:
        """Zero the traffic meters (and with them what the registry reads)."""
        self.stats = KVStats()

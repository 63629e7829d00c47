"""Contiguous state arenas (structure-of-arrays hidden-state storage).

Every hidden state the serving path keeps lives here.  A
:class:`StateArena` is a ``[capacity, state_size]`` region of rows plus a
key→row index per store, so a wave's state reads are a single NumPy
fancy-index gather and its writes a single fancy-index scatter — one row
and a wave of 64 take the same lines — instead of a per-key Python loop
over one record object per user.

Every arena's rows live in a :class:`StateSlab`: one set of pool arrays
(states, timestamps and, quantized, scales), laid out as one region per
arena at a common stride.  An unsharded store's arena has a private slab
with one region, so its rows are stored exactly as a standalone slab's
would be.  A sharded pool gives every shard's arena a region of one shared
slab, so a read wave whose keys it can place is one ``take`` per pool array
whichever shards own the keys (``ShardedKeyValueStore.gather_states``).
Each arena keeps its own local rows, free list, ``len``, ``capacity`` and
doubling; a region that outgrows the stride re-lays the whole slab out at
the new capacity, so re-layouts stay logarithmic in the row count and every
other growth only widens the arena's view of its region.

The arena is a *storage layout*, not a new store: it lives inside a
:class:`~repro.serving.kvstore.KeyValueStore` (attached via
``attach_state_arena``, which the hidden-state backend calls on
construction), and the store keeps metering every access and owning key
bookkeeping.  The store's per-key ``get``/``put`` still speak state
*records*: a value that matches the arena's record shape, billed at the
spec's ``record_bytes``, is absorbed into the slab, and ``get``
materializes the record dict back, so replication fan-out, read-repair,
live migration and fail/recover in the sharded pool all work unchanged —
they only ever copy record dicts.

Record shapes (one row of the slab, as a record dict):

* plain —     ``{"state": float32[state_size], "timestamp": int}``
* quantized — ``{"state": int8[state_size], "timestamp": int, "scale": float}``

The quantized slab keeps a per-row float64 scale sidecar; encode/decode are
the elementwise batch equivalents of
:func:`~repro.serving.quantization.quantize_state` /
:func:`~repro.serving.quantization.dequantize_state` and produce bit-equal
results row for row (elementwise float64 arithmetic does not depend on the
batch shape, unlike BLAS matmuls).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

__all__ = ["ArenaSpec", "StateArena", "StateSlab"]


@dataclass(frozen=True)
class ArenaSpec:
    """Shape contract for the records a :class:`StateArena` absorbs.

    The derived dtype and sizes are cached: every wave gather and scatter
    reads them.
    """

    prefix: str
    state_size: int
    quantized: bool = False

    def __post_init__(self) -> None:
        if not self.prefix:
            raise ValueError("ArenaSpec.prefix must be non-empty")
        if self.state_size <= 0:
            raise ValueError("ArenaSpec.state_size must be positive")

    @cached_property
    def dtype(self) -> np.dtype:
        return np.dtype(np.int8 if self.quantized else np.float32)

    @cached_property
    def payload_bytes(self) -> int:
        """Bytes a prediction fetch reports for one record: the stored state
        vector's ``nbytes`` plus the 8-byte timestamp."""
        return self.state_size * self.dtype.itemsize + 8

    @cached_property
    def record_bytes(self) -> int:
        """Stored size of one record: payload plus the quantized record's
        8-byte scale (what a state write is billed)."""
        return self.payload_bytes + (8 if self.quantized else 0)


class StateSlab:
    """The pool arrays every :class:`StateArena` of one store or pool lives in.

    Region ``i`` (the ``i``-th arena attached) is rows ``offsets[i]`` to
    ``offsets[i] + arenas[i].capacity`` of each array; regions sit
    ``stride`` rows apart, the largest arena's capacity when the slab was
    last laid out.  An arena that grows within the stride only widens its
    view of its region.  One that outgrows it lays every region out again
    at its new capacity: fresh arrays, each arena's rows copied across and
    every arena re-pointed (:attr:`relayouts` counts these).

    :attr:`placement` is the hosting pool's map from a key to its primary
    copy's place, local row and region packed into one int
    (``ShardedKeyValueStore.gather_states``).  The slab holds it so that any
    arena freeing a row forgets every placement at once.
    """

    def __init__(self, spec: ArenaSpec) -> None:
        self.spec = spec
        self.arenas: list[StateArena] = []
        self.stride = 0
        self.offsets = np.zeros(0, dtype=np.intp)
        self.states = np.zeros((0, spec.state_size), dtype=spec.dtype)
        self.timestamps = np.zeros(0, dtype=np.int64)
        self.scales = np.zeros(0, dtype=np.float64) if spec.quantized else None
        self.relayouts = 0
        self.placement: dict[str, int] = {}

    def attach(self, arena: StateArena, capacity: int) -> None:
        """Give ``arena`` the next region, ``capacity`` rows wide."""
        if arena.spec != self.spec:
            raise ValueError(f"slab holds {self.spec} records, cannot host an arena for {arena.spec}")
        self._lay_out([*self.arenas, arena], [*(a.capacity for a in self.arenas), capacity])

    def detach(self, arena: StateArena) -> None:
        """Drop ``arena``'s region; the regions after it move up one."""
        arenas = [other for other in self.arenas if other is not arena]
        self._lay_out(arenas, [other.capacity for other in arenas])

    def grow(self, arena: StateArena, capacity: int) -> None:
        """Widen ``arena``'s region to ``capacity`` rows."""
        index = self.arenas.index(arena)
        if capacity <= self.stride:
            self._point(arena, index * self.stride, capacity)
            return
        capacities = [other.capacity for other in self.arenas]
        capacities[index] = capacity
        self._lay_out(self.arenas, capacities)

    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`StateArena.gather`, spelled the same, over pool rows
        (local row + region offset)."""
        states = self.states.take(rows, 0).astype(np.float64)
        if self.scales is not None:
            states *= self.scales.take(rows)[:, None]
        return states, self.timestamps.take(rows)

    def _lay_out(self, arenas: list[StateArena], capacities: list[int]) -> None:
        spec = self.spec
        stride = max(capacities, default=0)
        size = len(arenas) * stride
        states = np.zeros((size, spec.state_size), dtype=spec.dtype)
        timestamps = np.zeros(size, dtype=np.int64)
        scales = np.zeros(size, dtype=np.float64) if spec.quantized else None
        for index, arena in enumerate(arenas):
            if arena._states is None:
                continue  # attaching: nothing to copy yet
            start, end = index * stride, index * stride + arena.capacity
            states[start:end] = arena._states
            timestamps[start:end] = arena._timestamps
            if scales is not None:
                scales[start:end] = arena._scales
        self.arenas = arenas
        self.stride = stride
        self.offsets = np.arange(len(arenas), dtype=np.intp) * stride
        self.states, self.timestamps, self.scales = states, timestamps, scales
        for index, (arena, capacity) in enumerate(zip(arenas, capacities)):
            self._point(arena, index * stride, capacity)
        self.relayouts += 1

    def _point(self, arena: StateArena, start: int, capacity: int) -> None:
        end = start + capacity
        arena._states = self.states[start:end]
        arena._timestamps = self.timestamps[start:end]
        if self.scales is not None:
            arena._scales = self.scales[start:end]


class StateArena:
    """One contiguous region of state rows with a key→row index.

    Unmetered by design: traffic accounting belongs to the hosting
    :class:`~repro.serving.kvstore.KeyValueStore`, which routes record-shaped
    values here from its own metered ``get``/``put``/``gather_states``/
    ``scatter_states`` paths.  Rows are recycled through a free list;
    capacity doubles on demand and never shrinks (arena stores trade peak
    memory for wave throughput).  The rows live in ``slab`` (a private
    :class:`StateSlab` when none is given); rows here are local to the
    arena's region.
    """

    def __init__(self, spec: ArenaSpec, *, capacity: int = 256, slab: StateSlab | None = None) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.spec = spec
        self._states: np.ndarray | None = None
        self._timestamps: np.ndarray | None = None
        self._scales: np.ndarray | None = None
        self._rows: dict[str, int] = {}
        self._free: list[int] = []
        self._next_row = 0
        self.slab = slab if slab is not None else StateSlab(spec)
        self.slab.attach(self, capacity)

    # ------------------------------------------------------------------
    # Row bookkeeping
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    @property
    def capacity(self) -> int:
        return self._states.shape[0]

    def row_of(self, key: str) -> int:
        return self._rows[key]

    def rows_of(self, keys: list[str]) -> list[int | None]:
        """Each key's row, ``None`` for a key the slab does not hold."""
        return list(map(self._rows.get, keys))

    def _grow(self, minimum: int) -> None:
        capacity = self.capacity
        while capacity < minimum:
            capacity *= 2
        self.slab.grow(self, capacity)

    def _allocate(self, key: str) -> int:
        row = self._rows.get(key)
        if row is not None:
            return row
        if self._free:
            row = self._free.pop()
        else:
            if self._next_row >= self.capacity:
                self._grow(self._next_row + 1)
            row = self._next_row
            self._next_row += 1
        self._rows[key] = row
        return row

    def assign_rows(self, keys: list[str]) -> np.ndarray:
        """Rows for ``keys`` (allocating any that are new), as an index array."""
        return np.asarray([self._allocate(key) for key in keys], dtype=np.intp)

    def discard(self, key: str) -> None:
        row = self._rows.pop(key, None)
        if row is not None:
            self._free.append(row)
            self.slab.placement.clear()

    def clear(self) -> None:
        """Forget every row (the hosting store's ``clear`` — crash modeling)."""
        self._rows.clear()
        self._free.clear()
        self._next_row = 0
        self.slab.placement.clear()

    # ------------------------------------------------------------------
    # Record-shaped ingress/egress (the per-key compatibility surface)
    # ------------------------------------------------------------------
    def accepts(self, key: str, value: Any, size_bytes: int | None = None) -> bool:
        """Whether ``value`` is exactly a state record this
        arena can absorb without changing what a later ``get`` returns.

        A slab row is always billed at the spec's ``record_bytes`` (a pool
        wave read meters it without looking the size up), so a record the
        caller bills at any other ``size_bytes`` stays a per-key entry; one
        it does not bill (``None``) is billed at ``record_bytes``.
        """
        if size_bytes is not None and size_bytes != self.spec.record_bytes:
            return False
        if not key.startswith(self.spec.prefix) or not isinstance(value, dict):
            return False
        expected = {"state", "timestamp", "scale"} if self.spec.quantized else {"state", "timestamp"}
        if set(value) != expected:
            return False
        state = value["state"]
        if not isinstance(state, np.ndarray) or state.shape != (self.spec.state_size,):
            return False
        if state.dtype != self.spec.dtype:
            return False
        # Scalar types must be exactly what record() materializes (Python int
        # / float): absorbing, say, a np.int64 timestamp would silently
        # change its type on the way back out, which the bit-identity pins
        # on stored records would catch.  Oddly-typed records stay as plain
        # dict entries — correct, just not vectorized.
        if type(value["timestamp"]) is not int:
            return False
        if self.spec.quantized and type(value["scale"]) is not float:
            return False
        return True

    def ingest(self, key: str, value: dict[str, Any]) -> None:
        """Copy one record (shape pre-checked via :meth:`accepts`) into its row."""
        row = self._allocate(key)
        self._states[row] = value["state"]
        self._timestamps[row] = value["timestamp"]
        if self._scales is not None:
            self._scales[row] = value["scale"]

    def record(self, key: str) -> dict[str, Any]:
        """Materialize the record dict for ``key``.

        Field for field the record shape above: a fresh ndarray copy of the
        stored row in the slab dtype, a Python ``int`` timestamp and
        (quantized) a Python ``float`` scale.
        """
        row = self._rows[key]
        record: dict[str, Any] = {
            "state": self._states[row].copy(),
            "timestamp": int(self._timestamps[row]),
        }
        if self._scales is not None:
            record["scale"] = float(self._scales[row])
        return record

    # ------------------------------------------------------------------
    # Vectorized wave surface
    # ------------------------------------------------------------------
    def gather(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(float64 states, int64 timestamps)`` for ``rows`` — one
        ``take`` per array (plus the elementwise dequantize, when quantized),
        bit-equal per row to materializing each record and decoding it."""
        states = self._states.take(rows, 0).astype(np.float64)
        if self._scales is not None:
            states *= self._scales.take(rows)[:, None]
        return states, self._timestamps.take(rows)

    def scatter(self, rows: np.ndarray, states: np.ndarray, timestamps: np.ndarray) -> None:
        """Write ``states`` (float64 ``[n, state_size]``) into ``rows`` — one
        fancy-index scatter, encoding each row as
        :func:`~repro.serving.quantization.quantize_state` (or a float32
        cast) would.

        Duplicate rows behave like sequential puts (NumPy fancy assignment
        writes in order, so the last occurrence wins).
        """
        if self._scales is None:
            self._states[rows] = states  # float64 → float32, same cast as .astype
        else:
            encoded, scales = self.encode(states)
            self._states[rows] = encoded
            self._scales[rows] = scales
        self._timestamps[rows] = timestamps

    def encode(self, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batch int8 quantization, row-for-row bit-equal to
        :func:`~repro.serving.quantization.quantize_state`: per-row symmetric
        peak/127 scale, round-clip to int8, all-zero rows get scale 0.

        Spelled in ufuncs, as cheap for one row as per row of a wave:
        ``rint`` is ``np.round``'s half-to-even at 0 decimals and
        ``minimum(maximum(·))`` is ``np.clip`` without its Python wrapper.
        """
        peaks = np.abs(states).max(axis=1)
        scales = peaks / 127.0  # 0.0 for an all-zero row, as quantize_state reports
        # All-zero rows divide by a dummy scale of 1 — their entries are 0/1=0,
        # matching quantize_state's explicit zero record.
        safe = np.where(peaks == 0.0, 1.0, scales)
        encoded = np.minimum(np.maximum(np.rint(states / safe[:, None]), -127.0), 127.0)
        return encoded.astype(np.int8), scales

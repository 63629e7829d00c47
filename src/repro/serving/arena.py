"""Contiguous per-shard state arena (structure-of-arrays hidden-state storage).

The per-key record layout stores each user's hidden state as its own dict —
one Python object, one small ndarray, one dict slot per user.  At wave sizes
that makes the state load/save path a per-key Python loop even though the
math downstream is fully vectorized.  :class:`StateArena` is the
structure-of-arrays alternative: one ``[capacity, state_size]`` slab per
shard plus a key→row index, so a wave's state reads become a single NumPy
fancy-index gather and its writes a single fancy-index scatter.

The arena is a *storage layout*, not a new store: it lives inside a
:class:`~repro.serving.kvstore.KeyValueStore` (attached via
``attach_state_arena``), which keeps routing every record through its normal
``get``/``put`` metering and key bookkeeping.  Values that match the arena's
record shape are absorbed into the slab; ``get`` materializes them back into
the exact per-key record dict the entry layout would have stored, so
replication fan-out, read-repair, live migration and fail/recover in the
sharded pool all work unchanged — they only ever see record dicts.
Bit-identity between the two layouts (served probabilities, stored records,
traffic meters) is pinned by ``tests/test_state_arena.py``.

Record shapes (exactly what ``BatchedHiddenStateBackend._save_state`` emits):

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

__all__ = ["ArenaSpec", "StateArena"]


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
        vector plus the 8-byte timestamp (the ``nbytes + 8`` the entry
        layout's ``_load_state`` computes)."""
        return self.state_size * self.dtype.itemsize + 8

    @cached_property
    def record_bytes(self) -> int:
        """Stored size of one record: payload plus the quantized layout's
        8-byte scale (the ``size_bytes`` the entry layout's ``_save_state``
        meters)."""
        return self.payload_bytes + (8 if self.quantized else 0)


class StateArena:
    """One contiguous state slab with a key→row index.

    Unmetered by design: traffic accounting belongs to the hosting
    :class:`~repro.serving.kvstore.KeyValueStore`, which routes record-shaped
    values here from its own metered ``get``/``put``/``gather_states``/
    ``scatter_states`` paths.  Rows are recycled through a free list;
    capacity doubles on demand and never shrinks (arena stores trade peak
    memory for wave throughput).
    """

    def __init__(self, spec: ArenaSpec, *, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.spec = spec
        self._slab = np.zeros((capacity, spec.state_size), dtype=spec.dtype)
        self._timestamps = np.zeros(capacity, dtype=np.int64)
        self._scales = np.zeros(capacity, dtype=np.float64) if spec.quantized else None
        self._rows: dict[str, int] = {}
        self._free: list[int] = []
        self._next_row = 0

    # ------------------------------------------------------------------
    # Row bookkeeping
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    @property
    def capacity(self) -> int:
        return self._slab.shape[0]

    def row_of(self, key: str) -> int:
        return self._rows[key]

    def rows_of(self, keys: list[str]) -> list[int | None]:
        """Each key's row, ``None`` for a key the slab does not hold."""
        return list(map(self._rows.get, keys))

    def _grow(self, minimum: int) -> None:
        capacity = self.capacity
        while capacity < minimum:
            capacity *= 2
        slab = np.zeros((capacity, self.spec.state_size), dtype=self.spec.dtype)
        slab[: self._slab.shape[0]] = self._slab
        self._slab = slab
        timestamps = np.zeros(capacity, dtype=np.int64)
        timestamps[: self._timestamps.shape[0]] = self._timestamps
        self._timestamps = timestamps
        if self._scales is not None:
            scales = np.zeros(capacity, dtype=np.float64)
            scales[: self._scales.shape[0]] = self._scales
            self._scales = scales

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

    def clear(self) -> None:
        """Forget every row (the hosting store's ``clear`` — crash modeling)."""
        self._rows.clear()
        self._free.clear()
        self._next_row = 0

    # ------------------------------------------------------------------
    # Record-shaped ingress/egress (the per-key compatibility surface)
    # ------------------------------------------------------------------
    def accepts(self, key: str, value: Any) -> bool:
        """Whether ``value`` is exactly an entry-layout state record this
        arena can absorb without changing what a later ``get`` returns."""
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
        self._slab[row] = value["state"]
        self._timestamps[row] = value["timestamp"]
        if self._scales is not None:
            self._scales[row] = value["scale"]

    def record(self, key: str) -> dict[str, Any]:
        """Materialize the entry-layout record dict for ``key``.

        Field for field what the per-key layout stores: a fresh ndarray copy
        of the stored row in the slab dtype, a Python ``int`` timestamp and
        (quantized) a Python ``float`` scale.
        """
        row = self._rows[key]
        record: dict[str, Any] = {
            "state": self._slab[row].copy(),
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
        states = self._slab.take(rows, 0).astype(np.float64)
        if self._scales is not None:
            states *= self._scales.take(rows)[:, None]
        return states, self._timestamps.take(rows)

    def scatter(self, rows: np.ndarray, states: np.ndarray, timestamps: np.ndarray) -> None:
        """Write ``states`` (float64 ``[n, state_size]``) into ``rows`` — one
        fancy-index scatter, encoding exactly as the per-key save path does.

        Duplicate rows behave like sequential puts (NumPy fancy assignment
        writes in order, so the last occurrence wins).
        """
        if self._scales is None:
            self._slab[rows] = states  # float64 → float32, same cast as .astype
        else:
            encoded, scales = self.encode(states)
            self._slab[rows] = encoded
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

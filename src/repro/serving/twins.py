"""Twin comparison: do two engines serve and store the same bits?

A serving feature that only changes *how* state is placed or served —
sharding, replication, failover, shadow scoring, a capacity model, tracing —
must leave every observable of its twin (the same engine without it)
untouched except the instruments and keys the feature itself owns.
:func:`observe` snapshots those observables once, :func:`first_difference`
names the first one two snapshots disagree on.

Equality is byte equality: arrays compare by dtype, shape and bytes and
floats by their bit pattern, so ``-0.0`` differs from ``0.0`` and a NaN
equals the same NaN.  Stored records are read with the store's unmetered
``peek``, so observing an engine never bills a read or repairs a replica.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

__all__ = ["observe", "first_difference"]

_DELIVERED_FIELDS = ("user_id", "timestamp", "probability", "kv_lookups", "bytes_fetched")
_SERVER_FIELDS = ("requests_processed", "busy_seconds", "busy_until", "peak_backlog_seconds")


def observe(engine, delivered, *, namespace: str = "") -> dict[str, Any]:
    """Everything a twin must reproduce, as ``name -> value``.

    ``delivered`` — every delivered prediction's fields, in delivery order;
    ``record:<key>`` — every record under ``namespace`` (the prefix stripped
    from the name) as its billed size and value; ``storage_bytes`` — the
    backend's state footprint; ``server:<field>`` — the capacity model's
    work and backlog, when there is one; ``meter:<field>`` — the store's
    client traffic meters; ``metric:<name>`` — every registry instrument.
    """
    observed: dict[str, Any] = {
        "delivered": [{field: getattr(p, field) for field in _DELIVERED_FIELDS} for p in delivered]
    }
    store = engine.store
    for key in sorted(store.keys()):
        if key.startswith(namespace):
            observed[f"record:{key[len(namespace):]}"] = (store.size_of(key), store.peek(key))
    observed["storage_bytes"] = engine.storage_bytes
    if engine.server is not None:
        observed.update((f"server:{field}", getattr(engine.server, field)) for field in _SERVER_FIELDS)
    observed.update((f"meter:{name}", value) for name, value in store.stats.snapshot().items())
    observed.update((f"metric:{name}", value) for name, value in engine.metrics.snapshot().items())
    return observed


def first_difference(left: dict[str, Any], right: dict[str, Any], ignore: Iterable[str] = ()) -> str | None:
    """The first observable ``left`` and ``right`` disagree on, as a readable
    path (``None`` when they are byte-identical).  Names starting with an
    ``ignore`` prefix are skipped; delivered predictions never are."""
    ignore = tuple(ignore)
    if any("delivered".startswith(prefix) or prefix.startswith("delivered") for prefix in ignore):
        raise ValueError(f"delivered predictions cannot be ignored: {ignore}")
    kept = [{name: value for name, value in side.items() if not name.startswith(ignore)} for side in (left, right)]
    return _difference(*kept, "")


def _difference(left: Any, right: Any, path: str) -> str | None:
    if type(left) is not type(right):
        return f"{path}: {type(left).__name__} != {type(right).__name__}"
    if isinstance(left, (list, tuple)):
        if len(left) != len(right):
            return f"{path}: length {len(left)} != {len(right)}"
        left, right = ({f"[{index}]": item for index, item in enumerate(side)} for side in (left, right))
    elif isinstance(left, dict):
        left, right = ({f".{key}" if path else key: item for key, item in side.items()} for side in (left, right))
    if isinstance(left, dict):
        for key in dict.fromkeys([*left, *right]):
            if key not in left or key not in right:
                return f"{path}{key}: only in {'left' if key in left else 'right'}"
            difference = _difference(left[key], right[key], f"{path}{key}")
            if difference is not None:
                return difference
        return None
    if not isinstance(left, (np.ndarray, np.generic, float)):
        return None if left == right else f"{path}: {left!r} != {right!r}"
    # Arrays and floats compare by bit pattern (a float as a float64 scalar).
    arrays = np.asarray(left), np.asarray(right)
    if arrays[0].dtype != arrays[1].dtype or arrays[0].shape != arrays[1].shape:
        return f"{path}: {arrays[0].dtype}{arrays[0].shape} != {arrays[1].dtype}{arrays[1].shape}"
    return None if arrays[0].tobytes() == arrays[1].tobytes() else f"{path}: {left!r} != {right!r}"

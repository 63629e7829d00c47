"""Arena growth mid-wave, checked against the per-key state twin.

One session-end wave brings more new users than a slab's default 256 rows,
so every slab grows inside its scatter's ``assign_rows``.  Predictions then
read a second wave at batch 1 and at batch 64 that mixes resident rows,
keys never written and a record written before the arena attached (a
per-key dict the slab does not hold).  The arena engine must deliver, store
and meter byte for byte what the per-key twin does
(``serving_harness.PerKeyStates``, compared with :mod:`repro.serving.twins`),
plain and quantized, unsharded and on a 4-shard pool with two replicas.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving.twins import first_difference, observe
from serving_harness import BASE_TIME, SESSION_LENGTH, build_engine, replay

#: More new users than a fresh slab's 256 rows, even per shard of the
#: 4-shard, two-replica pool (each shard owns about half the keys).
N_NEW = 640
STRAY_USER = 5_000
MISSING_USERS = range(9_000, 9_021)
TOPOLOGIES = {"unsharded": {}, "pool": {"n_shards": 4, "replication": 2}}


def _hosts(store):
    return getattr(store, "shards", [store])


def _event(timestamp, user_id, rng):
    context = {"badge": float(rng.integers(0, 9)), "surface": float(rng.integers(0, 3))}
    return (timestamp, user_id, context, bool(rng.random() < 0.4))


def growth_then_mixed_events(seed: int = 27):
    """``N_NEW`` sessions in one second (one update wave), then, three
    session lengths later, 64 sessions in one second: the stray user, 21
    users never seen and 42 resident ones, shuffled."""
    rng = np.random.default_rng(seed)
    first = [_event(BASE_TIME, user, rng) for user in range(N_NEW)]
    users = [STRAY_USER, *MISSING_USERS, *range(64 - 1 - len(MISSING_USERS))]
    rng.shuffle(users)
    later = BASE_TIME + 3 * SESSION_LENGTH
    return first + [_event(later, int(user), rng) for user in users]


def stray_record(network, quantized: bool, rng):
    """A well-formed state record and its billed size, as a state write stores them."""
    if quantized:
        state = rng.integers(-127, 128, size=network.state_size).astype(np.int8)
        return {"state": state, "timestamp": BASE_TIME - 100, "scale": 0.01}, state.nbytes + 16
    state = rng.normal(size=network.state_size).astype(np.float32)
    return {"state": state, "timestamp": BASE_TIME - 100}, state.nbytes + 8


def put_before_attach(store, key, record, size):
    """Write ``record`` the way a store holds one written before its arena
    attached: a per-key dict on every owner, outside the slab."""
    arenas = [host.arena for host in _hosts(store)]
    for host in _hosts(store):
        host.arena = None
    store.put(key, record, size_bytes=size)
    for host, arena in zip(_hosts(store), arenas):
        host.arena = arena


def record_growth(store):
    """Wrap every slab's ``assign_rows``; returns the ``(capacity before,
    capacity after)`` pairs of the calls that grew a slab, per slab."""
    grown = {}
    for host in _hosts(store):
        arena = host.arena
        grown[host.name] = []

        def assign_rows(keys, arena=arena, assign=arena.assign_rows, log=grown[host.name]):
            before = arena.capacity
            rows = assign(keys)
            if arena.capacity != before:
                log.append((before, arena.capacity))
            return rows

        arena.assign_rows = assign_rows
    return grown


def record_gathers(store):
    """Wrap the store's ``gather_states``; returns ``(keys, hits)`` per call."""
    calls = []
    gather = store.gather_states

    def gather_states(keys):
        result = gather(keys)
        calls.append((list(keys), int(np.count_nonzero(result[2]))))
        return result

    store.gather_states = gather_states
    return calls


@pytest.mark.parametrize("batch", [1, 64])
@pytest.mark.parametrize("quantized", [False, True], ids=["plain", "quantized"])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_growth_mid_wave_then_mixed_gathers_match_the_per_key_twin(serving_parts, topology, quantized, batch):
    events = growth_then_mixed_events()
    stray_key = f"hidden:{STRAY_USER}"
    observed = {}
    for layout in ("arena", "per_key"):
        engine = build_engine(
            serving_parts, per_key=layout == "per_key", max_batch_size=batch, quantize=quantized,
            **TOPOLOGIES[topology],
        )
        record, size = stray_record(serving_parts[2], quantized, np.random.default_rng(3))
        if layout == "arena":
            put_before_attach(engine.store, stray_key, record, size)
            assert all(stray_key not in host.arena for host in _hosts(engine.store))
            grown = record_growth(engine.store)
            gathers = record_gathers(engine.store)
        else:
            engine.store.put(stray_key, record, size_bytes=size)
        observed[layout] = observe(engine, replay(engine, events))

    # Every slab grew, inside one assign_rows call for more new keys than it held.
    assert grown and all(log and log[0][0] == 256 for log in grown.values()), grown
    # The stray record was read through the general path, beside misses (and,
    # at batch 64, resident rows) in the same gather.
    stray_reads = [(keys, hits) for keys, hits in gathers if stray_key in keys]
    assert len(stray_reads) == 2  # its prediction, then its session-end update
    keys, hits = stray_reads[0]
    if batch == 64:
        assert len(keys) == 64 and set(MISSING_USERS) & {int(key.split(":")[1]) for key in keys}
        assert hits == len(keys) - len(MISSING_USERS)
    else:
        assert keys == [stray_key] and hits == 1
    assert first_difference(observed["arena"], observed["per_key"]) is None

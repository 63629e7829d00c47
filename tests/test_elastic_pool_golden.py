"""Golden digests for the elastic pool: ``test_batch_kv.program``, observed whole.

``golden/elastic_pool_program.json`` was captured at the commit *before* the
pool's per-key write versions and stale-key superset were replaced by one
key → owners-behind map, so a change to how ``ShardedKeyValueStore`` records
divergence is checked against observations the version sidecars produced.
Each entry is one SHA-256 over a whole seeded program (client operations on
every entry point, failures, lazy and eager recoveries, resizes): every
step's result and, after every step, each shard's meters and records *in the
shard's own key order*, the pool rollup, every ring meter, ``keys()``,
``len``, and the logical byte counts.  Only public surface is read.

Key order is part of the digest on purpose: it is what migration and
re-hydration walk, so the file must come out identical under any
``PYTHONHASHSEED`` (an unordered logical key record would not).

Regenerate (only when the pool's observable behaviour is *meant* to change),
under two hash seeds, and check the two files are identical::

    PYTHONHASHSEED=0 PYTHONPATH=src python tests/test_elastic_pool_golden.py
    PYTHONHASHSEED=1 PYTHONPATH=src python tests/test_elastic_pool_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.serving import RING_COUNTER_FIELDS, ShardedKeyValueStore
from repro.serving.kvstore import NEVER_WRITTEN
from test_batch_kv import SPEC, plain, program

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "elastic_pool_program.json"

REPLICATIONS = (2, 3)
SEEDS = (0, 1, 2, 3, 4, 5)
STEPS_PER_ROUND = 20


def observation(pool, result) -> dict:
    return {
        "result": plain(result),
        "shards": [
            [shard.name, shard.stats.snapshot(), {key: plain(shard.peek(key)) for key in shard.keys()}]
            for shard in pool.shards
        ],
        "stats": pool.stats.snapshot(),
        "ring": {field: getattr(pool, field) for field in RING_COUNTER_FIELDS},
        "keys": list(pool.keys()),
        "len": len(pool),
        "user_bytes": pool.bytes_for_prefix("user:"),
        "logical_total_bytes": pool.logical_total_bytes,
    }


def captured_form(result):
    """A ``gather_states`` result in the form the golden was captured in.

    The pool then returned ``(states, timestamps, present)`` with 0 for a
    missing key's timestamp; it now returns each row's fetched bytes (the
    spec's payload on a hit, 0 on a miss) and :data:`NEVER_WRITTEN` for a
    missing key.  Check the new form, then map it back.
    """
    states, timestamps, fetched = result
    present = fetched > 0
    assert (fetched[present] == SPEC.payload_bytes).all()
    assert (timestamps[~present] == NEVER_WRITTEN).all()
    return states, np.where(present, timestamps, 0), present


def program_digest(replication: int, seed: int) -> str:
    pool = ShardedKeyValueStore(5, replication=replication)
    pool.attach_state_arena(SPEC)
    gather_states = pool.gather_states
    pool.gather_states = lambda keys: captured_form(gather_states(keys))
    names = [shard.name for shard in pool.shards]
    digest = hashlib.sha256()
    steps = program(np.random.default_rng(seed), names, replication, steps_per_round=STEPS_PER_ROUND)
    for step in steps:
        digest.update(json.dumps(observation(pool, step(pool)), default=bytes.hex).encode())
    # The program must have exercised what the digest is there to hold.
    assert pool.repair_puts > 0 and pool.repair_gets > 0 and pool.keys_migrated > 0
    return digest.hexdigest()


def program_name(replication: int, seed: int) -> str:
    return f"r{replication}-seed{seed}"


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("replication", REPLICATIONS)
def test_program_reproduces_the_version_sidecar_pool(replication, seed):
    expected = json.loads(GOLDEN_PATH.read_text())
    assert program_digest(replication, seed) == expected[program_name(replication, seed)]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(
            {program_name(r, seed): program_digest(r, seed) for r in REPLICATIONS for seed in SEEDS},
            indent=1,
        )
        + "\n"
    )

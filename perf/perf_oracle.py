"""Output checks: every replay must agree with the simplest engine.

The repo pins batch-size and topology invariance: the same events served at
batch 1 on one unsharded ``entries`` store leave bit-identical per-user
records (the update kernels are row-stable) and deliver the same
probabilities to ``PROBABILITY_ATOL`` (the scoring matmul's last ulp depends
on the batch shape BLAS sees; ``tests/test_serving_batching.py`` pins the
same tolerance).  The oracle is that simplest engine (same backend,
quantization, session window and coalescing window — the knobs that change
*what* is computed — everything else at its plainest).  It replays a prefix
of the workload outside the timed section (a full batch-1 replay of the
large workloads would cost more than the measurement); the workload's own
config replays the same prefix, and every timed rep must match the oracle
on that prefix and be bit-equal to the other reps everywhere.  Mismatches
count as failed requests.
"""

from __future__ import annotations

import hashlib
from typing import Any

import numpy as np

#: Cross-batch-shape tolerance on served probabilities.
PROBABILITY_ATOL = 1e-10

#: Config keys reset to their plainest value for the oracle engine.
ORACLE_OVERRIDES = {
    "max_batch_size": 1,
    "n_shards": None,
    "replication": 1,
    "state_layout": "entries",
    "tracing": None,
}


def oracle_config(config: dict[str, Any]) -> dict[str, Any]:
    plain = dict(config)
    plain.update({key: value for key, value in ORACLE_OVERRIDES.items() if key in config})
    plain["store_name"] = "oracle"
    return plain


def delivered_arrays(delivered) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(user_ids, timestamps, probabilities)`` of a delivery list."""
    return (
        np.asarray([p.user_id for p in delivered], dtype=np.int64),
        np.asarray([p.timestamp for p in delivered], dtype=np.int64),
        np.asarray([p.probability for p in delivered], dtype=np.float64),
    )


def snapshot_records(engine) -> dict[str, Any]:
    """Every stored record, read through the store's unmetered ``peek``."""
    store = engine.store
    return {key: store.peek(key) for key in sorted(store.keys())}


def records_equal(left: Any, right: Any) -> bool:
    """Bit-exact equality for nested store records (dicts/lists/ndarrays)."""
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (
            isinstance(left, np.ndarray)
            and isinstance(right, np.ndarray)
            and left.dtype == right.dtype
            and left.shape == right.shape
            and left.tobytes() == right.tobytes()
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(records_equal(v, right[k]) for k, v in left.items())
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return (
            type(left) is type(right)
            and len(left) == len(right)
            and all(map(records_equal, left, right))
        )
    return type(left) is type(right) and left == right


def _feed(digest, value: Any) -> None:
    if isinstance(value, np.ndarray):
        digest.update(value.dtype.str.encode())
        digest.update(value.tobytes())
    elif isinstance(value, dict):
        for key, item in value.items():
            digest.update(str(key).encode())
            _feed(digest, item)
    elif isinstance(value, (list, tuple)):
        digest.update(b"[")
        for item in value:
            _feed(digest, item)
    else:
        digest.update(f"{type(value).__name__}:{value!r};".encode())


def records_digest(records: dict[str, Any]) -> str:
    """Order- and type-sensitive digest of a record snapshot."""
    digest = hashlib.blake2b(digest_size=16)
    _feed(digest, records)
    return digest.hexdigest()


def count_delivery_mismatches(reference, candidate, n: int | None = None, atol: float = 0.0) -> int:
    """Positions (of the first ``n``) where two deliveries differ in user or
    timestamp, or in probability by more than ``atol`` (bits, at 0); a short
    delivery counts as mismatched."""
    n = len(reference[0]) if n is None else n
    have = min(n, len(candidate[0]), len(reference[0]))
    (ref_users, ref_times, ref_probs), (users, times, probs) = (
        [column[:have] for column in side] for side in (reference, candidate)
    )
    differs = (ref_users != users) | (ref_times != times)
    if atol:
        differs |= ~(np.abs(ref_probs - probs) <= atol)  # NaN never passes
    else:
        # Raw bits: NaN != NaN and -0.0 == 0.0 would both lie.
        differs |= ref_probs.view(np.int64) != probs.view(np.int64)
    return int(differs.sum()) + (n - have)


def count_record_mismatches(reference: dict[str, Any], candidate: dict[str, Any]) -> int:
    """Keys whose stored record is missing, extra or not bit-equal."""
    mismatched = len(set(reference) ^ set(candidate))
    for key, record in reference.items():
        if key in candidate and not records_equal(record, candidate[key]):
            mismatched += 1
    return mismatched

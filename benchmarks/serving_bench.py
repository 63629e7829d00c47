"""Serving wave gather/scatter benchmark: the ``BENCH_serving.json`` trajectory.

Times the state half of a serving wave — ``_fetch_states`` + ``_store_states``
on a :class:`~repro.serving.batching.BatchedHiddenStateBackend` — under both
storage layouts (``entries`` per-key records vs the ``arena`` slab) and
reports the speedup ratio.  No model compute is included: the RNN matmuls are
layout-independent, and the wave state path is exactly what the arena exists
to accelerate.

All recorded numbers are *ratios* between the two layouts measured on the
same machine in the same process, so the trajectory is hardware-portable:
a faster CI box speeds both arms up together.  Absolute per-wave times ride
along for context only.

Usage::

    PYTHONPATH=src python benchmarks/serving_bench.py            # print
    PYTHONPATH=src python benchmarks/serving_bench.py --check    # gate (CI)
    PYTHONPATH=src python benchmarks/serving_bench.py --record --pr N --note "..."

``--check`` fails when a gated speedup drops below its absolute floor or
below ``tolerance`` times the last recorded trajectory entry — the merge
gate that keeps the arena from quietly regressing back to a loop.  The
batch-1 ratios carry a softer, purely relative ratchet
(``BATCH1_TOLERANCE`` × the last recorded entry): a singleton wave is the
latency-critical serving path, so it must not quietly get slower either,
but it has no absolute floor: timed alone, with the GC off, a singleton
wave still pays NumPy's per-call overhead where the entry layout reads one
dict, although end to end the two layouts serve batch 1 within about 2 %.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from datetime import date
from pathlib import Path

import numpy as np

from repro.data import ContextField, ContextSchema
from repro.features.sequence import SequenceBuilder
from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork
from repro.serving import BatchedHiddenStateBackend, KeyValueStore, StreamProcessor

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Production-shaped workload: run_serving_cost's default hidden size, a
#: warm store of 512 users, waves of distinct users.
HIDDEN_SIZE = 48
N_USERS = 512
SESSION_LENGTH = 600
CONFIGS = (("plain", False), ("quantized", True))
BATCHES = (1, 64)
REPS = {1: 2000, 64: 400}

#: Absolute floors for the gated metrics (batch-64 speedups).  The batch-1
#: ratios have no absolute floor — a singleton wave pays NumPy's per-call
#: overhead, which this state-only timing shows in full — but they are
#: ratcheted against the trajectory below.
FLOORS = {"plain": 2.0, "quantized": 4.0}
#: A gated speedup may drop to this fraction of the last recorded value
#: before --check fails.  Ratios are far more portable than wall times but
#: not perfectly so (the Python-loop/NumPy cost balance shifts with the
#: interpreter and BLAS build); a genuine regression back toward a per-key
#: loop collapses the ratio to ~1x and can never hide inside the band.
TOLERANCE = 0.5
#: No-regression ratchet on the batch-1 ratios: purely relative to the last
#: recorded trajectory entry (no absolute floor).  Tighter than the batch-64
#: band because the batch-1 ratio hovers near 1x, where a 0.5 tolerance
#: would wave through a 2x latency regression on the singleton path — but
#: wide enough for the ~±20% jitter that µs-scale singleton timings show
#: even as best-of-trials minima (a real regression, per-key work leaking
#: into the arena gather, overshoots this band decisively).
BATCH1_TOLERANCE = 0.75


def _build_backend(layout: str, quantize: bool) -> BatchedHiddenStateBackend:
    schema = ContextSchema(
        fields=(
            ContextField("badge", "numeric"),
            ContextField("surface", "categorical", cardinality=3),
        )
    )
    builder = SequenceBuilder(schema)
    config = RNNNetworkConfig(
        feature_dim=builder.feature_dim, hidden_size=HIDDEN_SIZE, mlp_hidden=24
    )
    network = RNNPrecomputeNetwork(config, rng=np.random.default_rng(9)).eval()
    backend = BatchedHiddenStateBackend(
        network,
        builder,
        KeyValueStore("bench"),
        StreamProcessor(),
        SESSION_LENGTH,
        quantize=quantize,
        state_layout=layout,
    )
    rng = np.random.default_rng(1)
    backend._store_states(
        backend._state_keys(range(N_USERS)),
        rng.normal(size=(N_USERS, HIDDEN_SIZE)),
        np.full(N_USERS, 1_600_000_000, dtype=np.int64),
    )
    return backend


def _time_waves(backend: BatchedHiddenStateBackend, batch: int, reps: int) -> float:
    """Wall seconds per fetch+store wave, averaged over ``reps`` waves."""
    user_ids = list(range(batch))
    timestamps = np.full(batch, 1_600_000_500, dtype=np.int64)
    states = np.random.default_rng(2).normal(size=(batch, HIDDEN_SIZE))
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(reps):
            # As ``_apply_distinct_users`` does: one key list per wave,
            # shared by the gather and the scatter.
            keys = backend._state_keys(user_ids)
            backend._fetch_states(keys, timestamps)
            backend._store_states(keys, states, timestamps)
        return (time.perf_counter() - start) / reps
    finally:
        gc.enable()


def measure(trials: int = 5) -> dict:
    """Best-of-``trials`` interleaved timing for every config × batch.

    Trials alternate between the two layouts so machine drift hits both
    arms equally; each arm's minimum approaches its true cost (noise is
    additive), making the ratio the most stable available estimator.
    """
    results: dict[str, dict[str, dict[str, float]]] = {}
    for config_name, quantize in CONFIGS:
        entries = _build_backend("entries", quantize)
        arena = _build_backend("arena", quantize)
        per_batch: dict[str, dict[str, float]] = {}
        for batch in BATCHES:
            reps = REPS[batch]
            _time_waves(entries, batch, reps // 4)  # warm both paths
            _time_waves(arena, batch, reps // 4)
            entries_best = min(_time_waves(entries, batch, reps) for _ in range(trials))
            arena_best = min(_time_waves(arena, batch, reps) for _ in range(trials))
            per_batch[f"batch{batch}"] = {
                "speedup": round(entries_best / arena_best, 3),
                "entries_us": round(entries_best * 1e6, 2),
                "arena_us": round(arena_best * 1e6, 2),
            }
        results[config_name] = per_batch
    return results


def speedups_of(results: dict) -> dict[str, dict[str, float]]:
    return {
        config: {batch: stats["speedup"] for batch, stats in per_batch.items()}
        for config, per_batch in results.items()
    }


def load_trajectory(path: Path = BENCH_FILE) -> dict:
    return json.loads(path.read_text())


def check(results: dict, recorded: dict | None) -> list[str]:
    """Gate failures (empty = pass): each gated speedup must clear its
    absolute floor and ``tolerance`` × the last recorded trajectory entry."""
    failures = []
    last = recorded["trajectory"][-1]["speedups"] if recorded and recorded["trajectory"] else {}
    for config, floor in FLOORS.items():
        current = results[config]["batch64"]["speedup"]
        threshold = floor
        if config in last:
            threshold = max(threshold, last[config]["batch64"] * TOLERANCE)
        if current < threshold:
            failures.append(
                f"{config} batch-64 arena speedup {current:.2f}x is below the "
                f"gate {threshold:.2f}x (floor {floor:.1f}x, last recorded "
                f"{last.get(config, {}).get('batch64', 'n/a')})"
            )
        if config in last and "batch1" in last[config]:
            current_b1 = results[config]["batch1"]["speedup"]
            ratchet = last[config]["batch1"] * BATCH1_TOLERANCE
            if current_b1 < ratchet:
                failures.append(
                    f"{config} batch-1 arena ratio {current_b1:.2f}x is below the "
                    f"no-regression ratchet {ratchet:.2f}x "
                    f"({BATCH1_TOLERANCE} x last recorded {last[config]['batch1']})"
                )
    return failures


def format_results(results: dict) -> str:
    lines = ["wave state fetch+store, arena vs entries (best-of-trials):"]
    for config, per_batch in results.items():
        for batch, stats in per_batch.items():
            lines.append(
                f"  {config:>9} {batch:>7}: entries {stats['entries_us']:8.1f}us  "
                f"arena {stats['arena_us']:8.1f}us  speedup {stats['speedup']:.2f}x"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--check", action="store_true", help="gate against BENCH_serving.json")
    parser.add_argument("--record", action="store_true", help="append a trajectory entry")
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--pr", type=int, help="PR number for --record")
    parser.add_argument("--note", default="", help="trajectory note for --record")
    args = parser.parse_args(argv)
    results = measure(trials=args.trials)
    print(format_results(results))
    recorded = load_trajectory() if BENCH_FILE.exists() else None
    if args.check:
        failures = check(results, recorded)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("bench gate: PASS")
    if args.record:
        if args.pr is None:
            parser.error("--record needs --pr")
        entry = {
            "pr": args.pr,
            "date": date.today().isoformat(),
            "note": args.note,
            "speedups": speedups_of(results),
            "per_wave_us": {
                config: {
                    batch: {"entries": stats["entries_us"], "arena": stats["arena_us"]}
                    for batch, stats in per_batch.items()
                }
                for config, per_batch in results.items()
            },
        }
        if recorded is None:
            recorded = {
                "benchmark": (
                    "serving wave state fetch+store "
                    f"(hidden={HIDDEN_SIZE}, n_users={N_USERS}, batches={list(BATCHES)})"
                ),
                "metric": "speedup of state_layout='arena' over 'entries' per wave",
                "gates": {f"{config}_batch64": floor for config, floor in FLOORS.items()},
                "tolerance": TOLERANCE,
                "trajectory": [],
            }
        recorded["trajectory"].append(entry)
        BENCH_FILE.write_text(json.dumps(recorded, indent=2) + "\n")
        print(f"recorded trajectory entry for PR {args.pr} in {BENCH_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

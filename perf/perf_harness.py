"""Measurement core: chunked replay, calibration-normalised timing, metrics.

Noise model.  Raw wall time on a small shared VM moves by tens of percent
within minutes, so nothing here reports a single raw duration:

* a workload is replayed several times (*reps*), each on a freshly built,
  freshly warmed engine with the garbage collector off;
* every request of a rep is timed on its own, and after every fixed chunk
  of requests the driver runs a fixed *calibration slice* that belongs to
  the benchmark, not the program (:class:`Calibration`), itself timed in
  sub-millisecond parts;
* the workload is deterministic, so request ``i`` is the same work in every
  rep: workload time is ``T = sum_i min_r request[r][i]``, the calibration
  unit is ``C = sum_j min_r part[r][j]`` per slice, and every timing metric
  is divided by ``machine_factor = C / CALIBRATION_REF_S``.  The minimum
  discards interruptions (they only ever add time); the division discards
  what is left, the speed the machine is giving this process right now;
* how far a minimum gets down its item's distribution depends on how many
  reps it is taken over (the p99 of per-call minima read 183 / 146-159 /
  133-138 us at 8 / 9 / 10 reps of one workload), so a rep is kept to
  0.4-1 s and a run stops at ``MAX_REPS``: on a quiet machine every run
  takes its minima over the same number of reps.

End-to-end metrics come from untraced reps only.  ``--trace 1`` interleaves
four variants of the same workload — plain, span-recorded, telemetry off,
tracing on — and reports per-layer self times, exact counts from the
program's public meters, computed FLOPs/bytes, and the three overheads.
"""

from __future__ import annotations

import gc
import json
import re
import resource
import struct
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import perf_oracle as oracle
import perf_workloads as workloads
from perf_spans import SpanRecorder, instrument

#: Seconds one calibration slice takes between chunks on the VM the baseline
#: was recorded on when nothing else runs (2 cores, BLAS pinned to one
#: thread).  Only fixes the unit of the normalised metrics; comparisons
#: between runs do not depend on it.
CALIBRATION_REF_S = 0.0065

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("score_call_us_p50", "us"),
    ("score_call_us_p99", "us"),
    ("kv_ops_per_request", "count"),
    ("kv_bytes_per_request", "bytes"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("engine.self_us_per_request", "us"),
    ("queue.submit.self_us_per_request", "us"),
    ("queue.advance_to.self_us_per_request", "us"),
    ("queue.flush.self_us_per_request", "us"),
    ("queue.batches", "count"),
    ("queue.mean_batch_size", "count"),
    ("queue.partial_batch_share", "share"),
    ("backend.predict_batch.self_us_per_request", "us"),
    ("backend.apply_wave.self_us_per_update", "us"),
    ("backend.observe_session.self_us_per_request", "us"),
    ("backend.predict_batch.calls", "count"),
    ("backend.apply_wave.calls", "count"),
    ("backend.mean_wave_size", "count"),
    ("backend.subwaves_per_wave", "count"),
    ("stream.publish.self_us_per_request", "us"),
    ("stream.advance_to.self_us_per_update", "us"),
    ("stream.waves_fired", "count"),
    ("stream.timers_fired", "count"),
    ("stream.update_delay_sim_s_mean", "s"),
    ("router.read.self_us_per_request", "us"),
    ("router.write.self_us_per_update", "us"),
    ("router.shard_writes_per_put", "count"),
    ("router.load_imbalance", "ratio"),
    ("kvstore.read.self_us_per_request", "us"),
    ("kvstore.write.self_us_per_update", "us"),
    ("kvstore.gets_per_request", "count"),
    ("kvstore.puts_per_update", "count"),
    ("kvstore.bytes_read_per_request", "bytes"),
    ("kvstore.bytes_written_per_update", "bytes"),
    ("kvstore.hit_share", "share"),
    ("arena.gather.self_us_per_request", "us"),
    ("arena.scatter.self_us_per_update", "us"),
    ("arena.encode.self_us_per_update", "us"),
    ("arena.fill_share", "share"),
    ("arena.gather_bytes_per_request", "bytes"),
    ("features.encode_context_rows.self_us_per_row", "us"),
    ("features.encode_context_rows.calls", "count"),
    ("features.log_bucket.self_us_per_row", "us"),
    ("rnn.build_inputs.self_us_per_row", "us"),
    ("rnn.predict_proba_batch.self_us_per_request", "us"),
    ("rnn.update_hidden_batch.self_us_per_update", "us"),
    ("rnn.predict_flops_per_request", "flop"),
    ("rnn.update_flops_per_update", "flop"),
    ("tabular.transform_user.self_us_per_request", "us"),
    ("tabular.predict_proba.self_us_per_request", "us"),
    ("telemetry.overhead_share", "share"),
    ("tracing.overhead_share", "share"),
    ("bench.unattributed_us_per_request", "us"),
    ("bench.span_overhead_share", "share"),
    ("bench.tile_error_share", "share"),
    ("bench.machine_factor", "ratio"),
    ("bench.raw_requests_per_s", "1/s"),
    ("bench.py_calls_per_request", "count"),
    ("bench.score_calls", "count"),
    ("bench.config_keys_dropped", "count"),
    ("bench.wrap_targets_skipped", "count"),
)

#: Fit the models this many times, each followed by ``FIT_SLICES``
#: calibration slices; ``setup_s`` takes the minimum.
SETUP_SAMPLES = 5
FIT_SLICES = 3
MAX_REPS = 16
PROFILED_REQUESTS = 1000


class Calibration:
    """A fixed ~6 ms slice of work that belongs to the benchmark, not the
    program.  Its speed tracks what the machine is giving this process.

    The slice is built to lose speed the way the engine does when a
    neighbour takes cache and execution ports.  Tight in-cache loops do not:
    measured against them the workloads slowed 1.2-1.7x as much (in log
    terms) and the ratio kept a 3.5-4.5 % residual; against the three kinds
    below the slope is 0.7-1.0 on every workload and the residual
    0.6-1.7 %.  The kinds: a batch-1 matmul/clip/exp (per-call NumPy
    dispatch), a wide stdlib mix (json, sort, regex, struct, format: a large
    interpreter code footprint), and a GRU-like batch-64 step with row
    gather/scatter on a table larger than L2.  (A pointer chase over a
    shuffled object graph was tried and dropped: it followed the cache state
    the previous chunk left behind more than the machine.)

    A slice is timed in ``PARTS`` sub-millisecond parts so that the minimum
    over reps can discard an interruption without discarding the slice, and
    :meth:`reset` rewinds its cursors so that part ``j`` of slice ``k`` is
    the same work in every rep."""

    ROUNDS = 4
    PARTS = 3 * ROUNDS
    ROWS = 20000

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.one = rng.standard_normal((1, 96))
        self.weight = rng.standard_normal((96, 144)) / 10.0
        self.pattern = re.compile(r"[aeiou]+")
        self.record = {
            f"field_{i}": {"count": i, "mean": i / 7.0, "tags": [f"t{j}" for j in range(i % 5)]}
            for i in range(24)
        }
        self.table = rng.standard_normal((self.ROWS, 48)).astype(np.float32)
        self.saved = np.zeros_like(self.table)
        self.gathers = [rng.integers(0, self.ROWS, size=64) for _ in range(64)]
        self.gates = rng.standard_normal((48, 144)).astype(np.float32) / 10.0
        self.reset()

    def reset(self) -> None:
        self.step = 0

    def slice(self) -> list[float]:
        clock = time.perf_counter
        one, weight, record, pattern = self.one, self.weight, self.record, self.pattern
        table, saved, gates = self.table, self.saved, self.gates
        marks = [clock()]
        for _ in range(self.ROUNDS):
            for _ in range(75):
                np.exp(-np.clip(one @ weight, -30.0, 30.0))
            marks.append(clock())
            for _ in range(6):
                text = json.dumps(record, sort_keys=True)
                back = json.loads(text)
                keys = sorted(back, key=lambda key: back[key]["mean"], reverse=True)
                pattern.sub("_", text[:300])
                struct.pack("<8d", *[back[key]["mean"] for key in keys[:8]])
                "{:>10.3f}|{}".format(back[keys[0]]["mean"], ",".join(keys[:5]))
            marks.append(clock())
            for _ in range(10):
                self.step = (self.step + 1) & 63
                rows = self.gathers[self.step]
                hidden = table[rows]
                np.concatenate([hidden, hidden[:, :16]], axis=1)
                mixed = np.tanh(hidden @ gates)
                gate = 1.0 / (1.0 + np.exp(-np.clip(mixed[:, :48], -30.0, 30.0)))
                saved[rows] = (gate * hidden + (1.0 - gate) * mixed[:, 48:96]).astype(np.float32)
                np.asarray(rows.tolist(), dtype=np.int64)
            marks.append(clock())
        return [after - before for before, after in zip(marks, marks[1:])]


@dataclass
class Replay:
    event_s: list[float] = field(default_factory=list)
    slice_s: list[float] = field(default_factory=list)
    call_s: list[float] = field(default_factory=list)
    delivered: list = field(default_factory=list)


def replay(engine, events, chunk: int, calibration: Calibration | None = None, recorder=None) -> Replay:
    """Closed loop, one client: the public cursor surface in the order of
    ``replay_sessions_through_service``.

    ``event_s`` holds one duration per request (advance + submit + observe)
    plus one for the final flush/drain; ``call_s`` the blocking time of each
    ``submit`` that returned at least one prediction.  A calibration slice
    runs after every ``chunk`` requests.
    """
    result = Replay()
    delivered, call_s, event_s = result.delivered, result.call_s, result.event_s
    if calibration is not None:
        calibration.reset()
    advance, submit, observe = engine.advance_to, engine.submit, engine.observe_session
    clock = time.perf_counter
    for low in range(0, len(events), chunk):
        root = recorder.open("bench.chunk") if recorder is not None else -1
        for timestamp, user_id, context, accessed in events[low : low + chunk]:
            start = clock()
            out = advance(timestamp)
            if out:
                delivered += out
            before = clock()
            out = submit(user_id, context, timestamp)
            after = clock()
            if out:
                delivered += out
                call_s.append(after - before)
            if accessed is not None:
                observe(user_id, context, timestamp, accessed)
            event_s.append(clock() - start)
        if low + chunk >= len(events):
            start = clock()
            delivered += engine.flush()
            if engine.stream is not None:
                engine.stream.flush()
            delivered += engine.drain_completed()
            event_s.append(clock() - start)
        if recorder is not None:
            recorder.close(root)
        if calibration is not None:
            result.slice_s += calibration.slice()
    return result


@dataclass
class Rep:
    """What one replay leaves behind once its engine is gone."""

    variant: str
    setup_s: float
    event_s: np.ndarray
    slice_s: np.ndarray
    call_s: np.ndarray
    arrays: tuple[np.ndarray, np.ndarray, np.ndarray]
    kv_lookups: int
    bytes_fetched: int
    lost: int
    digest: str
    counts: dict[str, float]
    dropped: list[str]
    records: dict[str, Any] | None = None
    recorder: SpanRecorder | None = None


def _counts(engine, workload) -> dict[str, float]:
    """Exact counts from the program's public meters."""
    stats = engine.store.stats
    queue, backend, stream = engine.queue, engine.backend, engine.stream
    shards = getattr(engine.store, "shards", None)
    arenas = [a for a in (getattr(s, "arena", None) for s in (shards or [engine.store])) if a is not None]
    spec = arenas[0].spec if arenas else None
    network = getattr(backend, "network", None)
    cost = sys.modules.get("repro.serving.cost")
    flops = {
        name: float(getattr(cost, name)(network)) if network is not None and hasattr(cost, name) else 0.0
        for name in ("rnn_prediction_flops", "rnn_update_flops")
    }
    return {
        "batches": queue.batches_flushed,
        "mean_batch_size": queue.mean_batch_size,
        "max_batch_size": queue.max_batch_size,
        "updates": backend.updates_applied - workload.n_users * workload.warm_sessions,
        "update_delay_s": backend.update_delay_seconds,
        "waves_fired": stream.waves_fired if stream is not None else 0,
        "timers_fired": stream.timers_fired if stream is not None else 0,
        "gets": stats.gets,
        "puts": stats.puts,
        "hits": stats.hits,
        "bytes_read": stats.bytes_read,
        "bytes_written": stats.bytes_written,
        "sharded": shards is not None,
        "load_imbalance": engine.store.load_imbalance() if shards is not None else 0.0,
        "arena_rows": sum(len(a) for a in arenas),
        "arena_capacity": sum(a.capacity for a in arenas),
        "arena_row_bytes": spec.payload_bytes if spec is not None else 0,
        "predict_flops": flops["rnn_prediction_flops"],
        "update_flops": flops["rnn_update_flops"],
    }


def run_rep(
    workload,
    models,
    config: dict[str, Any],
    events,
    *,
    variant: str = "base",
    calibration: Calibration | None = None,
    keep_records: bool = False,
) -> Rep:
    start = time.perf_counter()
    engine, dropped = workload.build(models, config)
    setup_s = time.perf_counter() - start
    recorder = None
    if variant == "spans":
        recorder = SpanRecorder()
        instrument(recorder, engine, sys.modules["repro.serving.batching"])
    gc.collect()
    gc.disable()
    try:
        result = replay(engine, events, workload.chunk, calibration, recorder)
    finally:
        gc.enable()
        if recorder is not None:
            recorder.unwrap_all()
    admission = getattr(engine, "admission", None)
    shed = admission.requests_shed if admission is not None else 0
    records = oracle.snapshot_records(engine)
    rep = Rep(
        variant=variant,
        setup_s=setup_s,
        event_s=np.asarray(result.event_s),
        slice_s=np.asarray(result.slice_s),
        call_s=np.asarray(result.call_s),
        arrays=oracle.delivered_arrays(result.delivered),
        kv_lookups=sum(p.kv_lookups for p in result.delivered),
        bytes_fetched=sum(p.bytes_fetched for p in result.delivered),
        lost=shed + max(len(events) - shed - len(result.delivered), 0),
        digest=oracle.records_digest(records),
        counts=_counts(engine, workload),
        dropped=dropped,
        records=records if keep_records else None,
        recorder=recorder,
    )
    engine.close()
    return rep


def verify(reps: list[Rep], candidate: Rep, reference: Rep, prefix: int) -> int:
    """Failed requests: lost ones, plus every bit that differs from the
    oracle (``reference``) on the prefix or between reps anywhere."""
    failed = candidate.lost + sum(rep.lost for rep in reps)
    atol = oracle.PROBABILITY_ATOL
    failed += oracle.count_delivery_mismatches(reference.arrays, candidate.arrays, atol=atol)
    failed += oracle.count_record_mismatches(reference.records, candidate.records)
    for rep in reps:
        failed += oracle.count_delivery_mismatches(reference.arrays, rep.arrays, prefix, atol)
        failed += oracle.count_delivery_mismatches(reps[0].arrays, rep.arrays)
        failed += rep.digest != reps[0].digest
        failed += len(rep.call_s) != len(reps[0].call_s)
    return failed


def _min_sum(rows: list[np.ndarray]) -> float:
    """``sum_i min_r rows[r][i]``: item ``i`` is the same work in every rep,
    so its minimum is what it costs when nothing interrupts it."""
    return float(np.min(np.asarray(rows), axis=0).sum())


def machine_factor(slice_rows: list[np.ndarray]) -> float:
    """Calibration unit over ``CALIBRATION_REF_S``; each row holds the parts
    of the same slices, timed in another rep."""
    per_slice = _min_sum(slice_rows) * Calibration.PARTS / len(slice_rows[0])
    return per_slice / CALIBRATION_REF_S


def _profiled_calls(workload, models, config, events) -> float:
    """Python + C function calls per request over the first requests."""
    events = events[:PROFILED_REQUESTS]
    engine, _ = workload.build(models, config)
    calls = [0]

    def on_event(frame, event, arg):
        if event == "call" or event == "c_call":
            calls[0] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(on_event)
    try:
        replay(engine, events, len(events))
    finally:
        sys.setprofile(None)
        gc.enable()
    engine.close()
    return calls[0] / len(events)


def _value(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: float = 1.0,
    min_reps: int = 3,
    setup_samples: int = SETUP_SAMPLES,
    out_dir: Path | None = None,
) -> dict[str, Any]:
    """One benchmark run; returns the result object of the driver contract
    (``correct``/``attempted``/``failed``/``metrics``) plus ``details``."""
    workload = workloads.BY_NAME[name].scaled(scale)
    calibration = Calibration()
    for _ in range(5):
        calibration.slice()
    fit_s, fit_slices = [], []
    for _ in range(setup_samples):
        start = time.perf_counter()
        models = workloads.fit_models(workload.backend)
        fit_s.append(time.perf_counter() - start)
        calibration.reset()
        fit_slices.append(np.concatenate([calibration.slice() for _ in range(FIT_SLICES)]))
    events = workload.events(models, seed)
    config = workload.full_config(models)

    # Prefix replay on the workload's own config: the oracle's counterpart,
    # and the warm-up of every code path before anything is timed.
    prefix = min(len(events), workload.oracle_prefix)
    candidate = run_rep(workload, models, config, events[:prefix], keep_records=True)

    variants = {"base": config}
    if trace:
        variants["spans"] = config
        variants["telemetry_off"] = {**config, "telemetry": False}
        variants["tracing_on"] = {**config, "tracing": {"sample_pct": 100}}
        min_reps = max(min_reps, len(variants))
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MAX_REPS:
        variant = list(variants)[len(reps) % len(variants)]
        start = time.perf_counter()
        reps.append(
            run_rep(workload, models, variants[variant], events, variant=variant, calibration=calibration)
        )
        if len(reps) >= min_reps and 2 * time.perf_counter() - start > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = run_rep(
        workload, models, oracle.oracle_config(config), events[:prefix], keep_records=True
    )
    failed = verify(reps, candidate, reference, prefix)
    attempted = prefix + len(events) * len(reps)

    n = len(events)
    factor = machine_factor([rep.slice_s for rep in reps])
    base = [rep for rep in reps if rep.variant == "base"]
    base_s = _min_sum([rep.event_s for rep in base])
    details: dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "requests": n,
        "reps": len(reps),
        "oracle_prefix": prefix,
        "machine_factor": factor,
        "config_keys_dropped": base[0].dropped,
    }
    if not trace:
        calls = np.min(np.asarray([rep.call_s for rep in base]), axis=0) * 1e6 / factor
        details["score_calls"] = len(calls)
        metrics = {
            "setup_s": min(fit_s) / machine_factor(fit_slices) + min(rep.setup_s for rep in base) / factor,
            "requests_per_s": n * factor / base_s,
            "score_call_us_p50": float(np.percentile(calls, 50)),
            "score_call_us_p99": float(np.percentile(calls, 99)),
            "kv_ops_per_request": base[0].kv_lookups / n,
            "kv_bytes_per_request": base[0].bytes_fetched / n,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        metrics, details["wrap_targets_skipped"] = _per_layer(
            workload, models, config, events, reps, factor, base_s, out_dir
        )
        failed += metrics["bench.tile_error_share"] > 0.02
        units = dict(PER_LAYER)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": int(failed),
        "metrics": {key: _value(metrics[key], unit) for key, unit in units.items()},
        "details": details,
    }


def _per_layer(workload, models, config, events, reps, factor, base_s, out_dir):
    n = len(events)
    by_variant: dict[str, list[Rep]] = {}
    for rep in reps:
        by_variant.setdefault(rep.variant, []).append(rep)
    counts = by_variant["base"][0].counts
    updates = counts["updates"]
    traced = by_variant["spans"]
    aggregates = [rep.recorder.aggregate() for rep in traced]
    recorder = traced[0].recorder
    if out_dir is not None:
        recorder.write_chrome_trace(out_dir / f"{workload.name}.spans.json", request_root="engine.advance_to")

    def self_us(*names: str) -> float:
        """Normalised self time: per chunk the minimum over the traced reps."""
        per_rep = [
            np.sum([agg[name]["self_s"] for name in names if name in agg], axis=0) for agg in aggregates
        ]
        return _min_sum(per_rep) * 1e6 / factor if np.ndim(per_rep[0]) else 0.0

    def total(name: str, column: str) -> float:
        return aggregates[0].get(name, {}).get(column, 0)

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    def variant_s(variant: str) -> float:
        return _min_sum([rep.event_s for rep in by_variant[variant]])

    engine_spans = [f"engine.{attr}" for attr in ("advance_to", "submit", "observe_session", "flush", "drain_completed")]
    tile_error = max(
        abs(sum(sum(row["self_s"]) for row in agg.values()) / agg["bench.chunk"]["total_s"] - 1.0)
        for agg in aggregates
    )
    batch_sizes = recorder.sizes_of("backend.predict_batch")
    context_rows = total("features.encode_context_rows", "size")
    metrics = {
        "engine.self_us_per_request": per(self_us(*engine_spans), n),
        "queue.submit.self_us_per_request": per(self_us("queue.submit"), n),
        "queue.advance_to.self_us_per_request": per(self_us("queue.advance_to"), n),
        "queue.flush.self_us_per_request": per(self_us("queue.flush"), n),
        "queue.batches": counts["batches"],
        "queue.mean_batch_size": counts["mean_batch_size"],
        "queue.partial_batch_share": per(
            sum(size < counts["max_batch_size"] for size in batch_sizes), len(batch_sizes)
        ),
        "backend.predict_batch.self_us_per_request": per(self_us("backend.predict_batch"), n),
        "backend.apply_wave.self_us_per_update": per(self_us("backend.apply_wave"), updates),
        "backend.observe_session.self_us_per_request": per(self_us("backend.observe_session"), n),
        "backend.predict_batch.calls": total("backend.predict_batch", "calls"),
        "backend.apply_wave.calls": total("backend.apply_wave", "calls"),
        "backend.mean_wave_size": per(total("backend.apply_wave", "size"), total("backend.apply_wave", "calls")),
        "backend.subwaves_per_wave": per(
            recorder.calls_under("rnn.update_hidden_batch", "backend.apply_wave"),
            total("backend.apply_wave", "calls"),
        ),
        "stream.publish.self_us_per_request": per(self_us("stream.publish"), n),
        "stream.advance_to.self_us_per_update": per(self_us("stream.advance_to", "stream.flush"), updates),
        "stream.waves_fired": counts["waves_fired"],
        "stream.timers_fired": counts["timers_fired"],
        "stream.update_delay_sim_s_mean": per(counts["update_delay_s"], updates),
        "router.read.self_us_per_request": per(self_us("router.read"), n),
        "router.write.self_us_per_update": per(self_us("router.write"), updates),
        "router.shard_writes_per_put": per(counts["puts"], updates) if counts["sharded"] else 0.0,
        "router.load_imbalance": counts["load_imbalance"],
        "kvstore.read.self_us_per_request": per(self_us("kvstore.read"), n),
        "kvstore.write.self_us_per_update": per(self_us("kvstore.write"), updates),
        "kvstore.gets_per_request": per(counts["gets"], n),
        "kvstore.puts_per_update": per(counts["puts"], updates),
        "kvstore.bytes_read_per_request": per(counts["bytes_read"], n),
        "kvstore.bytes_written_per_update": per(counts["bytes_written"], updates),
        "kvstore.hit_share": per(counts["hits"], counts["gets"]),
        "arena.gather.self_us_per_request": per(self_us("arena.gather"), n),
        "arena.scatter.self_us_per_update": per(self_us("arena.scatter", "arena.assign_rows"), updates),
        "arena.encode.self_us_per_update": per(self_us("arena.encode"), updates),
        "arena.fill_share": per(counts["arena_rows"], counts["arena_capacity"]),
        "arena.gather_bytes_per_request": per(total("arena.gather", "size") * counts["arena_row_bytes"], n),
        "features.encode_context_rows.self_us_per_row": per(self_us("features.encode_context_rows"), context_rows),
        "features.encode_context_rows.calls": total("features.encode_context_rows", "calls"),
        "features.log_bucket.self_us_per_row": per(self_us("features.log_bucket"), total("features.log_bucket", "size")),
        "rnn.build_inputs.self_us_per_row": per(self_us("rnn.build_inputs"), n + updates),
        "rnn.predict_proba_batch.self_us_per_request": per(self_us("rnn.predict_proba_batch"), n),
        "rnn.update_hidden_batch.self_us_per_update": per(self_us("rnn.update_hidden_batch"), updates),
        "rnn.predict_flops_per_request": counts["predict_flops"],
        "rnn.update_flops_per_update": counts["update_flops"],
        "tabular.transform_user.self_us_per_request": per(self_us("tabular.transform_user"), n),
        "tabular.predict_proba.self_us_per_request": per(self_us("tabular.predict_proba"), n),
        "telemetry.overhead_share": (base_s - variant_s("telemetry_off")) / base_s,
        "tracing.overhead_share": (variant_s("tracing_on") - base_s) / base_s,
        "bench.unattributed_us_per_request": per(self_us("bench.chunk"), n),
        "bench.span_overhead_share": (variant_s("spans") - base_s) / base_s,
        "bench.tile_error_share": tile_error,
        "bench.machine_factor": factor,
        "bench.raw_requests_per_s": n / base_s,
        "bench.py_calls_per_request": _profiled_calls(workload, models, config, events),
        "bench.score_calls": len(by_variant["base"][0].call_s),
        "bench.config_keys_dropped": len(by_variant["base"][0].dropped),
        "bench.wrap_targets_skipped": len(recorder.skipped),
    }
    return metrics, recorder.skipped

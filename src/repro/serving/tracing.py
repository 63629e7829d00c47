"""Request-level distributed tracing over the simulated clock.

The serving pipeline's telemetry plane answers *aggregate* questions
(p99 update delay, shed rate, wave sizes); this module answers the
per-request one — "where did *this* request's latency go?" — with
deterministic span trees laid out on the simulated clock:

* a **root span** per sampled submitted request (``request``), with
  child spans for queue wait (``queue.wait``), the scoring interval
  (``predict``), the open session window (``session.window``), the
  wave-coalescing defer (``update.wave_wait``) and the applied GRU
  update (``update.apply`` instant);
* **batch lane** spans for every flushed micro-batch
  (``predict_batch``) and delivered timer wave (``apply_wave``), to
  which the KV layer attaches per-shard ``kv.*`` instants
  (``gather_states`` / ``scatter_states`` / ``get_many`` / … with
  shard, op/key-count and byte attributes, aggregated per operation
  kind and shard within each lane — simulated time does not advance
  inside a batch, so per-call instants would stack at one timestamp
  while costing a span per KV operation on the hottest loop);
* **control lane** instants for admission decisions, SLO-health
  transitions, autoscaler ticks, failure-schedule events and rollout
  stage transitions.

Everything is derived from values the pipeline already computes —
hooks are pure observation, so a traced engine is bit-identical
(predictions, stored state, every meter) to its untraced twin; the
property suite in ``tests/test_tracing.py`` pins that invariant.

Sampling follows the canary-cohort idiom: a stable hash (CRC-32) of
``user_id|timestamp`` against ``sample_pct``, so the sampled subset is
reproducible across runs and processes.  Batch/wave/control spans are
always recorded while the tracer is enabled — only per-request trees
are sampled.

``Tracer.chrome_trace()`` exports the Chrome trace-event format
(load the ``<run>.trace.json`` artifact in ``chrome://tracing`` or
https://ui.perfetto.dev); :class:`TraceAnalyzer` computes per-request
critical paths and the queue / compute / update-defer latency
breakdown consumable as experiment columns.

Wired through ``EngineConfig.tracing``, which this module owns
(:func:`check_block`, :func:`install`).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import replace
from itertools import repeat
from operator import itemgetter
from typing import Any, Iterable, Mapping, Sequence

from .checks import is_int

__all__ = ["Span", "Tracer", "TraceAnalyzer", "NULL_TRACER"]

#: The sampling key: ``(user_id, timestamp)`` packed binary (an integer
#: ``timestamp`` packs as the same double ``float()`` makes).  Its CRC-32
#: is deterministic across processes and platforms; unlike the shard
#: ring's and canary cohorts' BLAKE2b it costs a fraction of a BLAKE2b
#: digest's 0.5 µs, which runs once per request on the serving hot path,
#: and a sampling cohort needs spread, not collision resistance.
_pack_request_key = struct.Struct("!qd").pack


def _check_sample_pct(pct: Any, type_error: type[Exception] = TypeError) -> None:
    if not is_int(pct):
        raise type_error("tracing.sample_pct must be an int")
    if not 1 <= pct <= 100:
        raise ValueError("tracing.sample_pct must be in 1..100 (percent of requests)")


def check_block(name: str, value: Any) -> dict[str, int]:
    """The ``EngineConfig.tracing`` block: one optional field, ``sample_pct``;
    the default is filled here so a canonical config survives a JSON round
    trip intact."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping with sample_pct")
    unknown = set(value) - {"sample_pct"}
    if unknown:
        raise ValueError(f"unknown tracing fields: {sorted(unknown)}")
    pct = value.get("sample_pct", 100)
    _check_sample_pct(pct, type_error=ValueError)
    return {"sample_pct": pct}


def install(parts, block: dict[str, int] | None):
    """Give the pipeline a :class:`Tracer` when ``block`` is set, attached to
    the store (a pool fans it out to every shard, present and future, so
    batch KV operations record per-shard instants with no pool-level hooks)."""
    if block is None:
        return parts
    tracer = Tracer(block["sample_pct"])
    parts.store.attach_tracer(tracer)
    return replace(parts, tracer=tracer)


class Span:
    """One interval (or instant) on the simulated clock.

    ``start``/``end`` are simulated seconds (the stream's timeline, not
    wall-clock); ``kind`` is ``"span"`` for intervals and ``"instant"``
    for zero-width point events.  ``trace_id`` groups a request tree;
    batch/control-lane spans have ``trace_id == 0``.
    """

    __slots__ = ("span_id", "trace_id", "parent_id", "name", "cat", "start", "end", "kind", "attrs")

    def __init__(
        self,
        span_id: int,
        trace_id: int,
        parent_id: int | None,
        name: str,
        cat: str,
        start: float,
        end: float,
        kind: str = "span",
        attrs: dict[str, Any] | None = None,
    ) -> None:
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.start = float(start)
        self.end = float(end)
        self.kind = kind
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.cat!r}, [{self.start}, {self.end}], "
            f"id={self.span_id}, trace={self.trace_id}, parent={self.parent_id})"
        )


#: Field offsets of the tracer's internal raw records (batch-lane,
#: ``kv.*`` and control-plane events).  The benchmarked overhead budget
#: (<5% of the batch-64 hot path, ``benchmarks/test_bench_telemetry.py``)
#: leaves no room for an object construction per span on the hot path, so
#: the tracer appends plain lists and mutates them in place;
#: :class:`Span` objects are materialized lazily on read.
_ID, _TRACE, _PARENT, _NAME, _CAT, _START, _END, _KIND, _ATTRS = range(9)

#: Field offsets of the per-request tree rows.  A request tree is fully
#: determined by seven timestamps/counters, so the hot path records
#: exactly one 9-slot row per sampled request and stamps slots as the
#: request moves through the pipeline; the root span and its five
#: children (queue.wait / predict / session.window / update.wave_wait /
#: update.apply) are synthesized from the row at export time.
(_T_USER, _T_START, _T_REF, _T_COMP, _T_KV_LOOKUPS, _T_KV_BYTES,
 _T_FIRE, _T_WAVE_END, _T_WAVE_AT) = range(9)
#: A ``(prediction, row)`` pair's row: ``None`` for an unsampled request.
_ROW = itemgetter(1)


class Tracer:
    """Correlates pipeline hooks into deterministic span trees.

    The pipeline calls the hook methods below at the points where it
    already knows the relevant timestamps; the tracer never computes
    new ones, so enabling it cannot perturb the simulation.  Request
    trees are correlated FIFO on ``(user_id, timestamp)`` — the replay
    contract submits a request and observes its session with the same
    pair, in order.  Requests shed at admission (or whose session
    closes while they sit deferred) simply have no root registered
    when the session publishes, so their session/update spans are
    dropped rather than mis-attached: tracing is best-effort for
    rejected work, exact for admitted work.
    """

    enabled = True

    def __init__(self, sample_pct: int = 100) -> None:
        _check_sample_pct(sample_pct)
        self.sample_pct = sample_pct
        self._records: list[list[Any]] = []
        self._n_spans = 0
        # one compact row per sampled request (``_T_*`` offsets); the
        # row's index is its ``trace_id - 1``
        self._trees: list[list[Any]] = []
        # request object -> tree row, popped when its batch scores
        self._by_request: dict[int, list[Any]] = {}
        # (user_id, timestamp) -> tree rows awaiting session publication;
        # public because the session hook's call site tests it first, so a
        # session no sampled request awaits costs no call
        self.pending_sessions: dict[tuple[int, float], list[list[Any]]] = {}
        # (user_id, timestamp) -> tree rows awaiting wave delivery
        self._wave_fifo: dict[tuple[int, float], list[list[Any]]] = {}
        # batch/wave record KV instants attach to while one is open
        self._context: list[Any] | None = None
        self._context_time: float = 0.0
        # (op, shard) -> [ops, keys, bytes] accumulated inside the open lane
        self._kv_pending: dict[tuple[str, str], list[int]] = {}

    # ------------------------------------------------------------------
    # data-plane hooks (MicroBatchQueue / SessionStreamMixin / backends)
    #
    # These run per request, session and batch on the serving hot path: the
    # sampling test is inlined; the session hook's call site skips the call
    # while no sampled request awaits a session (``pending_sessions``); a
    # batch's requests or a wave's entries are looked up only while some
    # sampled request is pending there, with ``map`` / ``filter``, and a
    # batch's rows are stamped once, when it scores.

    def request_enqueued(self, request: Any) -> None:
        """A request entered the micro-batch queue (root span start)."""
        user_id = request.user_id
        timestamp = request.timestamp
        pct = self.sample_pct
        if pct < 100 and zlib.crc32(_pack_request_key(user_id, timestamp)) % 100 >= pct:
            return
        start = float(timestamp)
        row = [user_id, start, None, None, None, None, None, None, None]
        self._trees.append(row)
        self._by_request[id(request)] = row
        key = (user_id, start)
        fifo = self.pending_sessions.get(key)
        if fifo is None:
            self.pending_sessions[key] = [row]
        else:
            fifo.append(row)

    def begin_predict(self, batch: Sequence[Any], reference: float, completion: float) -> None:
        """A micro-batch flushed: open the batch span (its requests' rows are
        stamped once, when it scores)."""
        reference = float(reference)
        self._n_spans += 1
        span = [self._n_spans, 0, None, "predict_batch", "batch", reference, float(completion), "span",
                {"batch_size": len(batch), "kv_bytes": 0, "kv_ops": 0}]
        self._records.append(span)
        self._context = span
        self._context_time = reference

    def end_predict(self, batch: Iterable[Any], predictions: Iterable[Any]) -> None:
        """The batch scored: stamp its sampled requests' scoring times and KV
        attribution, close the lane."""
        by_request = self._by_request
        if by_request:
            span = self._context
            reference, completion = span[_START], span[_END]
            # Predictions lead the zip, so a short result list pops no
            # request it has no prediction for; only sampled requests' pairs
            # (a row, not ``None``) leave the filter.
            rows = map(by_request.pop, map(id, batch), repeat(None))
            for prediction, row in filter(_ROW, zip(predictions, rows)):
                row[_T_REF] = reference
                row[_T_COMP] = completion
                row[_T_KV_LOOKUPS] = prediction.kv_lookups
                row[_T_KV_BYTES] = prediction.bytes_fetched
        self._close_context()

    def session_published(self, user_id: int, timestamp: float, fire_at: float) -> None:
        """A session window opened with its end-timer scheduled at ``fire_at``."""
        if not self.pending_sessions:
            return  # no sampled request awaits its session
        # An int timestamp finds the row's float key: equal numbers hash equal.
        key = (user_id, timestamp)
        fifo = self.pending_sessions.get(key)
        if not fifo:
            return  # shed, deferred-past-window, or unsampled request
        row = fifo.pop(0)
        if not fifo:
            del self.pending_sessions[key]
        row[_T_FIRE] = float(fire_at)
        wave = self._wave_fifo.get(key)
        if wave is None:
            self._wave_fifo[key] = [row]
        else:
            wave.append(row)

    def begin_wave(
        self, user_ids: Sequence[int], timestamps: Sequence[float], fire_ats: Sequence[float], clock: float
    ) -> None:
        """A timer wave delivered at ``clock``: entry ``i`` is session
        ``(user_ids[i], timestamps[i])``, whose timer was due at ``fire_ats[i]``."""
        clock = float(clock)
        wave_start = clock
        if fire_ats:
            # ``float`` is monotone, so the earliest fire time converts once.
            wave_start = min(clock, float(min(fire_ats)))
        self._n_spans += 1
        span = [self._n_spans, 0, None, "apply_wave", "batch", wave_start, clock, "span",
                {"wave_size": len(fire_ats), "kv_bytes": 0, "kv_ops": 0}]
        self._records.append(span)
        wave_fifo = self._wave_fifo
        if wave_fifo:
            # A key is tested just before its entry is handled, so a key met
            # twice in one wave sees the first one's pop (an emptied FIFO is
            # deleted, so a present key always has a row).  Int timestamps
            # find the rows' float keys.
            for key in filter(wave_fifo.__contains__, zip(user_ids, timestamps)):
                fifo = wave_fifo[key]
                row = fifo.pop(0)
                if not fifo:
                    del wave_fifo[key]
                scheduled = row[_T_FIRE]
                row[_T_WAVE_END] = clock if clock > scheduled else scheduled
                row[_T_WAVE_AT] = clock
        self._context = span
        self._context_time = clock

    def end_wave(self) -> None:
        self._close_context()

    def kv_op(self, op: str, shard: str, n_keys: int, n_bytes: int) -> None:
        """A metered KV operation inside an open predict/wave lane.

        Simulated time does not advance inside a batch, so KV work carries
        no duration; per-call instants would stack at one timestamp while
        costing a span per operation on the hottest loop, so ops are
        accumulated per ``(op, shard)`` and flushed as one ``kv.<op>``
        instant per pair when the lane closes.  Bytes/op counts also
        accumulate onto the enclosing batch span's attributes.
        """
        if self._context is None:
            return  # warm-up / repair / shadow traffic outside any lane
        entry = self._kv_pending.get((op, shard))
        if entry is None:
            self._kv_pending[(op, shard)] = [1, n_keys, n_bytes]
        else:
            entry[0] += 1
            entry[1] += n_keys
            entry[2] += n_bytes

    def _close_context(self) -> None:
        """Flush the open lane's aggregated ``kv.*`` instants and close it."""
        context = self._context
        if context is not None and self._kv_pending:
            time = self._context_time
            parent_id = context[_ID]
            attrs = context[_ATTRS]
            for (op, shard), (ops, keys, n_bytes) in self._kv_pending.items():
                self._n_spans += 1
                self._records.append([self._n_spans, 0, parent_id, "kv." + op, "kv",
                                      time, time, "instant",
                                      {"shard": shard, "ops": ops, "keys": keys, "bytes": n_bytes}])
                attrs["kv_bytes"] += n_bytes
                attrs["kv_ops"] += ops
            self._kv_pending.clear()
        self._context = None

    # ------------------------------------------------------------------
    # control-plane hooks (admission / autoscaler / ring / rollout)

    def admission_event(self, kind: str, timestamp: float, **attrs: Any) -> None:
        """An admission decision (``shed`` / ``defer``) or health transition."""
        timestamp = float(timestamp)
        self._n_spans += 1
        self._records.append([self._n_spans, 0, None, "admission." + kind, "control",
                              timestamp, timestamp, "instant", attrs])

    def control_event(self, name: str, timestamp: float, **attrs: Any) -> None:
        """A named control-plane instant (autoscale tick, ring fault, rollout stage)."""
        timestamp = float(timestamp)
        self._n_spans += 1
        self._records.append([self._n_spans, 0, None, name, "control",
                              timestamp, timestamp, "instant", attrs])

    # ------------------------------------------------------------------
    # accessors / export

    def _tree_records(self) -> list[list[Any]]:
        """Synthesize raw span records for every sampled request tree.

        A tree's ``trace_id`` is its row index + 1; span ids continue
        after the eagerly-recorded batch/control records, assigned in row
        order, so a given set of recorded events always exports the same
        ids.  Partially-completed rows (a request still queued, or whose
        session has not fired) yield the subtree recorded so far.
        """
        out: list[list[Any]] = []
        next_id = self._n_spans
        for index, row in enumerate(self._trees):
            trace_id = index + 1
            root_id = next_id + 1
            children: list[tuple[str, str, float, float, dict[str, Any] | None]] = []
            end = row[_T_START]
            if row[_T_REF] is not None:
                children.append(("queue.wait", "queue", row[_T_START], row[_T_REF], None))
                attrs = None
                if row[_T_KV_LOOKUPS] is not None:
                    attrs = {"kv_lookups": int(row[_T_KV_LOOKUPS]),
                             "kv_bytes": int(row[_T_KV_BYTES])}
                children.append(("predict", "compute", row[_T_REF], row[_T_COMP], attrs))
                if row[_T_COMP] > end:
                    end = row[_T_COMP]
            if row[_T_FIRE] is not None:
                children.append(("session.window", "session", row[_T_START], row[_T_FIRE], None))
                if row[_T_FIRE] > end:
                    end = row[_T_FIRE]
            if row[_T_WAVE_END] is not None:
                children.append(("update.wave_wait", "update",
                                 row[_T_FIRE], row[_T_WAVE_END], None))
                children.append(("update.apply", "update",
                                 row[_T_WAVE_AT], row[_T_WAVE_AT], None))
                if row[_T_WAVE_END] > end:
                    end = row[_T_WAVE_END]
            out.append([root_id, trace_id, None, "request", "request",
                        row[_T_START], end, "span", {"user_id": row[_T_USER]}])
            next_id += 1
            for name, cat, start, stop, attrs in children:
                next_id += 1
                out.append([next_id, trace_id, root_id, name, cat, start, stop, "span", attrs])
        return out

    def _all_records(self) -> list[list[Any]]:
        return self._records + self._tree_records()

    def spans(self) -> list[Span]:
        """Materialize every recorded span (a fresh :class:`Span` view per
        call; request trees are synthesized from their compact rows)."""
        return [
            Span(rec[_ID], rec[_TRACE], rec[_PARENT], rec[_NAME], rec[_CAT],
                 rec[_START], rec[_END], rec[_KIND],
                 rec[_ATTRS] if rec[_ATTRS] is not None else {})
            for rec in self._all_records()
        ]

    def roots(self) -> list[Span]:
        return [span for span in self.spans() if span.name == "request"]

    def chrome_trace(self) -> dict[str, Any]:
        """Export the Chrome trace-event format (``chrome://tracing`` / Perfetto).

        Timestamps are re-based to the earliest span and scaled to
        microseconds; ``metadata.base_ts`` records the subtracted
        simulated-seconds origin so absolute times can be recovered.
        Control-plane instants land on thread lane 0, batch-lane spans on
        lane 1, and each request tree on its own ``1 + trace_id`` lane.
        """
        records = self._all_records()
        base = min((rec[_START] for rec in records), default=0.0)
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
             "args": {"name": "serving-engine (simulated clock)"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "ts": 0,
             "args": {"name": "control-plane"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "ts": 0,
             "args": {"name": "batch-lane"}},
        ]
        for rec in records:
            ts = round((rec[_START] - base) * 1e6, 3)
            args = {"span_id": rec[_ID], "trace_id": rec[_TRACE]}
            if rec[_ATTRS]:
                args.update(rec[_ATTRS])
            if rec[_PARENT] is not None:
                args["parent_id"] = rec[_PARENT]
            if rec[_CAT] == "control":
                tid = 0
            elif rec[_TRACE] == 0:
                tid = 1  # batch lane (predict_batch / apply_wave / kv.*)
            else:
                tid = 1 + rec[_TRACE]
            event: dict[str, Any] = {
                "name": rec[_NAME], "cat": rec[_CAT], "pid": 1, "tid": tid,
                "ts": ts, "args": args,
            }
            if rec[_KIND] == "instant":
                event["ph"] = "i"
                event["s"] = "t"
            else:
                event["ph"] = "X"
                event["dur"] = round((rec[_END] - rec[_START]) * 1e6, 3)
            events.append(event)
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"clock": "simulated-seconds", "base_ts": base, "spans": len(records)},
        }


class _NullTracer(Tracer):
    """Disabled tracer: every hook is a no-op (same idiom as ``NULL_REGISTRY``).

    Call sites guard hot paths on ``tracer.enabled``, but unguarded calls
    are harmless — nothing is recorded and nothing is allocated.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(sample_pct=100)

    def request_enqueued(self, request: Any) -> None:
        pass

    def begin_predict(self, batch: Sequence[Any], reference: float, completion: float) -> None:
        pass

    def end_predict(self, batch: Iterable[Any], predictions: Iterable[Any]) -> None:
        pass

    def session_published(self, user_id: int, timestamp: float, fire_at: float) -> None:
        pass

    def begin_wave(
        self, user_ids: Sequence[int], timestamps: Sequence[float], fire_ats: Sequence[float], clock: float
    ) -> None:
        pass

    def end_wave(self) -> None:
        pass

    def kv_op(self, op: str, shard: str, n_keys: int, n_bytes: int) -> None:
        pass

    def admission_event(self, kind: str, timestamp: float, **attrs: Any) -> None:
        pass

    def control_event(self, name: str, timestamp: float, **attrs: Any) -> None:
        pass


#: Shared disabled tracer — the default everywhere ``tracer`` is optional.
NULL_TRACER = _NullTracer()


#: Critical-path arbitration: when child spans overlap, the request is
#: "really" waiting on the highest-priority one — a deferred update
#: dominates (the prediction is long since delivered but the state write
#: hasn't landed), then scoring, then queueing; the open session window
#: only explains time nothing else does.
_PRIORITY = {"update.wave_wait": 4, "predict": 3, "queue.wait": 2, "session.window": 1}

#: Span name -> latency-breakdown category.
_CATEGORY = {
    "queue.wait": "queue",
    "predict": "compute",
    "session.window": "session_window",
    "update.wave_wait": "update_defer",
}

#: Breakdown column order (``other`` = root time no child explains).
CATEGORIES = ("queue", "compute", "session_window", "update_defer", "other")


class TraceAnalyzer:
    """Per-request critical paths and the latency-breakdown table.

    The critical path of a request partitions its root interval into
    elementary segments; each segment is attributed to the
    highest-priority child span covering it (see ``_PRIORITY``), and
    uncovered segments to ``other`` — so the segment durations always
    sum to the root span's duration exactly (pinned in
    ``tests/test_tracing.py``).  KV work is an instant on the simulated
    clock (no duration), so the KV column of the breakdown is *bytes
    moved*, not seconds.
    """

    def __init__(self, spans: Iterable[Span]) -> None:
        self._spans = list(spans)
        self._children: dict[int, list[Span]] = {}
        for span in self._spans:
            if span.parent_id is not None:
                self._children.setdefault(span.parent_id, []).append(span)
        self._roots = [span for span in self._spans if span.name == "request"]

    @property
    def roots(self) -> list[Span]:
        return list(self._roots)

    def children(self, span: Span) -> list[Span]:
        return list(self._children.get(span.span_id, ()))

    def critical_path(self, root: Span) -> list[tuple[str, float, float]]:
        """``(span_name, start, end)`` segments partitioning the root interval."""
        ranked = [
            child for child in self._children.get(root.span_id, ())
            if child.name in _PRIORITY and child.end > child.start
        ]
        cuts = sorted({root.start, root.end, *(c.start for c in ranked), *(c.end for c in ranked)})
        segments: list[list[Any]] = []
        for low, high in zip(cuts, cuts[1:]):
            if high <= low:
                continue
            active = [c for c in ranked if c.start <= low and c.end >= high]
            name = max(active, key=lambda c: _PRIORITY[c.name]).name if active else "other"
            if segments and segments[-1][0] == name and segments[-1][2] == low:
                segments[-1][2] = high
            else:
                segments.append([name, low, high])
        return [(name, low, high) for name, low, high in segments]

    def breakdown(self, root: Span) -> dict[str, Any]:
        """One row of the latency-breakdown table for ``root``."""
        seconds = dict.fromkeys(CATEGORIES, 0.0)
        for name, low, high in self.critical_path(root):
            seconds[_CATEGORY.get(name, "other")] += high - low
        kv_bytes = kv_lookups = 0
        for child in self._children.get(root.span_id, ()):
            if child.name == "predict":
                kv_bytes += int(child.attrs.get("kv_bytes", 0))
                kv_lookups += int(child.attrs.get("kv_lookups", 0))
        return {
            "trace_id": root.trace_id,
            "user_id": root.attrs.get("user_id"),
            "start": root.start,
            "duration_s": root.duration,
            **{f"{category}_s": seconds[category] for category in CATEGORIES},
            "kv_bytes": kv_bytes,
            "kv_lookups": kv_lookups,
        }

    def table(self) -> list[dict[str, Any]]:
        """The full breakdown table, one row per traced request."""
        return [self.breakdown(root) for root in self._roots]

    def slowest(self) -> Span | None:
        """The traced request with the largest end-to-end duration."""
        if not self._roots:
            return None
        return max(self._roots, key=lambda root: (root.duration, -root.trace_id))

    def summary(self) -> dict[str, Any]:
        """Mean-per-request breakdown columns for experiment rows.

        Keys are ``trace_``-prefixed so they drop straight into a result
        row next to the meter-derived columns.
        """
        rows = self.table()
        count = len(rows)

        def _mean(key: str) -> float:
            return sum(row[key] for row in rows) / count if count else 0.0

        return {
            "trace_requests": count,
            "trace_mean_duration_s": round(_mean("duration_s"), 3),
            **{f"trace_{category}_s": round(_mean(f"{category}_s"), 3) for category in CATEGORIES},
            "trace_kv_bytes": round(_mean("kv_bytes"), 1),
        }


def validate_chrome_trace(trace: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``trace`` is well-formed Chrome trace JSON.

    Checks the subset of the format the viewers actually require: a
    ``traceEvents`` list whose entries carry ``name``/``ph``/``ts``/``pid``,
    complete (``X``) events a non-negative ``dur``, and instants a scope.
    Used by the artifact tests and the manifest runner's smoke checks.
    """
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("chrome trace must carry a traceEvents list")
    for index, event in enumerate(events):
        if not isinstance(event, Mapping):
            raise ValueError(f"traceEvents[{index}] is not an object")
        for field in ("name", "ph", "pid"):
            if field not in event:
                raise ValueError(f"traceEvents[{index}] is missing {field!r}")
        phase = event["ph"]
        if phase not in ("X", "i", "M"):
            raise ValueError(f"traceEvents[{index}] has unsupported phase {phase!r}")
        if phase != "M" and "ts" not in event:
            raise ValueError(f"traceEvents[{index}] is missing 'ts'")
        if phase == "X":
            if not isinstance(event.get("dur"), (int, float)) or event["dur"] < 0:
                raise ValueError(f"traceEvents[{index}] needs a non-negative 'dur'")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"traceEvents[{index}] instant needs scope 's' in t/p/g")

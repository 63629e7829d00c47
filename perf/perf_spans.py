"""Wall-clock span recorder owned by the benchmark.

Spans are recorded from outside the program: :meth:`SpanRecorder.wrap`
shadows a public method with an *instance attribute* on an already built
object (or a module global), so nothing under ``src/`` changes and an
unwrapped engine runs the exact code the untraced reps time.  A missing
target is skipped and listed, never fatal — the benchmark must survive a
later PR deleting a layer it is not allowed to edit along with it.

Spans live in parallel lists (name id, start, end, parent index, size) and
are only turned into objects at export.  A span's *self time* is its
duration minus its direct children, so the self times of all spans under a
root tile that root exactly.
"""

from __future__ import annotations

import json
import time
from typing import Any

#: Cap on exported Chrome-trace events; aggregates always cover every span.
EXPORT_LIMIT = 20000


class SpanRecorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.size: list[int] = []
        self._stack: list[int] = []
        self._wrapped: list[tuple[Any, str, bool, Any]] = []
        self.skipped: list[str] = []

    def _intern(self, name: str) -> int:
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        return name_id

    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, name: str, *, sized: bool = False) -> None:
        """Record a span named ``name`` around every ``owner.attr(...)`` call.

        ``sized`` stores ``len(args[0])`` with the span (batch and wave
        sizes).  Owners missing the attribute are listed in ``skipped``.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.skipped.append(name)
            return
        name_id = self._intern(name)
        ids, starts, ends, parents, sizes, stack = (
            self.name_id, self.start, self.end, self.parent, self.size, self._stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(starts)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            sizes.append(len(args[0]) if sized else 0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return original(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        had_own = attr in getattr(owner, "__dict__", {})
        self._wrapped.append((owner, attr, had_own, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        """Restore every wrapped target (shared model objects outlive a rep)."""
        for owner, attr, had_own, original in reversed(self._wrapped):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._wrapped.clear()

    # ------------------------------------------------------------------
    def open(self, name: str) -> int:
        """Open a driver-side span (the benchmark's own chunk roots)."""
        name_id = self._intern(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, Any]]:
        """Per span name: ``calls``, ``size`` sum, ``total_s``, and ``self_s``
        as one sum per root span (the driver's chunks), so that callers can
        take minima chunk by chunk across reps."""
        count = len(self.start)
        child_time = [0.0] * count
        root_of = [0] * count
        n_roots = 0
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += self.end[index] - self.start[index]
                root_of[index] = root_of[parent]
            else:
                root_of[index] = n_roots
                n_roots += 1
        totals: dict[str, dict[str, Any]] = {
            name: {"calls": 0, "size": 0, "total_s": 0.0, "self_s": [0.0] * n_roots} for name in self.names
        }
        for index, name_id in enumerate(self.name_id):
            duration = self.end[index] - self.start[index]
            row = totals[self.names[name_id]]
            row["calls"] += 1
            row["size"] += self.size[index]
            row["total_s"] += duration
            row["self_s"][root_of[index]] += duration - child_time[index]
        return totals

    def sizes_of(self, name: str) -> list[int]:
        name_id = self._name_ids.get(name)
        return [self.size[i] for i, n in enumerate(self.name_id) if n == name_id]

    def calls_under(self, child: str, ancestor: str) -> int:
        """How many ``child`` spans have an ``ancestor`` span above them."""
        child_id, ancestor_id = self._name_ids.get(child), self._name_ids.get(ancestor)
        count = 0
        for index, name_id in enumerate(self.name_id):
            if name_id != child_id:
                continue
            parent = self.parent[index]
            while parent >= 0 and self.name_id[parent] != ancestor_id:
                parent = self.parent[parent]
            count += parent >= 0
        return count

    # ------------------------------------------------------------------
    def chrome_trace(self, *, request_root: str, limit: int = EXPORT_LIMIT) -> dict[str, Any]:
        """Chrome-trace JSON (``ph: "X"`` complete events, microseconds).

        Every span carries its parent index and the ordinal of the request
        that caused it: a new request starts at each top-level
        ``request_root`` span (the replay loop's ``engine.advance_to``).
        """
        origin = self.start[0] if self.start else 0.0
        request_id = self._name_ids.get(request_root)
        events = []
        request = -1
        requests = [0] * min(len(self.start), limit)
        for index in range(len(requests)):
            parent = self.parent[index]
            top_level = parent < 0 or self.parent[parent] < 0
            if top_level and self.name_id[index] == request_id:
                request += 1
            requests[index] = requests[parent] if parent >= 0 and not top_level else request
            args = {"span": index, "parent": parent, "request": requests[index]}
            if self.size[index]:
                args["size"] = self.size[index]
            events.append(
                {
                    "name": self.names[self.name_id[index]],
                    "cat": self.names[self.name_id[index]].split(".")[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (self.start[index] - origin) * 1e6,
                    "dur": (self.end[index] - self.start[index]) * 1e6,
                    "args": args,
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ns",
            "otherData": {"spans_recorded": len(self.start), "spans_exported": len(events)},
        }

    def write_chrome_trace(self, path, *, request_root: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(request_root=request_root), handle)


def instrument(recorder: SpanRecorder, engine, batching_module) -> None:
    """Wrap the public entry points of every layer of a built engine."""
    wrap = recorder.wrap
    for attr in ("advance_to", "submit", "observe_session", "flush", "drain_completed"):
        wrap(engine, attr, f"engine.{attr}")
    queue = getattr(engine, "queue", None)
    for attr in ("submit", "advance_to", "flush"):
        wrap(queue, attr, f"queue.{attr}")
    backend = getattr(engine, "backend", None)
    wrap(backend, "predict_batch", "backend.predict_batch", sized=True)
    wrap(backend, "apply_wave", "backend.apply_wave", sized=True)
    wrap(backend, "observe_session", "backend.observe_session")
    stream = getattr(engine, "stream", None)
    if stream is not None:
        wrap(stream, "publish", "stream.publish")
        wrap(stream, "advance_to", "stream.advance_to")
        wrap(stream, "flush", "stream.flush")
    store = getattr(engine, "store", None)
    shards = getattr(store, "shards", None)
    store_ops = (
        ("get", "read"), ("get_many", "read"), ("gather_states", "read"),
        ("put", "write"), ("put_many", "write"), ("scatter_states", "write"),
    )
    for attr, kind in store_ops:
        if shards is None:
            wrap(store, attr, f"kvstore.{kind}", sized=attr not in ("get", "put"))
        else:
            wrap(store, attr, f"router.{kind}", sized=attr not in ("get", "put"))
            for shard in shards:
                wrap(shard, attr, f"kvstore.{kind}", sized=attr not in ("get", "put"))
    for shard in shards if shards is not None else [store]:
        arena = getattr(shard, "arena", None)
        if arena is None:
            continue
        wrap(arena, "gather", "arena.gather", sized=True)
        wrap(arena, "scatter", "arena.scatter", sized=True)
        wrap(arena, "assign_rows", "arena.assign_rows", sized=True)
        wrap(arena, "encode", "arena.encode", sized=True)
    if getattr(backend, "network", None) is not None:
        wrap(getattr(backend, "builder", None), "encode_context_rows", "features.encode_context_rows", sized=True)
        wrap(batching_module, "log_bucket", "features.log_bucket", sized=True)
        network = backend.network
        wrap(network, "build_predict_inputs", "rnn.build_inputs")
        wrap(network, "build_update_inputs", "rnn.build_inputs")
        wrap(network, "predict_proba_batch", "rnn.predict_proba_batch", sized=True)
        wrap(network, "update_hidden_batch", "rnn.update_hidden_batch", sized=True)
    else:
        wrap(getattr(backend, "featurizer", None), "transform_user", "tabular.transform_user")
        wrap(getattr(backend, "estimator", None), "predict_proba", "tabular.predict_proba", sized=True)

"""Unified metrics plane for the serving stack.

A :class:`MetricsRegistry` of typed instruments that every serving
component (store, router, stream delivery, queue, backends, engine) reports
through, so a single ``engine.metrics.snapshot()`` describes a whole
pipeline's behaviour as one JSON-serializable dict.

Three instrument kinds (a :class:`View` is a counter or a gauge):

* :class:`Counter` — monotone total (requests served, bytes read, simulated
  seconds of update delay).  Float-valued so latency totals sum exactly.
* :class:`Gauge` — last-set level (queue depth, SLO violation flag).
* :class:`Histogram` — streaming distribution over **fixed buckets**.
  Everything in this repo runs on the simulated clock, so the recorded
  values are deterministic; fixed bucket bounds make the derived quantiles
  (p50/p95/p99) deterministic too — the same workload produces the same
  snapshot bit for bit, which is what lets tests pin SLO behaviour exactly.

Telemetry is pure observation: no instrument ever feeds back into scoring,
routing or update application, so an instrumented pipeline is bit-identical
to an uninstrumented one in every serving observable (pinned by
``tests/test_telemetry.py``).  Components accept ``registry=None`` and fall
back to :data:`NULL_REGISTRY`, whose instruments are shared no-ops — the
hot-path overhead of disabled telemetry is one attribute call per metered
event (bounded by ``benchmarks/test_bench_telemetry.py``).

One rule decides where a meter lives: **the component that counts it owns
it, and the registry reads it in place.**  ``store.stats.gets``,
``queue.batches_flushed``, ``backend.updates_applied``, ``pool.keys_migrated``
and their like are plain attributes the hot path bumps with a bare ``+=``;
each is registered once, at construction, as a :class:`View`
(:meth:`MetricsRegistry.view`) whose ``value`` calls back into the owner.
There is no second copy to refresh, so a view is current whenever it is
read — held across traffic, before any ``snapshot()``, after
``reset_stats()`` — and the attributes stay exact under
``telemetry=False``.  Only what cannot be read back streams into the
registry inline: distributions (:class:`Histogram`) and gauges whose
high-water mark is the point (``autoscale.fleet_size``,
``slo.in_violation``, ...).
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "View",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "LATENCY_BUCKETS_SECONDS",
    "SIZE_BUCKETS",
    "DIVERGENCE_BUCKETS",
]

#: Default bucket upper bounds for simulated-seconds latency histograms
#: (update delay, time-in-queue, end-to-end update latency).  Spans the
#: same-second fast path up to multi-hour overload backlogs; values past the
#: last bound land in the overflow bucket, whose quantile reports the
#: observed maximum.
LATENCY_BUCKETS_SECONDS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 5.0, 10.0, 15.0, 30.0, 60.0, 120.0, 240.0, 480.0, 900.0, 1800.0, 3600.0, 7200.0,
)

#: Default bucket upper bounds for count-shaped histograms (batch sizes,
#: wave sizes, queue depths).
SIZE_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0)

#: Bucket upper bounds for prediction-divergence histograms
#: (``rollout.<version>.divergence``): the absolute probability gap between a
#: shadow arm's score and the control arm's on the same request.  The bottom
#: buckets resolve float noise (a bit-identical candidate lands entirely in
#: the 0.0 bucket, so a ``max_divergence`` promotion gate near zero is exact);
#: the top buckets resolve genuinely different models.
DIVERGENCE_BUCKETS: tuple[float, ...] = (
    0.0, 1e-09, 1e-06, 1e-04, 0.001, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0,
)


class Counter:
    """Monotone total.  ``inc`` rejects negative amounts — a counter that can
    go backwards is a gauge."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | int = 0

    def inc(self, amount: float | int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount!r}")
        self.value += amount

    def snapshot(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-set level plus the high-water mark since creation."""

    __slots__ = ("name", "value", "max_value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | int = 0
        self.max_value: float | int = 0

    def set(self, value: float | int) -> None:
        self.value = value
        if value > self.max_value:
            self.max_value = value

    def snapshot(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value, "max": self.max_value}


class View:
    """Read-only counter or gauge over a meter its component owns.

    ``value`` (and a gauge's ``max_value``) call the reader the owner
    registered: the instrument holds no state, is current at every read and
    has no ``inc`` / ``set`` — the owner's attribute is the only place the
    meter is written.  A gauge without ``read_max`` has no separate
    high-water mark and reports its level as its maximum.
    """

    __slots__ = ("name", "kind", "_read", "_read_max")

    def __init__(self, name: str, kind: str, read, read_max=None) -> None:
        self.name = name
        self.kind = kind
        self._read = read
        self._read_max = read_max if read_max is not None else read

    @property
    def value(self) -> float | int:
        return self._read()

    @property
    def max_value(self) -> float | int:
        return self._read_max()

    def snapshot(self) -> dict[str, Any]:
        if self.kind == "gauge":
            return {"type": "gauge", "value": self.value, "max": self.max_value}
        return {"type": "counter", "value": self.value}


class Histogram:
    """Streaming distribution over fixed, inclusive bucket upper bounds.

    ``observe`` finds the first bucket whose bound is ``>= value`` (one
    bisect over a short tuple); values past the last bound count in the
    overflow bucket.  ``quantile(q)`` reports the upper bound of the bucket
    containing the ``ceil(q * count)``-th observation — a deterministic,
    JSON-friendly estimator: for the overflow bucket it reports the observed
    maximum (exact, since the max is tracked), and for an empty histogram
    ``0.0``.  Bucket bounds are part of the snapshot so downstream tooling
    can re-derive any quantile.

    The cumulative view never forgets: :meth:`quantile` over a run-long
    histogram describes the whole run, so a transient spike latches into the
    tail forever.  For control decisions that must *recover* (the p99
    admission bound), :meth:`enable_window` keeps a sliding window of the
    last ``size`` observations' bucket indices, and
    :meth:`window_quantile` answers over that window only — same
    deterministic bucket-bound estimator, O(1) extra work per observation.
    """

    __slots__ = (
        "name", "bounds", "counts", "overflow", "count", "total", "min_value", "max_value",
        "window_size", "_window", "_window_counts",
    )
    kind = "histogram"

    def __init__(self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS_SECONDS) -> None:
        if not buckets:
            raise ValueError(f"histogram {name!r}: needs at least one bucket")
        bounds = tuple(float(bound) for bound in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name!r}: bucket bounds must be strictly increasing")
        self.name = name
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min_value = float("inf")
        self.max_value = float("-inf")
        self.window_size = 0
        self._window: deque[int] | None = None
        self._window_counts: list[int] | None = None

    def enable_window(self, size: int) -> None:
        """Start (or keep) tracking a sliding window of the last ``size``
        observations for :meth:`window_quantile`.  Idempotent for the same
        size; two components demanding different windows on one histogram is
        the same drift the bucket-conflict check rejects, and is an error.
        Observations made before the call are not in the window."""
        if size <= 0:
            raise ValueError(f"histogram {self.name!r}: window size must be positive")
        if self._window is not None:
            if self.window_size != size:
                raise ValueError(
                    f"histogram {self.name!r} already has a window of {self.window_size}, "
                    f"requested {size}"
                )
            return
        self.window_size = size
        self._window = deque()
        self._window_counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        if index == len(self.bounds):
            self.overflow += 1
        else:
            self.counts[index] += 1
        if self._window is not None:
            self._window.append(index)
            self._window_counts[index] += 1
            if len(self._window) > self.window_size:
                self._window_counts[self._window.popleft()] -= 1
        self.count += 1
        self.total += value
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value

    def observe_many(self, values) -> None:
        """Observe a whole batch in one call — the hot-path entry point.

        Identical result to observing one at a time; amortises the method
        dispatch and attribute traffic over the batch, which matters on the
        per-request serving paths (bounded by
        ``benchmarks/test_bench_telemetry.py``).  Values must be numbers;
        unlike :meth:`observe` they are used as-is (no ``float()`` coercion
        — the hot paths already hand in floats).
        """
        if self._window is not None:
            # Window maintenance needs the per-value deque rotation anyway,
            # so the batched fast path buys nothing here.
            for value in values:
                self.observe(value)
            return
        bounds = self.bounds
        counts = self.counts
        n_buckets = len(bounds)
        search = bisect.bisect_left
        total = 0.0
        overflow = 0
        batch = 0
        minimum = self.min_value
        maximum = self.max_value
        for value in values:
            index = search(bounds, value)
            if index == n_buckets:
                overflow += 1
            else:
                counts[index] += 1
            total += value
            batch += 1
            if value < minimum:
                minimum = value
            if value > maximum:
                maximum = value
        self.count += batch
        self.total += total
        self.overflow += overflow
        self.min_value = minimum
        self.max_value = maximum

    def reset(self) -> None:
        """Forget every observation — lifetime counts *and* the sliding
        window — while keeping the bucket bounds and window configuration.
        Only the component that observes into the histogram may call this."""
        self.counts = [0] * len(self.bounds)
        self.overflow = 0
        self.count = 0
        self.total = 0.0
        self.min_value = float("inf")
        self.max_value = float("-inf")
        if self._window is not None:
            self._window.clear()
            self._window_counts = [0] * (len(self.bounds) + 1)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Deterministic bucket-bound quantile estimate; 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = min(self.count, max(1, math.ceil(q * self.count)))
        cumulative = 0
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            if cumulative >= rank:
                return bound
        return float(self.max_value)

    def window_quantile(self, q: float) -> float:
        """:meth:`quantile` over the last ``window_size`` observations only.

        Same bucket-bound estimator; window observations that landed in the
        overflow bucket report the histogram-lifetime maximum (the overflow
        bucket has no upper bound and the window does not track its own
        max).  0.0 while the window is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q!r} must be in [0, 1]")
        if self._window is None:
            raise ValueError(f"histogram {self.name!r}: call enable_window first")
        window_count = len(self._window)
        if window_count == 0:
            return 0.0
        rank = min(window_count, max(1, math.ceil(q * window_count)))
        cumulative = 0
        n_buckets = len(self.bounds)
        for index, bucket_count in enumerate(self._window_counts):
            cumulative += bucket_count
            if cumulative >= rank:
                if index == n_buckets:
                    break
                return self.bounds[index]
        return float(self.max_value)

    def snapshot(self) -> dict[str, Any]:
        if self._window is not None:
            return {
                **self._base_snapshot(),
                "window": {
                    "size": self.window_size,
                    "count": len(self._window),
                    "p50": self.window_quantile(0.50),
                    "p99": self.window_quantile(0.99),
                },
            }
        return self._base_snapshot()

    def _base_snapshot(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min_value if self.count else 0.0,
            "max": self.max_value if self.count else 0.0,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": [[bound, count] for bound, count in zip(self.bounds, self.counts)],
            "overflow": self.overflow,
        }


class MetricsRegistry:
    """Named, typed instruments behind get-or-create accessors.

    Instrument names are dotted paths (``kv.rnn/shard0.gets``,
    ``queue.batch_size``, ``serving.update_delay_seconds``); re-requesting a
    name returns the existing instrument, and requesting it as a different
    kind (or a histogram with different buckets) is a hard error — two
    components silently writing different meanings into one name is exactly
    the ad-hoc drift this registry exists to end.

    A meter lives in the component that counts it: a counter or gauge with
    an attribute behind it is a :meth:`view`, so every accessor and
    ``snapshot()`` report the attribute's current value; only distributions
    and high-water gauges are written through their handles inline.
    """

    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram | View] = {}

    def _get_or_create(self, name: str, kind: str, factory) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments[name] = factory()
        elif instrument.kind != kind:
            raise ValueError(f"instrument {name!r} is a {instrument.kind}, not a {kind}")
        return instrument

    def counter(self, name: str) -> Counter | View:
        return self._get_or_create(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge | View:
        return self._get_or_create(name, "gauge", lambda: Gauge(name))

    def histogram(self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS_SECONDS) -> Histogram:
        histogram = self._get_or_create(name, "histogram", lambda: Histogram(name, buckets))
        if histogram.bounds != tuple(float(bound) for bound in buckets):
            raise ValueError(
                f"histogram {name!r} already exists with buckets {histogram.bounds}, "
                f"requested {tuple(buckets)}"
            )
        return histogram

    def view(self, name: str, kind: str, read, read_max=None) -> View:
        """Register ``name`` as a ``"counter"`` or ``"gauge"`` read in place.

        ``read`` (and ``read_max``, a gauge's high-water mark) are
        zero-argument callables into the owning component —
        ``lambda: self.stats.gets``, ``lambda: len(self._queue)``.
        Registering a name again rebinds it to the newest component (a
        rebuilt store takes over its predecessor's names); registering over
        an instrument of another kind is a hard error.
        """
        if kind not in ("counter", "gauge"):
            raise ValueError(f"view {name!r}: kind must be 'counter' or 'gauge', got {kind!r}")
        view = View(name, kind, read, read_max)
        self._get_or_create(name, kind, lambda: view)  # a kind conflict raises here
        self._instruments[name] = view
        return view

    # ------------------------------------------------------------------
    def get(self, name: str) -> Counter | Gauge | Histogram | View | None:
        """The instrument registered under ``name``, or ``None``."""
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._instruments))

    def snapshot(self, prefix: str = "") -> dict[str, dict[str, Any]]:
        """JSON-serializable dump of every instrument (optionally filtered
        by name prefix), names sorted so the dump is stable."""
        return {
            name: self._instruments[name].snapshot()
            for name in sorted(self._instruments)
            if name.startswith(prefix)
        }


class _NullInstrument:
    """Shared do-nothing stand-in for every instrument kind."""

    __slots__ = ()
    name = "null"
    value = 0
    max_value = 0
    count = 0
    total = 0.0
    overflow = 0
    bounds: tuple[float, ...] = ()
    counts: list[int] = []
    min_value = 0.0
    mean = 0.0
    window_size = 0

    def inc(self, amount: float | int = 1) -> None:
        pass

    def enable_window(self, size: int) -> None:
        pass

    def window_quantile(self, q: float) -> float:
        return 0.0

    def set(self, value: float | int) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def reset(self) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict[str, Any]:
        return {}


class _NullRegistry:
    """Disabled telemetry: same surface as :class:`MetricsRegistry`, all
    instruments are one shared no-op.  ``snapshot()`` is empty, truthfully —
    nothing was recorded."""

    enabled = False
    _instrument = _NullInstrument()

    def view(self, name: str, kind: str, read, read_max=None) -> _NullInstrument:
        return self._instrument

    def counter(self, name: str) -> _NullInstrument:
        return self._instrument

    def gauge(self, name: str) -> _NullInstrument:
        return self._instrument

    def histogram(self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS_SECONDS) -> _NullInstrument:
        return self._instrument

    def get(self, name: str) -> None:
        return None

    def names(self) -> list[str]:
        return []

    def __contains__(self, name: str) -> bool:
        return False

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[str]:
        return iter(())

    def snapshot(self, prefix: str = "") -> dict[str, dict[str, Any]]:
        return {}


#: The shared disabled registry.  Components use it whenever the caller
#: passes ``registry=None``, so instrumented code never branches.
NULL_REGISTRY = _NullRegistry()

"""Unified serving facade: one declarative config, one lifecycle, two backends.

The Section 9 serving layer is five cooperating pieces — the micro-batch
queue, the wave-coalescing stream, the consistent-hash router, two batched
backends and the cost meters.  :class:`ServingEngine` is the one way to
compose them: a declarative :class:`EngineConfig` says *what* to build
(batch size, coalescing window, shard count, backend kind, quantization)
and :meth:`ServingEngine.build` assembles it, bit-identical in every
observable to wiring the components by hand (pinned by
``tests/test_engine.py``).

The lifecycle is ``build → submit/replay → flush/drain → close``:

* :meth:`ServingEngine.build` — assemble the pipeline's parts from the
  config in a fixed order; each optional part is checked and installed by
  the module that runs it.
* :meth:`~ServingEngine.submit` / :meth:`~ServingEngine.advance_to` /
  :meth:`~ServingEngine.predict` / :meth:`~ServingEngine.observe_session` —
  live traffic; :meth:`~ServingEngine.replay` drives a whole session stream
  in global time order.
* :meth:`~ServingEngine.flush` / :meth:`~ServingEngine.drain_completed` —
  deliver what is still queued or uncollected (the drained-cursor
  exactly-once contract is the queue's, unchanged).
* :meth:`~ServingEngine.close` — deregister the queue's stream barrier and
  refuse further traffic; idempotent.

Both dataflows implement the same :class:`Backend` protocol and share one
session-end dataflow: every update rides the stream and lands at window
close through the wave entry point ``apply_wave`` — history writes on the
aggregation path batch exactly like GRU updates on the hidden path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from . import autoscale, rollout, router, slo, tracing
from .batching import (
    BatchedAggregationBackend,
    BatchedHiddenStateBackend,
    MicroBatchQueue,
    ServingPrediction,
    ServingRequest,
    SessionUpdate,
    SessionWave,
)
from .checks import is_int
from .kvstore import KeyValueStore
from .router import ShardedKeyValueStore
from .stream import StreamProcessor
from .telemetry import MetricsRegistry
from .tracing import NULL_TRACER, Tracer

if TYPE_CHECKING:
    from .autoscale import Autoscaler
    from .rollout import RolloutController
    from .slo import AdmissionController, ServerModel, SloPolicy

__all__ = [
    "Backend",
    "EngineConfig",
    "ServingEngine",
    "check_engine_field",
    "BACKEND_KINDS",
]

BACKEND_KINDS = ("hidden_state", "aggregation")


# ----------------------------------------------------------------------
# The EngineConfig schema: one check per field, written once.  Each takes
# ``(name, value)`` and returns the canonical value or raises ValueError;
# a block is checked by the module that runs it.
# ----------------------------------------------------------------------
def _scalar(kind: type, *, minimum: int | None = None, choices: tuple[str, ...] | None = None):
    """Check for a plain ``int`` / ``bool`` / ``str`` field: the exact type (a
    bool is not an int and neither is a float, so ``nan``/``inf`` and the
    hand-edit typo ``"quantize": "false"`` never pass), then the lower bound
    or the legal strings."""
    expected = {int: "an integer", bool: "true/false", str: "a string"}[kind]

    def check(name: str, value: Any) -> Any:
        if not (is_int(value) if kind is int else isinstance(value, kind)):
            raise ValueError(f"{name}: expected {expected}, got {value!r}")
        if minimum is not None and value < minimum:
            raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
        if choices is not None and value not in choices:
            raise ValueError(f"unknown {name} {value!r}; expected one of {choices}")
        return value

    return check


def _optional(check):
    """``None`` means "not configured" and passes; anything else is checked."""
    return lambda name, value: None if value is None else check(name, value)


_FIELD_CHECKS = {
    "backend": _scalar(str, choices=BACKEND_KINDS),
    "max_batch_size": _scalar(int, minimum=1),
    "coalescing_window": _scalar(int, minimum=0),
    "n_shards": _optional(_scalar(int, minimum=1)),
    "quantize": _scalar(bool),
    "session_length": _optional(_scalar(int, minimum=1)),
    "extra_lag": _scalar(int, minimum=0),
    "coalesce_updates": _scalar(bool),
    "defer_updates": _scalar(bool),
    "history_window": _scalar(int, minimum=1),
    "store_name": _scalar(str),
    "replication": _scalar(int, minimum=1),
    "failure_schedule": _optional(router.check_block),
    "state_layout": _scalar(str, choices=("entries", "arena")),
    "model": _optional(rollout.check_block),
    "rollout": _optional(rollout.check_block),
    "autoscale": _optional(autoscale.check_block),
    "tracing": _optional(tracing.check_block),
}


def check_engine_field(name: str, value: Any) -> Any:
    """Validate one :class:`EngineConfig` field on its own — type, range,
    nested-block shape — and return its canonical value.

    The single schema: ``EngineConfig.__post_init__`` runs it on every field
    and a manifest's partial ``engine`` block is checked field by field with
    it at load (``experiments.runner.validate_engine_block``), so direct
    construction and manifests accept exactly the same values.  Rules that
    relate several fields run in ``__post_init__``, which sees them all.
    """
    return _FIELD_CHECKS[name](name, value)


@runtime_checkable
class Backend(Protocol):
    """What a serving dataflow must expose to live behind the facade.

    Both built-in backends (:class:`BatchedHiddenStateBackend`,
    :class:`BatchedAggregationBackend`) implement it symmetrically: batched
    prediction scoring, session-end observation, and **wave application** —
    the sessions whose windows closed in one stream wave, delivered together
    as one columnar :class:`SessionWave` and applied as one batch.  A
    hand-built ``list[SessionUpdate]`` (warm-ups, tests) is accepted at the
    same door and converted once.
    """

    predictions_served: int
    updates_applied: int
    #: Simulated seconds session-end updates spent waiting for their wave —
    #: a float: the wave path accumulates per-update waits as a running sum
    #: and fractional-second capacity models feed fractional delays.
    update_delay_seconds: float

    def predict_batch(self, requests: list[ServingRequest]) -> list[ServingPrediction]:
        """Score a micro-batch of queued requests.

        Requests and predictions are immutable tuple rows: the batch is read
        as columns (``user_ids, contexts, stamps = zip(*requests)``), as a
        wave is, and the result is one :class:`ServingPrediction` row per
        request, in submission order, with the request's ``user_id`` and
        ``timestamp``.  An empty batch returns ``[]``.
        """
        ...

    def observe_session(self, user_id: int, context: dict[str, float], timestamp: int, accessed: bool) -> None:
        """Hand a finished session to the stream; its update lands at window close."""
        ...

    def apply_wave(self, updates: SessionWave | list[SessionUpdate]) -> None:
        """Apply one wave of session-end updates as a single batch."""
        ...

    @property
    def storage_bytes(self) -> int:
        """Bytes of per-user state this backend keeps in the store."""
        ...


@dataclass(frozen=True)
class EngineConfig:
    """Declarative description of a serving pipeline.

    Everything here is a plain value, so a config round-trips through
    :meth:`to_dict` / :meth:`from_dict` (e.g. for experiment manifests);
    model objects are supplied separately to :meth:`ServingEngine.build`.
    Each optional block is checked, and installed at build, by the module
    that runs it; one paragraph per block:

    **Dataflow** (:mod:`~repro.serving.batching`, checked here): ``backend``,
    ``max_batch_size``, ``coalescing_window``, ``session_length`` (required)
    + ``extra_lag``, ``coalesce_updates``, ``history_window``.  On both
    backends every session-end update rides the stream and lands at window
    close (the paper's dataflow).  ``defer_updates`` is retired: its one
    legal value is ``True``, kept only because ``perf/perf_workloads.py``'s
    ``agg_baseline`` config still sets it.  ``quantize`` applies to hidden
    states only, which always live in the store's state arena.
    ``state_layout`` is retired too: ``"arena"`` and ``"entries"`` are both
    accepted and build that one layout, kept only because
    ``perf/perf_workloads.py`` sets ``"arena"`` and ``perf/perf_oracle.py``
    overrides it to ``"entries"``.

    **Store and faults** (:mod:`~repro.serving.router`): ``store_name``,
    ``n_shards``, ``replication`` (replica-group size; needs ``n_shards``)
    and ``failure_schedule``, ``(fire_at, "fail" | "recover", shard_index)``
    faults on the stream clock — needs ``replication >= 2``, and is walked in
    fire order at config time against the pool's own failure rules.  Placement-only: bit-invisible to served
    values (``tests/test_elastic_ring.py``).

    **Model lifecycle** (:mod:`~repro.serving.rollout`): ``model`` pins the
    control network to a :class:`~repro.serving.registry.ModelRegistry`
    version (``build(models=...)`` replaces ``network=``; hidden-state
    only); ``rollout`` — ``{candidate, stages: ((fire_at, pct), …), gates}``,
    needs ``model`` — shadow-scores a candidate and walks it through a gated
    canary, bit-invisible to the control arm (``tests/test_rollout.py``).

    **Autoscaling** (:mod:`~repro.serving.autoscale`): ``autoscale``
    replaces a caller's ``server=`` with an elastic replica fleet sized by a
    ``"reactive"`` or ``"predictive"`` policy on control timers; required
    ``policy`` / ``service_rate`` / ``start`` / ``until``, defaults for the
    rest beside the block check.  ``"predictive"`` needs ``hidden_state``.  A
    fleet pinned to one replica is bit-identical to ``ServerModel``
    (``tests/test_autoscale.py``).

    **Tracing** (:mod:`~repro.serving.tracing`): ``tracing``, with the
    percentage of requests whose span trees are recorded (default 100),
    attaches a :class:`~repro.serving.tracing.Tracer`; pure observation
    (``tests/test_tracing.py``).
    """

    backend: str = "hidden_state"
    max_batch_size: int = 1
    coalescing_window: int = 0
    n_shards: int | None = None
    quantize: bool = False
    session_length: int | None = None
    extra_lag: int = 60
    coalesce_updates: bool = True
    defer_updates: bool = True
    history_window: int = 28 * 86400
    store_name: str = "engine"
    replication: int = 1
    failure_schedule: tuple[tuple[int, str, int], ...] | None = None
    state_layout: str = "arena"
    model: str | None = None
    rollout: dict[str, Any] | None = None
    autoscale: dict[str, Any] | None = None
    tracing: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        # Each field on its own first (type, range, block shape — the checks
        # a manifest "engine" block gets at load), canonical values stored;
        # then the rules that need more than one field: the blocks' owning
        # modules', then the dataflow's.
        for spec in fields(self):
            object.__setattr__(self, spec.name, check_engine_field(spec.name, getattr(self, spec.name)))
        router.check_config(self)
        rollout.check_config(self)
        autoscale.check_config(self)
        if self.session_length is None:
            raise ValueError(f"the {self.backend} backend needs a session_length")
        if not self.defer_updates:
            raise ValueError("defer_updates is retired: every session-end update rides the stream")
        if self.backend == "aggregation" and self.quantize:
            raise ValueError("quantization applies to hidden states, not aggregation history")

    def to_dict(self) -> dict[str, Any]:
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, values: dict[str, Any]) -> "EngineConfig":
        unknown = set(values) - {spec.name for spec in fields(cls)}
        if unknown:
            raise ValueError(f"unknown EngineConfig fields: {sorted(unknown)}")
        return cls(**values)


def _check_timestamp(timestamp: Any, user_id: int | None = None) -> None:
    """Refuse a timestamp that is not a finite number, at the facade.

    A NaN compares false with everything, so it would slip past the stream's
    monotone-clock checks and sit in the timer heap for good (``inf`` would
    fire last and drag the clock to infinity); in a queued request it kills
    the whole micro-batch at flush time with a bare ``cannot convert float
    NaN to integer``.  The entry points skip the call for a plain ``int``,
    which is finite by construction (two calls of ≈ 80 ns each would
    otherwise be ≈ 1.5 % of a batch-64 read-only request).
    """
    try:
        finite = math.isfinite(timestamp)
    except TypeError:
        finite = False
    if not finite:
        who = "" if user_id is None else f"user {user_id}: "
        raise ValueError(f"{who}timestamp {timestamp!r} is not a finite number")


@dataclass(frozen=True)
class Parts:
    """What :meth:`ServingEngine.build` has assembled so far.

    Each optional subsystem's ``install(parts, block) -> parts`` returns a
    copy with its own part filled in, or ``parts`` itself when its block is
    unset; the finished record is what the engine is constructed from.
    """

    registry: MetricsRegistry
    store: KeyValueStore | ShardedKeyValueStore
    stream: StreamProcessor
    server: ServerModel | None = None
    tracer: Tracer = NULL_TRACER
    backend: Backend | None = None
    autoscaler: Autoscaler | None = None
    admission: AdmissionController | None = None
    rollout: RolloutController | None = None
    queue: MicroBatchQueue | None = None


def _store(config: EngineConfig, registry: MetricsRegistry) -> KeyValueStore | ShardedKeyValueStore:
    if config.n_shards is None:
        return KeyValueStore(config.store_name, registry=registry)
    return ShardedKeyValueStore(
        config.n_shards, name=config.store_name, replication=config.replication, registry=registry
    )


def _backend(
    config: EngineConfig, parts: Parts, *, network, builder, featurizer, estimator, schema, models
) -> Backend:
    """The dataflow's backend over the parts built so far; a registry-pinned
    ``config.model`` supplies the control network from ``models``."""
    if config.model is not None:
        if models is None:
            raise ValueError("config.model pins a registry version: pass models= (a ModelRegistry)")
        if network is not None:
            raise ValueError("pass network= or a registry-pinned config.model, not both")
        network = models.get(config.model).build_network()
    elif models is not None:
        raise ValueError("models= was supplied but config.model pins no version")
    shared = {
        "extra_lag": config.extra_lag, "coalesce_updates": config.coalesce_updates,
        "registry": parts.registry, "server": parts.server, "tracer": parts.tracer,
    }
    if config.backend == "hidden_state":
        if network is None or builder is None:
            raise ValueError("the hidden_state backend needs network= and builder=")
        return BatchedHiddenStateBackend(
            network, builder, parts.store, parts.stream, config.session_length,
            quantize=config.quantize, **shared,
        )
    if featurizer is None or estimator is None or schema is None:
        raise ValueError("the aggregation backend needs featurizer=, estimator= and schema=")
    return BatchedAggregationBackend(
        featurizer, estimator, schema, parts.store, parts.stream, config.session_length,
        history_window=config.history_window, **shared,
    )


class ServingEngine:
    """One serving pipeline behind one lifecycle.

    Construct with :meth:`build`; drive it with the queue's batched cursor
    surface (``submit`` / ``advance_to`` / ``flush`` / ``drain_completed`` —
    the exactly-once delivery contract is preserved verbatim) or replay a
    whole session stream with :meth:`replay`; retire it with :meth:`close`.

    ``close()`` only releases resources (the queue's stream barrier); it
    does not score pending requests — ``flush``/``drain_completed`` first.
    After ``close()`` every traffic method raises; ``drain_completed`` keeps
    working so results completed before closing are never stranded.
    """

    def __init__(self, config: EngineConfig, parts: Parts) -> None:
        self.config = config
        self.backend = parts.backend
        self.queue = parts.queue
        self.store = parts.store
        self.stream = parts.stream
        self.metrics = parts.registry
        self.server = parts.server
        self.admission = parts.admission
        self.rollout = parts.rollout
        self.autoscaler = parts.autoscaler
        self.tracer = parts.tracer
        self._closed = False
        # Hostile input is refused at the door, before anything is queued or
        # recorded: timestamps and contexts, on every entry point of both
        # dataflows (a NaN context ends up in the user's stored state).
        control = parts.rollout.control if parts.rollout is not None else parts.backend
        self._check_context = control.check_context

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        config: EngineConfig,
        *,
        network=None,
        builder=None,
        featurizer=None,
        estimator=None,
        schema=None,
        server: ServerModel | None = None,
        slo_policy: SloPolicy | None = None,
        admission_mode: str = "shed",
        models=None,
    ) -> "ServingEngine":
        """Assemble the pipeline from the config, one part at a time.

        The order is fixed: metrics registry → store → stream → tracer →
        ring faults → server → backend → autoscale policy and ticks →
        admission → rollout → queue.  Each optional part is installed by the
        module that runs it (``tracing``, ``router``, ``autoscale``,
        ``slo``, ``rollout``).  The order is behaviour: control timers due in
        the same second fire in registration order (ring faults, then
        autoscale ticks, then rollout stages), and the metrics snapshot
        lists instruments in registration order.  The server — the
        autoscale fleet when configured — is the one control-plane part
        resolved before the backend, which meters against it; the rollout
        wraps the finished backend last.

        Model parts are backend-specific: the hidden path needs ``network``
        and ``builder`` (or ``models=``, a
        :class:`~repro.serving.registry.ModelRegistry`, for a pinned
        ``config.model``), the aggregation path ``featurizer``,
        ``estimator`` and ``schema``.  Store and stream always come from the
        config, so ``engine.config.to_dict()`` reconstructs the pipeline.

        ``server`` attaches a :class:`~repro.serving.slo.ServerModel`
        (simulated capacity; meters backlog-inclusive latencies; refused
        with ``config.autoscale``, which builds its own fleet), and
        ``slo_policy`` an :class:`~repro.serving.slo.AdmissionController`
        over it in ``admission_mode`` (``"shed"`` or ``"defer"``).  Both are
        observation/admission only: with no policy bounds the built pipeline
        is bit-identical to an unguarded one.
        """
        registry = MetricsRegistry()
        parts = Parts(
            registry=registry, store=_store(config, registry),
            stream=StreamProcessor(coalescing_window=config.coalescing_window), server=server,
        )
        parts = tracing.install(parts, config.tracing)
        parts = router.install(parts, config.failure_schedule)
        parts = autoscale.install_fleet(parts, config.autoscale)
        backend = _backend(
            config, parts, network=network, builder=builder, featurizer=featurizer,
            estimator=estimator, schema=schema, models=models,
        )
        parts = autoscale.install(replace(parts, backend=backend), config.autoscale)
        parts = slo.install(parts, slo_policy, admission_mode)
        parts = rollout.install(parts, config, models=models, builder=builder)
        queue = MicroBatchQueue(
            parts.backend, max_batch_size=config.max_batch_size, stream=parts.stream,
            registry=registry, server=parts.server, admission=parts.admission, tracer=parts.tracer,
        )
        return cls(config, replace(parts, queue=queue))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_open(self, operation: str) -> None:
        if self._closed:
            raise RuntimeError(f"{operation} on a closed ServingEngine")

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Deregister the queue's stream barrier and refuse further traffic.

        Idempotent.  Pending (unscored) requests stay unscored — flush
        before closing; results already completed remain collectable via
        :meth:`drain_completed`.
        """
        if self._closed:
            return
        self.queue.detach()
        self._closed = True

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def submit(self, user_id: int, context: dict[str, float] | None, timestamp: int) -> list[ServingPrediction]:
        """Queue one request; see :meth:`MicroBatchQueue.submit`."""
        self._ensure_open("submit")
        if type(timestamp) is not int:
            _check_timestamp(timestamp, user_id)
        self._check_context(user_id, context, predicting=True)
        return self.queue.submit(user_id, context, timestamp)

    def predict(self, user_id: int, context: dict[str, float] | None, timestamp: int) -> ServingPrediction:
        """Single-request convenience: queue, flush, return this result."""
        self._ensure_open("predict")
        if type(timestamp) is not int:
            _check_timestamp(timestamp, user_id)
        self._check_context(user_id, context, predicting=True)
        return self.queue.predict(user_id, context, timestamp)

    def observe_session(self, user_id: int, context: dict[str, float], timestamp: int, accessed: bool) -> None:
        """Hand a finished session to the stream; its update lands at window close.

        A queued prediction for the same user still scores against
        pre-session state: the queue's stream barrier flushes it before the
        session's timer fires.
        """
        self._ensure_open("observe_session")
        if type(timestamp) is not int:
            _check_timestamp(timestamp, user_id)
        self._check_context(user_id, context)
        self.backend.observe_session(user_id, context, timestamp, accessed)

    def advance_to(self, timestamp: int) -> list[ServingPrediction]:
        """Advance the stream clock, flushing queued requests before due timers."""
        self._ensure_open("advance_to")
        if type(timestamp) is not int:
            _check_timestamp(timestamp)
        return self.queue.advance_to(timestamp)

    def flush(self) -> list[ServingPrediction]:
        """Score the pending batch and deliver every undelivered result."""
        self._ensure_open("flush")
        return self.queue.flush()

    def drain_completed(self) -> list[ServingPrediction]:
        """Deliver what no caller collected yet (allowed even after close)."""
        return self.queue.drain_completed()

    def drain_deferred(self) -> list[ServingPrediction]:
        """Force-admit requests a defer-mode admission controller parked."""
        self._ensure_open("drain_deferred")
        return self.queue.drain_deferred()

    def serve(self, events) -> list[ServingPrediction]:
        """Drive ``(timestamp, user_id, context, accessed)`` tuples through
        the batched cursor surface in global time order: advance the clock
        to each session start, submit the prediction, observe the session.
        Returns what those calls delivered; requests still queued stay
        queued and pending timers stay pending (:meth:`replay` finishes)."""
        self._ensure_open("serve")
        delivered: list[ServingPrediction] = []
        for timestamp, user_id, context, accessed in events:
            delivered += self.advance_to(timestamp)
            delivered += self.submit(user_id, context, timestamp)
            self.observe_session(user_id, context, timestamp, accessed)
        return delivered

    def replay(self, events) -> list[ServingPrediction]:
        """Replay ``(timestamp, user_id, context, accessed)`` tuples (any
        iterable) end to end.

        :meth:`serve` the events, then flush the queue, fire the remaining
        session-end timers (in waves) and drain.  Under the exactly-once
        delivery contract the concatenated returns are every prediction
        exactly once, in submission order — the trailing length check turns
        any lost or duplicated delivery into a hard error rather than a
        silently wrong replay.

        Admission control composes: requests an
        :class:`~repro.serving.slo.AdmissionController` sheds are excluded
        from the expected delivery count (their sessions are still observed —
        load shedding protects the scoring path, not ground truth), and
        requests it parked are force-drained at the end.  Returns the
        predictions aligned with the admitted ``events``.
        """
        self._ensure_open("replay")
        events = list(events)
        shed_before = self.admission.requests_shed if self.admission is not None else 0
        delivered = self.serve(events)
        delivered += self.flush()
        self.stream.flush()
        delivered += self.drain_deferred()
        delivered += self.drain_completed()
        expected = len(events)
        if self.admission is not None:
            expected -= self.admission.requests_shed - shed_before
        if len(delivered) != expected:
            raise RuntimeError(
                f"serving replay delivered {len(delivered)} predictions for {expected} expected "
                f"({len(events)} sessions)"
            )
        return delivered

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def predictions_served(self) -> int:
        return self.backend.predictions_served

    @property
    def updates_applied(self) -> int:
        return self.backend.updates_applied

    @property
    def update_delay_seconds(self) -> float:
        """Simulated seconds session-end updates waited for their wave to close."""
        return self.backend.update_delay_seconds

    @property
    def storage_bytes(self) -> int:
        return self.backend.storage_bytes

    @property
    def pending(self) -> int:
        return self.queue.pending

    @property
    def undelivered(self) -> int:
        return self.queue.undelivered

    @property
    def mean_batch_size(self) -> float:
        return self.queue.mean_batch_size

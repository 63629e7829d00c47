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

* :meth:`ServingEngine.build` — construct store, stream, backend and queue
  from the config.
* :meth:`~ServingEngine.submit` / :meth:`~ServingEngine.advance_to` /
  :meth:`~ServingEngine.predict` / :meth:`~ServingEngine.observe_session` —
  live traffic; :meth:`~ServingEngine.replay` drives a whole session stream
  in global time order.
* :meth:`~ServingEngine.flush` / :meth:`~ServingEngine.drain_completed` —
  deliver what is still queued or uncollected (the drained-cursor
  exactly-once contract is the queue's, unchanged).
* :meth:`~ServingEngine.close` — deregister the queue's stream barrier and
  refuse further traffic; idempotent.

Both dataflows implement the same :class:`Backend` protocol, including the
wave entry point ``apply_wave`` — session-end history writes on the
aggregation path batch exactly like GRU updates on the hidden path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping, Protocol, runtime_checkable

from .autoscale import (
    AUTOSCALE_POLICIES,
    Autoscaler,
    PredictivePolicy,
    ReactivePolicy,
    ReplicaFleet,
)
from .batching import (
    BatchedAggregationBackend,
    BatchedHiddenStateBackend,
    MicroBatchQueue,
    ServingPrediction,
    ServingRequest,
    SessionUpdate,
    SessionWave,
)
from .kvstore import KeyValueStore
from .rollout import GATE_NAMES, RolloutController
from .router import ShardedKeyValueStore
from .slo import AdmissionController, ServerModel, SloPolicy
from .stream import StreamProcessor
from .telemetry import NULL_REGISTRY, MetricsRegistry
from .tracing import NULL_TRACER, Tracer

__all__ = [
    "Backend",
    "EngineConfig",
    "ServingEngine",
    "check_engine_field",
    "BACKEND_KINDS",
    "STATE_LAYOUTS",
]

BACKEND_KINDS = ("hidden_state", "aggregation")

#: How the hidden-state backend stores per-user state: one record dict per
#: key (``"entries"``, the historical layout) or a contiguous per-shard
#: slab with fancy-index wave gather/scatter (``"arena"``).  Bit-identical
#: by construction; the arena is the fast path.
STATE_LAYOUTS = ("entries", "arena")


# ----------------------------------------------------------------------
# The EngineConfig schema: one check per field, written once.  Each takes
# ``(name, value)`` and returns the canonical value or raises ValueError.
# ----------------------------------------------------------------------
def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _scalar(kind: type, *, minimum: int | None = None, choices: tuple[str, ...] | None = None):
    """Check for a plain ``int`` / ``bool`` / ``str`` field: the exact type (a
    bool is not an int and neither is a float, so ``nan``/``inf`` and the
    hand-edit typo ``"quantize": "false"`` never pass), then the lower bound
    or the legal strings."""
    expected = {int: "an integer", bool: "true/false", str: "a string"}[kind]

    def check(name: str, value: Any) -> Any:
        if not (_is_int(value) if kind is int else isinstance(value, kind)):
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


def _version_name(name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty registry version name")
    return value


def _failure_schedule(name: str, value: Any) -> tuple[tuple[int, str, int], ...]:
    """``(fire_at, action, shard_index)`` triples, canonicalized to tuples so
    a config survives a JSON round trip intact (json turns tuples into lists;
    to_dict/from_dict equality is pinned by tests/test_engine.py)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of (fire_at, action, shard_index) triples")
    entries = []
    for raw in value:
        if not isinstance(raw, (list, tuple)) or len(raw) != 3:
            raise ValueError(f"{name} entries are (fire_at, action, shard_index) triples")
        fire_at, action, shard_index = raw
        if not _is_int(fire_at):
            raise ValueError(f"{name} fire_at must be an int (simulated seconds)")
        if action not in ("fail", "recover"):
            raise ValueError(f"unknown {name} action {action!r}; expected 'fail' or 'recover'")
        if not _is_int(shard_index):
            raise ValueError(f"{name} shard_index must be an int")
        entries.append((fire_at, action, shard_index))
    return tuple(entries)


def _rollout_block(name: str, value: Any) -> dict[str, Any]:
    """``{candidate, stages, gates}``; stages canonicalized to tuples like
    ``failure_schedule``."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping with candidate/stages/gates")
    unknown = set(value) - {"candidate", "stages", "gates"}
    if unknown:
        raise ValueError(f"unknown rollout fields: {sorted(unknown)}")
    candidate = _version_name("rollout.candidate", value.get("candidate"))
    raw_stages = value.get("stages")
    if not raw_stages or not isinstance(raw_stages, (list, tuple)):
        raise ValueError("rollout.stages must be a non-empty (fire_at, pct) schedule")
    stages: list[tuple[int, int]] = []
    for raw in raw_stages:
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ValueError("rollout.stages entries are (fire_at, pct) pairs")
        fire_at, pct = raw
        if not _is_int(fire_at) or not _is_int(pct):
            raise ValueError("rollout stage fire_at and pct must be ints")
        if not 0 < pct <= 100:
            raise ValueError("rollout stage pct must be in 1..100")
        if stages and fire_at <= stages[-1][0]:
            raise ValueError("rollout stage fire_at times must be strictly increasing")
        if stages and pct <= stages[-1][1]:
            raise ValueError("rollout stage percentages must be strictly increasing")
        stages.append((fire_at, pct))
    gates = value.get("gates", {})
    if not isinstance(gates, Mapping):
        raise ValueError("rollout.gates must be a mapping of gate name to bound")
    for gate_name, bound in gates.items():
        if gate_name not in GATE_NAMES:
            raise ValueError(f"unknown rollout gate {gate_name!r}; expected one of {GATE_NAMES}")
        if not (_is_int(bound) or isinstance(bound, float)) or not bound >= 0:
            raise ValueError(f"rollout gate {gate_name} must be a non-negative number")
    return {"candidate": candidate, "stages": tuple(stages), "gates": dict(gates)}


_AUTOSCALE_REQUIRED = ("policy", "service_rate", "start", "until")
#: ``horizon`` is the one derived default: ``provision_delay + interval``.
_AUTOSCALE_DEFAULTS = {
    "interval": 60,
    "initial_replicas": 1,
    "min_replicas": 1,
    "max_replicas": 8,
    "provision_delay": 60,
    "decommission_delay": 0,
    "target_queue_depth": 8.0,
    "depth_window": 2,
    "utilization": 0.8,
}
_AUTOSCALE_FLOATS = ("service_rate", "target_queue_depth", "utilization")


def _autoscale_block(name: str, value: Any) -> dict[str, Any]:
    """Policy, schedule, fleet shape and policy tuning; defaults are filled
    here so a canonical config round-trips through JSON intact."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping with policy/service_rate/start/until")
    block = dict(value)
    unknown = set(block) - {*_AUTOSCALE_REQUIRED, *_AUTOSCALE_DEFAULTS, "horizon"}
    if unknown:
        raise ValueError(f"unknown autoscale fields: {sorted(unknown)}")
    if block.get("policy") not in AUTOSCALE_POLICIES:
        raise ValueError(
            f"autoscale.policy must be one of {AUTOSCALE_POLICIES}, got {block.get('policy')!r}"
        )
    for required in _AUTOSCALE_REQUIRED:
        if required not in block:
            raise ValueError(f"autoscale needs a {required} field")
    for key, default in _AUTOSCALE_DEFAULTS.items():
        block.setdefault(key, default)
    for key, field in block.items():
        if key in _AUTOSCALE_FLOATS:
            if not (_is_int(field) or isinstance(field, float)) or not math.isfinite(field):
                raise ValueError(f"autoscale.{key} must be a finite number")
            block[key] = float(field)
        elif key != "policy" and not _is_int(field):
            raise ValueError(f"autoscale.{key} must be an int")
    block.setdefault("horizon", block["provision_delay"] + block["interval"])
    if block["service_rate"] <= 0:
        raise ValueError("autoscale.service_rate must be positive")
    if block["until"] < block["start"]:
        raise ValueError("autoscale.until must not precede autoscale.start")
    if block["interval"] < 1:
        raise ValueError("autoscale.interval must be at least 1 simulated second")
    if block["min_replicas"] < 1:
        raise ValueError("autoscale.min_replicas must be at least 1")
    if not block["min_replicas"] <= block["initial_replicas"] <= block["max_replicas"]:
        raise ValueError(
            "autoscale replica bounds need min_replicas <= initial_replicas <= max_replicas"
        )
    if block["provision_delay"] < 0 or block["decommission_delay"] < 0:
        raise ValueError("autoscale provisioning delays must be non-negative")
    if block["target_queue_depth"] <= 0:
        raise ValueError("autoscale.target_queue_depth must be positive")
    if block["depth_window"] < 1:
        raise ValueError("autoscale.depth_window must be at least 1")
    if block["horizon"] < 1:
        raise ValueError("autoscale.horizon must be at least 1 simulated second")
    if not 0.0 < block["utilization"] <= 1.0:
        raise ValueError("autoscale.utilization must be in (0, 1]")
    return block


def _tracing_block(name: str, value: Any) -> dict[str, int]:
    """One optional field, ``sample_pct``; the default is filled here so a
    canonical config survives a JSON round trip intact."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be a mapping with sample_pct")
    unknown = set(value) - {"sample_pct"}
    if unknown:
        raise ValueError(f"unknown tracing fields: {sorted(unknown)}")
    pct = value.get("sample_pct", 100)
    if not _is_int(pct):
        raise ValueError("tracing.sample_pct must be an int")
    if not 1 <= pct <= 100:
        raise ValueError("tracing.sample_pct must be in 1..100 (percent of requests)")
    return {"sample_pct": pct}


_FIELD_CHECKS = {
    "backend": _scalar(str, choices=BACKEND_KINDS),
    "max_batch_size": _scalar(int, minimum=1),
    "coalescing_window": _scalar(int, minimum=0),
    "n_shards": _optional(_scalar(int, minimum=1)),
    "quantize": _scalar(bool),
    "session_length": _optional(_scalar(int, minimum=1)),
    "extra_lag": _scalar(int, minimum=0),
    "coalesce_updates": _scalar(bool),
    "defer_updates": _optional(_scalar(bool)),
    "history_window": _scalar(int, minimum=1),
    "store_name": _scalar(str),
    "telemetry": _scalar(bool),
    "replication": _scalar(int, minimum=1),
    "failure_schedule": _optional(_failure_schedule),
    "state_layout": _scalar(str, choices=STATE_LAYOUTS),
    "model": _optional(_version_name),
    "rollout": _optional(_rollout_block),
    "autoscale": _optional(_autoscale_block),
    "tracing": _optional(_tracing_block),
}


def check_engine_field(name: str, value: Any) -> Any:
    """Validate one :class:`EngineConfig` field on its own — type, range,
    nested-block shape — and return its canonical value.

    The single schema: ``EngineConfig.__post_init__`` runs it on every field
    and a manifest's partial ``engine`` block is checked field by field with
    it at load (``experiments.runner.validate_engine_block``), so direct
    construction and manifests accept exactly the same values.  Rules that
    relate several fields stay in ``__post_init__``, which sees them all.
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
        """Score a micro-batch of queued requests."""
        ...

    def observe_session(self, user_id: int, context: dict[str, float], timestamp: int, accessed: bool) -> None:
        """Record a finished session (immediately or via the stream)."""
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

    ``defer_updates`` selects the aggregation path's session-end delivery:
    ``False``/``None`` keeps the seed's immediate history writes, ``True``
    routes them through the stream so they land at window close in timer
    waves, exactly like the hidden path (which is always deferred — that is
    the paper's dataflow, so ``defer_updates=False`` is rejected there).

    ``telemetry`` (default on) gives the built pipeline a
    :class:`~repro.serving.telemetry.MetricsRegistry` shared by the store,
    stream delivery, backend and queue, surfaced as ``engine.metrics``.
    Telemetry is pure observation — an instrumented pipeline is
    bit-identical to a disabled one in every serving observable.

    ``replication`` sets the sharded store's replica-group size (each key
    on ``r`` distinct shards; requires ``n_shards``).  ``failure_schedule``
    injects shard faults on the simulated clock: a tuple of
    ``(fire_at, action, shard_index)`` entries (``action`` is ``"fail"``
    or ``"recover"``, ``shard_index`` into the initial pool), installed as
    stream timers by :meth:`ServingEngine.build` — so it needs the
    deferred-update dataflow (a stream) and ``replication >= 2`` (failing
    an unreplicated shard would lose data, which the store refuses to do).
    Replication, failure and recovery are placement-only: they change
    which shards hold each key and what the traffic meters read, never a
    served value — a scheduled run is bit-identical to a fault-free one
    (pinned by ``tests/test_elastic_ring.py``).

    ``state_layout`` (hidden-state backend only) selects the storage layout
    for per-user state: ``"entries"`` keeps one record dict per key,
    ``"arena"`` hosts a contiguous per-shard
    :class:`~repro.serving.arena.StateArena` slab so a wave's state
    load/save is two fancy-index ops.  Layout is bit-invisible to served
    probabilities, stored records and traffic meters (pinned by
    ``tests/test_state_arena.py``).

    ``model`` pins the control model to a named
    :class:`~repro.serving.registry.ModelRegistry` version — the registry is
    supplied to :meth:`ServingEngine.build` as ``models=`` and replaces the
    ``network=`` argument (hidden-state backend only).  ``rollout`` (needs
    ``model`` and telemetry) runs a candidate version through the
    shadow-scoring / staged-canary machinery of
    :class:`~repro.serving.rollout.RolloutController`: a mapping with a
    ``candidate`` version name, a ``stages`` schedule of ``(fire_at, pct)``
    steps (strictly increasing in both, installed as barrier-exempt
    control-plane stream timers exactly like ``failure_schedule``), and
    optional ``gates`` bounds (``max_p99_update_delay`` / ``max_shed_rate``
    / ``max_divergence``) that each stage transition checks against the
    metrics plane, rolling back on any breach.  The whole subsystem is
    bit-invisible to the control arm's served values, stored state and pool
    meters (pinned by ``tests/test_rollout.py``).

    ``autoscale`` replaces the fixed caller-supplied ``server=`` capacity
    with an elastic :class:`~repro.serving.autoscale.ReplicaFleet` driven by
    an :class:`~repro.serving.autoscale.Autoscaler` on barrier-exempt
    control-plane stream timers (so scaling never changes micro-batch
    composition).  A mapping with required ``policy`` (``"reactive"`` or
    ``"predictive"``), ``service_rate`` (per-replica requests/second) and
    tick schedule ``start`` / ``until`` (``interval`` defaults to 60s);
    fleet shape ``initial_replicas`` / ``min_replicas`` / ``max_replicas``
    (defaults 1/1/8) with asynchronous ``provision_delay`` (default 60s) and
    ``decommission_delay`` (default 0s); reactive tuning
    ``target_queue_depth`` (default 8.0) / ``depth_window`` (default 2) and
    predictive tuning ``horizon`` (defaults to ``provision_delay +
    interval``) / ``utilization`` (default 0.8).  Needs the deferred-update
    dataflow (control timers live on the stream); ``"predictive"``
    additionally needs the ``hidden_state`` backend (it aggregates the GRU's
    per-user activity forecasts) and telemetry (it measures the arrival rate
    from the metrics plane).  A fleet pinned to one replica
    (``min == initial == max == 1``) is bit-identical to the fixed
    ``ServerModel`` path in every observable (pinned by
    ``tests/test_autoscale.py``).

    ``tracing`` (default off) attaches a
    :class:`~repro.serving.tracing.Tracer`: deterministic per-request span
    trees over the simulated clock, batch/wave lanes with per-shard KV
    instants, and control-plane events for admission, autoscaling, ring
    faults and rollout stages — exported as Chrome trace JSON.  One
    optional field, ``sample_pct`` (default 100): the percentage of
    requests whose trees are recorded, sampled by a stable request hash
    exactly like canary cohorts, so the subset is reproducible.  Hooks are
    pure observation: a traced engine is bit-identical (predictions,
    stored state, every meter) to its untraced twin, pinned by
    ``tests/test_tracing.py``.
    """

    backend: str = "hidden_state"
    max_batch_size: int = 1
    coalescing_window: int = 0
    n_shards: int | None = None
    quantize: bool = False
    session_length: int | None = None
    extra_lag: int = 60
    coalesce_updates: bool = True
    defer_updates: bool | None = None
    history_window: int = 28 * 86400
    store_name: str = "engine"
    telemetry: bool = True
    replication: int = 1
    failure_schedule: tuple[tuple[int, str, int], ...] | None = None
    state_layout: str = "entries"
    model: str | None = None
    rollout: dict[str, Any] | None = None
    autoscale: dict[str, Any] | None = None
    tracing: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        # Each field on its own first (type, range, block shape — the checks
        # a manifest "engine" block gets at load), canonical values stored;
        # then the rules that need more than one field.
        for spec in fields(self):
            object.__setattr__(self, spec.name, check_engine_field(spec.name, getattr(self, spec.name)))
        if self.replication > 1:
            if self.n_shards is None:
                raise ValueError("replication needs a sharded store: set n_shards")
            if self.replication > self.n_shards:
                raise ValueError(
                    f"replication {self.replication} exceeds n_shards {self.n_shards}"
                )
        if self.failure_schedule:
            for _, _, shard_index in self.failure_schedule:
                if self.n_shards is None or not 0 <= shard_index < self.n_shards:
                    raise ValueError(
                        f"failure_schedule shard_index {shard_index} outside the "
                        f"initial pool (n_shards={self.n_shards})"
                    )
            if self.replication < 2:
                raise ValueError(
                    "a failure_schedule needs replication >= 2: failing an "
                    "unreplicated shard would lose its keys"
                )
            if not self.deferred_updates:
                raise ValueError(
                    "a failure_schedule fires on the stream clock and needs the "
                    "deferred-update dataflow (hidden_state, or defer_updates=True)"
                )
        if self.model is not None and self.backend != "hidden_state":
            raise ValueError(
                "registry-pinned models apply to the hidden_state backend "
                "(the registry stores RNN versions)"
            )
        if self.rollout is not None:
            if self.model is None:
                raise ValueError(
                    "a rollout needs a registry-pinned control arm: set model to a version name"
                )
            if not self.telemetry:
                raise ValueError(
                    "rollout promotion gates read the metrics plane: telemetry must stay on"
                )
            if self.rollout["candidate"] == self.model:
                raise ValueError(
                    "rollout.candidate must name a different version than the control model"
                )
        if self.autoscale is not None:
            if not self.deferred_updates:
                raise ValueError(
                    "autoscale ticks fire on the stream clock and need the "
                    "deferred-update dataflow (hidden_state, or defer_updates=True)"
                )
            if self.autoscale["policy"] == "predictive":
                if self.backend != "hidden_state":
                    raise ValueError(
                        "the predictive policy aggregates the GRU's activity "
                        "forecasts: it needs the hidden_state backend"
                    )
                if not self.telemetry:
                    raise ValueError(
                        "the predictive policy measures the arrival rate from "
                        "the metrics plane: telemetry must stay on"
                    )
        if self.backend == "hidden_state":
            if self.session_length is None:
                raise ValueError("the hidden_state backend needs a session_length")
            if self.defer_updates is False:
                raise ValueError("hidden_state updates are always stream-deferred (the paper's dataflow)")
        else:
            if self.quantize:
                raise ValueError("quantization applies to hidden states, not aggregation history")
            if self.state_layout != "entries":
                raise ValueError(
                    "state_layout applies to hidden states (a fixed-width slab row per "
                    "user); aggregation history records are variable-length"
                )
            if self.defer_updates and self.session_length is None:
                raise ValueError("deferred aggregation updates need a session_length")
            if not self.defer_updates and self.coalescing_window > 0:
                raise ValueError(
                    "coalescing_window only applies to stream-delivered updates; "
                    "set defer_updates=True on the aggregation backend"
                )

    @property
    def deferred_updates(self) -> bool:
        """Whether session-end updates travel through the stream."""
        if self.backend == "hidden_state":
            return True
        return bool(self.defer_updates)

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


class ServingEngine:
    """One serving pipeline behind one lifecycle.

    Construct with :meth:`build` (declarative) or directly from prebuilt
    parts; drive it with the queue's batched cursor surface (``submit`` /
    ``advance_to`` / ``flush`` / ``drain_completed`` — the exactly-once
    delivery contract is preserved verbatim) or replay a whole session
    stream with :meth:`replay`; retire it with :meth:`close`.

    ``close()`` only releases resources (the queue's stream barrier); it
    does not score pending requests — ``flush``/``drain_completed`` first.
    After ``close()`` every traffic method raises; ``drain_completed`` keeps
    working so results completed before closing are never stranded.
    """

    def __init__(
        self,
        config: EngineConfig,
        *,
        backend: Backend,
        queue: MicroBatchQueue,
        store,
        stream: StreamProcessor | None,
        metrics: MetricsRegistry | None = None,
        server: ServerModel | None = None,
        admission: AdmissionController | None = None,
        rollout: RolloutController | None = None,
        autoscaler: Autoscaler | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.backend = backend
        self.queue = queue
        self.store = store
        self.stream = stream
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.server = server
        self.admission = admission
        self.rollout = rollout
        self.autoscaler = autoscaler
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._closed = False
        # Hostile input is refused at the door, before anything is queued or
        # recorded: timestamps on every entry point of both dataflows,
        # contexts on the hidden-state one (a NaN there ends up in the
        # user's stored state for good).
        control = rollout.control if rollout is not None else backend
        self._check_context = (
            control.check_context if isinstance(control, BatchedHiddenStateBackend) else None
        )

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
        """Assemble store → stream → backend → queue from the config.

        Model parts are backend-specific: the hidden path needs ``network``
        and ``builder``, the aggregation path ``featurizer``, ``estimator``
        and ``schema``.  The store and stream are always built from the
        config (``n_shards``/``replication``/``store_name``,
        ``coalescing_window``), so ``engine.config.to_dict()`` reconstructs
        the pipeline; read them back as ``engine.store`` / ``engine.stream``.

        When ``config.model`` pins a registry version, ``models=`` (a
        :class:`~repro.serving.registry.ModelRegistry`) replaces ``network=``
        — the control network is rebuilt deterministically from the
        registered bits; ``config.rollout`` additionally wires a
        :class:`~repro.serving.rollout.RolloutController` (shadow arm +
        staged canary) between the backend and the queue, surfaced as
        ``engine.rollout``.

        ``server`` attaches a :class:`~repro.serving.slo.ServerModel`
        (simulated capacity; meters backlog-inclusive latencies), and
        ``slo_policy`` an :class:`~repro.serving.slo.AdmissionController`
        over it in ``admission_mode`` (``"shed"`` or ``"defer"``) — the
        overload machinery.  Both are observation/admission only: with no
        policy bounds the built pipeline is bit-identical to an unguarded
        one.

        When ``config.autoscale`` is set the engine builds its own elastic
        :class:`~repro.serving.autoscale.ReplicaFleet` as the server (a
        caller-supplied ``server=`` is rejected) and installs an
        :class:`~repro.serving.autoscale.Autoscaler` whose evaluation ticks
        are barrier-exempt control-plane stream timers, surfaced as
        ``engine.autoscaler``.
        """
        registry: MetricsRegistry | None = MetricsRegistry() if config.telemetry else None
        tracer = Tracer(config.tracing["sample_pct"]) if config.tracing is not None else NULL_TRACER
        if config.n_shards is not None:
            store = ShardedKeyValueStore(
                config.n_shards,
                name=config.store_name,
                replication=config.replication,
                registry=registry,
            )
        else:
            store = KeyValueStore(config.store_name, registry=registry)
        if tracer.enabled:
            # Both store kinds implement attach_tracer; the pool fans the
            # tracer out to every shard (present and future), so batch KV
            # operations record per-shard instants with no pool-level hooks.
            store.attach_tracer(tracer)
        stream = (
            StreamProcessor(coalescing_window=config.coalescing_window)
            if config.deferred_updates
            else None
        )
        if config.failure_schedule:
            # Config validation guarantees a deferred dataflow (stream) and a
            # replicated sharded store here.  Each entry becomes a
            # *control-plane* stream timer: faults fire interleaved with
            # update waves in deterministic simulated-clock order, but do not
            # trigger the micro-batch flush barrier — a fault changes key
            # placement, never a stored value, so flushing for it would alter
            # batch composition and break bit-equivalence with a fault-free
            # run.
            for fire_at, action, shard_index in config.failure_schedule:
                shard_name = store.shards[shard_index].name

                def callback(
                    key, events,
                    _store=store, _name=shard_name, _action=action,
                    _at=fire_at, _index=shard_index, _tracer=tracer,
                ):
                    if _action == "fail":
                        _store.fail_shard(_name)
                    else:
                        _store.recover_shard(_name)
                    if _tracer.enabled:
                        _tracer.control_event(
                            f"ring.{_action}", _at, shard=_name, shard_index=_index
                        )

                stream.set_control_timer(fire_at, f"ring:{action}:{shard_index}@{fire_at}", callback)
        if config.autoscale is not None:
            if server is not None:
                raise ValueError(
                    "config.autoscale builds its own ReplicaFleet; do not also pass server="
                )
            block = config.autoscale
            server = ReplicaFleet(
                block["service_rate"],
                initial_replicas=block["initial_replicas"],
                min_replicas=block["min_replicas"],
                max_replicas=block["max_replicas"],
                provision_delay=block["provision_delay"],
                decommission_delay=block["decommission_delay"],
                registry=registry,
            )
        if config.model is not None:
            if models is None:
                raise ValueError(
                    "config.model pins a registry version: pass models= (a ModelRegistry)"
                )
            if network is not None:
                raise ValueError("pass network= or a registry-pinned config.model, not both")
            network = models.get(config.model).build_network()
        elif models is not None:
            raise ValueError("models= was supplied but config.model pins no version")
        if config.backend == "hidden_state":
            if network is None or builder is None:
                raise ValueError("the hidden_state backend needs network= and builder=")
            backend = BatchedHiddenStateBackend(
                network,
                builder,
                store,
                stream,
                config.session_length,
                quantize=config.quantize,
                extra_lag=config.extra_lag,
                coalesce_updates=config.coalesce_updates,
                state_layout=config.state_layout,
                registry=registry,
                server=server,
                tracer=tracer,
            )
        else:
            if featurizer is None or estimator is None or schema is None:
                raise ValueError("the aggregation backend needs featurizer=, estimator= and schema=")
            backend = BatchedAggregationBackend(
                featurizer,
                estimator,
                schema,
                store,
                history_window=config.history_window,
                stream=stream,
                session_length=config.session_length,
                extra_lag=config.extra_lag,
                coalesce_updates=config.coalesce_updates,
                registry=registry,
                server=server,
                tracer=tracer,
            )
        autoscaler = None
        if config.autoscale is not None:
            # The policy reads control-plane signals only (fleet backlog, the
            # shared registry, unmetered GRU scoring of stored states) and the
            # ticks are barrier-exempt control timers, so the whole loop is
            # bit-invisible to served values until the fleet actually resizes.
            block = config.autoscale
            if block["policy"] == "predictive":
                policy = PredictivePolicy(
                    backend,
                    horizon=block["horizon"],
                    utilization=block["utilization"],
                    registry=registry,
                )
            else:
                policy = ReactivePolicy(
                    block["target_queue_depth"], depth_window=block["depth_window"]
                )
            autoscaler = Autoscaler(
                server,
                policy,
                stream,
                start=block["start"],
                until=block["until"],
                interval=block["interval"],
                registry=registry,
                tracer=tracer,
            )
        admission = None
        if slo_policy is not None:
            admission = AdmissionController(
                slo_policy, registry=registry, mode=admission_mode, tracer=tracer
            )
        rollout = None
        if config.rollout is not None:
            # Wrap the control backend: the queue scores through the
            # controller (shadow mirroring, canary cohort metering, hot
            # swap), while session observation and waves keep flowing to the
            # control arm, which forwards each applied wave to the shadow.
            rollout = RolloutController(
                config,
                candidate=models.get(config.rollout["candidate"]),
                control=backend,
                builder=builder,
                store=store,
                stream=stream,
                registry=registry,
                admission=admission,
                tracer=tracer,
            )
            backend = rollout.backend
        queue = MicroBatchQueue(
            backend,
            max_batch_size=config.max_batch_size,
            stream=stream,
            registry=registry,
            server=server,
            admission=admission,
            tracer=tracer,
        )
        return cls(
            config,
            backend=backend,
            queue=queue,
            store=store,
            stream=stream,
            metrics=registry,
            server=server,
            admission=admission,
            rollout=rollout,
            autoscaler=autoscaler,
            tracer=tracer,
        )

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
        if self._check_context is not None:
            self._check_context(user_id, context, predicting=True)
        return self.queue.submit(user_id, context, timestamp)

    def predict(self, user_id: int, context: dict[str, float] | None, timestamp: int) -> ServingPrediction:
        """Single-request convenience: queue, flush, return this result."""
        self._ensure_open("predict")
        if type(timestamp) is not int:
            _check_timestamp(timestamp, user_id)
        if self._check_context is not None:
            self._check_context(user_id, context, predicting=True)
        return self.queue.predict(user_id, context, timestamp)

    def observe_session(self, user_id: int, context: dict[str, float], timestamp: int, accessed: bool) -> None:
        """Record a finished session through the configured update path.

        Immediate-mode aggregation writes barrier this user's queued
        prediction first (it must score against pre-session state); deferred
        updates rely on the stream barrier the queue registers instead.
        """
        self._ensure_open("observe_session")
        if type(timestamp) is not int:
            _check_timestamp(timestamp, user_id)
        if self._check_context is not None:
            self._check_context(user_id, context)
        if not self.config.deferred_updates:
            self.queue.barrier_for_user(user_id, deliver=False)
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
        """Replay ``(timestamp, user_id, context, accessed)`` tuples end to end.

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
        shed_before = self.admission.requests_shed if self.admission is not None else 0
        delivered = self.serve(events)
        delivered += self.flush()
        if self.stream is not None:
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

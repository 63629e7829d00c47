"""Shadow scoring and telemetry-gated canary rollout over the serving engine.

The lifecycle half of the model subsystem (the artifact half is
:mod:`repro.serving.registry`): a :class:`RolloutController` runs a
**candidate** model version alongside the live **control** model and walks it
through a staged canary schedule, with the hard requirement — enforced by
``tests/test_rollout.py`` in the repo's invariant-pinned-scaling discipline —
that the whole machinery is *bit-invisible* to the control arm:

* **Shadow arm.**  The candidate scores the exact same micro-batches the
  control arm serves (same composition, same order — so the candidate's
  numbers are measured under production batching, bit-reproducibly) and
  receives every applied update wave through the control backend's
  ``wave_listeners`` hook.  Its hidden state lives in a version-prefixed KV
  namespace (``"<version>:hidden:…"``) behind an unmetered store view, so the
  control namespace, the pool's client traffic meters and ``storage_bytes``
  never see it; its own traffic lands on ``rollout.<version>.*`` instruments
  in the engine's metrics plane.  Only the control arm's predictions are
  served.
* **Canary schedule.**  ``EngineConfig.rollout["stages"]`` is a list of
  ``(fire_at, pct)`` steps installed as *control-plane* stream timers —
  barrier-exempt, exactly like ``failure_schedule``, so firing one never
  flushes the micro-batch and batch composition (hence every served bit) is
  untouched.  Below 100% a stage is a metering stage: requests are
  deterministically sampled into the canary cohort
  (``rollout.<version>.canary_assigned``) for offline comparison, while the
  control arm keeps serving — the paper's numbers cannot depend on a
  percentage knob.
* **Telemetry gates + rollback.**  Each stage transition consults the live
  metrics plane — p99 update delay, admission shed rate, p99 prediction
  divergence between the arms — against ``rollout["gates"]`` bounds; any
  breach rolls the candidate back (shadow scoring stops, schedule inert,
  control arm provably untouched).
* **Hot swap.**  The 100% stage flips serving to the candidate *without
  draining the queue*: no flush, no drop — requests already pending are
  scored by the promoted version at their normal flush point, and the
  delivery cursor stays monotone.  Because the shadow arm has applied every
  wave since build, the promoted arm is bit-identical to an engine built
  directly on the candidate version.

This module owns the ``EngineConfig`` ``model`` and ``rollout`` fields:
:func:`check_block` / :func:`check_config` validate them and :func:`install`
wraps the engine's backend in a controller.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping

import numpy as np

from .arena import ArenaSpec
from .batching import (
    BatchedHiddenStateBackend,
    ServingPrediction,
    ServingRequest,
    SessionUpdate,
    SessionWave,
)
from .checks import is_int
from .kvstore import NEVER_WRITTEN
from .quantization import dequantize_state, quantize_state
from .registry import ModelVersion
from .router import _stable_hash
from .tracing import NULL_TRACER
from .telemetry import (
    DIVERGENCE_BUCKETS,
    LATENCY_BUCKETS_SECONDS,
    NULL_REGISTRY,
    MetricsRegistry,
)

__all__ = ["RolloutController", "RolloutBackend", "GATE_NAMES"]

#: Telemetry gates a rollout block may bound (all optional; absent = pass).
GATE_NAMES = ("max_p99_update_delay", "max_shed_rate", "max_divergence")


def _version_name(name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty registry version name")
    return value


def check_block(name: str, value: Any) -> Any:
    """``model``: a registry version name.  ``rollout``: ``{candidate,
    stages, gates}``, stages canonicalized to tuples so a config survives a
    JSON round trip intact (json turns tuples into lists)."""
    if name == "model":
        return _version_name(name, value)
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
        if not is_int(fire_at) or not is_int(pct):
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
        if not (is_int(bound) or isinstance(bound, float)) or not bound >= 0:
            raise ValueError(f"rollout gate {gate_name} must be a non-negative number")
    return {"candidate": candidate, "stages": tuple(stages), "gates": dict(gates)}


def check_config(config) -> None:
    """The rules relating ``model`` and ``rollout`` to the rest of the config."""
    if config.model is not None and config.backend != "hidden_state":
        raise ValueError(
            "registry-pinned models apply to the hidden_state backend "
            "(the registry stores RNN versions)"
        )
    if config.rollout is None:
        return
    if config.model is None:
        raise ValueError("a rollout needs a registry-pinned control arm: set model to a version name")
    if config.rollout["candidate"] == config.model:
        raise ValueError("rollout.candidate must name a different version than the control model")


def install(parts, config, *, models, builder):
    """Wrap the control backend when ``config.rollout`` is set — last, so the
    controller wraps the finished backend and reads the admission controller.
    The queue then scores through the controller (shadow mirroring, canary
    cohort metering, hot swap), while session observation and waves keep
    flowing to the control arm, which forwards each applied wave to the
    shadow."""
    if config.rollout is None:
        return parts
    controller = RolloutController(
        config, candidate=models.get(config.rollout["candidate"]), control=parts.backend,
        builder=builder, store=parts.store, stream=parts.stream, registry=parts.registry,
        admission=parts.admission, tracer=parts.tracer,
    )
    return replace(parts, rollout=controller, backend=controller.backend)


class _ShadowStoreView:
    """Store adapter that confines a shadow arm to a version-prefixed namespace.

    Reads and writes go through the pool's *unmetered* primitives
    (``peek``/``put_unmetered``) under ``"<version>:"``-prefixed keys, so the
    shadow arm can never touch a control key, the pool's client traffic
    meters, or — because ``"<version>:hidden:…"`` does not start with
    ``"hidden:"`` — the control backend's ``storage_bytes``.  The view bills
    its own traffic on plain attributes, which the controller registers as
    the ``rollout.<version>.kv_*`` instruments.

    The shadow backend's state waves (:meth:`gather_states` /
    :meth:`scatter_states`) are one ``get`` / ``put`` of a record dict per
    key: the namespace holds per-key records outside the pool's state
    arena, and the view bills one read and one write per key, as the
    control arm's store does.

    Replication still applies underneath: ``put_unmetered`` fans out to every
    live owner and records the key like any write, so shadow state survives
    ``fail_shard``/``recover_shard`` like any control key.
    """

    def __init__(self, pool, prefix: str) -> None:
        self.pool = pool
        self.prefix = prefix
        self.spec: ArenaSpec | None = None
        self.gets = 0
        self.puts = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def attach_state_arena(self, spec: ArenaSpec) -> None:
        """Take the shadow backend's record shape; the pool's arena is left alone."""
        self.spec = spec

    def get(self, key: str, default: Any = None) -> Any:
        full = self.prefix + key
        self.gets += 1
        self.bytes_read += self.pool.size_of(full)
        return self.pool.peek(full, default)

    def put(self, key: str, value: Any, size_bytes: int | None = None) -> None:
        size = int(size_bytes or 0)
        self.pool.put_unmetered(self.prefix + key, value, size)
        self.puts += 1
        self.bytes_written += size

    def gather_states(self, keys: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``KeyValueStore.gather_states`` over per-key records: a miss reads
        a zero state, timestamp ``NEVER_WRITTEN`` and 0 bytes."""
        spec = self.spec
        states = np.zeros((len(keys), spec.state_size))
        timestamps = np.full(len(keys), NEVER_WRITTEN, dtype=np.int64)
        fetched = np.zeros(len(keys), dtype=np.int64)
        for row, key in enumerate(keys):
            record = self.get(key)
            if record is None:
                continue
            stored = record["state"]
            states[row] = dequantize_state(stored, record["scale"]) if spec.quantized else stored
            timestamps[row] = record["timestamp"]
            fetched[row] = spec.payload_bytes
        return states, timestamps, fetched

    def scatter_states(self, keys: list[str], states: np.ndarray, timestamps: np.ndarray) -> None:
        """One record per key, encoded as the arena's rows are and billed at
        the spec's ``record_bytes``."""
        spec = self.spec
        for key, state, timestamp in zip(keys, states, timestamps.tolist()):
            if spec.quantized:
                quantized, scale = quantize_state(state)
                record = {"state": quantized, "timestamp": timestamp, "scale": scale}
            else:
                record = {"state": state.astype(np.float32), "timestamp": timestamp}
            self.put(key, record, spec.record_bytes)

    def bytes_for_prefix(self, prefix: str) -> int:
        return self.pool.bytes_for_prefix(self.prefix + prefix)


class RolloutBackend:
    """The :class:`~repro.serving.engine.Backend` the queue sees during a rollout.

    A thin serving wrapper: predictions route through the controller (control
    arm until promotion, candidate after the hot swap), session observation
    and wave application go to the control backend — whose ``wave_listeners``
    hook forwards each applied wave to the shadow arm, covering stream-fired
    waves and direct warmup ``apply_wave`` calls alike without double
    application.
    """

    def __init__(self, controller: "RolloutController") -> None:
        self.controller = controller
        self.predictions_served = 0

    def predict_batch(self, requests: list[ServingRequest]) -> list[ServingPrediction]:
        predictions = self.controller.score_batch(requests)
        self.predictions_served += len(predictions)
        return predictions

    def observe_session(self, user_id: int, context: dict[str, float], timestamp: int, accessed: bool) -> None:
        self.controller.control.observe_session(user_id, context, timestamp, accessed)

    def apply_wave(self, updates: SessionWave | list[SessionUpdate]) -> None:
        self.controller.control.apply_wave(updates)

    @property
    def updates_applied(self) -> int:
        return self.controller.control.updates_applied

    @property
    def update_delay_seconds(self) -> float:
        return self.controller.control.update_delay_seconds

    @property
    def storage_bytes(self) -> int:
        return self.controller.control.storage_bytes


class RolloutController:
    """Drive one candidate version through shadow → staged canary → promote/rollback.

    Built by :meth:`ServingEngine.build` when ``EngineConfig.rollout`` is set;
    the engine's queue scores through :attr:`backend`.  All state transitions
    happen in :meth:`advance_stage`, fired by the barrier-exempt control
    timers installed at construction — so the schedule advances
    deterministically on the simulated clock, interleaved with (but invisible
    to) the data plane.
    """

    def __init__(
        self,
        config,
        *,
        candidate: ModelVersion,
        control,
        builder,
        store,
        stream,
        registry: MetricsRegistry | None,
        admission=None,
        tracer=None,
    ) -> None:
        rollout = config.rollout
        self.candidate_version = candidate.version
        self.control_version = config.model
        self.stages: tuple[tuple[int, int], ...] = rollout["stages"]
        self.gates: dict[str, float] = dict(rollout["gates"])
        self.control = control
        self.admission = admission
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = registry if registry is not None else NULL_REGISTRY

        self.stage_pct = 0
        self.promoted = False
        self.rolled_back = False
        self.promotions = 0
        self.rollbacks = 0
        self.canary_assigned = 0
        self.stage_history: list[str] = []

        # The shadow arm: a full hidden-state backend on the candidate's
        # deterministically rebuilt network, confined to the version-prefixed
        # namespace.  stream=None — it registers no timers of its own (waves
        # arrive forwarded from the control arm) — and registry=None keeps
        # the engine's backend.* instruments exclusively the control arm's.
        self.view = _ShadowStoreView(store, f"{candidate.version}:")
        self.shadow = BatchedHiddenStateBackend(
            candidate.build_network(),
            builder,
            self.view,
            None,
            config.session_length,
            quantize=config.quantize,
            extra_lag=config.extra_lag,
            registry=None,
        )
        control.wave_listeners.append(self._on_control_wave)
        self.backend = RolloutBackend(self)

        name = f"rollout.{self.candidate_version}"
        self._m_divergence = self.metrics.histogram(f"{name}.divergence", DIVERGENCE_BUCKETS)
        self._m_stage = self.metrics.gauge("rollout.stage")
        self._m_stage.set(0)
        for suffix, read in (
            ("predictions_scored", lambda: self.shadow.predictions_served),
            ("updates_applied", lambda: self.shadow.updates_applied),
            ("canary_assigned", lambda: self.canary_assigned),
            ("promotions", lambda: self.promotions),
            ("rollbacks", lambda: self.rollbacks),
            ("kv_gets", lambda: self.view.gets),
            ("kv_puts", lambda: self.view.puts),
            ("kv_bytes_read", lambda: self.view.bytes_read),
            ("kv_bytes_written", lambda: self.view.bytes_written),
        ):
            self.metrics.view(f"{name}.{suffix}", "counter", read)
        self.metrics.view(f"{name}.storage_bytes", "gauge", lambda: self.shadow.storage_bytes)

        for fire_at, pct in self.stages:
            stream.set_control_timer(
                fire_at,
                f"rollout:{self.candidate_version}:{pct}@{fire_at}",
                lambda key, events, _pct=pct, _fire=fire_at: self.advance_stage(_pct, _fire),
            )

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def score_batch(self, requests: list[ServingRequest]) -> list[ServingPrediction]:
        """Score one micro-batch: control serves, shadow mirrors.

        After promotion the candidate serves directly (the control arm is no
        longer scored); after rollback the shadow stops scoring and the
        control arm runs exactly as a registry-free engine would.
        """
        if self.promoted:
            return self.shadow.predict_batch(requests)
        served = self.control.predict_batch(requests)
        if not self.rolled_back and requests:
            mirrored = self.shadow.predict_batch(requests)
            self._m_divergence.observe_many(
                abs(shadow.probability - control.probability)
                for shadow, control in zip(mirrored, served)
            )
            if self.stage_pct:
                self.canary_assigned += sum(
                    1 for request in requests if self.assigned_to_canary(request)
                )
        return served

    def assigned_to_canary(self, request: ServingRequest) -> bool:
        """Deterministic cohort sampling below 100%: stable-hashed on
        (version, user, timestamp) so a replay assigns the same cohort."""
        token = f"{self.candidate_version}|{request.user_id}|{request.timestamp}"
        return _stable_hash(token) % 100 < self.stage_pct

    def _on_control_wave(self, updates: SessionWave | list[SessionUpdate]) -> None:
        # The wave the control arm applied, passed through as it came.
        if self.rolled_back:
            return
        self.shadow.apply_wave(updates)

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def _gate_breaches(self) -> list[str]:
        breaches = []
        bound = self.gates.get("max_p99_update_delay")
        if bound is not None:
            observed = self.metrics.histogram(
                "serving.update_delay_seconds", LATENCY_BUCKETS_SECONDS
            ).quantile(0.99)
            if observed > bound:
                breaches.append(f"p99_update_delay={observed:g}>{bound:g}")
        bound = self.gates.get("max_shed_rate")
        if bound is not None:
            observed = self.admission.shed_rate if self.admission is not None else 0.0
            if observed > bound:
                breaches.append(f"shed_rate={observed:g}>{bound:g}")
        bound = self.gates.get("max_divergence")
        if bound is not None:
            observed = self._m_divergence.quantile(0.99)
            if observed > bound:
                breaches.append(f"p99_divergence={observed:g}>{bound:g}")
        return breaches

    def advance_stage(self, pct: int, fire_at: int) -> None:
        """One scheduled stage transition: gate, then promote or roll back.

        Idempotent after a terminal state — ``stream.flush()`` at the end of
        a replay fires any remaining stage timers, which must be inert once
        the rollout promoted or rolled back.
        """
        if self.promoted or self.rolled_back:
            self.stage_history.append(f"skipped:{pct}@{fire_at}")
            if self.tracer.enabled:
                self.tracer.control_event(
                    "rollout.skipped", fire_at, version=self.candidate_version, pct=pct
                )
            return
        breaches = self._gate_breaches()
        if breaches:
            self.rolled_back = True
            self.rollbacks += 1
            self.stage_pct = 0
            self._m_stage.set(0)
            self.stage_history.append(f"rollback@{fire_at}:{','.join(breaches)}")
            if self.tracer.enabled:
                self.tracer.control_event(
                    "rollout.rollback", fire_at,
                    version=self.candidate_version, pct=pct, breaches=",".join(breaches),
                )
            return
        self.stage_pct = pct
        self._m_stage.set(pct)
        self.stage_history.append(f"stage:{pct}@{fire_at}")
        if self.tracer.enabled:
            self.tracer.control_event(
                "rollout.promote" if pct >= 100 else "rollout.stage", fire_at,
                version=self.candidate_version, pct=pct,
            )
        if pct >= 100:
            # Hot swap: a pure serving-pointer flip.  No queue access — the
            # pending micro-batch is neither flushed nor dropped, so the
            # delivery cursor is untouched (pinned by tests/test_rollout.py).
            self.promoted = True
            self.promotions += 1

    @property
    def serving_version(self) -> str | None:
        """The version whose predictions are currently served."""
        return self.candidate_version if self.promoted else self.control_version

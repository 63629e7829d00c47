"""The twin matrix: every placement or serving feature is invisible.

Each :class:`Feature` below changes *how* an engine places or serves state,
never *what* it serves.  A case builds two engines over one session stream —
the feature arm and its reference twin — and asserts, through
:func:`repro.serving.twins.first_difference`, that they agree byte for byte on
every delivered prediction, every stored record and its billed size, the
state footprint, the capacity model's counters, the store's client meters
and every registry instrument, except the instruments and key prefixes the
feature declares it owns.  A case also runs the feature's probe, so a
feature that silently did nothing cannot pass.

Cases: every feature at batch 1/7/64 on each topology it applies to, plus
once at batch 7 with each other compatible feature on in *both* arms (the
composition).  Two features compose when they set disjoint engine keys.  A
composition that differs outside the feature's own set is a finding: it is
listed in :data:`FINDINGS` as a strict ``xfail``, never added to ``owns``.

To add a feature, append a :class:`Feature`: ``arm(ctx)`` returns the
feature arm's extra engine kwargs (``EngineConfig`` fields or
``ServingEngine.build`` arguments, fresh objects per call), ``reference``
names its twin in :data:`REFERENCES` (the bare engine unless the feature
replaces a part the twin must have, like the server, or is a part every
engine has, like the arena, whose twin is the per-key state reference),
``probe(engine)`` proves the feature engaged on an engine that has it
(``twin_probe``, if given, that the twin exercised the path the feature
replaces),
``owns`` names what the twins may differ in — ``metric:<instrument prefix>``,
``meter:<field>`` or ``record:<key prefix>`` outside the control namespace,
never ``delivered`` — and ``steps(ctx)``, if given, are ``(index, step)``
pairs run during the feature arm's replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from repro.serving import ModelRegistry, ModelVersion, ReplicaFleet, ServerModel, SloPolicy
from repro.serving.twins import first_difference, observe
from serving_harness import build_engine, bursty_events, replay

BATCHES = (1, 7, 64)
#: Store/backend topologies, in the order a composition picks its first shared one.
TOPOLOGIES = {
    "mirrored": {"n_shards": 4, "replication": 2},  # the least replication a failure allows
    "replicated": {"n_shards": 4, "replication": 3},
    "sharded": {"n_shards": 3},
    "quantized": {"n_shards": 3, "quantize": True},
    # Hidden states loaded and saved one record at a time (the per-key twin):
    # every feature stays invisible off the arena too.
    "per_key": {"n_shards": 2, "per_key": True},
    "plain": {},
}
EVENTS = bursty_events(np.random.default_rng(9000))


@dataclass(frozen=True)
class Context:
    """What the arms are built from: the replayed stream and a frozen
    two-version registry over the test network (``control`` is its exact
    bits, ``candidate`` a perturbed copy)."""

    events: list
    models: ModelRegistry

    @property
    def t0(self) -> int:
        return self.events[0][0]

    @property
    def span(self) -> int:
        return self.events[-1][0] - self.t0


@dataclass(frozen=True)
class Feature:
    name: str
    arm: Callable[[Context], dict]
    probe: Callable
    twin_probe: Callable = lambda engine: True
    owns: tuple[str, ...] = ()
    topologies: tuple[str, ...] = tuple(TOPOLOGIES)
    steps: Callable[[Context], tuple] = lambda ctx: ()
    reference: str = "bare"

    def keys(self, ctx: Context) -> set[str]:
        return set(self.arm(ctx)) | set(REFERENCES[self.reference](ctx))


def _admission():
    return {"slo_policy": SloPolicy(max_queue_depth=8), "admission_mode": "shed"}


#: The twins features are compared against.
REFERENCES = {
    "bare": lambda ctx: {},
    "capacity": lambda ctx: {"server": ServerModel(0.15)},
    # Hidden states loaded and saved one record at a time, outside any arena.
    "per_key": lambda ctx: {"per_key": True},
    # A ServerModel shedding at a queue-depth bound of 8, which the stream crosses.
    "server": lambda ctx: {"server": ServerModel(0.15), **_admission()},
}


def _pinned_autoscale(ctx):
    block = {
        "policy": "reactive", "service_rate": 0.15, "start": ctx.t0 + 60, "until": ctx.t0 + ctx.span,
        "interval": 60, "initial_replicas": 1, "min_replicas": 1, "max_replicas": 1, "provision_delay": 0,
    }
    return {"autoscale": block, **_admission()}


def _resize_steps(ctx):
    added = []
    third = len(ctx.events) // 3
    return (
        (third, lambda engine: added.append(engine.store.add_shard())),
        (2 * third, lambda engine: engine.store.remove_shard(added.pop())),
    )


def _stores(engine):
    return getattr(engine.store, "shards", [engine.store])


def _roots(engine):
    return len(engine.tracer.roots())


FEATURES = (
    Feature(
        "tracing", lambda ctx: {"tracing": {}},
        probe=lambda engine: _roots(engine) == engine.queue.requests_submitted > 0,
    ),
    Feature(
        "sampled_tracing", lambda ctx: {"tracing": {"sample_pct": 35}},
        probe=lambda engine: 0 < _roots(engine) < engine.queue.requests_submitted,
    ),
    Feature(
        "arena", lambda ctx: {},
        probe=lambda engine: all(store.arena is not None and len(store.arena) for store in _stores(engine)),
        twin_probe=lambda engine: all(store.arena is None for store in _stores(engine)),
        topologies=("mirrored", "replicated", "sharded", "quantized", "plain"),
        reference="per_key",
    ),
    Feature(
        "failure_schedule",
        lambda ctx: {"failure_schedule": (
            (ctx.t0 + ctx.span // 3, "fail", 1), (ctx.t0 + 2 * ctx.span // 3, "recover", 1),
        )},
        probe=lambda engine: engine.store.shard_failures == engine.store.shard_recoveries == 1
        and engine.store.keys_rehydrated > 0,
        # A failed shard takes no writes: the physical write meters and the
        # per-shard split move; client reads and every record do not.
        owns=("meter:puts", "meter:bytes_written", "metric:kv.rnn/", "metric:ring.rnn."),
        topologies=("mirrored", "replicated"),
    ),
    Feature(
        "resize", lambda ctx: {},
        probe=lambda engine: engine.store.keys_migrated > 0 and engine.store.membership_changes == 2,
        # The pool's client meters sum its *current* shards (a removed
        # shard's counters leave with it) and migration deletes are metered.
        owns=("meter:", "metric:kv.rnn/", "metric:ring.rnn."),
        topologies=("mirrored", "replicated", "sharded", "quantized", "per_key"),
        steps=_resize_steps,
    ),
    Feature(
        "pinned_autoscale", _pinned_autoscale,
        probe=lambda engine: engine.autoscaler.evaluations > 0 and engine.server.replicas == 1,
        owns=("metric:autoscale.",),
        reference="server",
    ),
    Feature(
        "replica_fleet",
        lambda ctx: {"server": ReplicaFleet(0.15), **_admission()},
        probe=lambda engine: isinstance(engine.server, ReplicaFleet) and engine.admission.requests_shed > 0,
        reference="server",
    ),
    Feature(
        "empty_slo_policy",
        lambda ctx: {"server": ServerModel(0.15), "slo_policy": SloPolicy(), "admission_mode": "shed"},
        probe=lambda engine: engine.admission.requests_offered > 0 and engine.admission.requests_shed == 0,
        owns=("metric:slo.",),
        reference="capacity",
    ),
    Feature(
        "shadow_rollback",
        lambda ctx: {"model": "control", "models": ctx.models, "rollout": {
            "candidate": "candidate",
            "stages": ((ctx.t0 - 1, 5), (ctx.events[len(ctx.events) // 2][0], 50)),
            "gates": {"max_divergence": 1e-6},
        }},
        probe=lambda engine: engine.rollout.rolled_back
        and any(key.startswith("candidate:hidden:") for key in engine.store.keys()),
        owns=("metric:rollout.", "record:candidate:"),
    ),
    Feature(
        "per_timer_join", lambda ctx: {"coalesce_updates": False},
        probe=lambda engine: engine.stream.events_published > 0,
        # The lane twin fired fewer waves than timers: it did coalesce.
        twin_probe=lambda engine: engine.stream.waves_fired < engine.stream.timers_fired,
        owns=("metric:stream.wave_size",),
    ),
    *(
        Feature(
            f"window_{window}", lambda ctx, window=window: {"coalescing_window": window},
            probe=lambda engine: engine.update_delay_seconds > 0,
            # How long updates wait, and the end-to-end latency that includes the wait.
            owns=("metric:stream.wave_size", "metric:serving.update_delay_seconds",
                  "metric:serving.update_latency_seconds"),
        )
        for window in (1, 30, 600)
    ),
)
BY_NAME = {feature.name: feature for feature in FEATURES}
#: Compositions that differ outside the feature's own set: open findings.
FINDINGS = {
    **{
        ("pinned_autoscale", f"window_{window}"): "autoscale ticks are control timers and close an "
        "open coalescing window early: same bits, but different waves and update delays"
        for window in (1, 30, 600)
    },
    ("shadow_rollback", "failure_schedule"): "the ring's re-hydration meters count the shadow "
    "namespace's keys too",
    ("shadow_rollback", "resize"): "migration copies keys with metered get/put/delete, so the "
    "shadow namespace's migrations land on the pool's client meters",
}


@pytest.fixture(scope="module")
def ctx(serving_parts):
    _, _, network = serving_parts
    control = ModelVersion.from_network("control", network)
    rng = np.random.default_rng(31)
    candidate = ModelVersion(
        "candidate",
        control.config,
        {name: array + 0.05 * rng.standard_normal(array.shape) for name, array in control.weights.items()},
    )
    return Context(EVENTS, ModelRegistry([control, candidate]).freeze())


def _compositions():
    """``(feature, background, topology)`` at batch 7 for every pair setting
    disjoint keys on a topology both apply to and neither overrides.  A
    background whose arm changes nothing (``arena``: every engine has one)
    would repeat the feature's own batch-7 case and is left out."""
    ctx = Context(EVENTS, None)  # the keys need the stream's timing only
    for feature in FEATURES:
        for background in FEATURES:
            if background is feature or feature.keys(ctx) & set(background.arm(ctx)):
                continue
            if not background.arm(ctx) and not background.steps(ctx):
                continue
            keys = feature.keys(ctx) | background.keys(ctx)
            topology = next(
                (
                    name for name in TOPOLOGIES
                    if name in feature.topologies and name in background.topologies
                    and not keys & set(TOPOLOGIES[name])
                ),
                None,
            )
            if topology is not None:
                finding = FINDINGS.get((feature.name, background.name))
                marks = pytest.mark.xfail(strict=True, reason=finding) if finding else ()
                yield pytest.param(feature.name, background.name, topology, 7, marks=marks,
                                   id=f"{feature.name}+{background.name}")


CASES = [
    pytest.param(feature.name, None, topology, batch, id=f"{feature.name}-{topology}-b{batch}")
    for feature in FEATURES
    for topology in feature.topologies
    for batch in BATCHES
] + list(_compositions())


def _replay_arm(serving_parts, ctx, kwargs, steps, topology, batch, background):
    """One arm: the topology at ``batch``, the background feature's arm and
    steps (fresh per engine) if any, then ``kwargs``; replayed and observed."""
    config = {**TOPOLOGIES[topology], "max_batch_size": batch}
    if background is not None:
        config.update(background.arm(ctx))
        steps = (*steps, *background.steps(ctx))
    engine = build_engine(serving_parts, **config, **kwargs)
    served = replay(engine, ctx.events, steps)
    engine.close()
    return engine, observe(engine, served)


@pytest.fixture(scope="module")
def twins():
    """Reference arms already replayed, by ``(reference, topology, batch,
    background)``: many cases share one."""
    return {}


@pytest.mark.parametrize("name, background, topology, batch", CASES)
def test_feature_is_invisible_to_its_twin(serving_parts, ctx, twins, name, background, topology, batch):
    feature, background = BY_NAME[name], BY_NAME.get(background)
    assert not any(prefix.startswith(("delivered", "record:hidden:")) for prefix in feature.owns)
    arm = (topology, batch, background)
    feature_engine, feature_observed = _replay_arm(
        serving_parts, ctx, feature.arm(ctx), feature.steps(ctx), *arm
    )
    key = (feature.reference, *arm)
    if key not in twins:
        twins[key] = _replay_arm(serving_parts, ctx, REFERENCES[feature.reference](ctx), (), *arm)
    twin_engine, twin_observed = twins[key]
    assert feature.probe(feature_engine) and feature.twin_probe(twin_engine)
    if background is not None:
        assert background.probe(feature_engine) and background.probe(twin_engine)
    assert first_difference(feature_observed, twin_observed, ignore=feature.owns) is None


def test_first_difference_tells_negative_zero_from_zero():
    left = {"delivered": [{"probability": 0.0}], "record:hidden:1": {"state": np.zeros(3)}}
    right = {"delivered": [{"probability": -0.0}], "record:hidden:1": {"state": -np.zeros(3)}}
    assert first_difference(left, right) == "delivered[0].probability: 0.0 != -0.0"
    left["delivered"] = right["delivered"]
    assert first_difference(left, right).startswith("record:hidden:1.state:")
    assert first_difference(right, right) is None

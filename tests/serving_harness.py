"""The serving suites' one harness: a tiny hidden-state model, the session
streams they replay, the engine builder, the replay loop and the per-key
state twin the arena is checked against.

``tests/conftest.py`` exposes the model as the session-scoped
``serving_parts`` fixture; everything else is a plain function the suites
import (``from serving_harness import ...``).  Every stream is a list of
``(timestamp, user_id, context, accessed)`` tuples in global time order.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import fields
from unittest import mock

import numpy as np

from repro.data import ContextField, ContextSchema
from repro.features.sequence import SequenceBuilder
from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork
from repro.serving import (
    BatchedHiddenStateBackend,
    EngineConfig,
    ServingEngine,
    dequantize_state,
    quantize_state,
)
from repro.serving import engine as engine_module

BASE_TIME = 1_600_000_000
SESSION_LENGTH = 600
_CONFIG_FIELDS = {field.name for field in fields(EngineConfig)}


def make_parts(seed: int = 5):
    """``(schema, builder, network)``: an untrained two-field model, eval mode."""
    schema = ContextSchema(
        fields=(
            ContextField("badge", "numeric"),
            ContextField("surface", "categorical", cardinality=3),
        )
    )
    builder = SequenceBuilder(schema)
    config = RNNNetworkConfig(feature_dim=builder.feature_dim, hidden_size=12, mlp_hidden=8)
    network = RNNPrecomputeNetwork(config, rng=np.random.default_rng(seed)).eval()
    return schema, builder, network


def _sessions(rng, timestamps, n_users):
    return [
        (
            int(timestamp),
            int(rng.integers(0, n_users)),
            {"badge": float(rng.integers(0, 9)), "surface": float(rng.integers(0, 3))},
            bool(rng.random() < 0.4),
        )
        for timestamp in timestamps
    ]


def bursty_events(rng, n_events=150, n_users=10, span=4_000):
    """Arrivals over ``span`` seconds, 60 % snapped to a 300-second grid, so
    many session windows close in the same second (the wave case) while
    jittered stragglers keep singleton waves in the mix.  Duplicate
    ``(user, second)`` sessions are possible on purpose."""
    raw = rng.integers(0, span, size=n_events)
    snapped = rng.random(n_events) < 0.6
    raw[snapped] -= raw[snapped] % 300
    return _sessions(rng, np.sort(BASE_TIME + raw), n_users)


def ramped_events(rng, n_events=220, n_users=10, *, jitter=True):
    """Arrivals whose rate ramps from 0.08 to 0.6 per second — past a
    0.15-per-second server's capacity — over several session windows.
    ``jitter=False`` spaces them exactly ``1 / rate`` apart."""
    rates = np.linspace(0.08, 0.6, n_events)
    gaps = rng.exponential(1.0 / rates) if jitter else 1.0 / rates
    return _sessions(rng, BASE_TIME + np.floor(gaps.cumsum()).astype(np.int64), n_users)


def poisson_events(rng, n_events=180, n_users=14, mean_gap=6.0):
    """Poisson arrivals, ``mean_gap`` seconds apart on average."""
    gaps = rng.exponential(mean_gap, size=n_events)
    return _sessions(rng, BASE_TIME + np.floor(gaps.cumsum()).astype(np.int64), n_users)


class PerKeyStates:
    """The per-key state twin: a store adapter whose state waves load and
    save one record at a time through the wrapped store's metered ``get`` /
    ``put``.

    It is the reference the arena is checked against.  ``attach_state_arena``
    only takes the record shape, so the wrapped store hosts no arena and
    every state stays a record dict; a wave read decodes each record (a
    miss is a zero state that no time has passed since) and a wave write
    encodes each row with :func:`quantize_state` or a float32 cast, billed
    at the record's ``nbytes`` plus its timestamp and scale.  Everything
    else is the wrapped store's.
    """

    #: A miss's last write: ``max(now, never) - never`` is 0 elapsed seconds.
    NEVER = 2**63 - 1

    def __init__(self, store) -> None:
        self.store = store
        self.spec = None

    def __getattr__(self, name):
        return getattr(self.store, name)

    def attach_state_arena(self, spec) -> None:
        self.spec = spec

    def gather_states(self, keys):
        states = np.zeros((len(keys), self.spec.state_size))
        timestamps = np.full(len(keys), self.NEVER, dtype=np.int64)
        fetched = np.zeros(len(keys), dtype=np.int64)
        for row, key in enumerate(keys):
            record = self.store.get(key)
            if record is None:
                continue
            stored = record["state"]
            states[row] = dequantize_state(stored, record["scale"]) if self.spec.quantized else stored
            timestamps[row] = record["timestamp"]
            fetched[row] = stored.nbytes + 8
        return states, timestamps, fetched

    def scatter_states(self, keys, states, timestamps) -> None:
        for key, state, timestamp in zip(keys, states, np.asarray(timestamps).tolist()):
            if self.spec.quantized:
                stored, scale = quantize_state(state)
                record, size = {"state": stored, "timestamp": timestamp, "scale": scale}, stored.nbytes + 16
            else:
                stored = state.astype(np.float32)
                record, size = {"state": stored, "timestamp": timestamp}, stored.nbytes + 8
            self.store.put(key, record, size_bytes=size)


def _per_key_backend(network, builder, store, *args, **kwargs):
    return BatchedHiddenStateBackend(network, builder, PerKeyStates(store), *args, **kwargs)


@contextmanager
def per_key_states():
    """Every :meth:`ServingEngine.build` inside runs its hidden-state backend
    on :class:`PerKeyStates` over the store it built (``engine.store`` stays
    that store; the rollout shadow arm keeps its own view)."""
    with mock.patch.object(engine_module, "BatchedHiddenStateBackend", _per_key_backend):
        yield


def build_engine(parts, *, per_key: bool = False, **kwargs) -> ServingEngine:
    """A hidden-state engine over ``parts``: ``EngineConfig`` fields in
    ``kwargs`` go to the config (600-second sessions, store ``"rnn"`` unless
    given), the rest to :meth:`ServingEngine.build` (``server``,
    ``slo_policy``, ``models``, ...; ``network`` defaults to the parts').
    ``per_key`` builds the per-key state twin (:func:`per_key_states`)."""
    _, builder, network = parts
    config = {key: kwargs.pop(key) for key in list(kwargs) if key in _CONFIG_FIELDS}
    config = {"backend": "hidden_state", "session_length": SESSION_LENGTH, "store_name": "rnn", **config}
    if "models" not in kwargs:
        kwargs.setdefault("network", network)
    with per_key_states() if per_key else nullcontext():
        return ServingEngine.build(EngineConfig(**config), builder=builder, **kwargs)


def replay(engine, events, steps=()):
    """:meth:`ServingEngine.replay` with ``(index, step)`` pairs: ``step(engine)``
    runs just before ``events[index]`` is served (membership changes,
    say).  Returns every delivered prediction, checked exactly-once."""
    served, start = [], 0
    for index, step in sorted(steps, key=lambda pair: pair[0]):
        served += engine.serve(events[start:index])
        step(engine)
        start = index
    served += engine.serve(events[start:]) + engine.flush()
    engine.stream.flush()
    served += engine.drain_deferred() + engine.drain_completed()
    shed = engine.admission.requests_shed if engine.admission is not None else 0
    assert len(served) == len(events) - shed, (len(served), len(events), shed)
    return served

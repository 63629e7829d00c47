"""The serving suites' one harness: a tiny hidden-state model, the session
streams they replay, the engine builder and the replay loop.

``tests/conftest.py`` exposes the model as the session-scoped
``serving_parts`` fixture; everything else is a plain function the suites
import (``from serving_harness import ...``).  Every stream is a list of
``(timestamp, user_id, context, accessed)`` tuples in global time order.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.data import ContextField, ContextSchema
from repro.features.sequence import SequenceBuilder
from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork
from repro.serving import EngineConfig, ServingEngine

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


def build_engine(parts, **kwargs) -> ServingEngine:
    """A hidden-state engine over ``parts``: ``EngineConfig`` fields in
    ``kwargs`` go to the config (600-second sessions, store ``"rnn"`` unless
    given), the rest to :meth:`ServingEngine.build` (``server``,
    ``slo_policy``, ``models``, ...; ``network`` defaults to the parts')."""
    _, builder, network = parts
    config = {key: kwargs.pop(key) for key in list(kwargs) if key in _CONFIG_FIELDS}
    config = {"backend": "hidden_state", "session_length": SESSION_LENGTH, "store_name": "rnn", **config}
    if "models" not in kwargs:
        kwargs.setdefault("network", network)
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

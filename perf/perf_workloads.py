"""The five benchmark workloads: engine configs, seeded event streams, warm-up.

A workload is a traffic mix plus the ``EngineConfig`` it is served under.
The engine only ever sees the generated ``(timestamp, user_id, context,
accessed)`` tuples; the seed shapes the traffic, never the program.  The
trained models are a fixture (``MODEL_SEED``), so two seeds time the same
weights and trees under different traffic.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``perf/README.md``.

Configs are plain dicts filtered against ``dataclasses.fields(EngineConfig)``
(:func:`resolve_config`): a later PR that deletes a knob drops the key here
instead of breaking a benchmark it is not allowed to edit.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.data import make_dataset
from repro.models import GBDTModel, RNNModel, RNNModelConfig
from repro.models.base import TaskSpec
from repro.serving import EngineConfig, ServingEngine, SessionUpdate

#: Models and the context-row pool are fixed; ``--seed`` drives traffic only.
MODEL_SEED = 0
DATASET_USERS = 60
HIDDEN_SIZE = 48
EXTRA_LAG = 60
SECONDS_PER_DAY = 86400

#: One event: ``accessed is None`` marks a read-only request (no session end).
Event = tuple[int, int, dict, "bool | None"]


@dataclass
class Models:
    """Everything ``ServingEngine.build`` needs besides the config."""

    dataset: Any
    rnn: Any = None
    gbdt: Any = None

    def build_kwargs(self, backend: str) -> dict[str, Any]:
        if backend == "aggregation":
            return {
                "featurizer": self.gbdt.featurizer,
                "estimator": self.gbdt.estimator,
                "schema": self.dataset.schema,
            }
        return {"network": self.rnn.network, "builder": self.rnn.builder}


def fit_models(backend: str) -> Models:
    """Dataset generation + the one model fit the workload's backend needs."""
    dataset = make_dataset("mobiletab", seed=MODEL_SEED, n_users=DATASET_USERS)
    task = TaskSpec(kind="session")
    models = Models(dataset=dataset)
    if backend == "aggregation":
        models.gbdt = GBDTModel(depths=(3,)).fit(dataset, task)
    else:
        models.rnn = RNNModel(
            RNNModelConfig(
                hidden_size=HIDDEN_SIZE, epochs=1, early_stopping_patience=None, seed=MODEL_SEED
            )
        ).fit(dataset, task)
    return models


def resolve_config(config: dict[str, Any]) -> tuple[EngineConfig, list[str]]:
    """``EngineConfig`` from the keys it still has; the rest are reported."""
    known = {spec.name for spec in dataclasses.fields(EngineConfig)}
    dropped = sorted(key for key in config if key not in known)
    return EngineConfig(**{key: value for key, value in config.items() if key in known}), dropped


class _ContextPool:
    """Synthetic user ids ``0..U-1`` mapped onto the dataset users' real
    context rows, so requests carry schema-complete contexts."""

    def __init__(self, dataset) -> None:
        self.users = [user for user in dataset.users if len(user)]
        self.lengths = np.asarray([len(user) for user in self.users])
        self.start = int(dataset.start_time)

    def rows(self, rng, user_ids: np.ndarray) -> list[tuple[dict, bool]]:
        owners = user_ids % len(self.users)
        sessions = (rng.random(len(user_ids)) * self.lengths[owners]).astype(np.int64)
        return [
            (self.users[owner].context_row(session), bool(self.users[owner].accesses[session]))
            for owner, session in zip(owners.tolist(), sessions.tolist())
        ]


def _zipf(n_users: int, skew: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_users + 1) ** skew
    return weights / weights.sum()


def _poisson_events(
    pool: _ContextPool, rng, n_users: int, n_sessions: int, window: int, skew: float = 1.1, windows: float = 2.4
) -> list[Event]:
    """Zipf users, Poisson arrivals spanning ``windows`` session windows so
    session-end timers interleave with predictions."""
    rate = n_sessions / (windows * window)
    times = pool.start + np.floor(rng.exponential(1.0 / rate, n_sessions).cumsum()).astype(np.int64)
    user_ids = rng.choice(n_users, size=n_sessions, p=_zipf(n_users, skew))
    rows = pool.rows(rng, user_ids)
    return [
        (int(t), int(u), context, accessed)
        for t, u, (context, accessed) in zip(times.tolist(), user_ids.tolist(), rows)
    ]


def _burst_events(pool: _ContextPool, rng, n_users: int, n_sessions: int, window: int) -> list[Event]:
    """Bursts of 64 distinct users every 30 simulated seconds."""
    n_bursts = n_sessions // 64
    user_ids = np.concatenate([rng.choice(n_users, size=64, replace=False) for _ in range(n_bursts)])
    times = pool.start + np.repeat(np.arange(n_bursts, dtype=np.int64) * 30, 64)
    rows = pool.rows(rng, user_ids)
    return [
        (int(t), int(u), context, accessed)
        for t, u, (context, accessed) in zip(times.tolist(), user_ids.tolist(), rows)
    ]


def _sweep_events(pool: _ContextPool, rng, n_users: int, n_sessions: int, window: int) -> list[Event]:
    """Shuffled read-only sweeps over every user, one simulated day apart."""
    n_sweeps = max(n_sessions // n_users, 1)
    user_ids = np.concatenate([rng.permutation(n_users) for _ in range(n_sweeps)])
    times = pool.start + SECONDS_PER_DAY * (1 + np.repeat(np.arange(n_sweeps, dtype=np.int64), n_users))
    times += np.tile(np.arange(n_users, dtype=np.int64) // 1000, n_sweeps)
    rows = pool.rows(rng, user_ids)
    return [
        (int(t), int(u), context, None)
        for t, u, (context, _) in zip(times.tolist(), user_ids.tolist(), rows)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict[str, Any]
    n_users: int
    n_sessions: int
    chunk: int
    make_events: Callable[..., list[Event]]
    warm_sessions: int = 1
    #: Leading requests the batch-1 oracle replays (it is the slow engine).
    oracle_prefix: int = 2500

    @property
    def backend(self) -> str:
        return self.config.get("backend", "hidden_state")

    def scaled(self, scale: float) -> "Workload":
        """The same traffic shape at ``scale`` of the size (``--smoke``)."""
        if scale == 1.0:
            return self
        n_users = max(int(self.n_users * scale), 128)
        n_sessions = max(int(self.n_sessions * scale) // 64 * 64, 128)
        if self.make_events is _sweep_events:
            n_sessions = max(n_sessions // n_users, 2) * n_users
        return dataclasses.replace(
            self, n_users=n_users, n_sessions=n_sessions, chunk=max(n_sessions // 4, 1)
        )

    def events(self, models: Models, seed: int) -> list[Event]:
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        window = models.dataset.session_length + EXTRA_LAG
        return self.make_events(_ContextPool(models.dataset), rng, self.n_users, self.n_sessions, window)

    def full_config(self, models: Models) -> dict[str, Any]:
        config = {"session_length": models.dataset.session_length, "extra_lag": EXTRA_LAG, "store_name": "perf"}
        config.update(self.config)
        return config

    def build(self, models: Models, config: dict[str, Any]) -> tuple[ServingEngine, list[str]]:
        """A fresh engine with every user's state warmed and meters zeroed."""
        engine_config, dropped = resolve_config(config)
        engine = ServingEngine.build(engine_config, **models.build_kwargs(self.backend))
        pool = _ContextPool(models.dataset)
        rng = np.random.default_rng(MODEL_SEED)
        user_ids = np.arange(self.n_users)
        for step in range(self.warm_sessions, 0, -1):
            timestamp = pool.start - 3600 * step
            engine.backend.apply_wave(
                [
                    SessionUpdate(user_id=int(u), timestamp=timestamp, context=context, accessed=accessed)
                    for u, (context, accessed) in zip(user_ids.tolist(), pool.rows(rng, user_ids))
                ]
            )
        engine.store.reset_stats()
        return engine, dropped


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="live_single",
        config={},
        n_users=2000,
        n_sessions=3000,
        chunk=250,
        make_events=_poisson_events,
    ),
    Workload(
        name="live_single_arena",
        config={"state_layout": "arena"},
        n_users=2000,
        n_sessions=3000,
        chunk=250,
        make_events=_poisson_events,
    ),
    Workload(
        name="burst64_sharded",
        config={
            "max_batch_size": 64,
            "n_shards": 4,
            "replication": 2,
            "state_layout": "arena",
            "coalescing_window": 30,
        },
        n_users=5000,
        n_sessions=16000,
        chunk=1280,
        make_events=_burst_events,
    ),
    Workload(
        name="offpeak_sweep",
        config={
            "max_batch_size": 64,
            "n_shards": 4,
            "replication": 3,
            "quantize": True,
            "state_layout": "arena",
        },
        n_users=10000,
        n_sessions=30000,
        chunk=2500,
        make_events=_sweep_events,
    ),
    Workload(
        name="agg_baseline",
        config={"backend": "aggregation", "max_batch_size": 8, "defer_updates": True},
        n_users=600,
        n_sessions=1200,
        chunk=100,
        # Uniform users: an aggregation record grows with its user's
        # sessions, so under Zipf the bytes fetched per request follow which
        # users the seed makes hot (4 % between seeds, 0.1 % uniform).
        # 1.2 windows: batches of 8 only fill until the first session-end
        # timers fall due (every later ``advance_to`` flushes the queue).
        make_events=functools.partial(_poisson_events, skew=0.0, windows=1.2),
        warm_sessions=20,
        oracle_prefix=600,
    ),
)

WORKLOAD_NAMES = [workload.name for workload in WORKLOADS]
BY_NAME = {workload.name: workload for workload in WORKLOADS}

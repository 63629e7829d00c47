"""Micro-batched serving engine (the scale path for Section 9's dataflows).

The seed serving path scores strictly one request at a time: every
prediction pays the full Python cost of context encoding, input assembly and
an autograd-graph forward for a single row.  At production traffic the
standard lever is *micro-batching* — coalesce concurrent requests into one
``[B, hidden]`` stack and amortise all of that over a single set of matmuls
(see :mod:`repro.nn.inference`).

Three pieces:

* :class:`ServingRequest`, :class:`ServingPrediction`,
  :class:`SessionUpdate` — one queued request, one served prediction, one
  hand-built session-end update: immutable tuple rows
  (:class:`typing.NamedTuple`), built positionally on the hot path.  Rows
  in, columns inside, rows out: a backend's ``predict_batch`` reads its
  micro-batch as columns once (``zip(*requests)``) and maps the result
  columns back into one prediction row per request, in submission order,
  as a stream wave is read as columns (:class:`SessionWave`).
* Batched backends (:class:`BatchedHiddenStateBackend`,
  :class:`BatchedAggregationBackend`) — vectorized implementations of the two
  serving dataflows.  They meter exactly the same per-request KV traffic as
  the single-request path (one state fetch per request for the RNN path, one
  fetch per aggregation group for the traditional path), so the cost
  accounting is unchanged by batching.  Hidden states live in the store's
  state arena (:mod:`repro.serving.arena`): a wave's states move in one
  gather and one scatter.
* :class:`MicroBatchQueue` — the request queue.  It flushes when
  ``max_batch_size`` requests have coalesced, on demand, or — crucially for
  equivalence — *before the stream clock crosses a pending timer*, because a
  timer may rewrite a hidden state a queued request must read pre-update.
  With ``max_batch_size=1`` it degenerates to the seed's single-request
  behaviour.

Both serving dataflows are batched symmetrically: predictions coalesce in
the queue, and session-end updates arrive from the stream's wave-coalesced
timer scheduler (:meth:`StreamProcessor.timer_group`) through each backend's
``apply_wave`` as one columnar :class:`SessionWave` — one ``[B, hidden]``
GRU step per block of at most :data:`UPDATE_BLOCK_ROWS` rows for the hidden
path, one run of history writes for the aggregation path
(:class:`SessionStreamMixin` carries the shared record/deliver machinery: a
closed session is one row from ``observe_session`` to the kernel).
Delivery of completed predictions follows a drained
cursor: every prediction is handed out exactly once, in submission order,
either as the return value of the call that completed it or — for flushes
with no caller, like stream barriers — from :meth:`MicroBatchQueue.drain_completed`.

Equivalence with the single-request path (same probabilities, same
precompute decisions, same KV traffic) is enforced by
``tests/test_serving_batching.py``; wave-vs-per-timer bit-identity by
``tests/test_stream_waves.py``.
"""

from __future__ import annotations

import itertools
from math import isfinite
from typing import NamedTuple

import numpy as np

from ..data.schema import ContextSchema, HistoryBatch, context_columns
from ..features.bucketing import log_bucket
from ..features.pipeline import TabularFeaturizer
from ..features.sequence import SequenceBuilder
from ..models.rnn import RNNPrecomputeNetwork
from .arena import ArenaSpec
from .slo import AdmissionController
from .stream import StreamEvent, StreamProcessor
from .telemetry import (
    LATENCY_BUCKETS_SECONDS,
    NULL_REGISTRY,
    SIZE_BUCKETS,
    MetricsRegistry,
)
from .tracing import NULL_TRACER

__all__ = [
    "ServingRequest",
    "ServingPrediction",
    "SessionUpdate",
    "SessionWave",
    "SessionStreamMixin",
    "BatchedHiddenStateBackend",
    "BatchedAggregationBackend",
    "MicroBatchQueue",
]

#: The most session-end updates the hidden-state lane steps at once.  A
#: longer wave runs as consecutive blocks of this many rows, each one whole
#: update (state fetch, Δt bucketing, context encoding, input assembly, the
#: recurrent step, state store), so the lane's transient memory is bounded
#: by the block, not the wave: ``offpeak_sweep``'s 10 000-row warm-up wave,
#: stepped whole, raised the process's peak RSS by ≈ 54 MB of kernel
#: temporaries, and in blocks of 512 by ≈ 4 MB.  In a sweep over 64 … 4 096
#: rows, 512 is the largest block at that floor (1 024 rose 9 MB, 4 096
#: 24 MB); smaller blocks save nothing and add per-block calls.  Waves at or
#: under it (every replay wave of the benchmark workloads) are one block.
UPDATE_BLOCK_ROWS = 512


class ServingPrediction(NamedTuple):
    """One served prediction with its operational cost footprint."""

    user_id: int
    timestamp: int
    probability: float
    kv_lookups: int
    bytes_fetched: int


class ServingRequest(NamedTuple):
    """One queued prediction request (session start)."""

    user_id: int
    context: dict[str, float] | None
    timestamp: int


class SessionUpdate(NamedTuple):
    """One session-end observation ready to be applied to stored state."""

    user_id: int
    timestamp: int
    context: dict[str, float]
    accessed: bool


class SessionWave:
    """One wave of closed sessions as parallel columns: row ``i`` of every
    column is one session, in delivery order.

    This is what ``apply_wave`` consumes and what ``wave_listeners`` are
    handed — the stream lane builds it straight from a timer wave's payload
    rows, so no per-session object exists between ``observe_session`` and
    the kernel.  Columns are sequences, never rewritten after construction.
    """

    __slots__ = ("user_ids", "timestamps", "contexts", "accessed")

    def __init__(self, user_ids, timestamps, contexts, accessed) -> None:
        self.user_ids = user_ids
        self.timestamps = timestamps
        self.contexts = contexts
        self.accessed = accessed

    def __len__(self) -> int:
        return len(self.user_ids)

    @classmethod
    def of(cls, updates: "SessionWave | list[SessionUpdate]") -> "SessionWave":
        """``updates`` itself when it is a wave; a hand-built
        ``list[SessionUpdate]`` (warm-ups, tests) transposed once, rows
        into columns, by one ``zip``."""
        if isinstance(updates, cls):
            return updates
        if not updates:
            return cls((), (), (), ())
        return cls(*zip(*updates))


class SessionStreamMixin:
    """Stream-delivered session-end updates, shared by both backends.

    This is the symmetric half of the :class:`~repro.serving.engine.Backend`
    protocol: ``observe_session`` hands the closed session to the stream and
    schedules its update at window close; when the wave (or single timer)
    fires, the sessions reach the backend through one entry point,
    ``apply_wave``.

    * **The lane** (``coalesce_updates``, the default).  A session is one
      row ``(user_id, timestamp, context, accessed)`` registered as the
      payload of a :class:`~repro.serving.stream.TimerGroup` timer — no
      events, no key string, no per-key buffer.  Rows are appended to the
      stream's run-length heap, never merged, so two sessions observed for
      the same (user, second) stay distinct.  A wave arrives as columns and
      goes to ``apply_wave`` as one :class:`SessionWave`.
    * **The reference per-timer join** (``coalesce_updates=False``).  The
      paper's literal dataflow: the context and access events are published
      under a sequence-numbered key (a bare ``session:{user}:{timestamp}``
      would merge duplicate sessions into one buffer and leave the second
      timer an empty join) and a plain timer joins them into a
      :class:`SessionUpdate`.  Bit-identical to the lane in every
      observable; the equivalence suites pin the lane against it.

    Hosts must provide ``stream``-independent attributes ``session_length``
    and ``extra_lag`` plus an ``apply_wave(wave)`` method;
    :meth:`_init_session_delivery` wires the timer group (or per-timer
    fallback) and the ``update_delay_seconds`` meter — the simulated seconds
    (a float end-to-end, matching the :class:`~repro.serving.engine.Backend`
    protocol) updates spent waiting for their wave to close, the latency
    cost a wider ``coalescing_window`` pays for bigger waves.

    With a registry attached the same quantities flow into the metrics
    plane: ``serving.update_delay_seconds`` (histogram, per update; its sum
    is the attribute meter exactly), ``serving.update_delay_seconds_total``
    (that attribute, read in place, as are the host's
    ``backend.predictions_served`` / ``backend.updates_applied``),
    ``stream.wave_size`` (histogram, one observation per
    delivery) and ``serving.update_latency_seconds`` — the wave wait *plus*
    the :class:`~repro.serving.slo.ServerModel` backlog at delivery, the
    end-to-end latency an SLO policy targets.  Without a server model the
    two latency histograms coincide.

    Both backends also share the engine's door check, :meth:`check_context`,
    over the host's ``_context_fields`` (the schema) and
    ``_prediction_fields`` (what its scoring path reads).
    """

    #: Whether a prediction may come with no context at all (the aggregation
    #: featurizer scores on history alone); a context that is given is checked.
    CONTEXTLESS_PREDICTIONS = False

    def check_context(
        self, user_id: int, context: dict[str, float] | None, *, predicting: bool = False
    ) -> None:
        """Refuse a context this dataflow could not digest, before it goes anywhere.

        A NaN (or infinite) value would be recorded, ride its wave and land in
        the user's stored state for good — a hidden state every later
        prediction for them reads as ``nan``, or a history entry for the whole
        ``history_window``; a missing field would raise a bare ``KeyError``
        inside the batch or wave that reads it and take the rest with it.  The
        engine calls this on every ``observe_session`` and (``predicting``)
        ``submit`` before anything is recorded or queued; a prediction's
        context is checked on the fields its scoring path reads.
        """
        names = self._context_fields
        if predicting:
            if context is None and self.CONTEXTLESS_PREDICTIONS:
                return
            names = self._prediction_fields
        for name in names:
            try:
                finite = isfinite(context[name])
            except (KeyError, TypeError):
                raise ValueError(
                    f"user {user_id}: context field {name!r} is missing or not a number"
                ) from None
            if not finite:
                raise ValueError(
                    f"user {user_id}: context field {name!r} is not finite ({context[name]!r})"
                )

    def _init_session_delivery(
        self,
        stream: StreamProcessor | None,
        coalesce_updates: bool,
        *,
        registry: MetricsRegistry | None = None,
        server=None,
        tracer=None,
    ) -> None:
        self.stream = stream
        self.metrics = registry if registry is not None else NULL_REGISTRY
        self.server = server
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # ``stream=None`` only for the rollout shadow arm, which never
        # observes: its waves arrive through the control arm's listeners.
        self.coalesce_updates = bool(coalesce_updates) and stream is not None
        self._timer_group = stream.timer_group(self._on_wave) if self.coalesce_updates else None
        self._session_seq = itertools.count()  # per-timer join keys only
        self.update_delay_seconds = 0.0
        # Observers of applied waves (rollout shadow arms): each callable
        # receives the very object this backend's apply_wave was handed,
        # after it has been applied.
        self.wave_listeners: list = []
        self._m_delay = self.metrics.histogram("serving.update_delay_seconds", LATENCY_BUCKETS_SECONDS)
        self._m_update_latency = self.metrics.histogram(
            "serving.update_latency_seconds", LATENCY_BUCKETS_SECONDS
        )
        self._m_wave_size = self.metrics.histogram("stream.wave_size", SIZE_BUCKETS)
        self.metrics.view("serving.update_delay_seconds_total", "counter", lambda: self.update_delay_seconds)
        self.metrics.view("backend.predictions_served", "counter", lambda: self.predictions_served)
        self.metrics.view("backend.updates_applied", "counter", lambda: self.updates_applied)

    def observe_session(self, user_id: int, context: dict[str, float], timestamp: int, accessed: bool) -> None:
        """Hand the closed session to the stream; its update fires after the window closes."""
        stream = self.stream
        if timestamp < stream.clock:
            # ``publish``'s own refusal, made before anything is recorded —
            # the lane publishes nothing that would make it.
            raise ValueError(f"event at {timestamp} is earlier than the stream clock {stream.clock}")
        fire_at = timestamp + self.session_length + self.extra_lag
        if self.tracer.pending_sessions:
            self.tracer.session_published(user_id, timestamp, fire_at)
        if self._timer_group is not None:
            self._timer_group.set_timer(fire_at, user_id, (user_id, timestamp, context, bool(accessed)))
            return
        key = f"session:{user_id}:{timestamp}:{next(self._session_seq)}"
        stream.publish(
            StreamEvent(topic="context", key=key, timestamp=timestamp, payload={"user_id": user_id, "context": context})
        )
        stream.publish(
            StreamEvent(topic="access", key=key, timestamp=timestamp, payload={"accessed": bool(accessed)})
        )
        stream.set_timer(
            fire_at,
            key,
            lambda _key, events, u=user_id, t=timestamp, f=fire_at: self._on_timer(u, t, f, events),
        )

    @staticmethod
    def _session_update(user_id: int, timestamp: int, events: list[StreamEvent]) -> SessionUpdate:
        """Join a session's buffered stream events into one observation."""
        context: dict[str, float] = {}
        accessed = False
        for event in events:
            if event.topic == "context":
                context = event.payload["context"]
            elif event.topic == "access":
                accessed = accessed or bool(event.payload["accessed"])
        return SessionUpdate(user_id, timestamp, context, accessed)

    def _on_timer(self, user_id: int, timestamp: int, fire_at: int, events: list[StreamEvent]) -> None:
        """Plain-timer callback: the reference join, delivered as a wave of one."""
        self._deliver([fire_at], SessionWave.of([self._session_update(user_id, timestamp, events)]))

    def _on_wave(self, fire_ats: list[int], _keys: list, rows: list[tuple]) -> None:
        """Group callback: one stream wave of session rows, one batched apply."""
        self._deliver(fire_ats, SessionWave(*zip(*rows)))

    def _deliver(self, fire_ats: list[int], wave: SessionWave) -> None:
        """Meter, stamp and apply one delivery (a wave, or a single plain timer).

        At delivery the stream clock sits at the wave's last fire time — a
        coalescing window delays plain timers too — so ``clock - fire_at``
        is exactly how long each update waited for the window to close (0
        under same-second delivery).  The end-to-end latency histogram is
        only populated when a server model is attached: without one it
        would duplicate the delay histogram observation for observation on
        the update hot path (the admission controller falls back to the
        delay histogram in that case, which carries the identical values).
        ``apply_wave`` is looked up on the instance: it is the backend's
        public wave entry point, so whatever wraps it (a span recorder, a
        test double) sees stream-fired waves too.
        """
        clock = self.stream.clock
        delays = [float(clock - fire_at) for fire_at in fire_ats]
        self._m_delay.observe_many(delays)
        if self.server is not None:
            lag = self.server.backlog_seconds(clock)
            self._m_update_latency.observe_many([delay + lag for delay in delays])
        self.update_delay_seconds += float(sum(delays))
        self._m_wave_size.observe(len(delays))
        traced = self.tracer.enabled
        if traced:
            self.tracer.begin_wave(wave.user_ids, wave.timestamps, fire_ats, clock)
        self.apply_wave(wave)
        if traced:
            self.tracer.end_wave()


class BatchedHiddenStateBackend(SessionStreamMixin):
    """Vectorized hidden-state dataflow: fetch B states, one batched forward.

    Each request still pays one KV fetch for its user's state record (that is
    the real per-request serving cost and is preserved exactly), but gap
    bucketing, context encoding, input assembly and the MLP head all run once
    over the stacked ``[B, ·]`` matrices via the eval-time NumPy kernels.

    Construction freezes the network (``eval()``): serving deploys trained
    weights, and a training-mode network would make served probabilities
    stochastic through dropout.

    With ``coalesce_updates`` (the default) session-end timers register in a
    stream :class:`~repro.serving.stream.TimerGroup`: all updates whose
    windows close in the same wave arrive together and run as one batched
    GRU step per block of at most :data:`UPDATE_BLOCK_ROWS` rows.  The
    update kernels are batch-size invariant, so this is bit-identical to
    the per-timer path (``coalesce_updates=False``), which is kept as the
    seed-semantics baseline for the equivalence suites.

    State lives in a contiguous :class:`~repro.serving.arena.StateArena`
    slab the store hosts (per shard on a pool): construction attaches the
    backend's :class:`~repro.serving.arena.ArenaSpec`, and every wave —
    one row or 64 — moves its states with one
    :meth:`~repro.serving.kvstore.KeyValueStore.gather_states` and one
    :meth:`~repro.serving.kvstore.KeyValueStore.scatter_states`, metered
    exactly like one ``get`` and one ``put`` of a state record per key.
    """

    STATE_PREFIX = "hidden:"

    def __init__(
        self,
        network: RNNPrecomputeNetwork,
        builder: SequenceBuilder,
        store,
        stream: StreamProcessor,
        session_length: int,
        *,
        quantize: bool = False,
        extra_lag: int = 60,
        coalesce_updates: bool = True,
        registry: MetricsRegistry | None = None,
        server=None,
        tracer=None,
    ) -> None:
        network.eval()
        self.network = network
        self.builder = builder
        self.store = store
        self.session_length = session_length
        self.quantize = quantize
        self.extra_lag = extra_lag
        store.attach_state_arena(
            ArenaSpec(prefix=self.STATE_PREFIX, state_size=network.state_size, quantized=quantize)
        )
        self._init_session_delivery(
            stream, coalesce_updates, registry=registry, server=server, tracer=tracer
        )
        self._context_fields = tuple(builder.schema.names())
        self._prediction_fields = self._context_fields if network.config.predict_uses_context else ()
        self.predictions_served = 0
        self.updates_applied = 0

    # ------------------------------------------------------------------
    # State waves
    # ------------------------------------------------------------------
    def _state_keys(self, user_ids) -> list[str]:
        """Store keys for a wave's users — built once per wave and shared by
        its gather and its scatter."""
        prefix = self.STATE_PREFIX
        return [f"{prefix}{user_id}" for user_id in user_ids]

    def _fetch_states(
        self, keys: list[str], timestamps: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """Load one wave of states: ``(float64 states, elapsed seconds, bytes)``.

        ``elapsed`` is ``max(timestamp - last update, 0)`` per row (0 for
        users with no stored state) — the gap/delta input both the predict
        and update paths bucket, and all they do with it.  The whole wave is
        one store gather, whose missing rows carry a last update so late
        that ``max(timestamp, last) - last`` is 0 without a mask, and
        ``elapsed`` stays the exact int64 difference (:func:`log_bucket`
        rounds it to float64 once).
        """
        states, last_timestamps, fetched = self.store.gather_states(keys)
        return states, np.maximum(timestamps, last_timestamps) - last_timestamps, fetched.tolist()

    # ------------------------------------------------------------------
    # Prediction hot path
    # ------------------------------------------------------------------
    def predict_inputs(self, contexts: list, timestamps: np.ndarray, gaps: np.ndarray) -> np.ndarray:
        """``RNN_predict`` input rows from raw request data.

        Bucket the gaps since each user's last update, encode the contexts
        (when the network reads them at prediction time) and assemble — the
        one spelling of that sequence, shared with the predictive
        autoscaler's forecast.
        """
        config = self.network.config
        gap_buckets = log_bucket(gaps, n_buckets=config.n_delta_buckets)
        if config.predict_uses_context:
            features = self.builder.encode_context_rows(contexts, timestamps)
        else:
            features = None
        return self.network.build_predict_inputs(features, gap_buckets)

    def predict_batch(self, requests: list[ServingRequest]) -> list[ServingPrediction]:
        if not requests:
            return []
        user_ids, contexts, stamps = zip(*requests)
        timestamps = np.asarray(stamps, dtype=np.int64)
        states, gaps, fetched = self._fetch_states(self._state_keys(user_ids), timestamps)
        inputs = self.predict_inputs(contexts, timestamps, gaps)
        probabilities = self.network.predict_proba_batch(states, inputs).tolist()
        self.predictions_served += len(requests)
        return list(map(ServingPrediction, user_ids, stamps, probabilities, itertools.repeat(1), fetched))

    # ------------------------------------------------------------------
    # Session-end updates
    # ------------------------------------------------------------------
    def apply_wave(self, updates: SessionWave | list[SessionUpdate]) -> None:
        """Run the GRU update for a wave of closed sessions.

        The wave runs as consecutive row blocks of at most
        :data:`UPDATE_BLOCK_ROWS`, each a whole update in turn, so the
        largest update call — and the lane's transient memory — is one
        block whatever the wave's length.  Blocks keep delivery order, so
        each user's updates keep theirs, and the update kernels are
        batch-size invariant, so the split is invisible in every stored
        state; stores still see one write per update, new keys first
        written in the wave's order.  A wave at or under the block size is
        one block.  Listeners are handed the object this call was,
        untouched.
        """
        if not updates:
            return
        wave = SessionWave.of(updates)
        user_ids, timestamps, contexts, accessed = wave.user_ids, wave.timestamps, wave.contexts, wave.accessed
        for start in range(0, len(user_ids), UPDATE_BLOCK_ROWS):
            block = slice(start, start + UPDATE_BLOCK_ROWS)
            self._apply_block(user_ids[block], timestamps[block], contexts[block], accessed[block])
        for listener in self.wave_listeners:
            listener(updates)

    def _apply_block(self, user_ids, stamps, contexts, accessed) -> None:
        """One block of a wave, as columns.

        Updates to the *same* user are state-dependent, so the block is
        processed in sub-waves of distinct users; each is one vectorized
        ``RNN_update`` step.  Context encoding depends only on the update
        itself (not on stored state), so it runs once over the block and
        each sub-wave slices its rows — the row values are exact, so this
        changes nothing observable.  A block whose users are already
        distinct (the common case) is its own single sub-wave and is
        stepped as it stands, without the row copies.
        """
        timestamps = np.asarray(stamps, dtype=np.int64)
        features = self.builder.encode_context_rows(contexts, timestamps)
        accesses = np.asarray(accessed, dtype=np.float64)
        if len(set(user_ids)) == len(user_ids):
            self._apply_distinct_users(user_ids, timestamps, features, accesses)
            return
        pending = list(range(len(user_ids)))
        while pending:
            rows: list[int] = []
            held: list[int] = []
            seen: set[int] = set()
            for index in pending:
                if user_ids[index] in seen:
                    held.append(index)
                else:
                    seen.add(user_ids[index])
                    rows.append(index)
            self._apply_distinct_users(
                [user_ids[index] for index in rows], timestamps[rows], features[rows], accesses[rows]
            )
            pending = held

    def _apply_distinct_users(
        self, user_ids, timestamps: np.ndarray, features: np.ndarray, accesses: np.ndarray
    ) -> None:
        keys = self._state_keys(user_ids)
        states, deltas, _ = self._fetch_states(keys, timestamps)
        delta_buckets = log_bucket(deltas, n_buckets=self.network.config.n_delta_buckets)
        update_inputs = self.network.build_update_inputs(features, accesses, delta_buckets)
        new_states = self.network.update_hidden_batch(states, update_inputs)
        self.store.scatter_states(keys, new_states, timestamps)
        self.updates_applied += len(keys)

    # ------------------------------------------------------------------
    @property
    def storage_bytes(self) -> int:
        return self.store.bytes_for_prefix(self.STATE_PREFIX)


class BatchedAggregationBackend(SessionStreamMixin):
    """Vectorized traditional dataflow: one metered history fetch per request,
    then one flat history batch, one featurizer call and one batched GBDT
    call per micro-batch.

    Feature state is inherently per-user (the ≈20 aggregation-group fetches
    per request are the dominant cost and are preserved exactly), but the
    fetched ``agg:`` records are flattened together into one
    :class:`~repro.data.schema.HistoryBatch` — one array per column, with
    ``UserLog``'s refusals checked once over it — and featurization — every
    window count, recency and elapsed bucket of every fetched log — is one
    ``featurizer.transform_user`` call over the whole micro-batch, and the
    estimator call — tree traversals or the logistic dot product — runs once
    over the resulting ``[B, n_features]`` matrix.

    Session-end history writes travel the hidden path's stream: the write
    lands at window close, as part of a timer wave (``coalesce_updates=True``)
    or one timer at a time.  Either way each update pays one history fetch
    and one write, so wave delivery is bit-identical to per-timer delivery in
    every observable.
    """

    CONTEXTLESS_PREDICTIONS = True

    def __init__(
        self,
        featurizer: TabularFeaturizer,
        estimator,
        schema: ContextSchema,
        store,
        stream: StreamProcessor,
        session_length: int,
        *,
        history_window: int = 28 * 86400,
        extra_lag: int = 60,
        coalesce_updates: bool = True,
        registry: MetricsRegistry | None = None,
        server=None,
        tracer=None,
    ) -> None:
        self.featurizer = featurizer
        self.estimator = estimator
        self.schema = schema
        self._context_fields = self._prediction_fields = tuple(schema.names())
        self.store = store
        self.history_window = history_window
        self.session_length = session_length
        self.extra_lag = extra_lag
        self._init_session_delivery(
            stream, coalesce_updates, registry=registry, server=server, tracer=tracer
        )
        self.predictions_served = 0
        self.updates_applied = 0
        self._lookups = featurizer.n_lookup_groups
        # Timestamp + access flag + context values, stored once per
        # aggregation group the serving system maintains.
        self._event_bytes = (8 + 1 + 8 * len(schema)) * max(1, self._lookups // 2)

    # ------------------------------------------------------------------
    def _history_key(self, user_id: int) -> str:
        return f"agg:{user_id}"

    def _entry_bytes(self, n_events: int) -> int:
        return n_events * self._event_bytes

    def _load_history(self, user_id: int) -> tuple[dict, int]:
        record = self.store.get(self._history_key(user_id))
        if record is None:
            record = {
                "timestamps": [],
                "accesses": [],
                "context": {name: [] for name in self.schema.names()},
            }
            return record, 0
        return record, self._entry_bytes(len(record["timestamps"]))

    def _save_history(self, user_id: int, record: dict) -> None:
        self.store.put(
            self._history_key(user_id), record, size_bytes=self._entry_bytes(len(record["timestamps"]))
        )

    # ------------------------------------------------------------------
    def predict_batch(self, requests: list[ServingRequest]) -> list[ServingPrediction]:
        if not requests:
            return []
        user_ids, contexts, stamps = zip(*requests)
        lookups = self._lookups
        floor = lookups * 16
        fetched: list[int] = []
        records: list[dict] = []
        for user_id in user_ids:
            record, size = self._load_history(user_id)
            fetched.append(max(size, floor))
            records.append(record)
        # Row i reads record i: a user twice in one batch is two fetched logs,
        # flattened with the rest into one set of columns.
        features = self.featurizer.transform_user(
            HistoryBatch.of_records(records, self._context_fields),
            np.arange(len(requests)),
            stamps,
            *context_columns(contexts, self._context_fields),
        )
        probabilities = np.asarray(self.estimator.predict_proba(features)).reshape(-1).tolist()
        self.predictions_served += len(requests)
        return list(map(ServingPrediction, user_ids, stamps, probabilities, itertools.repeat(lookups), fetched))

    # ------------------------------------------------------------------
    def apply_wave(self, updates: SessionWave | list[SessionUpdate]) -> None:
        """Apply a wave of session-end history writes in delivery order.

        Each update is one read-modify-write of its user's rolling history —
        the same KV traffic the per-timer path pays, so delivery batching
        stays invisible to the meters; the wave only amortises the Python
        round-trip from the stream into the backend.  Same-user updates inside
        a wave apply in order, so the stored history is identical to applying
        them one at a time.
        """
        wave = SessionWave.of(updates)
        names = self.schema.names()
        for user_id, timestamp, context, accessed in zip(
            wave.user_ids, wave.timestamps, wave.contexts, wave.accessed
        ):
            record, _ = self._load_history(user_id)
            record["timestamps"].append(int(timestamp))
            record["accesses"].append(int(bool(accessed)))
            for name in names:
                record["context"][name].append(context[name])
            # Evict the leading run of events older than the longest
            # aggregation window, one slice deletion per column.
            cutoff = timestamp - self.history_window
            stamps = record["timestamps"]
            stale = 0
            while stale < len(stamps) and stamps[stale] < cutoff:
                stale += 1
            del stamps[:stale]
            del record["accesses"][:stale]
            for name in names:
                del record["context"][name][:stale]
            self._save_history(user_id, record)
        self.updates_applied += len(wave)
        for listener in self.wave_listeners:
            listener(updates)

    # ------------------------------------------------------------------
    @property
    def storage_bytes(self) -> int:
        return self.store.bytes_for_prefix("agg:")


class MicroBatchQueue:
    """Request queue that coalesces predictions into backend micro-batches.

    ``submit`` enqueues a request; ``flush`` forces the pending batch through
    the backend.  :meth:`advance_to` on the shared :class:`StreamProcessor`
    is the clock gate: it flushes the queue *before* letting the stream fire
    timers due at or before the new time, so a queued request can never
    observe a session-end update that logically happens after it.  This is what makes batched results independent of the batch
    size.

    **Delivery is a drained cursor.**  Every completed prediction is handed
    out exactly once, in submission order: whatever a public call returns is
    *delivered* and will never reappear, and :meth:`drain_completed` yields
    only the results no call delivered (correctness flushes triggered by
    stream barriers, which have no caller to return to).  A replay that
    concatenates the returns of ``submit`` / ``advance_to`` / ``flush`` with
    a final ``drain_completed`` therefore sees each prediction once, with no
    bookkeeping about which flush completed what.

    **Telemetry and overload.**  With a registry attached the queue meters
    its depth (``queue.depth`` gauge), the scored batch-size distribution
    (``queue.batch_size``), per-request time-in-system
    (``queue.latency_seconds`` — simulated seconds from submission to the
    batch's completion, which includes the
    :class:`~repro.serving.slo.ServerModel` service time and backlog when
    one is attached) and the attribute counters, read in place.  An
    :class:`~repro.serving.slo.AdmissionController` guards ``submit``: shed
    requests are never enqueued, deferred requests park in arrival order and
    re-enter through :meth:`advance_to` once the policy clears (or all at
    once via :meth:`drain_deferred` at end of replay).  Without a
    controller, behaviour is unchanged down to the bit.
    """

    def __init__(
        self,
        backend,
        *,
        max_batch_size: int = 32,
        stream: StreamProcessor,
        registry: MetricsRegistry | None = None,
        server=None,
        admission: AdmissionController | None = None,
        tracer=None,
    ) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.backend = backend
        self.max_batch_size = max_batch_size
        self.stream = stream
        self.metrics = registry if registry is not None else NULL_REGISTRY
        self._metered = self.metrics.enabled
        self.server = server
        self.admission = admission
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Whoever advances the clock — this queue or the stream driven
        # directly — queued requests are scored before timers fire.
        self._barrier_handle: int | None = stream.register_barrier(self._barrier_flush)
        self._queue: list[ServingRequest] = []
        self._deferred: list[ServingRequest] = []
        self._undelivered: list[ServingPrediction] = []
        self.requests_submitted = 0
        self.batches_flushed = 0
        self._requests_flushed = 0
        self._peak_pending = 0
        # The registry reads the counters and the depth in place (no
        # hot-path cost); the distribution instruments have to stream.
        self.metrics.view("queue.requests_submitted", "counter", lambda: self.requests_submitted)
        self.metrics.view("queue.batches_flushed", "counter", lambda: self.batches_flushed)
        self.metrics.view("queue.depth", "gauge", lambda: len(self._queue), lambda: self._peak_pending)
        self._m_batch_size = self.metrics.histogram("queue.batch_size", SIZE_BUCKETS)
        self._m_latency = self.metrics.histogram("queue.latency_seconds", LATENCY_BUCKETS_SECONDS)

    # ------------------------------------------------------------------
    # Scoring and the delivery cursor.
    # ------------------------------------------------------------------
    def _score_pending(self) -> None:
        """Score the pending batch and append the results to the cursor."""
        if not self._queue:
            return
        batch, self._queue = self._queue, []
        traced = self.tracer.enabled
        if self.server is not None or self._metered or traced:
            # The batch is scored "now": the latest of its request stamps
            # and the stream clock.  With a server model attached,
            # completion runs past that by the service time plus any
            # standing backlog — the per-request latency an overloaded
            # pipeline accumulates.  The tracer only *reads* these values:
            # when it alone triggers this branch there is no server, so
            # computing them is pure.
            _, _, stamps = zip(*batch)
            reference = float(max(stamps))
            if self.stream.clock > reference:
                reference = float(self.stream.clock)
            completion = self.server.process(len(batch), reference) if self.server is not None else reference
            if self._metered:
                self._m_latency.observe_many(completion - stamp for stamp in stamps)
            if traced:
                self.tracer.begin_predict(batch, reference, completion)
        predictions = self.backend.predict_batch(batch)
        if traced:
            self.tracer.end_predict(batch, predictions)
        self.batches_flushed += 1
        self._requests_flushed += len(batch)
        self._m_batch_size.observe(len(batch))
        self._undelivered.extend(predictions)

    def _barrier_flush(self) -> None:
        """Stream-barrier flush: no caller, so the results stay undelivered."""
        self._score_pending()

    def _deliver(self) -> list[ServingPrediction]:
        delivered, self._undelivered = self._undelivered, []
        return delivered

    # ------------------------------------------------------------------
    def submit(self, user_id: int, context: dict[str, float] | None, timestamp: int) -> list[ServingPrediction]:
        """Queue one request; delivers any predictions a flush completed.

        The timer barrier is enforced here too, not just in ``advance_to``: a
        request stamped at or past a due timer first flushes the earlier
        requests (they must score pre-update) and fires the due timers, so
        batch-size invariance holds regardless of whether the caller advances
        the clock before or after submitting.

        This makes predictions part of the stream's monotone timeline: a
        request stamped past due timers *advances the shared clock*, so a
        later ``observe_session`` stamped earlier will be rejected by the
        stream, exactly as if the caller had advanced the clock themselves.
        Replay in global time order (every harness in this repo does).

        An attached :class:`~repro.serving.slo.AdmissionController` is
        consulted *after* the due-timer barrier (the clock advances whether
        or not the request gets in) and *before* enqueueing: a shed request
        is dropped, a deferred one parks for re-admission.
        """
        delivered: list[ServingPrediction] = []
        due = self.stream.next_timer_at
        if due is not None and timestamp >= due:
            delivered += self.flush()
            self.stream.advance_to(timestamp)
        request = ServingRequest(user_id, context, timestamp)
        if self.admission is not None:
            # Parked requests re-enter ahead of newly offered ones: if any
            # remain parked after this, the depth they occupy makes the
            # admission check below park the new request behind them, so
            # deferred traffic drains strictly in arrival order.
            delivered += self._readmit_deferred(timestamp)
            admitted = self.admission.admit(timestamp, self)
            if not admitted and self.pending:
                # Pressure flush: when the depth violation is dominated by
                # an unfilled micro-batch, score the partial batch (what a
                # real engine's batch timeout does under load) and re-ask
                # before giving anything up.
                delivered += self.flush()
                admitted = self.admission.readmit(timestamp, self)
            if not admitted:
                decision = "defer" if self.admission.mode == "defer" else "shed"
                if self.tracer.enabled:
                    # The violation list is a pure read of queue depth and
                    # registry quantiles — recorded so the trace says *why*
                    # the request was turned away.
                    self.tracer.admission_event(
                        decision, timestamp,
                        user_id=user_id,
                        reasons="; ".join(self.admission.violations(timestamp, self)),
                    )
                if decision == "defer":
                    self._deferred.append(request)
                    self.admission.record_deferred()
                else:
                    self.admission.record_shed()
                return delivered
        delivered += self._enqueue(request)
        return delivered

    def _enqueue(self, request: ServingRequest) -> list[ServingPrediction]:
        """Append one admitted request; flush if the batch filled."""
        if self.tracer.enabled:
            # Root-span registration point: every admitted request passes
            # through here exactly once (deferred ones on re-admission, with
            # their original timestamp — the queue wait covers the parked
            # time too).
            self.tracer.request_enqueued(request)
        self._queue.append(request)
        self.requests_submitted += 1
        depth = len(self._queue)
        if depth > self._peak_pending:
            self._peak_pending = depth
        if depth >= self.max_batch_size:
            return self.flush()
        return []

    def flush(self) -> list[ServingPrediction]:
        """Score the pending batch and deliver every undelivered result.

        The return value is the delivery: a prediction returned here never
        reappears in :meth:`drain_completed` (or any later call).  Results a
        stream barrier completed earlier ride along, keeping the delivery in
        submission order.
        """
        self._score_pending()
        return self._deliver()

    def drain_completed(self) -> list[ServingPrediction]:
        """Deliver the predictions no caller has collected yet, in submission order.

        Correctness flushes triggered by stream barriers (a caller driving
        the :class:`StreamProcessor` directly) complete requests with no
        caller to return to; this is where those results surface — exactly
        once.
        """
        return self._deliver()

    def predict(self, user_id: int, context: dict[str, float] | None, timestamp: int) -> ServingPrediction:
        """Single-request convenience: queue, force a flush, return this result.

        Only this request's result is delivered to the caller — predictions
        that earlier ``submit`` calls queued and this flush completed go back
        to the cursor for ``drain_completed``.
        """
        deferred_before = 0 if self.admission is None else self.admission.requests_deferred
        shed_before = 0 if self.admission is None else (
            self.admission.requests_shed + self.admission.requests_deferred
        )
        delivered = self.submit(user_id, context, timestamp)
        if self.admission is not None and (
            self.admission.requests_shed + self.admission.requests_deferred > shed_before
        ):
            # The single-request convenience has a caller waiting on *this*
            # result; silently returning someone else's would corrupt the
            # cursor, so a rejected predict is a hard error.  A defer-mode
            # rejection parked the request — retract it, or it would later
            # re-admit and deliver an orphan prediction nobody submitted
            # (the deferral meter keeps the attempt; counters are monotone).
            if self.admission.requests_deferred > deferred_before:
                self._deferred.pop()
            if delivered:
                self._undelivered[:0] = delivered
            raise RuntimeError("predict() request rejected by admission control")
        if self.pending:
            delivered += self.flush()
        # This request is the newest, so its result is the last delivered
        # (flushes preserve submission order); re-retain the earlier ones.
        *earlier, own = delivered
        if earlier:
            self._undelivered[:0] = earlier
        return own

    # ------------------------------------------------------------------
    def advance_to(self, timestamp: int) -> list[ServingPrediction]:
        """Advance the stream clock, flushing first if a timer would fire.

        Delivers the predictions completed by the flush (empty when no timer
        was due).  Deferred requests re-enter here first, in arrival order,
        for as long as the admission policy stays clear — a clock advance is
        the signal that pressure may have drained.
        """
        delivered: list[ServingPrediction] = []
        if self.admission is not None:
            delivered += self._readmit_deferred(timestamp)
        due = self.stream.next_timer_at
        if due is not None and due <= timestamp:
            delivered += self.flush()
        self.stream.advance_to(timestamp)
        return delivered

    def _readmit_deferred(self, timestamp: int) -> list[ServingPrediction]:
        """Re-enter parked requests, oldest first, while the policy holds."""
        delivered: list[ServingPrediction] = []
        while self._deferred and self.admission.readmit(timestamp, self):
            delivered += self._enqueue(self._deferred.pop(0))
        return delivered

    def drain_deferred(self) -> list[ServingPrediction]:
        """Force-admit every parked request and flush — the end-of-replay
        drain, when the caller is explicitly emptying the pipeline and no
        further pressure is coming.  No-op without deferred requests."""
        if not self._deferred:
            return []
        delivered: list[ServingPrediction] = []
        while self._deferred:
            delivered += self._enqueue(self._deferred.pop(0))
        delivered += self.flush()
        return delivered

    def detach(self) -> None:
        """Deregister this queue's stream barrier.

        Call when retiring a queue while its stream lives on (e.g. replacing
        the engine between replays): otherwise the dead queue's barrier keeps
        firing on every wave.  Safe to call more than once.
        """
        if self._barrier_handle is not None:
            self.stream.deregister_barrier(self._barrier_handle)
            self._barrier_handle = None

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def undelivered(self) -> int:
        """Completed predictions awaiting ``drain_completed``."""
        return len(self._undelivered)

    @property
    def deferred(self) -> int:
        """Requests parked by a defer-mode admission controller."""
        return len(self._deferred)

    @property
    def mean_batch_size(self) -> float:
        if not self.batches_flushed:
            return 0.0
        return self._requests_flushed / self.batches_flushed

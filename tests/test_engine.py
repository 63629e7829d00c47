"""ServingEngine facade: config round-trips, lifecycle, and the bit-identity pin.

The facade is only admissible if it is *pure assembly*: a pipeline built
from an :class:`~repro.serving.EngineConfig` must be bit-identical to the
hand-wired PR-2 composition (same probabilities, precompute decisions, KV
traffic and stored state) at every batch size, and the new wave-delivered
aggregation updates must be bit-identical to the per-timer path.  The
hand-wired references below construct queue + backend + store + stream
directly, so facade drift cannot hide behind shared construction code.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import FixedThresholdPolicy
from repro.data import make_dataset, sessions_in_time_order, user_split
from repro.experiments import ManifestError, load_manifest
from repro.experiments.runner import validate_engine_block
from repro.models import GBDTModel, RNNModel, RNNModelConfig, TaskSpec
from repro.serving import (
    Backend,
    BatchedAggregationBackend,
    BatchedHiddenStateBackend,
    EngineConfig,
    KeyValueStore,
    MicroBatchQueue,
    ServingEngine,
    SessionStreamMixin,
    SessionUpdate,
    SessionWave,
    ShardedKeyValueStore,
    StreamProcessor,
)

from test_kernel_spellings import ParentFeaturizer, _parent_rows, as_user_log

BATCH_SIZES = (1, 7, 64)


@pytest.fixture(scope="module")
def trained():
    dataset = make_dataset("mobiletab", seed=29, n_users=28, n_days=10)
    split = user_split(dataset, test_fraction=0.3, seed=0)
    task = TaskSpec(kind="session", rnn_loss_days=6)
    rnn = RNNModel(
        RNNModelConfig(hidden_size=12, mlp_hidden=12, epochs=1, early_stopping_patience=None, seed=0)
    ).fit(split.train, task)
    gbdt = GBDTModel(depths=(2,)).fit(split.train, task)
    events = [
        (int(timestamp), user.user_id, user.context_row(index), bool(user.accesses[index]))
        for timestamp, user, index in sessions_in_time_order(split.test.users)
    ]
    return dataset, rnn, gbdt, events


class TestEngineConfig:
    def test_round_trips_through_dict_and_json(self):
        config = EngineConfig(
            backend="hidden_state",
            max_batch_size=16,
            coalescing_window=30,
            n_shards=5,
            quantize=True,
            session_length=1200,
            extra_lag=90,
            store_name="pinned",
        )
        assert EngineConfig.from_dict(config.to_dict()) == config
        # Declarative means serializable: the dict must survive JSON.
        assert EngineConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
        aggregation = EngineConfig(backend="aggregation", session_length=600)
        assert EngineConfig.from_dict(aggregation.to_dict()) == aggregation
        lifecycle = EngineConfig(
            backend="hidden_state",
            session_length=600,
            model="v1",
            rollout={
                "candidate": "v2",
                "stages": [[100, 5], [200, 50], [300, 100]],
                "gates": {"max_divergence": 0.01, "max_shed_rate": 0.0},
            },
        )
        revived = EngineConfig.from_dict(json.loads(json.dumps(lifecycle.to_dict())))
        assert revived == lifecycle
        # Canonicalization is part of the contract: JSON lists come back as
        # the same stage tuples the validator produced.
        assert revived.rollout["stages"] == ((100, 5), (200, 50), (300, 100))

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown EngineConfig fields"):
            EngineConfig.from_dict({"backend": "aggregation", "batch": 4})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "gbdt"},
            {"backend": "aggregation", "max_batch_size": 0},
            {"backend": "aggregation", "coalescing_window": -1},
            {"backend": "aggregation", "n_shards": 0},
            {"backend": "aggregation", "history_window": 0},
            {"backend": "aggregation", "session_length": -5},
            {"backend": "hidden_state"},  # no session_length
            {"backend": "hidden_state", "session_length": 600, "extra_lag": -1},
            {"backend": "aggregation", "session_length": 600, "quantize": True},
            {"backend": "aggregation"},  # no session_length
            # defer_updates is retired, on both backends.
            {"backend": "hidden_state", "session_length": 600, "defer_updates": False},
            {"backend": "aggregation", "session_length": 600, "defer_updates": False},
            # Model lifecycle: contradictions and malformed rollout blocks.
            {"backend": "aggregation", "session_length": 600, "model": "v1"},
            {"backend": "hidden_state", "session_length": 600, "model": ""},
            {"backend": "hidden_state", "session_length": 600,
             "rollout": {"candidate": "v2", "stages": ((10, 100),), "gates": {}}},  # no model
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": ((10, 100),), "gates": "strict"}},
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v1", "stages": ((10, 100),), "gates": {}}},
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"stages": ((10, 100),), "gates": {}}},  # no candidate
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "gates": {}}},  # no stages
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": (), "gates": {}}},
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": ((20, 5), (10, 50)), "gates": {}}},
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": ((10, 50), (20, 5)), "gates": {}}},
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": ((10, 0),), "gates": {}}},
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": ((10, 101),), "gates": {}}},
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": ((10, True),), "gates": {}}},
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": ((10, 100),), "ramp": "fast"}},
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": ((10, 100),),
                         "gates": {"max_latency": 1.0}}},  # unknown gate
            {"backend": "hidden_state", "session_length": 600, "model": "v1",
             "rollout": {"candidate": "v2", "stages": ((10, 100),),
                         "gates": {"max_divergence": -0.1}}},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("quantize", "false"),
            ("max_batch_size", 2.5),
            ("max_batch_size", True),
            ("n_shards", True),
            ("coalescing_window", float("nan")),
            ("session_length", float("inf")),
            ("extra_lag", "soon"),
            ("store_name", 7),
        ],
    )
    def test_direct_construction_is_as_strict_as_a_manifest(self, field, value):
        # One schema: a wrong-typed or non-finite scalar is rejected by the
        # same per-field check whether it arrives as a keyword or in a
        # manifest's "engine" block.
        with pytest.raises(ValueError, match=f"{field}: expected"):
            EngineConfig(**{"backend": "hidden_state", "session_length": 600, field: value})
        with pytest.raises(ManifestError, match=f"{field}: expected"):
            validate_engine_block({field: value})
        with pytest.raises(ManifestError, match=field):
            load_manifest({"experiments": [{"id": "batched_serving", "engine": {field: value}}]})


class TestBackendProtocol:
    def test_both_backends_satisfy_the_protocol(self, trained):
        dataset, rnn, gbdt, _ = trained
        hidden = BatchedHiddenStateBackend(
            rnn.network, rnn.builder, KeyValueStore(), StreamProcessor(), dataset.session_length
        )
        aggregation = BatchedAggregationBackend(
            gbdt.featurizer, gbdt.estimator, dataset.schema, KeyValueStore(), StreamProcessor(), dataset.session_length
        )
        assert isinstance(hidden, Backend)
        assert isinstance(aggregation, Backend)

    def test_non_backends_do_not(self):
        class NotABackend:
            def predict_batch(self, requests):
                return []

        assert not isinstance(NotABackend(), Backend)


class TestEngineLifecycle:
    def _hidden_engine(self, trained, **overrides):
        dataset, rnn, _, _ = trained
        kwargs = dict(backend="hidden_state", max_batch_size=8, session_length=dataset.session_length)
        kwargs.update(overrides)
        return ServingEngine.build(EngineConfig(**kwargs), network=rnn.network, builder=rnn.builder)

    def test_build_requires_the_backend_model_parts(self, trained):
        dataset, rnn, gbdt, _ = trained
        with pytest.raises(ValueError, match="network= and builder="):
            ServingEngine.build(EngineConfig(backend="hidden_state", session_length=600))
        with pytest.raises(ValueError, match="featurizer=, estimator= and schema="):
            ServingEngine.build(EngineConfig(backend="aggregation", session_length=600), featurizer=gbdt.featurizer)
        # The store and stream always come from the config, never the caller.
        for injected in ("store", "stream"):
            with pytest.raises(TypeError, match=injected):
                ServingEngine.build(
                    EngineConfig(backend="hidden_state", session_length=600),
                    network=rnn.network,
                    builder=rnn.builder,
                    **{injected: None},
                )

    def test_double_close_is_idempotent_and_submit_after_close_raises(self, trained):
        _, _, _, events = trained
        engine = self._hidden_engine(trained)
        timestamp, user_id, context, accessed = events[0]
        engine.submit(user_id, context, timestamp)
        flushed = engine.flush()
        assert len(flushed) == 1
        engine.close()
        engine.close()  # idempotent
        assert engine.closed
        for call in (
            lambda: engine.submit(user_id, context, timestamp + 1),
            lambda: engine.predict(user_id, context, timestamp + 1),
            lambda: engine.observe_session(user_id, context, timestamp + 1, accessed),
            lambda: engine.advance_to(timestamp + 1),
            lambda: engine.flush(),
            lambda: engine.serve(events[:1]),
            lambda: engine.replay(events[:1]),
        ):
            with pytest.raises(RuntimeError, match="closed ServingEngine"):
                call()

    def test_results_completed_before_close_still_drain(self, trained):
        _, _, _, events = trained
        engine = self._hidden_engine(trained)
        timestamp, user_id, context, accessed = events[0]
        engine.advance_to(timestamp)
        engine.submit(user_id, context, timestamp)
        engine.observe_session(user_id, context, timestamp, accessed)
        # A direct stream flush completes the request via the barrier (no
        # caller): the result sits on the drained cursor through close().
        engine.stream.flush()
        engine.close()
        drained = engine.drain_completed()
        assert [(p.user_id, p.timestamp) for p in drained] == [(user_id, timestamp)]
        assert engine.drain_completed() == []

    def test_close_detaches_the_stream_barrier(self, trained):
        _, _, _, events = trained
        engine = self._hidden_engine(trained)
        timestamp, user_id, context, _ = events[0]
        engine.submit(user_id, context, timestamp)
        engine.close()
        # A retired engine's barrier must not score its pending request
        # behind the caller's back when the shared stream lives on.
        engine.stream.set_timer(timestamp + 10, "t", lambda key, buffered: None)
        engine.stream.advance_to(timestamp + 10)
        assert engine.pending == 1

    def test_context_manager_closes(self, trained):
        with self._hidden_engine(trained) as engine:
            assert not engine.closed
        assert engine.closed

    def test_engine_replay_matches_the_shared_idiom(self, trained):
        dataset, rnn, _, events = trained
        engine = self._hidden_engine(trained, max_batch_size=16)
        predictions = engine.replay(events)
        assert [p.timestamp for p in predictions] == [event[0] for event in events]
        assert engine.updates_applied == len(events)
        assert engine.predictions_served == len(events)

    def test_replay_takes_a_generator(self, trained):
        _, _, _, events = trained
        assert self._hidden_engine(trained).replay(event for event in events) == self._hidden_engine(trained).replay(events)

    def test_serve_slices_plus_the_tail_equal_one_replay(self, trained):
        _, _, _, events = trained
        whole = self._hidden_engine(trained, max_batch_size=16)
        sliced = self._hidden_engine(trained, max_batch_size=16)
        reference = whole.replay(events)
        cut = len(events) // 3
        delivered = sliced.serve(events[:cut]) + sliced.serve(events[cut:])
        assert len(delivered) < len(events)  # serve leaves the tail queued
        delivered += sliced.flush()
        sliced.stream.flush()
        delivered += sliced.drain_completed()
        assert [(p.user_id, p.timestamp, p.probability) for p in delivered] == [
            (p.user_id, p.timestamp, p.probability) for p in reference
        ]
        assert sliced.store.stats.snapshot() == whole.store.stats.snapshot()


# ----------------------------------------------------------------------
# The tentpole pin: facade-built == hand-wired, bit for bit.
# ----------------------------------------------------------------------
def replay_through(engine_like, events):
    """Drive the batched cursor surface exactly like the shared replay idiom."""
    delivered = []
    for timestamp, user_id, context, accessed in events:
        delivered += engine_like.advance_to(timestamp)
        delivered += engine_like.submit(user_id, context, timestamp)
        engine_like.observe_session(user_id, context, timestamp, accessed)
    delivered += engine_like.flush()
    engine_like.stream.flush()
    delivered += engine_like.drain_completed()
    assert len(delivered) == len(events)
    return delivered


class HandWiredHidden:
    """The PR-2 composition, assembled by hand (no facade code involved)."""

    def __init__(self, rnn, session_length, store, *, batch_size, quantize=False):
        self.stream = StreamProcessor()
        self.backend = BatchedHiddenStateBackend(
            rnn.network, rnn.builder, store, self.stream, session_length, quantize=quantize
        )
        self.queue = MicroBatchQueue(self.backend, max_batch_size=batch_size, stream=self.stream)
        self.submit = self.queue.submit
        self.advance_to = self.queue.advance_to
        self.flush = self.queue.flush
        self.drain_completed = self.queue.drain_completed
        self.observe_session = self.backend.observe_session


class HandWiredAggregation:
    """The aggregation path's stream + queue + backend, assembled by hand."""

    def __init__(self, gbdt, schema, session_length, store, *, batch_size):
        self.stream = StreamProcessor()
        self.backend = BatchedAggregationBackend(
            gbdt.featurizer, gbdt.estimator, schema, store, self.stream, session_length
        )
        self.queue = MicroBatchQueue(self.backend, max_batch_size=batch_size, stream=self.stream)
        self.submit = self.queue.submit
        self.advance_to = self.queue.advance_to
        self.flush = self.queue.flush
        self.drain_completed = self.queue.drain_completed
        self.observe_session = self.backend.observe_session


class TestFacadeEquivalence:
    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_hidden_state_facade_matches_hand_wiring(self, trained, batch_size):
        dataset, rnn, _, events = trained
        reference_store = KeyValueStore()
        hand_wired = HandWiredHidden(rnn, dataset.session_length, reference_store, batch_size=batch_size)
        reference = replay_through(hand_wired, events)

        engine = ServingEngine.build(
            EngineConfig(backend="hidden_state", max_batch_size=batch_size, session_length=dataset.session_length),
            network=rnn.network,
            builder=rnn.builder,
        )
        predictions = engine.replay(events)

        np.testing.assert_array_equal(
            np.asarray([p.probability for p in predictions]),
            np.asarray([p.probability for p in reference]),
        )
        assert [(p.user_id, p.timestamp, p.kv_lookups, p.bytes_fetched) for p in predictions] == [
            (p.user_id, p.timestamp, p.kv_lookups, p.bytes_fetched) for p in reference
        ]
        assert engine.store.stats.snapshot() == reference_store.stats.snapshot()
        assert engine.store.total_bytes == reference_store.total_bytes
        for key in reference_store.keys():
            np.testing.assert_array_equal(engine.store.get(key)["state"], reference_store.get(key)["state"])

    def test_hidden_state_decisions_match_hand_wiring(self, trained):
        dataset, rnn, _, events = trained
        hand_wired = HandWiredHidden(rnn, dataset.session_length, KeyValueStore(), batch_size=7)
        reference = np.asarray([p.probability for p in replay_through(hand_wired, events)])
        uniques = np.unique(reference)
        middle = len(uniques) // 2
        policy = FixedThresholdPolicy(float((uniques[middle - 1] + uniques[middle]) / 2))
        expected = policy.decide(reference)
        assert expected.any() and not expected.all()
        engine = ServingEngine.build(
            EngineConfig(backend="hidden_state", max_batch_size=7, session_length=dataset.session_length),
            network=rnn.network,
            builder=rnn.builder,
        )
        probabilities = np.asarray([p.probability for p in engine.replay(events)])
        assert policy.decide(probabilities).tolist() == expected.tolist()

    def test_quantized_facade_matches_hand_wiring(self, trained):
        dataset, rnn, _, events = trained
        reference_store = KeyValueStore()
        hand_wired = HandWiredHidden(
            rnn, dataset.session_length, reference_store, batch_size=7, quantize=True
        )
        reference = replay_through(hand_wired, events)
        engine = ServingEngine.build(
            EngineConfig(
                backend="hidden_state", max_batch_size=7, quantize=True, session_length=dataset.session_length
            ),
            network=rnn.network,
            builder=rnn.builder,
        )
        predictions = engine.replay(events)
        np.testing.assert_array_equal(
            np.asarray([p.probability for p in predictions]),
            np.asarray([p.probability for p in reference]),
        )
        assert engine.store.stats.snapshot() == reference_store.stats.snapshot()

    def test_sharded_facade_matches_hand_wired_pool(self, trained):
        dataset, rnn, _, events = trained
        # Same pool name: the consistent-hash ring seeds on it, so per-shard
        # placement (and therefore per-shard meters) must line up exactly.
        reference_store = ShardedKeyValueStore(5, name="pinned")
        hand_wired = HandWiredHidden(rnn, dataset.session_length, reference_store, batch_size=64)
        reference = replay_through(hand_wired, events)
        engine = ServingEngine.build(
            EngineConfig(
                backend="hidden_state",
                max_batch_size=64,
                n_shards=5,
                store_name="pinned",
                session_length=dataset.session_length,
            ),
            network=rnn.network,
            builder=rnn.builder,
        )
        predictions = engine.replay(events)
        np.testing.assert_array_equal(
            np.asarray([p.probability for p in predictions]),
            np.asarray([p.probability for p in reference]),
        )
        assert engine.store.stats.snapshot() == reference_store.stats.snapshot()
        assert engine.store.shard_snapshots() == reference_store.shard_snapshots()

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_aggregation_facade_matches_hand_wiring(self, trained, batch_size):
        dataset, _, gbdt, events = trained
        reference_store = KeyValueStore()
        hand_wired = HandWiredAggregation(
            gbdt, dataset.schema, dataset.session_length, reference_store, batch_size=batch_size
        )
        reference = replay_through(hand_wired, events)

        engine = ServingEngine.build(
            EngineConfig(backend="aggregation", max_batch_size=batch_size, session_length=dataset.session_length),
            featurizer=gbdt.featurizer,
            estimator=gbdt.estimator,
            schema=dataset.schema,
        )
        predictions = engine.replay(events)

        np.testing.assert_array_equal(
            np.asarray([p.probability for p in predictions]),
            np.asarray([p.probability for p in reference]),
        )
        assert [p.kv_lookups for p in predictions] == [p.kv_lookups for p in reference]
        assert [p.bytes_fetched for p in predictions] == [p.bytes_fetched for p in reference]
        assert engine.store.stats.snapshot() == reference_store.stats.snapshot()
        for key in reference_store.keys():
            assert engine.store.get(key) == reference_store.get(key)


# ----------------------------------------------------------------------
# Symmetric wave delivery on the aggregation path.
# ----------------------------------------------------------------------
def bursty_events(rng, n_events=80, n_users=9):
    """Time-ordered sessions whose windows close in shared seconds."""
    base = 1_600_000_000
    raw = rng.integers(0, 2_000, size=n_events)
    clustered = rng.random(n_events) < 0.6
    raw[clustered] -= raw[clustered] % 120
    return [
        (
            int(timestamp),
            int(rng.integers(0, n_users)),
            {"unread_count": float(rng.integers(0, 9)), "active_tab": float(rng.integers(0, 3))},
            bool(rng.random() < 0.4),
        )
        for timestamp in np.sort(base + raw)
    ]


class TestAggregationWaveSymmetry:
    def _deferred_engine(self, trained, *, coalesce_updates, window=0, batch_size=8):
        dataset, _, gbdt, _ = trained
        return ServingEngine.build(
            EngineConfig(
                backend="aggregation",
                max_batch_size=batch_size,
                coalesce_updates=coalesce_updates,
                coalescing_window=window,
                session_length=600,
            ),
            featurizer=gbdt.featurizer,
            estimator=gbdt.estimator,
            schema=dataset.schema,
        )

    def test_wave_delivered_history_writes_bit_identical_to_per_timer(self, trained):
        for trial in range(4):
            rng = np.random.default_rng(7000 + trial)
            events = bursty_events(rng)
            single = self._deferred_engine(trained, coalesce_updates=False)
            waved = self._deferred_engine(trained, coalesce_updates=True)
            single_predictions = single.replay(events)
            waved_predictions = waved.replay(events)
            # Coalescing actually happened…
            assert waved.stream.waves_fired < waved.stream.timers_fired == len(events)
            # …and is invisible: probabilities, traffic and stored history.
            np.testing.assert_array_equal(
                np.asarray([p.probability for p in waved_predictions]),
                np.asarray([p.probability for p in single_predictions]),
            )
            assert waved.store.stats.snapshot() == single.store.stats.snapshot()
            assert sorted(waved.store.keys()) == sorted(single.store.keys())
            for key in single.store.keys():
                assert waved.store.get(key) == single.store.get(key)
            assert waved.updates_applied == single.updates_applied == len(events)

    def test_wider_windows_stay_bit_identical_and_meter_their_latency(self, trained):
        rng = np.random.default_rng(8000)
        events = bursty_events(rng)
        reference = self._deferred_engine(trained, coalesce_updates=False)
        reference_predictions = reference.replay(events)
        reference_stats = reference.store.stats.snapshot()
        delays = []
        for window in (0, 60, 600):
            engine = self._deferred_engine(trained, coalesce_updates=True, window=window)
            predictions = engine.replay(events)
            np.testing.assert_array_equal(
                np.asarray([p.probability for p in predictions]),
                np.asarray([p.probability for p in reference_predictions]),
            )
            assert engine.store.stats.snapshot() == reference_stats
            for key in reference.store.keys():
                assert engine.store.get(key) == reference.store.get(key)
            delays.append(engine.update_delay_seconds)
        # The latency meter sees what the window buys: wider waves, later writes.
        assert delays[0] == 0 and delays == sorted(delays) and delays[-1] > 0

    def test_apply_wave_equals_sequential_immediate_writes(self, trained):
        dataset, _, gbdt, events = trained
        updates = [
            SessionUpdate(user_id=user_id, timestamp=timestamp, context=context, accessed=accessed)
            for timestamp, user_id, context, accessed in events[:50]
        ]
        one_at_a_time = BatchedAggregationBackend(
            gbdt.featurizer, gbdt.estimator, dataset.schema, KeyValueStore(), StreamProcessor(), dataset.session_length
        )
        for update in updates:
            one_at_a_time.apply_wave([update])
        waved = BatchedAggregationBackend(
            gbdt.featurizer, gbdt.estimator, dataset.schema, KeyValueStore(), StreamProcessor(), dataset.session_length
        )
        waved.apply_wave(updates)
        assert waved.updates_applied == one_at_a_time.updates_applied == len(updates)
        assert waved.store.stats.snapshot() == one_at_a_time.store.stats.snapshot()
        for key in one_at_a_time.store.keys():
            assert waved.store.get(key) == one_at_a_time.store.get(key)

    def test_the_history_write_lands_when_the_window_closes(self, trained):
        """A session's write is invisible to a prediction one second before
        its timer fires and visible to one stamped at the fire second."""
        context = trained[3][0][2]
        engine = self._deferred_engine(trained, coalesce_updates=True, batch_size=1)
        user_id, start = 3, 1_000_000
        for offset in (0, 10):  # two stored sessions: past the fetch-size floor
            engine.observe_session(user_id, context, start + offset, False)
        engine.advance_to(start + 10_000)
        timestamp = start + 20_000
        before = engine.predict(user_id, None, timestamp)
        engine.observe_session(user_id, context, timestamp, True)
        fire_at = timestamp + engine.config.session_length + engine.config.extra_lag
        assert engine.stream.next_timer_at == fire_at
        pending = engine.predict(user_id, None, fire_at - 1)
        assert pending.bytes_fetched == before.bytes_fetched
        assert engine.store.peek(f"agg:{user_id}")["timestamps"] == [start, start + 10]
        landed = engine.predict(user_id, None, fire_at)
        assert landed.bytes_fetched > before.bytes_fetched
        assert engine.store.peek(f"agg:{user_id}")["timestamps"] == [start, start + 10, timestamp]

    def test_eviction_drops_only_the_leading_run_older_than_the_window(self, trained):
        dataset, _, gbdt, events = trained
        store = KeyValueStore()
        backend = BatchedAggregationBackend(
            gbdt.featurizer, gbdt.estimator, dataset.schema, store, StreamProcessor(), dataset.session_length,
            history_window=100,
        )
        names = dataset.schema.names()
        # Cutoff 1000 - 100 = 900: 850 and 899 go, 900 is exactly one window
        # old and stays, and 880 stays because it sits behind a kept event.
        store.put(
            "agg:5",
            {
                "timestamps": [850, 899, 900, 880, 950],
                "accesses": [1, 0, 1, 0, 1],
                "context": {name: [0, 1, 2, 3, 4] for name in names},
            },
        )
        context = events[0][2]
        backend.apply_wave(SessionWave([5], [1000], [context], [False]))
        assert store.peek("agg:5") == {
            "timestamps": [900, 880, 950, 1000],
            "accesses": [1, 0, 1, 0],
            "context": {name: [2, 3, 4, context[name]] for name in names},
        }


def wave_rows(wave):
    """A columnar wave read back row by row."""
    assert len(wave) == len(wave.user_ids) == len(wave.timestamps) == len(wave.contexts) == len(wave.accessed)
    return list(zip(wave.user_ids, wave.timestamps, wave.contexts, wave.accessed))


class TestSessionStreamMixin:
    class Recorder(SessionStreamMixin):
        def __init__(self, stream, *, session_length=100, extra_lag=0, coalesce=True):
            self.session_length = session_length
            self.extra_lag = extra_lag
            self._init_session_delivery(stream, coalesce)
            self.waves: list[SessionWave] = []

        def apply_wave(self, wave):
            assert isinstance(wave, SessionWave)  # the host gets columns, on either path
            self.waves.append(wave)

    def test_wave_join_and_delay_metering(self):
        for coalesce in (True, False):
            stream = StreamProcessor(coalescing_window=10)
            recorder = self.Recorder(stream, coalesce=coalesce)
            recorder.observe_session(1, {"badge": 2.0}, 0, True)
            recorder.observe_session(2, {"badge": 3.0}, 5, False)
            # The lane records rows, not events; the reference join publishes
            # two events per session.  Either way two timers are pending.
            assert stream.events_published == (0 if coalesce else 4)
            assert stream.buffered_keys == (0 if coalesce else 2)
            assert stream.pending_timers == 2
            stream.flush()
            # One stream wave: the 105 timer falls inside the 100+10 window.
            # The first update waited 5 simulated seconds past its own fire
            # time — on the lane as one delivery of two rows, per timer as
            # two deliveries of one.
            rows = [row for wave in recorder.waves for row in wave_rows(wave)]
            assert [len(wave) for wave in recorder.waves] == ([2] if coalesce else [1, 1])
            assert rows == [(1, 0, {"badge": 2.0}, True), (2, 5, {"badge": 3.0}, False)]
            assert recorder.update_delay_seconds == 5 and stream.waves_fired == 1

    def test_duplicate_user_second_sessions_stay_distinct(self):
        for coalesce in (True, False):
            stream = StreamProcessor()
            recorder = self.Recorder(stream, coalesce=coalesce)
            recorder.observe_session(4, {"badge": 1.0}, 50, False)
            recorder.observe_session(4, {"badge": 9.0}, 50, True)
            recorder.observe_session(4, {"badge": 1.0}, 50, False)  # an exact repeat is a third row
            stream.flush()
            rows = [row for wave in recorder.waves for row in wave_rows(wave)]
            assert [len(wave) for wave in recorder.waves] == ([3] if coalesce else [1, 1, 1])
            assert [(accessed, context["badge"]) for _, _, context, accessed in rows] == [
                (False, 1.0), (True, 9.0), (False, 1.0),
            ]

    def test_a_session_behind_the_clock_is_refused_before_anything_is_recorded(self):
        for coalesce in (True, False):
            stream = StreamProcessor()
            recorder = self.Recorder(stream, coalesce=coalesce)
            stream.advance_to(60)
            with pytest.raises(ValueError, match="event at 59 is earlier than the stream clock 60"):
                recorder.observe_session(4, {"badge": 1.0}, 59, True)
            assert (stream.pending_timers, stream.events_published, stream.buffered_keys) == (0, 0, 0)
            recorder.observe_session(4, {"badge": 1.0}, 60, True)  # at the clock is fine
            assert stream.pending_timers == 1


class TestHostileContexts:
    """A context the GRU cannot digest is refused at the door.

    Before this pin a NaN context went through ``observe_session``, rode its
    wave into the GRU and left an all-NaN hidden state in the store — every
    later prediction for that user ``nan``, for good — and ``submit(u, None,
    t)`` died at flush time with a bare ``KeyError`` that took the whole
    batch with it.  Both are now a ``ValueError`` naming the user and the
    field, raised before anything is published or queued: a twin engine that
    never saw the bad call stays bit-equal in every observable.
    """

    BAD_CONTEXTS = {
        "nan": ({"unread_count": float("nan"), "active_tab": 2}, "unread_count"),
        "inf": ({"unread_count": 1.0, "active_tab": float("inf")}, "active_tab"),
        "numpy-nan": ({"unread_count": np.float64("nan"), "active_tab": np.int64(2)}, "unread_count"),
        "missing-field": ({"active_tab": 2}, "unread_count"),
        "not-a-number": ({"unread_count": "many", "active_tab": 2}, "unread_count"),
        "none": (None, "unread_count"),
    }

    @staticmethod
    def _engine(trained, batch_size=4):
        dataset, rnn, _, _ = trained
        return ServingEngine.build(
            EngineConfig(backend="hidden_state", max_batch_size=batch_size, session_length=dataset.session_length),
            network=rnn.network,
            builder=rnn.builder,
        )

    @staticmethod
    def _observables(engine, user_id):
        record = engine.store.peek(f"hidden:{user_id}")
        return {
            "record": None if record is None else (record["state"].tobytes(), record["timestamp"]),
            "stats": engine.store.stats.snapshot(),
            "submitted": engine.queue.requests_submitted,
            "pending": engine.pending,
            "pending_timers": engine.stream.pending_timers,
            "clock": engine.stream.clock,
            "next_timer_at": engine.stream.next_timer_at,
        }

    @staticmethod
    def _stored(engine):
        records = {key: engine.store.peek(key) for key in engine.store.keys()}
        return {key: (record["state"].tobytes(), record["timestamp"]) for key, record in records.items()}

    @staticmethod
    def _finish(engine, events):
        delivered = engine.serve(events) + engine.flush()
        engine.stream.flush()
        return delivered + engine.drain_completed()

    @pytest.mark.parametrize("kind", sorted(BAD_CONTEXTS))
    def test_bad_observe_session_publishes_nothing(self, trained, kind):
        context, field = self.BAD_CONTEXTS[kind]
        events = trained[3][:60]
        warm, rest = events[:30], events[30:]
        victim = warm[-1][1]
        engine, twin = self._engine(trained), self._engine(trained)
        delivered, twin_delivered = engine.serve(warm), twin.serve(warm)
        before = self._observables(engine, victim)
        with pytest.raises(ValueError, match=rf"user {victim}\b.*{field}"):
            engine.observe_session(victim, context, warm[-1][0], True)
        assert self._observables(engine, victim) == before == self._observables(twin, victim)
        # … and the next valid requests score as if the bad call never happened.
        delivered += self._finish(engine, rest)
        twin_delivered += self._finish(twin, rest)
        assert len(delivered) == len(events) and delivered == twin_delivered
        assert all(np.isfinite(prediction.probability) for prediction in delivered)
        assert self._stored(engine) == self._stored(twin)
        assert engine.store.stats.snapshot() == twin.store.stats.snapshot()

    @pytest.mark.parametrize("kind", sorted(BAD_CONTEXTS))
    def test_bad_submit_enqueues_nothing_and_fires_no_timer(self, trained, kind):
        context, field = self.BAD_CONTEXTS[kind]
        events = trained[3][:40]
        engine, twin = self._engine(trained), self._engine(trained)
        delivered, twin_delivered = engine.serve(events), twin.serve(events)
        # Stamped past every pending session-end timer: an unvalidated submit
        # would flush the queue and fire them all before failing.
        victim, late = events[0][1], engine.stream.next_timer_at + 10 * trained[0].session_length
        before = self._observables(engine, victim)
        assert before["next_timer_at"] is not None and before["pending"] > 0
        with pytest.raises(ValueError, match=rf"user {victim}\b.*{field}"):
            engine.submit(victim, context, late)
        with pytest.raises(ValueError, match=rf"user {victim}\b.*{field}"):
            engine.predict(victim, context, late)
        assert self._observables(engine, victim) == before == self._observables(twin, victim)
        valid = events[0][2]
        delivered += engine.submit(victim, valid, late) + engine.flush()
        twin_delivered += twin.submit(victim, valid, late) + twin.flush()
        assert delivered == twin_delivered
        assert self._stored(engine) == self._stored(twin)

    def test_a_network_that_reads_no_context_takes_contextless_requests(self, trained):
        """The timeshifted head scores from the gap alone (Equation 3), so a
        prediction's context is not looked at — a session's still is."""
        from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork

        dataset, rnn, _, _ = trained
        network = RNNPrecomputeNetwork(
            RNNNetworkConfig(feature_dim=rnn.builder.feature_dim, hidden_size=6, mlp_hidden=6, predict_uses_context=False),
            rng=np.random.default_rng(0),
        )
        engine = ServingEngine.build(
            EngineConfig(backend="hidden_state", max_batch_size=1, session_length=dataset.session_length),
            network=network,
            builder=rnn.builder,
        )
        (prediction,) = engine.submit(3, None, 1_000)
        assert 0.0 < prediction.probability < 1.0
        with pytest.raises(ValueError, match=r"user 3\b.*unread_count"):
            engine.observe_session(3, {"unread_count": float("nan"), "active_tab": 1}, 1_000, False)
        assert engine.stream.pending_timers == 0 and engine.stream.next_timer_at is None


class TestHostileAggregationContexts:
    """The aggregation dataflow gets the same door check on its schema.

    Before this pin a NaN context sat in the user's history for the whole
    ``history_window`` and a missing field raised a bare ``KeyError`` inside
    the history write — at fire time, after the session was recorded.  A
    prediction without a context stays legal: the featurizer scores it on
    history alone.
    """

    BAD_CONTEXTS = TestHostileContexts.BAD_CONTEXTS
    DATAFLOWS = ("aggregation", "aggregation-per-timer")

    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    @pytest.mark.parametrize("kind", sorted(BAD_CONTEXTS))
    def test_bad_observe_session_records_nothing(self, trained, dataflow, kind):
        context, field = self.BAD_CONTEXTS[kind]
        events = trained[3][:60]
        warm, rest = events[:30], events[30:]
        victim, timestamp = warm[-1][1], warm[-1][0]
        build, observe = TestHostileTimestamps._engine, TestHostileTimestamps._observables
        engine, twin = build(trained, dataflow), build(trained, dataflow)
        delivered, twin_delivered = engine.serve(warm), twin.serve(warm)
        before = observe(engine)
        with pytest.raises(ValueError, match=rf"user {victim}\b.*{field}"):
            engine.observe_session(victim, context, timestamp, True)
        assert observe(engine) == before == observe(twin)
        delivered += TestHostileTimestamps._finish(engine, rest)
        twin_delivered += TestHostileTimestamps._finish(twin, rest)
        assert len(delivered) == len(events) and delivered == twin_delivered
        assert observe(engine) == observe(twin)

    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    @pytest.mark.parametrize("kind", sorted(set(BAD_CONTEXTS) - {"none"}))
    def test_bad_submit_enqueues_nothing(self, trained, dataflow, kind):
        context, field = self.BAD_CONTEXTS[kind]
        events = trained[3][:40]
        victim, late = events[0][1], events[-1][0] + 1
        build, observe = TestHostileTimestamps._engine, TestHostileTimestamps._observables
        engine, twin = build(trained, dataflow), build(trained, dataflow)
        delivered, twin_delivered = engine.serve(events), twin.serve(events)
        before = observe(engine)
        with pytest.raises(ValueError, match=rf"user {victim}\b.*{field}"):
            engine.submit(victim, context, late)
        with pytest.raises(ValueError, match=rf"user {victim}\b.*{field}"):
            engine.predict(victim, context, late)
        assert observe(engine) == before == observe(twin)
        delivered += engine.submit(victim, None, late) + engine.flush()
        twin_delivered += twin.submit(victim, None, late) + twin.flush()
        assert delivered == twin_delivered
        assert observe(engine) == observe(twin)

    def test_a_contextless_prediction_is_still_scored(self, trained):
        engine = TestHostileTimestamps._engine(trained, "aggregation")
        prediction = engine.predict(3, None, 1_000)
        assert 0.0 <= prediction.probability <= 1.0


class TestAggregationRecordsAtPredict:
    """What the aggregation request path checks and how it is attributed.

    A micro-batch's stored ``agg:`` records are flattened into one
    ``HistoryBatch`` whose refusals are ``UserLog``'s, checked once over the
    batch's columns with the record boundaries masked.  So a tampered record
    — timestamps that regress, an access flag of 2, a context column shorter
    than the timestamps — is refused with ``UserLog``'s own ``ValueError``
    wherever it sits in the batch, rather than featurized into a score, while
    one record ending later than the next one starts is served.  And
    featurization is one ``featurizer.transform_user`` call per micro-batch,
    looked up on the instance (the benchmark's ``tabular.transform_user``
    span wraps it there).
    """

    TAMPERS = {
        "regressing-timestamps": ("timestamps must be non-decreasing", lambda r: r["timestamps"].reverse()),
        "access-flag-2": ("access flags must be 0 or 1", lambda r: r["accesses"].__setitem__(-1, 2)),
        "ragged-context": ("mismatched length", lambda r: r["context"]["active_tab"].pop()),
    }

    @staticmethod
    def _warm_engine(trained, max_batch_size=4):
        dataset, _, gbdt, events = trained
        engine = ServingEngine.build(
            EngineConfig(backend="aggregation", max_batch_size=max_batch_size, session_length=dataset.session_length),
            featurizer=gbdt.featurizer,
            estimator=gbdt.estimator,
            schema=dataset.schema,
        )
        engine.serve(events[:80])
        engine.flush()
        return engine

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_a_tampered_record_is_refused_at_predict(self, trained, tamper):
        message, edit = self.TAMPERS[tamper]
        engine = self._warm_engine(trained)
        key = max(engine.store.keys(), key=lambda k: len(engine.store.peek(k)["timestamps"]))
        record = engine.store.peek(key)
        assert len(set(record["timestamps"])) > 1
        record = {
            "timestamps": list(record["timestamps"]),
            "accesses": list(record["accesses"]),
            "context": {name: list(values) for name, values in record["context"].items()},
        }
        edit(record)
        engine.store.put_unmetered(key, record, engine.store.size_of(key))
        user_id, late = int(key.split(":")[1]), trained[3][79][0] + 1
        with pytest.raises(ValueError, match=message):
            engine.predict(user_id, trained[3][0][2], late)

    @staticmethod
    def _tamper_longest(engine, edit) -> int:
        """Edit a copy of the longest stored record in place of it; its user."""
        key = max(engine.store.keys(), key=lambda k: len(engine.store.peek(k)["timestamps"]))
        record = engine.store.peek(key)
        record = {
            "timestamps": list(record["timestamps"]),
            "accesses": list(record["accesses"]),
            "context": {name: list(values) for name, values in record["context"].items()},
        }
        edit(record)
        engine.store.put_unmetered(key, record, engine.store.size_of(key))
        return int(key.split(":")[1])

    @pytest.mark.parametrize("position", [0, 3, 7])
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_a_tampered_record_anywhere_in_a_full_batch_is_refused_as_alone(self, trained, tamper, position):
        message, edit = self.TAMPERS[tamper]
        context, late = trained[3][0][2], trained[3][79][0] + 1
        alone = self._warm_engine(trained, max_batch_size=1)
        victim = self._tamper_longest(alone, edit)
        with pytest.raises(ValueError, match=message) as refused_alone:
            alone.submit(victim, context, late)

        engine = self._warm_engine(trained, max_batch_size=8)
        assert self._tamper_longest(engine, edit) == victim
        others = sorted(int(key.split(":")[1]) for key in engine.store.keys() if key != f"agg:{victim}")
        others.append(max(others) + 1_000)  # a user with no history: an empty record
        users = others[:position] + [victim] + others[position:7]
        assert len(users) == 8 and users.count(victim) == 1
        for user_id in users[:-1]:
            assert engine.submit(user_id, context, late) == []
        with pytest.raises(ValueError, match=message) as refused:
            engine.submit(users[-1], context, late)
        assert str(refused.value) == str(refused_alone.value)

    def test_a_record_ending_after_the_next_one_starts_is_served(self, trained):
        """Stamps fall across record boundaries — each record is still in
        order — so the batch is served, each row as it would be alone."""
        late = trained[3][79][0] + 1
        engine = self._warm_engine(trained, max_batch_size=8)
        records = {int(key.split(":")[1]): engine.store.peek(key) for key in engine.store.keys()}
        users = sorted(records, key=lambda u: records[u]["timestamps"][-1], reverse=True)
        falls = [records[a]["timestamps"][-1] > records[b]["timestamps"][0] for a, b in zip(users, users[1:])]
        assert all(falls) and len(users) == 7
        users.insert(3, max(users) + 1_000)  # an empty record between two falling boundaries
        contexts = [None if i % 2 else trained[3][i][2] for i in range(8)]
        delivered = [p for user_id, context in zip(users, contexts) for p in engine.submit(user_id, context, late)]
        alone = self._warm_engine(trained, max_batch_size=1)
        expected = [alone.predict(user_id, context, late) for user_id, context in zip(users, contexts)]
        assert [p.user_id for p in delivered] == users
        assert [p.probability for p in delivered] == [p.probability for p in expected]

    @staticmethod
    def _full_batch_around(engine, victim: int) -> list[int]:
        """The other stored users, a user with no history (an empty record)
        and ``victim`` last: a full batch of eight."""
        others = sorted(int(key.split(":")[1]) for key in engine.store.keys() if key != f"agg:{victim}")
        users = others + [max(others) + 1_000, victim]
        assert len(users) == 8
        return users

    def test_a_record_spanning_past_the_key_bound_is_refused(self, trained):
        """Stamps ``0`` and ``2**62`` in one record of a full batch would wrap
        the featurizer's ``log * span`` time keys: the batch is refused with
        a ``ValueError``, never served from wrapped keys."""
        context, late = trained[3][0][2], trained[3][79][0] + 1
        engine = self._warm_engine(trained, max_batch_size=8)

        def stretch(record):
            record["timestamps"][0], record["timestamps"][-1] = 0, 2**62

        victim = self._tamper_longest(engine, stretch)
        users = self._full_batch_around(engine, victim)
        for user_id in users[:-1]:
            assert engine.submit(user_id, context, late) == []
        with pytest.raises(ValueError, match="too wide for int64 keys"):
            engine.submit(users[-1], context, late)

    def test_a_record_spanning_a_trillion_seconds_is_served_as_the_reference(self, trained):
        """Inside the bound, a record stamped 10**12 s before the others is
        served bit for bit as the featurizer's reference scores it: one
        ``UserLog`` per fetched record, one ``transform_user`` per request."""
        context, late = trained[3][0][2], trained[3][79][0] + 1
        engine = self._warm_engine(trained, max_batch_size=8)
        victim = self._tamper_longest(engine, lambda r: r["timestamps"].__setitem__(0, late - 10**12))
        users = self._full_batch_around(engine, victim)
        contexts = [None if i % 3 == 1 else context for i in range(8)]
        empty = {"timestamps": [], "accesses": [], "context": {name: [] for name in engine.backend.schema.names()}}
        records = [engine.store.peek(f"agg:{user_id}", empty) for user_id in users]
        backend = engine.backend
        logs = [as_user_log(user_id, record) for user_id, record in zip(users, records)]
        expected = backend.estimator.predict_proba(
            _parent_rows(ParentFeaturizer(backend.featurizer), logs, np.arange(8), [late] * 8, contexts)
        )
        delivered = [p for user_id, ctx in zip(users, contexts) for p in engine.submit(user_id, ctx, late)]
        assert [p.user_id for p in delivered] == users
        assert [p.probability for p in delivered] == [float(p) for p in np.asarray(expected).reshape(-1)]
        assert [engine.store.peek(f"agg:{user_id}", empty) for user_id in users] == records  # nothing landed meanwhile

    @pytest.mark.parametrize("batch_size", [1, 7, 8])
    def test_featurization_is_one_call_per_micro_batch(self, trained, batch_size, monkeypatch):
        engine = self._warm_engine(trained, max_batch_size=batch_size)
        featurizer = engine.backend.featurizer
        real = featurizer.transform_user
        rows_per_call: list[int] = []

        def spy(users, owners, prediction_times, context, has_context):
            rows_per_call.append(len(prediction_times))
            return real(users, owners, prediction_times, context, has_context)

        monkeypatch.setattr(featurizer, "transform_user", spy)
        users = sorted({event[1] for event in trained[3][:80]})
        late = trained[3][79][0] + 1
        chosen = [users[i % len(users)] for i in range(batch_size - 1)] + [users[0]]  # one user twice
        delivered = [p for user_id in chosen for p in engine.submit(user_id, None, late)] + engine.flush()
        assert len(delivered) == batch_size
        assert rows_per_call == [batch_size]

    def test_a_session_stamped_behind_a_recorded_one_cannot_poison_the_record(self, trained):
        """Sessions observed out of order (both ahead of the clock) land in
        fire order: a regressing ``agg:`` record would fail every later
        prediction for that user with ``UserLog``'s non-decreasing check."""
        dataset, _, gbdt, events = trained
        engine = ServingEngine.build(
            EngineConfig(backend="aggregation", session_length=dataset.session_length),
            featurizer=gbdt.featurizer,
            estimator=gbdt.estimator,
            schema=dataset.schema,
        )
        user_id, context, timestamp = 5, events[0][2], 1_000_000
        engine.observe_session(user_id, context, timestamp, True)
        engine.observe_session(user_id, context, timestamp - 5_000, False)
        engine.stream.flush()
        assert engine.store.peek(f"agg:{user_id}")["timestamps"] == [timestamp - 5_000, timestamp]
        prediction = engine.predict(user_id, None, engine.stream.clock)
        assert 0.0 <= prediction.probability <= 1.0


class TestHostileTimestamps:
    """A timestamp that is not a finite number is refused at the door.

    Before this pin ``observe_session(u, ctx, nan, a)`` was accepted — NaN
    compares false with everything, so it passed the stream's monotone-clock
    checks and left a NaN-keyed timer in the heap for good (``inf`` the same)
    — and ``submit(u, ctx, nan)`` died at flush time with a bare ``cannot
    convert float NaN to integer`` that took the whole micro-batch with it.
    Every entry point of both dataflows now raises a ``ValueError`` (naming
    the user where there is one) before anything is queued or recorded: a
    twin engine that never saw the call stays equal in every observable.
    """

    BAD_TIMESTAMPS = {
        "nan": float("nan"),
        "inf": float("inf"),
        "minus-inf": float("-inf"),
        "numpy-nan": np.float64("nan"),
        "none": None,
        "string": "now",
    }
    # The aggregation lane runs under both stream deliveries: timer-group
    # waves (the default) and the per-timer reference join.
    DATAFLOWS = ("hidden_state", "aggregation", "aggregation-per-timer")

    @staticmethod
    def _engine(trained, dataflow):
        dataset, rnn, gbdt, _ = trained
        if dataflow == "hidden_state":
            return ServingEngine.build(
                EngineConfig(backend="hidden_state", max_batch_size=4, session_length=dataset.session_length),
                network=rnn.network,
                builder=rnn.builder,
            )
        return ServingEngine.build(
            EngineConfig(
                backend="aggregation",
                max_batch_size=4,
                session_length=dataset.session_length,
                coalesce_updates=dataflow == "aggregation",
            ),
            featurizer=gbdt.featurizer,
            estimator=gbdt.estimator,
            schema=dataset.schema,
        )

    @classmethod
    def _frozen(cls, value):
        if isinstance(value, dict):
            return {key: cls._frozen(item) for key, item in value.items()}
        return value.tobytes() if isinstance(value, np.ndarray) else value

    @classmethod
    def _observables(cls, engine):
        stream = engine.stream
        return {
            "records": {key: cls._frozen(engine.store.peek(key)) for key in sorted(engine.store.keys())},
            "stats": engine.store.stats.snapshot(),
            "submitted": engine.queue.requests_submitted,
            "pending": engine.pending,
            "undelivered": engine.undelivered,
            "served": engine.predictions_served,
            "applied": engine.updates_applied,
            "stream": (
                stream.clock, stream.pending_timers, stream.next_timer_at,
                stream.events_published, stream.timers_fired,
            ),
        }

    @staticmethod
    def _finish(engine, events):
        delivered = engine.serve(events) + engine.flush()
        engine.stream.flush()
        return delivered + engine.drain_completed()

    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    @pytest.mark.parametrize("kind", sorted(BAD_TIMESTAMPS))
    def test_every_entry_point_refuses_it_and_nothing_moves(self, trained, dataflow, kind):
        bad = self.BAD_TIMESTAMPS[kind]
        events = trained[3][:60]
        warm, rest = events[:30], events[30:]
        victim, context = warm[-1][1], warm[-1][2]
        engine, twin = self._engine(trained, dataflow), self._engine(trained, dataflow)
        delivered, twin_delivered = engine.serve(warm), twin.serve(warm)
        before = self._observables(engine)
        for refused in (
            lambda: engine.submit(victim, context, bad),
            lambda: engine.predict(victim, context, bad),
            lambda: engine.observe_session(victim, context, bad, True),
        ):
            with pytest.raises(ValueError, match=rf"user {victim}\b.*timestamp.*not a finite number"):
                refused()
        with pytest.raises(ValueError, match=r"^timestamp.*not a finite number"):
            engine.advance_to(bad)
        assert self._observables(engine) == before == self._observables(twin)
        # … and the rest of the stream is served as if none of it happened.
        delivered += self._finish(engine, rest)
        twin_delivered += self._finish(twin, rest)
        assert len(delivered) == len(events) and delivered == twin_delivered
        assert self._observables(engine) == self._observables(twin)

    @pytest.mark.parametrize("dataflow", DATAFLOWS)
    def test_a_regressing_observe_session_is_refused_and_nothing_moves(self, trained, dataflow):
        events = trained[3][:60]
        warm, rest = events[:30], events[30:]
        victim, context = warm[-1][1], warm[-1][2]
        engine, twin = self._engine(trained, dataflow), self._engine(trained, dataflow)
        delivered, twin_delivered = engine.serve(warm), twin.serve(warm)
        before = self._observables(engine)
        assert engine.stream.pending_timers > 0
        with pytest.raises(ValueError, match="earlier than the stream clock"):
            engine.observe_session(victim, context, engine.stream.clock - 1, True)
        assert self._observables(engine) == before == self._observables(twin)
        delivered += self._finish(engine, rest)
        twin_delivered += self._finish(twin, rest)
        assert len(delivered) == len(events) and delivered == twin_delivered
        assert self._observables(engine) == self._observables(twin)

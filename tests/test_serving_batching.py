"""Equivalence suite: the micro-batched engine must match single-request serving.

The batched engine is only admissible if batching is *invisible* in every
observable except wall-clock: for the same request stream it must produce the
same probabilities, the same precompute decisions and the same metered KV
traffic as the seed's one-request-at-a-time path, at every batch size.  The
reference implementations below are verbatim copies of the seed services'
per-request logic (Tensor forward, scalar gap bucketing), so drift in the
vectorized path cannot hide behind a shared implementation.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from repro import nn
from repro.core import FixedThresholdPolicy
from repro.data import make_dataset, sessions_in_time_order, user_split
from repro.features.bucketing import log_bucket
from repro.models import GBDTModel, RNNModel, RNNModelConfig, TaskSpec
from repro.serving import (
    EngineConfig,
    KeyValueStore,
    MicroBatchQueue,
    ServingEngine,
    ServingPrediction,
    ServingRequest,
    SessionUpdate,
    SessionWave,
    StreamProcessor,
    dequantize_state,
)
from repro.serving.batching import UPDATE_BLOCK_ROWS
from repro.serving.twins import first_difference, observe
from serving_harness import BASE_TIME, build_engine, per_key_states

BATCH_SIZES = (1, 7, 64)


@pytest.fixture(scope="module")
def trained():
    dataset = make_dataset("mobiletab", seed=21, n_users=40, n_days=14)
    split = user_split(dataset, test_fraction=0.3, seed=0)
    task = TaskSpec(kind="session", rnn_loss_days=10)
    rnn = RNNModel(
        RNNModelConfig(hidden_size=16, mlp_hidden=16, epochs=2, early_stopping_patience=None, seed=0)
    ).fit(split.train, task)
    gbdt = GBDTModel(depths=(3,)).fit(split.train, task)
    events = [
        (timestamp, user.user_id, user.context_row(index), bool(user.accesses[index]))
        for timestamp, user, index in sessions_in_time_order(split.test.users)
    ]
    return dataset, rnn, gbdt, events


# ----------------------------------------------------------------------
# Seed-semantics reference implementations (per-request Tensor path).
# ----------------------------------------------------------------------
class SeedHiddenStateReplay:
    """The seed hidden-state dataflow, one request at a time."""

    def __init__(self, network, builder, store, stream, session_length, extra_lag=60):
        self.network = network
        self.builder = builder
        self.store = store
        self.stream = stream
        self.session_length = session_length
        self.extra_lag = extra_lag

    def _load_state(self, user_id):
        record = self.store.get(f"hidden:{user_id}")
        if record is None:
            return np.zeros(self.network.state_size), None
        return record["state"], record["timestamp"]

    def predict(self, user_id, context, timestamp):
        state, last_timestamp = self._load_state(user_id)
        gap = 0.0 if last_timestamp is None else max(float(timestamp - last_timestamp), 0.0)
        gap_bucket = np.asarray([log_bucket(gap, n_buckets=self.network.config.n_delta_buckets)])
        features = self.builder.encode_context_rows([context or {}], np.asarray([timestamp]))
        inputs = self.network.build_predict_inputs(features, gap_bucket)
        with nn.no_grad():
            return float(
                self.network.predict_proba(
                    nn.Tensor(np.asarray(state, dtype=np.float64).reshape(1, -1)), nn.Tensor(inputs)
                ).numpy().reshape(-1)[0]
            )

    def observe_session(self, user_id, context, timestamp, accessed):
        from repro.serving import StreamEvent

        key = f"session:{user_id}:{timestamp}"
        self.stream.publish(StreamEvent("context", key, timestamp, {"user_id": user_id, "context": context}))
        self.stream.publish(StreamEvent("access", key, timestamp, {"accessed": bool(accessed)}))
        fire_at = timestamp + self.session_length + self.extra_lag
        self.stream.set_timer(
            fire_at, key, lambda _k, events, u=user_id, t=timestamp: self._apply_update(u, t, events)
        )

    def _apply_update(self, user_id, timestamp, events):
        context, accessed = {}, False
        for event in events:
            if event.topic == "context":
                context = event.payload["context"]
            elif event.topic == "access":
                accessed = accessed or bool(event.payload["accessed"])
        state, last_timestamp = self._load_state(user_id)
        delta = 0.0 if last_timestamp is None else max(float(timestamp - last_timestamp), 0.0)
        delta_bucket = np.asarray([log_bucket(delta, n_buckets=self.network.config.n_delta_buckets)])
        features = self.builder.encode_context_rows([context], np.asarray([timestamp]))
        update_inputs = self.network.build_update_inputs(features, np.asarray([float(accessed)]), delta_bucket)
        with nn.no_grad():
            new_state = self.network.update_hidden(
                nn.Tensor(np.asarray(state, dtype=np.float64).reshape(1, -1)), nn.Tensor(update_inputs)
            ).numpy().reshape(-1)
        record = {"state": new_state.astype(np.float32), "timestamp": timestamp}
        self.store.put(f"hidden:{user_id}", record, size_bytes=int(new_state.astype(np.float32).nbytes) + 8)


def replay_hidden_reference(rnn, dataset, events):
    store, stream = KeyValueStore(), StreamProcessor()
    replay = SeedHiddenStateReplay(rnn.network, rnn.builder, store, stream, dataset.session_length)
    probabilities = []
    for timestamp, user_id, context, accessed in events:
        stream.advance_to(timestamp)
        probabilities.append(replay.predict(user_id, context, timestamp))
        replay.observe_session(user_id, context, timestamp, accessed)
    stream.flush()
    return np.asarray(probabilities), store


def hidden_engine(rnn, dataset, batch_size, network=None, *, per_key=False, **config):
    """``per_key`` builds the per-key state twin (``serving_harness.per_key_states``)."""
    with per_key_states() if per_key else nullcontext():
        return ServingEngine.build(
            EngineConfig(
                backend="hidden_state",
                max_batch_size=batch_size,
                session_length=dataset.session_length,
                **config,
            ),
            network=network if network is not None else rnn.network,
            builder=rnn.builder,
        )


def aggregation_engine(gbdt, dataset, batch_size):
    return ServingEngine.build(
        EngineConfig(backend="aggregation", max_batch_size=batch_size, session_length=dataset.session_length),
        featurizer=gbdt.featurizer,
        estimator=gbdt.estimator,
        schema=dataset.schema,
    )


def replay_hidden_batched(rnn, dataset, events, batch_size, **config):
    engine = hidden_engine(rnn, dataset, batch_size, **config)
    predictions = engine.replay(events)
    # Deliveries arrive from whichever call completed each request, but never
    # out of submission order — and exactly once (replay checks counts).
    assert [p.timestamp for p in predictions] == [event[0] for event in events]
    return np.asarray([p.probability for p in predictions]), engine.store, predictions, engine


def replay_aggregation_batched(gbdt, dataset, events, batch_size):
    engine = aggregation_engine(gbdt, dataset, batch_size)
    predictions = engine.replay(events)
    return np.asarray([p.probability for p in predictions]), engine.store, predictions


class TestHiddenStateEquivalence:
    def test_batched_probabilities_match_seed_path(self, trained):
        dataset, rnn, _, events = trained
        reference, _ = replay_hidden_reference(rnn, dataset, events)
        for batch_size in BATCH_SIZES:
            probabilities, _, _, _ = replay_hidden_batched(rnn, dataset, events, batch_size)
            np.testing.assert_allclose(probabilities, reference, rtol=0, atol=1e-10)

    def test_batched_decisions_match_seed_path(self, trained):
        dataset, rnn, _, events = trained
        reference, _ = replay_hidden_reference(rnn, dataset, events)
        # Threshold in the middle of a real gap between score values, so a
        # boundary score can never sit within float noise of the decision.
        uniques = np.unique(reference)
        middle = len(uniques) // 2
        assert uniques[middle] - uniques[middle - 1] > 1e-6
        policy = FixedThresholdPolicy(float((uniques[middle - 1] + uniques[middle]) / 2))
        expected = policy.decide(reference)
        assert expected.any() and not expected.all()  # threshold actually separates
        for batch_size in BATCH_SIZES:
            probabilities, _, _, _ = replay_hidden_batched(rnn, dataset, events, batch_size)
            assert policy.decide(probabilities).tolist() == expected.tolist()

    def test_batched_kv_traffic_matches_seed_path(self, trained):
        dataset, rnn, _, events = trained
        _, reference_store = replay_hidden_reference(rnn, dataset, events)
        for batch_size in BATCH_SIZES:
            _, store, predictions, engine = replay_hidden_batched(rnn, dataset, events, batch_size)
            assert store.stats.snapshot() == reference_store.stats.snapshot()
            assert store.total_bytes == reference_store.total_bytes
            assert engine.updates_applied == len(events)
            assert all(p.kv_lookups == 1 for p in predictions)

    def test_hidden_states_converge_identically(self, trained):
        dataset, rnn, _, events = trained
        _, reference_store = replay_hidden_reference(rnn, dataset, events)
        _, store, _, _ = replay_hidden_batched(rnn, dataset, events, 64)
        for key in reference_store.keys():
            expected = reference_store.get(key)
            actual = store.get(key)
            assert actual["timestamp"] == expected["timestamp"]
            # Bitwise, not within tolerance: the update kernels route every
            # row through the same [1, n] contraction the seed's per-request
            # autograd path uses, so batching and wave coalescing are
            # invisible in the stored states down to the last ulp.
            np.testing.assert_array_equal(actual["state"], expected["state"])

    def test_quantized_path_equivalent_across_batch_sizes(self, trained):
        dataset, rnn, _, events = trained
        results = {}
        for batch_size in (1, 64):
            engine = hidden_engine(rnn, dataset, batch_size, quantize=True)
            store = engine.store
            predictions = engine.replay(events)
            results[batch_size] = (
                np.asarray([p.probability for p in predictions]),
                store.stats.snapshot(),
            )
            sample_key = next(iter(store.keys()))
            record = store.get(sample_key)
            assert record["state"].dtype == np.int8
            assert np.isfinite(dequantize_state(record["state"], record["scale"])).all()
        np.testing.assert_allclose(results[1][0], results[64][0], rtol=0, atol=1e-10)
        assert results[1][1] == results[64][1]


class TestAggregationEquivalence:
    def test_batched_probabilities_and_traffic_match(self, trained):
        dataset, _, gbdt, events = trained
        reference, reference_store, reference_predictions = replay_aggregation_batched(
            gbdt, dataset, events, batch_size=1
        )
        for batch_size in BATCH_SIZES[1:]:
            probabilities, store, predictions = replay_aggregation_batched(gbdt, dataset, events, batch_size)
            np.testing.assert_allclose(probabilities, reference, rtol=0, atol=1e-12)
            assert store.stats.snapshot() == reference_store.stats.snapshot()
            assert [p.kv_lookups for p in predictions] == [p.kv_lookups for p in reference_predictions]
            assert [p.bytes_fetched for p in predictions] == [p.bytes_fetched for p in reference_predictions]

    def test_lookup_charge_is_per_aggregation_group(self, trained):
        dataset, _, gbdt, events = trained
        _, _, predictions = replay_aggregation_batched(gbdt, dataset, events[:10], batch_size=7)
        assert all(p.kv_lookups == gbdt.featurizer.n_lookup_groups for p in predictions)


class TestShardedEquivalence:
    def test_sharded_pool_serves_identically_to_single_store(self, trained):
        dataset, rnn, _, events = trained
        reference, reference_store, _, _ = replay_hidden_batched(rnn, dataset, events, 64)
        probabilities, store, _, _ = replay_hidden_batched(
            rnn, dataset, events, 64, n_shards=5, store_name="rnn"
        )
        np.testing.assert_allclose(probabilities, reference, rtol=0, atol=1e-12)
        assert store.stats.snapshot() == reference_store.stats.snapshot()
        assert store.total_bytes == reference_store.total_bytes
        assert sum(shard.n_keys for shard in store.shards) == reference_store.n_keys


class TestAllCellTypes:
    """Pin the batched kernels against the autograd path for every cell.

    The trained-model equivalence tests above only exercise the default GRU;
    this covers ``lstm_step``'s packed ``[h; c]`` state handling, the LSTM
    hidden slice in ``predict_logits_batch``, and ``elman_step``.
    """

    @pytest.mark.parametrize("cell", ["gru", "lstm", "tanh"])
    def test_batched_kernels_match_autograd_forward(self, cell):
        from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork

        config = RNNNetworkConfig(feature_dim=5, hidden_size=8, mlp_hidden=6, cell=cell, n_delta_buckets=4)
        network = RNNPrecomputeNetwork(config, rng=np.random.default_rng(3)).eval()
        rng = np.random.default_rng(0)
        states = rng.normal(size=(9, network.state_size))
        update_inputs = rng.normal(size=(9, config.update_input_dim))
        predict_inputs = rng.normal(size=(9, config.predict_input_dim))
        with nn.no_grad():
            expected_update = network.update_hidden(nn.Tensor(states), nn.Tensor(update_inputs)).numpy()
            expected_proba = network.predict_proba(nn.Tensor(states), nn.Tensor(predict_inputs)).numpy().reshape(-1)
        # The prediction kernels share the autograd path's BLAS contraction:
        # bit-identical at the same shape.  The update kernels trade that for
        # batch-size invariance (row-stable matmul), so they agree with the
        # autograd forward to float ulps, not bits.
        np.testing.assert_allclose(
            network.update_hidden_batch(states, update_inputs), expected_update, rtol=0, atol=1e-12
        )
        np.testing.assert_array_equal(network.predict_proba_batch(states, predict_inputs), expected_proba)

    @pytest.mark.parametrize("cell", ["gru", "lstm", "tanh"])
    def test_update_kernels_are_batch_size_invariant(self, cell):
        """A stacked update equals the same rows applied one at a time, bit for bit.

        This is the numerical foundation of the wave scheduler: coalescing a
        wave of session-end updates into one ``[B, hidden]`` step must be
        invisible in every stored state, and so must stepping a long wave
        in blocks of ``UPDATE_BLOCK_ROWS``.  Pinned at the micro-batch sizes
        (1, 7, 64, 65) and on both sides of the block edge.
        """
        from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork

        config = RNNNetworkConfig(feature_dim=5, hidden_size=8, mlp_hidden=6, cell=cell, n_delta_buckets=4)
        network = RNNPrecomputeNetwork(config, rng=np.random.default_rng(3)).eval()
        sizes = (
            1, 7, 33, 64, 65,
            UPDATE_BLOCK_ROWS - 1, UPDATE_BLOCK_ROWS, UPDATE_BLOCK_ROWS + 1, 2 * UPDATE_BLOCK_ROWS + 7,
        )
        rng = np.random.default_rng(4)
        states = rng.normal(size=(max(sizes), network.state_size))
        update_inputs = rng.normal(size=(max(sizes), config.update_input_dim))
        one_at_a_time = np.vstack(
            [network.update_hidden_batch(states[i : i + 1], update_inputs[i : i + 1]) for i in range(max(sizes))]
        )
        for size in sizes:
            stacked = network.update_hidden_batch(states[:size], update_inputs[:size])
            np.testing.assert_array_equal(stacked, one_at_a_time[:size], err_msg=f"B = {size}")

    @pytest.mark.parametrize("cell", ["lstm", "tanh"])
    def test_service_replay_equivalent_across_batch_sizes(self, trained, cell):
        from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork

        dataset, rnn, _, events = trained
        config = RNNNetworkConfig(
            feature_dim=rnn.builder.feature_dim, hidden_size=8, mlp_hidden=8, cell=cell
        )
        network = RNNPrecomputeNetwork(config, rng=np.random.default_rng(1)).eval()
        results = {}
        for batch_size in (1, 16):
            engine = hidden_engine(rnn, dataset, batch_size, network=network)
            predictions = engine.replay(events[:200])
            results[batch_size] = (
                np.asarray([p.probability for p in predictions]),
                engine.store.stats.snapshot(),
            )
        np.testing.assert_allclose(results[1][0], results[16][0], rtol=0, atol=1e-10)
        assert results[1][1] == results[16][1]


class TestNothingACallerHoldsIsAliased:
    """Back-to-back backend calls hand out and record independent objects.

    The hot path allocates per call on purpose: nothing a caller still holds
    — a returned prediction list, the update list or columnar wave a
    ``wave_listeners`` observer was handed, a stored state array read back
    from the store — may be a view of something the next call rewrites.  This is the pin that
    stops a later optimisation from slipping in a per-backend scratch buffer
    silently (a twin backend that runs only the second call is the oracle).
    """

    @staticmethod
    def _backend(trained, layout):
        dataset, rnn, _, _ = trained
        return hidden_engine(rnn, dataset, 64, per_key=layout == "per_key").backend

    @staticmethod
    def _updates(events, offset=0):
        return [
            SessionUpdate(user_id=user_id, timestamp=timestamp + offset, context=context, accessed=accessed)
            for timestamp, user_id, context, accessed in events
        ]

    @pytest.mark.parametrize("layout", ["per_key", "arena"])
    def test_consecutive_predict_batches_are_independent(self, trained, layout):
        events = trained[3]
        backend, twin = self._backend(trained, layout), self._backend(trained, layout)
        for each in (backend, twin):
            each.apply_wave(self._updates(events[:24]))
        first_batch = [ServingRequest(u, context, t + 5_000) for t, u, context, _ in events[:8]]
        second_batch = [ServingRequest(u, context, t + 9_000) for t, u, context, _ in events[8:24]]
        first = backend.predict_batch(first_batch)
        kept = list(first)
        second = backend.predict_batch(second_batch)
        assert first is not second and first == kept  # the second call left the first's results alone
        first.clear()  # … and the caller doing what it likes with them leaves the second's alone
        assert second == twin.predict_batch(second_batch)
        assert backend.predict_batch(first_batch) == kept

    @pytest.mark.parametrize("layout", ["per_key", "arena"])
    def test_consecutive_waves_record_independent_results(self, trained, layout):
        events = trained[3]
        first_wave, second_wave = self._updates(events[:16]), self._updates(events[16:40], offset=7_200)
        backend, twin = self._backend(trained, layout), self._backend(trained, layout)
        observed: list[list[SessionUpdate]] = []
        backend.wave_listeners.append(observed.append)
        backend.apply_wave(first_wave)
        twin.apply_wave(list(first_wave))
        held = {
            key: backend.store.peek(key)["state"]
            for key in backend.store.keys()
            if key not in {f"hidden:{update.user_id}" for update in second_wave}
        }
        snapshot = {key: np.array(state) for key, state in held.items()}
        assert held and observed == [first_wave]
        observed[0].clear()  # the observer was handed the caller's list: it may consume it
        backend.apply_wave(second_wave)
        twin.apply_wave(list(second_wave))
        assert observed[1] == second_wave and observed[1] is not observed[0]
        # Users the second wave did not touch still read what the first wave
        # recorded — through the very arrays held since then.
        for key, state in held.items():
            np.testing.assert_array_equal(state, snapshot[key])
        assert sorted(backend.store.keys()) == sorted(twin.store.keys())
        for key in twin.store.keys():
            np.testing.assert_array_equal(backend.store.peek(key)["state"], twin.store.peek(key)["state"])
            assert backend.store.peek(key)["timestamp"] == twin.store.peek(key)["timestamp"]


    @pytest.mark.parametrize("layout", ["per_key", "arena"])
    def test_a_wave_a_listener_was_handed_outlives_the_waves_after_it(self, trained, layout):
        """Stream-fired waves reach a listener as the columnar wave the
        backend applied — not a copy, no ``SessionUpdate`` per row — and what
        it read then it still reads after later waves (and later
        registrations into the timer heap the columns came from)."""
        dataset, rnn, _, events = trained
        events = events[:200]
        engine = hidden_engine(rnn, dataset, 64, per_key=layout == "per_key", coalescing_window=45)
        observed: list[SessionWave] = []
        snapshots: list[list[tuple]] = []

        def listener(wave):
            assert isinstance(wave, SessionWave)
            observed.append(wave)
            snapshots.append(
                list(zip(wave.user_ids, wave.timestamps, [dict(c) for c in wave.contexts], wave.accessed))
            )

        engine.backend.wave_listeners.append(listener)
        engine.replay(events)
        assert len(observed) == engine.stream.waves_fired > 3
        assert max(len(wave) for wave in observed) > 1
        columns = [
            column for wave in observed
            for column in (wave.user_ids, wave.timestamps, wave.contexts, wave.accessed)
        ]
        assert len({id(column) for column in columns}) == len(columns)  # no column is shared
        for wave, snapshot in zip(observed, snapshots):
            assert list(zip(wave.user_ids, wave.timestamps, wave.contexts, wave.accessed)) == snapshot
        # Every session reached the listener exactly once, in delivery order
        # (fire time, then registration — the order they were observed in).
        delivered = [row for snapshot in snapshots for row in snapshot]
        assert delivered == [(u, t, context, accessed) for t, u, context, accessed in events]


class TestWaveContract:
    """``apply_wave`` takes the columnar wave; a hand-built update list is
    converted once at the same door and lands the same bits."""

    @staticmethod
    def _backends(trained, kind):
        dataset, rnn, gbdt, _ = trained
        if kind == "aggregation":
            return [aggregation_engine(gbdt, dataset, 8).backend for _ in range(2)]
        return [hidden_engine(rnn, dataset, 8, per_key=kind == "per_key").backend for _ in range(2)]

    @pytest.mark.parametrize("kind", ["per_key", "arena", "aggregation"])
    def test_an_update_list_and_a_wave_leave_bit_equal_stores(self, trained, kind):
        events = trained[3][:60]  # several sessions per user: same-user sub-waves run too
        assert len({user_id for _, user_id, _, _ in events}) < len(events)
        updates = [
            SessionUpdate(user_id=user_id, timestamp=timestamp, context=context, accessed=accessed)
            for timestamp, user_id, context, accessed in events
        ]
        wave = SessionWave(*zip(*((u, t, context, accessed) for t, u, context, accessed in events)))
        assert len(wave) == len(updates)
        from_list, from_wave = self._backends(trained, kind)
        handed = {"list": [], "wave": []}
        from_list.wave_listeners.append(handed["list"].append)
        from_wave.wave_listeners.append(handed["wave"].append)
        from_list.apply_wave(updates)
        from_wave.apply_wave(wave)
        from_wave.apply_wave(SessionWave((), (), (), ()))  # an empty wave is a no-op
        # Listeners are handed the very object the call was, never a rebuild.
        assert handed["list"][0] is updates and handed["wave"][0] is wave
        assert from_list.updates_applied == from_wave.updates_applied == len(events)
        assert from_list.store.stats.snapshot() == from_wave.store.stats.snapshot()
        assert sorted(from_list.store.keys()) == sorted(from_wave.store.keys())
        for key in from_list.store.keys():
            expected, actual = from_list.store.peek(key), from_wave.store.peek(key)
            if kind == "aggregation":
                assert actual == expected
            else:
                assert actual["timestamp"] == expected["timestamp"]
                assert actual["state"].dtype == expected["state"].dtype
                np.testing.assert_array_equal(actual["state"], expected["state"])


class TestBlockedWaves:
    """A wave longer than ``UPDATE_BLOCK_ROWS`` is stepped in row blocks.

    The split must be invisible: every stored record, every store meter and
    every arena row assignment equals the same updates applied one at a
    time — with one user repeated within blocks and across the block edge —
    and the lane's transient memory must stop growing with the wave.
    """

    STORES = {
        "per_key": {"per_key": True},
        "arena": {},
        "quantized": {"quantize": True},
        "sharded": {"n_shards": 4, "replication": 2},
    }

    @staticmethod
    def _wave(n_rows, *, start=BASE_TIME, repeat_every=None):
        """``n_rows`` sessions; with ``repeat_every``, user 0 takes every
        such row and both rows either side of each block edge."""
        user_ids = list(range(1, n_rows + 1))
        if repeat_every is not None:
            for row in range(n_rows):
                if row % repeat_every == 0 or row % UPDATE_BLOCK_ROWS in (0, UPDATE_BLOCK_ROWS - 1):
                    user_ids[row] = 0
        rows = range(n_rows)
        contexts = [{"badge": float(row % 9), "surface": float(row % 3)} for row in rows]
        return SessionWave(user_ids, [start + row for row in rows], contexts, [row % 3 == 0 for row in rows])

    @staticmethod
    def _arena_rows(store):
        shards = getattr(store, "shards", [store])
        return [sorted((shard.arena.row_of(key), key) for key in shard.keys()) for shard in shards if shard.arena]

    @staticmethod
    def _step_sizes(monkeypatch, network) -> list[int]:
        """Rows per ``update_hidden_batch`` call from here on (the network is
        shared by the suite, so the spy is undone after the test)."""
        sizes, step = [], network.update_hidden_batch
        monkeypatch.setattr(network, "update_hidden_batch", lambda s, x: sizes.append(len(s)) or step(s, x))
        return sizes

    @pytest.mark.parametrize("store", list(STORES))
    def test_a_long_wave_matches_its_updates_one_at_a_time(self, serving_parts, monkeypatch, store):
        n_rows = 2 * UPDATE_BLOCK_ROWS + 7
        wave = self._wave(n_rows, repeat_every=97)
        assert wave.user_ids.count(0) > 2 * 3  # repeated in every block, and across each edge
        blocked, single = (build_engine(serving_parts, **self.STORES[store]) for _ in range(2))
        steps = self._step_sizes(monkeypatch, blocked.backend.network)
        blocked.backend.apply_wave(wave)
        monkeypatch.undo()
        assert max(steps) <= UPDATE_BLOCK_ROWS and len(steps) > 3  # blocks, each with user-0 sub-waves
        assert sum(steps) == n_rows
        for row in range(n_rows):
            single.backend.apply_wave(
                SessionWave(
                    wave.user_ids[row : row + 1], wave.timestamps[row : row + 1],
                    wave.contexts[row : row + 1], wave.accessed[row : row + 1],
                )
            )
        assert first_difference(observe(blocked, []), observe(single, [])) is None
        for left, right in zip(getattr(blocked.store, "shards", ()), getattr(single.store, "shards", ())):
            assert left.stats.snapshot() == right.stats.snapshot()
        assert self._arena_rows(blocked.store) == self._arena_rows(single.store)

    @pytest.mark.parametrize("n_rows", [UPDATE_BLOCK_ROWS, UPDATE_BLOCK_ROWS + 1])
    def test_a_wave_up_to_the_block_is_one_step(self, serving_parts, monkeypatch, n_rows):
        backend = build_engine(serving_parts).backend
        steps = self._step_sizes(monkeypatch, backend.network)
        backend.apply_wave(self._wave(n_rows))
        assert steps == [UPDATE_BLOCK_ROWS] + [1] * (n_rows - UPDATE_BLOCK_ROWS)

    @pytest.mark.parametrize("layout", ["per_key", "arena"])
    def test_transient_memory_does_not_grow_with_the_wave(self, serving_parts, layout):
        """``tracemalloc`` peak above what ``apply_wave`` leaves behind, for
        a 2-block and an 8-block wave of users already stored.  A lane that
        steps the wave whole reads 4x more on the 8-block wave (≈ 2.2 KB per
        row of kernel temporaries at this model's size)."""

        def transient(n_rows):
            backend = build_engine(serving_parts, per_key=layout == "per_key").backend
            backend.apply_wave(self._wave(n_rows))
            wave = self._wave(n_rows, start=BASE_TIME + 10_000)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                backend.apply_wave(wave)
                after, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - max(before, after)

        small, large = transient(2 * UPDATE_BLOCK_ROWS), transient(8 * UPDATE_BLOCK_ROWS)
        assert large - small <= 8 * (6 * UPDATE_BLOCK_ROWS), (small, large)  # under 8 bytes per extra row


class TestRowContract:
    """Requests, predictions and hand-built updates are immutable rows.

    Each record is a fixed sequence of named fields, built positionally or
    by keyword alike, frozen, and hashable whenever its fields are; a
    backend's ``predict_batch`` hands back one prediction per request, in
    submission order, carrying the request's user and timestamp.
    """

    RECORDS = {
        "request": (ServingRequest, {"user_id": 7, "context": {"unread_count": 2.0}, "timestamp": 100}),
        "prediction": (
            ServingPrediction,
            {"user_id": 7, "timestamp": 100, "probability": 0.25, "kv_lookups": 1, "bytes_fetched": 72},
        ),
        "update": (
            SessionUpdate,
            {"user_id": 7, "timestamp": 100, "context": {"unread_count": 2.0}, "accessed": True},
        ),
    }

    @staticmethod
    def _field_names(record) -> tuple[str, ...]:
        # A tuple row names its fields in ``_fields``; a dataclass record
        # (the spelling these rows replaced) through ``dataclasses.fields``.
        if dataclasses.is_dataclass(record):
            return tuple(field.name for field in dataclasses.fields(record))
        return record._fields

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_field_names_and_order(self, name):
        record, values = self.RECORDS[name]
        assert self._field_names(record) == tuple(values)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_positional_and_keyword_rows_are_equal(self, name):
        record, values = self.RECORDS[name]
        positional, keyword = record(*values.values()), record(**values)
        assert positional == keyword
        assert [getattr(positional, field) for field in values] == list(values.values())

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_rows_are_frozen(self, name):
        record, values = self.RECORDS[name]
        row = record(**values)
        for field in values:
            with pytest.raises(AttributeError):
                setattr(row, field, None)
        assert row == record(**values)

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_rows_hash_where_every_field_does(self, name):
        record, values = self.RECORDS[name]
        hashable = {field: None if field == "context" else value for field, value in values.items()}
        assert len({record(**hashable), record(*hashable.values())}) == 1
        if "context" in values:  # a dict context makes the row unhashable, as the dict is
            with pytest.raises(TypeError):
                hash(record(**values))

    @pytest.mark.parametrize("kind", ["hidden_state", "aggregation"])
    def test_predict_batch_returns_one_row_per_request_in_order(self, trained, kind):
        dataset, rnn, gbdt, events = trained
        if kind == "aggregation":
            backend = aggregation_engine(gbdt, dataset, 64).backend
        else:
            backend = hidden_engine(rnn, dataset, 64).backend
        backend.apply_wave(
            [SessionUpdate(u, t, context, accessed) for t, u, context, accessed in events[:30]]
        )
        late = events[30][0] + 5_000
        requests = [ServingRequest(u, context, late + offset) for offset, (_, u, context, _) in enumerate(events[:12])]
        # A user twice (once later, once on a user with no stored history) …
        repeated = requests[3]
        requests.insert(7, ServingRequest(repeated.user_id, repeated.context, late + 900))
        unseen = max(u for _, u, _, _ in events) + 1
        requests.append(ServingRequest(unseen, events[0][2], late + 901))
        if kind == "aggregation":  # … and a request with no current session.
            requests.insert(5, ServingRequest(requests[5].user_id, None, late + 902))
        assert len({request.user_id for request in requests}) < len(requests)
        predictions = backend.predict_batch(requests)
        assert len(predictions) == len(requests)
        assert [(p.user_id, p.timestamp) for p in predictions] == [(r.user_id, r.timestamp) for r in requests]
        # Row i is request i's own prediction: scored alone, it reads the same.
        for request, prediction in zip(requests, predictions):
            (alone,) = backend.predict_batch([request])
            assert (prediction.kv_lookups, prediction.bytes_fetched) == (alone.kv_lookups, alone.bytes_fetched)
            assert prediction.probability == pytest.approx(alone.probability, abs=1e-10)
        assert len({p.bytes_fetched for p in predictions}) > 1
        assert backend.predict_batch([]) == []


class TestMicroBatchQueue:
    def test_auto_flush_at_max_batch_size(self, trained):
        dataset, rnn, _, events = trained
        engine = hidden_engine(rnn, dataset, 4)
        queue = engine.queue
        for timestamp, user_id, context, _ in events[:3]:
            assert queue.submit(user_id, context, timestamp) == []
        assert queue.pending == 3
        timestamp, user_id, context, _ = events[3]
        completed = queue.submit(user_id, context, timestamp)
        assert len(completed) == 4 and queue.pending == 0
        assert queue.batches_flushed == 1 and queue.mean_batch_size == 4.0
        # The submit return was the delivery: nothing left to drain.
        assert queue.drain_completed() == []

    def test_advance_to_flushes_before_due_timer(self, trained):
        dataset, rnn, _, events = trained
        engine = hidden_engine(rnn, dataset, 1000)
        stream = engine.stream
        queue = engine.queue
        timestamp, user_id, context, _ = events[0]
        stream.advance_to(timestamp)
        queue.submit(user_id, context, timestamp)
        engine.observe_session(user_id, context, timestamp, True)
        fire_at = timestamp + dataset.session_length + engine.config.extra_lag
        # Advancing short of the timer leaves the queue intact…
        assert queue.advance_to(fire_at - 1) == []
        assert queue.pending == 1 and engine.updates_applied == 0
        # …crossing it flushes first, then fires the update.
        completed = queue.advance_to(fire_at)
        assert len(completed) == 1
        assert queue.pending == 0 and engine.updates_applied == 1
        assert queue.drain_completed() == []

    def test_direct_stream_drive_cannot_bypass_the_barrier(self, trained):
        """Driving the StreamProcessor directly must still flush queued requests first.

        The seed-era idiom advances and flushes the stream itself; the queue
        registers a barrier on the stream so that ordering stays equivalent.
        Barrier flushes have no caller, so their results surface exactly once
        from ``drain_completed`` — the delivered and drained channels must
        partition the request set.
        """
        dataset, rnn, _, events = trained
        reference, reference_store = replay_hidden_reference(rnn, dataset, events)
        engine = hidden_engine(rnn, dataset, 16)
        store, stream = engine.store, engine.stream
        predictions = []
        for timestamp, user_id, context, accessed in events:
            stream.advance_to(timestamp)  # stream driven directly, not via the queue
            predictions += engine.submit(user_id, context, timestamp)
            engine.observe_session(user_id, context, timestamp, accessed)
        stream.flush()  # seed idiom: stream flushed while requests may be queued
        predictions += engine.flush()
        predictions += engine.drain_completed()
        assert len(predictions) == len(events)
        assert [p.timestamp for p in predictions] == [event[0] for event in events]
        np.testing.assert_allclose(
            np.asarray([p.probability for p in predictions]), reference, rtol=0, atol=1e-10
        )
        assert store.stats.snapshot() == reference_store.stats.snapshot()

    def test_predict_across_due_timer_returns_own_result(self, trained):
        """A barrier flush inside submit must not be mistaken for predict's own."""
        dataset, rnn, _, events = trained
        engine = hidden_engine(rnn, dataset, 8)
        stream = engine.stream
        t1, u1, c1, _ = events[0]
        stream.advance_to(t1)
        engine.submit(u1, c1, t1)
        engine.observe_session(u1, c1, t1, True)
        fire_at = t1 + dataset.session_length + engine.config.extra_lag
        # predict stamped past the due timer: submit's barrier completes u1's
        # queued request and fires the update, then scores this one.
        other = u1 + 1
        prediction = engine.queue.predict(other, c1, fire_at + 5)
        assert prediction.user_id == other and prediction.timestamp == fire_at + 5
        assert engine.queue.pending == 0 and engine.updates_applied == 1
        drained = engine.drain_completed()
        assert [(p.user_id, p.timestamp) for p in drained] == [(u1, t1)]

    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ValueError):
            MicroBatchQueue(backend=None, max_batch_size=0, stream=StreamProcessor())

    def test_submit_before_advance_respects_timer_barrier(self, trained):
        """Batch-size invariance must not depend on advance/submit call order."""
        dataset, rnn, _, events = trained
        reference, reference_store = replay_hidden_reference(rnn, dataset, events)
        engine = hidden_engine(rnn, dataset, 16)
        store, stream = engine.store, engine.stream
        predictions = []
        for timestamp, user_id, context, accessed in events:
            # Submit first: the queue itself must flush past-due work and
            # fire the timers before this request can be enqueued.
            predictions += engine.submit(user_id, context, timestamp)
            predictions += engine.advance_to(timestamp)
            engine.observe_session(user_id, context, timestamp, accessed)
        predictions += engine.flush()
        stream.flush()
        predictions += engine.drain_completed()
        assert [(p.timestamp, p.user_id) for p in predictions] == [(e[0], e[1]) for e in events]
        probabilities = np.asarray([p.probability for p in predictions])
        np.testing.assert_allclose(probabilities, reference, rtol=0, atol=1e-10)
        assert store.stats.snapshot() == reference_store.stats.snapshot()

    def test_predict_interleaved_with_submit_keeps_earlier_results(self, trained):
        dataset, rnn, _, events = trained
        engine = hidden_engine(rnn, dataset, 8)
        (t1, u1, c1, _), (t2, u2, c2, _), (t3, u3, c3, _) = events[:3]
        assert engine.submit(u1, c1, t1) == []
        assert engine.submit(u2, c2, t2) == []
        prediction = engine.queue.predict(u3, c3, t3)
        assert prediction.user_id == u3 and prediction.timestamp == t3
        # The flush triggered by predict() must not swallow the queued results.
        remaining = engine.drain_completed()
        assert [(p.user_id, p.timestamp) for p in remaining] == [(u1, t1), (u2, t2)]


class TestDrainedCursor:
    """Regression pins for the exactly-once delivery contract.

    PR 1 dual-delivered flush results (returned *and* retained), which made
    "collect returns + drain periodically" double-count.  These tests pin the
    replacement: a result returned from any public call never reappears.
    """

    def test_flush_results_never_reappear_in_drain(self, trained):
        dataset, rnn, _, events = trained
        engine = hidden_engine(rnn, dataset, 64)
        for timestamp, user_id, context, _ in events[:5]:
            engine.submit(user_id, context, timestamp)
        flushed = engine.flush()
        assert len(flushed) == 5
        assert engine.drain_completed() == []
        # A second flush with nothing pending delivers nothing.
        assert engine.flush() == []

    def test_barrier_retained_results_drain_exactly_once(self, trained):
        dataset, rnn, _, events = trained
        engine = hidden_engine(rnn, dataset, 64)
        stream = engine.stream
        t1, u1, c1, _ = events[0]
        stream.advance_to(t1)
        engine.submit(u1, c1, t1)
        engine.observe_session(u1, c1, t1, True)
        # Drive the stream directly: the barrier flush has no caller, so the
        # result must surface from drain_completed — exactly once.
        stream.flush()
        drained = engine.drain_completed()
        assert [(p.user_id, p.timestamp) for p in drained] == [(u1, t1)]
        assert engine.drain_completed() == []
        assert engine.queue.undelivered == 0

    def test_observe_session_barrier_does_not_lose_results(self, trained):
        """Stream-barrier flushes on the aggregation path retain results, never drop them."""
        dataset, _, gbdt, events = trained
        engine = aggregation_engine(gbdt, dataset, 64)
        collected = engine.replay(events[:40])
        assert [(p.user_id, p.timestamp) for p in collected] == [(e[1], e[0]) for e in events[:40]]

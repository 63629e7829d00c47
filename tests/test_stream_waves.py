"""Property suite for the wave-coalesced timer scheduler.

Randomized timer/publish interleavings (explicit seeds, many trials) pin the
two claims the serving engine leans on:

* **Order** — wave delivery is a pure regrouping: the flattened firing
  sequence equals the per-timer sequence exactly, and intra-wave ordering is
  deterministic (fire timestamp first, then registration order), replay
  after replay.
* **Equivalence** — replaying the same session stream through the hidden
  state engine with wave-coalesced updates is *bit-identical* to the
  per-timer path in every observable: stored states, served probabilities,
  KV traffic, and per-shard meter totals.  The update kernels are
  batch-size invariant (``row_stable_linear``), so this holds exactly, not
  just to tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ContextField, ContextSchema
from repro.features.sequence import SequenceBuilder
from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork
from repro.serving import (
    EngineConfig,
    KeyValueStore,
    ServingEngine,
    StreamEvent,
    StreamProcessor,
)

N_TRIALS = 25


def random_timer_schedule(rng, n_timers=40, span=200):
    """(fire_at, key) pairs with deliberate fire-time collisions."""
    fire_ats = rng.integers(0, span, size=n_timers)
    # Force collisions: round a third of the timers onto a coarse grid.
    coarse = rng.random(n_timers) < 0.34
    fire_ats[coarse] -= fire_ats[coarse] % 10
    return [(int(fire_at), f"k{i}") for i, fire_at in enumerate(fire_ats)]


def advance_steps(rng, span=200):
    steps = np.unique(rng.integers(0, span + 20, size=int(rng.integers(1, 8))))
    return [int(s) for s in steps] + [span + 30]


class TestWaveOrdering:
    def _replay(self, schedule, steps, publishes, *, grouped, window=0):
        """Run one schedule; returns the flattened (fire_at, key, n_events) firing log."""
        stream = StreamProcessor(coalescing_window=window)
        log: list[tuple[int, str, int]] = []
        waves: list[list[str]] = []

        def on_wave(firings):
            waves.append([f.key for f in firings])
            log.extend((f.fire_at, f.key, len(f.events)) for f in firings)

        group = stream.timer_group(on_wave)
        for at, key, payload in publishes:
            if at == -1:  # pre-registration publish
                stream.publish(StreamEvent("ctx", key, 0, {"v": payload}))
        for fire_at, key in schedule:
            if grouped:
                group.set_timer(fire_at, key, payload=key)
            else:
                stream.set_timer(
                    fire_at, key, lambda k, events, f=fire_at: log.append((f, k, len(events)))
                )
        for step in steps:
            stream.advance_to(step)
        assert stream.pending_timers == 0
        return log, waves, stream

    def test_wave_delivery_is_a_pure_regrouping_of_the_per_timer_order(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(1000 + trial)
            schedule = random_timer_schedule(rng)
            steps = advance_steps(rng)
            publishes = [(-1, f"k{int(i)}", 1.0) for i in rng.integers(0, 40, size=10)]
            grouped_log, waves, grouped_stream = self._replay(
                schedule, steps, publishes, grouped=True
            )
            single_log, _, single_stream = self._replay(schedule, steps, publishes, grouped=False)
            assert grouped_log == single_log
            # Same timers fired; fewer (or equal) deliveries.
            assert grouped_stream.timers_fired == single_stream.timers_fired == len(schedule)
            assert grouped_stream.waves_fired <= single_stream.timers_fired
            # Intra-wave ordering: fire timestamp, then registration order.
            key_seq = {key: seq for seq, (_, key) in enumerate(schedule)}
            fire_of = dict((key, fire_at) for fire_at, key in schedule)
            for wave in waves:
                marks = [(fire_of[key], key_seq[key]) for key in wave]
                assert marks == sorted(marks)

    def test_wave_composition_is_deterministic_across_replays(self):
        for trial in range(5):
            rng = np.random.default_rng(2000 + trial)
            schedule = random_timer_schedule(rng)
            steps = advance_steps(rng)
            _, first, _ = self._replay(schedule, steps, [], grouped=True, window=7)
            _, second, _ = self._replay(schedule, steps, [], grouped=True, window=7)
            assert first == second

    def test_interleaved_plain_timer_splits_the_group_run(self):
        stream = StreamProcessor()
        calls: list[object] = []
        group = stream.timer_group(lambda firings: calls.append([f.key for f in firings]))
        group.set_timer(50, "a")
        stream.set_timer(50, "b", lambda key, events: calls.append(key))
        group.set_timer(50, "c")
        assert stream.advance_to(50) == 3
        # One wave, three deliveries: the plain timer keeps its exact slot.
        assert calls == [["a"], "b", ["c"]]
        assert stream.waves_fired == 1

    def test_coalescing_window_absorbs_near_timers_but_not_past_the_target(self):
        stream = StreamProcessor(coalescing_window=10)
        waves: list[list[int]] = []
        group = stream.timer_group(lambda firings: waves.append([f.fire_at for f in firings]))
        for fire_at in (100, 105, 110, 111, 130):
            group.set_timer(fire_at, f"t{fire_at}")
        # Advance into the middle of the window: the wave stops at the target.
        assert stream.advance_to(104) == 1
        assert waves == [[100]]
        assert stream.clock == 104
        # The next wave opens at 105 and absorbs up to 115.
        assert stream.advance_to(200) == 4
        assert waves == [[100], [105, 110, 111], [130]]

    def test_control_timer_inside_a_wave_window_keeps_its_slot_and_is_retired(self):
        stream = StreamProcessor(coalescing_window=30)
        calls: list[tuple[object, int]] = []
        group = stream.timer_group(
            lambda firings: calls.append(([f.key for f in firings], stream.clock))
        )
        group.set_timer(100, "a")
        stream.set_control_timer(105, "control", lambda key, events: calls.append((key, stream.clock)))
        group.set_timer(110, "b")
        assert stream.next_timer_at == 100
        assert stream.advance_to(200) == 3
        # One wave: the control timer runs by itself between the two group
        # runs, at the wave's closing clock.
        assert calls == [(["a"], 110), ("control", 110), (["b"], 110)]
        assert stream.waves_fired == 1
        # ... and its seq is gone, so next_timer_at is back on its O(1) path.
        assert stream._control_seqs == set()
        group.set_timer(300, "c")
        assert stream.next_timer_at == 300

    def test_control_timer_registered_after_a_same_second_data_timer_is_retired(self):
        stream = StreamProcessor()
        calls: list[object] = []
        group = stream.timer_group(lambda firings: calls.append([f.key for f in firings]))
        group.set_timer(50, "a")
        stream.set_control_timer(50, "control", lambda key, events: calls.append(key))
        assert stream.advance_to(50) == 2
        assert calls == [["a"], "control"]
        assert stream._control_seqs == set()

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            StreamProcessor(coalescing_window=-1)


# ----------------------------------------------------------------------
# Engine equivalence: wave-coalesced vs per-timer session updates.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def serving_parts():
    schema = ContextSchema(
        fields=(
            ContextField("badge", "numeric"),
            ContextField("surface", "categorical", cardinality=3),
        )
    )
    builder = SequenceBuilder(schema)
    config = RNNNetworkConfig(feature_dim=builder.feature_dim, hidden_size=12, mlp_hidden=8)
    network = RNNPrecomputeNetwork(config, rng=np.random.default_rng(5)).eval()
    return schema, builder, network


def random_session_events(rng, n_events=120, n_users=12, session_length=600):
    """Time-ordered (timestamp, user_id, context, accessed) with bursty starts.

    Timestamps cluster on a coarse grid so many session windows close in the
    same second — the wave case — while jittered stragglers keep singleton
    waves in the mix.
    """
    base = 1_600_000_000
    raw = rng.integers(0, 5_000, size=n_events)
    bursty = rng.random(n_events) < 0.6
    raw[bursty] -= raw[bursty] % 300
    timestamps = np.sort(base + raw)
    events = []
    for timestamp in timestamps:
        # Duplicate (user, second) sessions are deliberately possible: the
        # sequence-numbered session keys must keep them distinct, and a wave
        # containing both must apply them in order via same-user sub-waves.
        events.append(
            (
                int(timestamp),
                int(rng.integers(0, n_users)),
                {"badge": float(rng.integers(0, 9)), "surface": float(rng.integers(0, 3))},
                bool(rng.random() < 0.4),
            )
        )
    return events


def replay(parts, events, *, coalesce, batch_size, window=0, **config):
    _, builder, network = parts
    engine = ServingEngine.build(
        EngineConfig(
            backend="hidden_state",
            session_length=600,
            max_batch_size=batch_size,
            coalesce_updates=coalesce,
            coalescing_window=window,
            **config,
        ),
        network=network,
        builder=builder,
    )
    return engine.replay(events), engine


class TestWaveEquivalence:
    def test_per_timer_delivery_meters_the_same_window_delay_as_waves(self, serving_parts):
        """Regression: a coalescing window delays ungrouped timers too, and
        ``update_delay_seconds`` must say so (it used to stay 0 on the
        per-timer path, hiding the window_sweep latency cost at batch 1)."""
        rng = np.random.default_rng(4000)
        events = random_session_events(rng)
        _, single_engine = replay(serving_parts, events, coalesce=False, batch_size=1, window=45)
        _, wave_engine = replay(serving_parts, events, coalesce=True, batch_size=1, window=45)
        assert single_engine.backend.update_delay_seconds > 0
        assert single_engine.backend.update_delay_seconds == wave_engine.backend.update_delay_seconds
        # Same-second delivery still adds no latency on either path.
        _, immediate = replay(serving_parts, events, coalesce=False, batch_size=1, window=0)
        assert immediate.backend.update_delay_seconds == 0

    def test_update_delay_meter_is_float_end_to_end(self, serving_parts):
        """The Backend protocol declares ``update_delay_seconds: float`` and
        both delivery paths must honour it — the meter starts at ``0.0``,
        stays a float through per-timer and wave accumulation, and surfaces
        as a float from the engine facade (it used to start life as the int
        ``0`` while the wave path summed floats into it)."""
        rng = np.random.default_rng(4500)
        events = random_session_events(rng)
        for coalesce in (False, True):
            _, engine = replay(serving_parts, events, coalesce=coalesce, batch_size=4, window=45)
            assert isinstance(engine.backend.update_delay_seconds, float)
            assert isinstance(engine.update_delay_seconds, float)
            assert engine.backend.update_delay_seconds > 0
        # Untouched meters are float zero, not int zero.
        from repro.serving import BatchedHiddenStateBackend as Backend

        _, builder, network = serving_parts
        fresh = Backend(network, builder, KeyValueStore(), StreamProcessor(), 600)
        assert isinstance(fresh.update_delay_seconds, float)

    @pytest.mark.parametrize("batch_size", [1, 16])
    def test_wave_updates_bit_identical_to_per_timer_updates(self, serving_parts, batch_size):
        for trial in range(8):
            rng = np.random.default_rng(3000 + trial)
            events = random_session_events(rng)
            single, single_engine = replay(
                serving_parts, events, coalesce=False, batch_size=batch_size
            )
            waved, wave_engine = replay(serving_parts, events, coalesce=True, batch_size=batch_size)
            single_store, wave_store = single_engine.store, wave_engine.store
            # Coalescing actually happened (bursty starts share fire seconds)…
            assert wave_engine.stream.waves_fired < wave_engine.stream.timers_fired
            # …and is invisible: bit-identical probabilities, states, traffic.
            np.testing.assert_array_equal(
                np.asarray([p.probability for p in waved]),
                np.asarray([p.probability for p in single]),
            )
            assert wave_store.stats.snapshot() == single_store.stats.snapshot()
            assert sorted(wave_store.keys()) == sorted(single_store.keys())
            for key in single_store.keys():
                expected, actual = single_store.get(key), wave_store.get(key)
                assert actual["timestamp"] == expected["timestamp"]
                np.testing.assert_array_equal(actual["state"], expected["state"])

    def test_wider_coalescing_windows_stay_bit_identical(self, serving_parts):
        rng = np.random.default_rng(4000)
        events = random_session_events(rng)
        reference, reference_engine = replay(serving_parts, events, coalesce=False, batch_size=8)
        reference_store = reference_engine.store
        # Freeze the replay's metered traffic: the state comparisons below go
        # through the metering ``get`` and must not count as serving reads.
        reference_stats = reference_store.stats.snapshot()
        for window in (1, 30, 600):
            predictions, engine = replay(
                serving_parts, events, coalesce=True, batch_size=8, window=window
            )
            store = engine.store
            np.testing.assert_array_equal(
                np.asarray([p.probability for p in predictions]),
                np.asarray([p.probability for p in reference]),
            )
            assert store.stats.snapshot() == reference_stats
            for key in reference_store.keys():
                np.testing.assert_array_equal(
                    store.get(key)["state"], reference_store.get(key)["state"]
                )

    def test_sharded_meter_totals_unchanged_by_waves(self, serving_parts):
        rng = np.random.default_rng(5000)
        events = random_session_events(rng)
        # Same pool name: the consistent-hash ring seeds on it, and the
        # per-shard comparison needs identical key→shard routing.
        pool = {"n_shards": 5, "store_name": "rnn"}
        single_store = replay(serving_parts, events, coalesce=False, batch_size=8, **pool)[1].store
        wave_store = replay(serving_parts, events, coalesce=True, batch_size=8, **pool)[1].store
        assert wave_store.stats.snapshot() == single_store.stats.snapshot()
        assert wave_store.total_bytes == single_store.total_bytes
        assert wave_store.shard_snapshots() == single_store.shard_snapshots()

    def test_wave_delivery_matches_direct_apply_wave(self, serving_parts):
        """Scheduler delivery adds nothing: a wave equals applying the same
        updates directly through the backend, bit for bit."""
        from repro.serving import SessionUpdate

        _, builder, network = serving_parts
        rng = np.random.default_rng(6000)
        base = 1_600_000_000
        updates = [
            SessionUpdate(
                user_id=i,
                timestamp=base,
                context={"badge": float(i), "surface": float(i % 3)},
                accessed=bool(i % 2),
            )
            for i in range(9)
        ]
        stores = {name: KeyValueStore() for name in ("stream", "direct")}
        from repro.serving import BatchedHiddenStateBackend

        streamed = BatchedHiddenStateBackend(
            network, builder, stores["stream"], StreamProcessor(), 600
        )
        for update in updates:
            streamed.observe_session(update.user_id, update.context, update.timestamp, update.accessed)
        assert streamed.stream.flush() == len(updates)
        assert streamed.stream.waves_fired == 1

        direct = BatchedHiddenStateBackend(
            network, builder, stores["direct"], StreamProcessor(), 600
        )
        direct.apply_wave(updates)
        for key in stores["direct"].keys():
            np.testing.assert_array_equal(
                stores["stream"].get(key)["state"], stores["direct"].get(key)["state"]
            )

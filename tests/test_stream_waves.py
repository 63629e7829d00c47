"""Property suite for the wave-coalesced timer scheduler.

Randomized timer interleavings (explicit seeds, many trials) pin the claims
the serving engine leans on:

* **Order** — wave delivery is a pure regrouping: the flattened
  ``(fire_at, key, payload)`` sequence a group callback receives as columns
  equals the per-timer sequence exactly, and intra-wave ordering is
  deterministic (fire timestamp first, then registration order), replay
  after replay.
* **The run-length heap** — consecutive registrations of one group for one
  fire second share one heap entry; a seeded program of group / plain /
  control pushes and clock advances is checked, step by step, against a
  per-timer reference scheduler that keeps one heap entry per timer and
  recomputes the runs when a wave fires (the layout the run-length heap
  replaced), and each way the run bookkeeping could go wrong has a named
  case.
* **Equivalence** — replaying the same session stream through the hidden
  state engine with wave-coalesced updates is *bit-identical* to the
  per-timer path in every observable: stored states, served probabilities,
  KV traffic, and per-shard meter totals.  The update kernels are
  batch-size invariant (``row_stable_linear``), so this holds exactly, not
  just to tolerance.
"""

from __future__ import annotations

import heapq

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
    def _replay(self, schedule, steps, *, grouped, window=0):
        """Run one schedule; returns the flattened (fire_at, key, payload) firing log."""
        stream = StreamProcessor(coalescing_window=window)
        log: list[tuple[int, str, str]] = []
        waves: list[list[str]] = []

        def on_wave(fire_ats, keys, payloads):
            assert len(fire_ats) == len(keys) == len(payloads)
            waves.append(list(keys))
            log.extend(zip(fire_ats, keys, payloads))

        group = stream.timer_group(on_wave)
        for fire_at, key in schedule:
            if grouped:
                group.set_timer(fire_at, key, payload=f"row-{key}")
            else:
                stream.set_timer(
                    fire_at, key, lambda k, events, f=fire_at: log.append((f, k, f"row-{k}"))
                )
        assert stream.pending_timers == len(schedule)
        for step in steps:
            stream.advance_to(step)
        assert stream.pending_timers == 0
        return log, waves, stream

    def test_wave_delivery_is_a_pure_regrouping_of_the_per_timer_order(self):
        for trial in range(N_TRIALS):
            rng = np.random.default_rng(1000 + trial)
            schedule = random_timer_schedule(rng)
            steps = advance_steps(rng)
            grouped_log, waves, grouped_stream = self._replay(schedule, steps, grouped=True)
            single_log, _, single_stream = self._replay(schedule, steps, grouped=False)
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
            _, first, _ = self._replay(schedule, steps, grouped=True, window=7)
            _, second, _ = self._replay(schedule, steps, grouped=True, window=7)
            assert first == second

    def test_interleaved_plain_timer_splits_the_group_run(self):
        stream = StreamProcessor()
        calls: list[object] = []
        group = stream.timer_group(lambda fire_ats, keys, payloads: calls.append(keys))
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
        group = stream.timer_group(lambda fire_ats, keys, payloads: waves.append(fire_ats))
        for fire_at in (100, 105, 110, 111, 130):
            group.set_timer(fire_at, f"t{fire_at}")
        # Advance into the middle of the window: the wave stops at the target.
        assert stream.advance_to(104) == 1
        assert waves == [[100]]
        assert stream.clock == 104
        # The next wave opens at 105 and absorbs up to 115: three runs of
        # one group, adjacent in the wave, reach the callback as one call.
        assert stream.advance_to(200) == 4
        assert waves == [[100], [105, 110, 111], [130]]

    def test_control_timer_inside_a_wave_window_keeps_its_slot_and_is_retired(self):
        stream = StreamProcessor(coalescing_window=30)
        calls: list[tuple[object, int]] = []
        group = stream.timer_group(
            lambda fire_ats, keys, payloads: calls.append((keys, stream.clock))
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
        group = stream.timer_group(lambda fire_ats, keys, payloads: calls.append(keys))
        group.set_timer(50, "a")
        stream.set_control_timer(50, "control", lambda key, events: calls.append(key))
        assert stream.advance_to(50) == 2
        assert calls == [["a"], "control"]
        assert stream._control_seqs == set()

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            StreamProcessor(coalescing_window=-1)


class PerTimerScheduler:
    """The reference: one heap entry per timer, runs recomputed at fire time.

    This is the scheduling algorithm the run-length heap replaced, kept here
    behind the same registration and clock surface as ``StreamProcessor`` so
    one program can drive both and be compared step by step.  Group
    callbacks receive the same columns; it buffers no events.
    """

    class Group:
        def __init__(self, scheduler, callback):
            self.scheduler, self.callback = scheduler, callback

        def set_timer(self, fire_at, key, payload=None):
            self.scheduler._push("group", fire_at, self.callback, key, payload)

    def __init__(self, coalescing_window=0):
        self.coalescing_window = coalescing_window
        self.timers = []  # (fire_at, seq, kind, callback, key, payload)
        self.seq = 0
        self.barriers = []
        self.clock = 0
        self.timers_fired = 0
        self.waves_fired = 0

    def _push(self, kind, fire_at, callback, key, payload=None):
        assert fire_at >= self.clock
        heapq.heappush(self.timers, (fire_at, self.seq, kind, callback, key, payload))
        self.seq += 1

    def timer_group(self, callback):
        return self.Group(self, callback)

    def set_timer(self, fire_at, key, callback):
        self._push("plain", fire_at, callback, key)

    def set_control_timer(self, fire_at, key, callback):
        self._push("control", fire_at, callback, key)

    def register_barrier(self, callback):
        self.barriers.append(callback)

    @property
    def pending_timers(self):
        return len(self.timers)

    @property
    def next_timer_at(self):
        due = [entry[0] for entry in self.timers if entry[2] != "control"]
        return min(due) if due else None

    def advance_to(self, timestamp):
        fired = 0
        while self.timers and self.timers[0][0] <= timestamp:
            if self.timers[0][2] == "control":
                fire_at, _, _, callback, key, _ = heapq.heappop(self.timers)
                self.clock = fire_at
                self.timers_fired += 1
                fired += 1
                callback(key, [])
                continue
            for barrier in self.barriers:
                barrier()
            deadline = min(timestamp, self.timers[0][0] + self.coalescing_window)
            wave = []
            while self.timers and self.timers[0][0] <= deadline:
                wave.append(heapq.heappop(self.timers))
            self.clock = wave[-1][0]
            self.waves_fired += 1
            self.timers_fired += len(wave)
            fired += len(wave)
            runs = []  # maximal consecutive stretches sharing one group callback
            for entry in wave:
                if entry[2] == "group" and runs and runs[-1][0] is entry[3]:
                    runs[-1][1].append(entry)
                else:
                    runs.append((entry[3] if entry[2] == "group" else None, [entry]))
            for callback, members in runs:
                if callback is None:
                    members[0][3](members[0][4], [])
                else:
                    callback(
                        [m[0] for m in members], [m[4] for m in members], [m[5] for m in members]
                    )
        self.clock = timestamp
        return fired

    def flush(self):
        return self.advance_to(max((entry[0] for entry in self.timers), default=self.clock))


class TestRunLengthHeap:
    """Consecutive same-group, same-second registrations share one heap entry.

    Every case below would pass on a heap of one entry per timer; each names
    the way the run bookkeeping could break it.
    """

    @staticmethod
    def _wire(scheduler, log):
        """Two groups, a barrier and single-timer callbacks that all write
        what they receive (and the clock they saw) into ``log``; returns
        ``push(kind, fire_at, key)``.  A group callback handed a multiple of
        three timers registers one more from inside the wave, due at the
        current clock: it fires later in the same advance."""
        groups = {}
        registered_mid_wave = [0]

        def on_wave(name):
            def callback(fire_ats, keys, payloads):
                log.append((name, scheduler.clock, list(fire_ats), list(keys), list(payloads)))
                if len(keys) % 3 == 0:
                    registered_mid_wave[0] += 1
                    push(name, scheduler.clock, f"mid{registered_mid_wave[0]}")
            return callback

        def push(kind, fire_at, key):
            if kind in groups:
                groups[kind].set_timer(fire_at, key, payload=(kind, key))
            else:
                register = scheduler.set_timer if kind == "plain" else scheduler.set_control_timer
                register(fire_at, key, lambda key, events: log.append((kind, scheduler.clock, key)))

        groups.update({name: scheduler.timer_group(on_wave(name)) for name in "AB"})
        scheduler.register_barrier(lambda: log.append(("barrier", scheduler.clock)))
        return push

    def _program(self, seed, window, n_ops=120):
        """Drive a seeded program of registrations and clock advances through
        the stream and the reference, comparing everything after every step."""
        rng = np.random.default_rng(seed)
        stream, reference = StreamProcessor(coalescing_window=window), PerTimerScheduler(window)
        log, expected = [], []
        pushes = [self._wire(stream, log), self._wire(reference, expected)]
        clock = fire_at = 0
        for op in range(n_ops):
            roll = rng.random()
            if roll < 0.12:
                clock += int(rng.integers(0, 25))
                assert stream.advance_to(clock) == reference.advance_to(clock)
            else:
                kind = "A" if roll < 0.6 else "B" if roll < 0.8 else "plain" if roll < 0.92 else "control"
                # Bursts: most registrations land on the second of the last one.
                fire_at = max(fire_at, clock) if roll < 0.5 else clock + int(rng.integers(0, 40))
                for push in pushes:
                    push(kind, fire_at, f"t{op}")
            assert stream.pending_timers == reference.pending_timers
            assert stream.next_timer_at == reference.next_timer_at
            assert log == expected
        assert stream.flush() == reference.flush()
        assert log == expected
        assert stream.pending_timers == reference.pending_timers == 0
        assert (stream.timers_fired, stream.waves_fired, stream.clock) == (
            reference.timers_fired, reference.waves_fired, reference.clock,
        )
        return stream, log

    @pytest.mark.parametrize("window", [0, 7, 30])
    def test_seeded_programs_match_the_per_timer_scheduler_step_by_step(self, window):
        entries_saved = 0
        for trial in range(N_TRIALS):
            stream, log = self._program(7000 + trial, window)
            waves = [entry for entry in log if entry[0] in "AB"]
            assert any(len(entry[3]) > 1 for entry in waves)  # runs did form …
            assert any(entry[0] == "control" for entry in log)  # … around every kind of split
            entries_saved += stream.timers_fired - next(stream._counter)
        assert entries_saved > 0  # and the heap really held fewer entries than timers

    def test_a_burst_is_one_heap_entry_and_counts_as_its_timers(self):
        """Kills ``pending_timers -> len(self._timers)`` and a wave that counts
        entries: every counter a caller can read counts timers."""
        stream = StreamProcessor()
        waves = []
        group = stream.timer_group(lambda fire_ats, keys, payloads: waves.append((fire_ats, keys, payloads)))
        for row in range(64):
            group.set_timer(700, row, payload=("row", row))
        group.set_timer(701, 64, payload=("row", 64))
        assert len(stream._timers) == 2  # the run-length layout itself
        assert stream.pending_timers == 65 and stream.next_timer_at == 700
        assert stream.advance_to(700) == 64
        assert (stream.timers_fired, stream.waves_fired, stream.pending_timers) == (64, 1, 1)
        assert waves == [([700] * 64, list(range(64)), [("row", row) for row in range(64)])]
        assert stream.flush() == 1
        assert (stream.timers_fired, stream.waves_fired, stream.pending_timers) == (65, 2, 0)

    def test_same_second_pushes_split_by_a_plain_and_by_a_control_timer(self):
        """Kills "a plain/control push leaves the run open": the third group
        timer would join the first one's entry and jump the timer between."""
        for register in ("set_timer", "set_control_timer"):
            stream = StreamProcessor()
            calls = []
            group = stream.timer_group(lambda fire_ats, keys, payloads: calls.append(keys))
            group.set_timer(50, "a")
            group.set_timer(50, "b")
            getattr(stream, register)(50, "single", lambda key, events: calls.append(key))
            group.set_timer(50, "c")
            assert stream.pending_timers == 4
            assert stream.advance_to(50) == 4
            assert calls == [["a", "b"], "single", ["c"]]

    def test_pushes_separated_by_an_advance_that_fires_do_not_share_a_run(self):
        stream = StreamProcessor()
        calls = []
        group = stream.timer_group(lambda fire_ats, keys, payloads: calls.append((stream.clock, keys)))
        group.set_timer(90, "early")
        group.set_timer(100, "a")
        assert stream.advance_to(95) == 1  # pops "early": the open run (100) is closed
        group.set_timer(100, "b")
        assert stream.pending_timers == 2
        assert stream.advance_to(100) == 2
        # Two entries for second 100, adjacent in the wave: one delivery, in order.
        assert calls == [(90, ["early"]), (100, ["a", "b"])]

    def test_a_push_at_the_clock_right_after_its_second_fired_fires_on_the_next_advance(self):
        """Kills "open run not reset on pop": the late timer would be appended
        to the entry that has already fired and never be delivered."""
        stream = StreamProcessor()
        calls = []
        group = stream.timer_group(lambda fire_ats, keys, payloads: calls.append(keys))
        group.set_timer(100, "a")
        assert stream.advance_to(100) == 1
        fired_keys = calls[0]
        group.set_timer(100, "late")  # fire_at == clock is legal
        assert stream.pending_timers == 1 and stream.next_timer_at == 100
        assert fired_keys == ["a"]  # the delivered column was not reopened
        assert stream.advance_to(100) == 1
        assert calls == [["a"], ["late"]]
        # The same after a control timer popped alone at the head of the heap.
        stream.set_control_timer(200, "control", lambda key, events: calls.append(key))
        group.set_timer(200, "b")
        assert stream.advance_to(200) == 2
        group.set_timer(200, "c")
        assert stream.advance_to(200) == 1
        assert calls[2:] == ["control", ["b"], ["c"]]

    def test_a_group_callback_can_register_a_timer_mid_wave(self):
        stream = StreamProcessor(coalescing_window=5)
        calls = []
        barriers = []
        stream.register_barrier(lambda: barriers.append(stream.clock))

        def on_wave(fire_ats, keys, payloads):
            calls.append((stream.clock, keys))
            if keys == ["a", "b"]:
                group.set_timer(stream.clock, "same-second")
                group.set_timer(stream.clock, "same-second-2")
                group.set_timer(stream.clock + 50, "later")

        group = stream.timer_group(on_wave)
        group.set_timer(100, "a")
        group.set_timer(103, "b")
        assert stream.advance_to(120) == 4
        assert calls == [(103, ["a", "b"]), (103, ["same-second", "same-second-2"])]
        assert barriers == [0, 103]  # a barrier ran before each of the two waves
        assert stream.pending_timers == 1 and stream.next_timer_at == 153
        assert stream.flush() == 1
        assert calls[-1] == (153, ["later"])

    def test_two_groups_interleaved_keep_registration_order(self):
        """Kills "a run takes any group's timer": B's timer would be delivered
        to A's callback (or out of order)."""
        stream = StreamProcessor()
        calls = []
        first = stream.timer_group(lambda fire_ats, keys, payloads: calls.append(("first", keys)))
        second = stream.timer_group(lambda fire_ats, keys, payloads: calls.append(("second", keys)))
        first.set_timer(10, "a")
        first.set_timer(10, "b")
        second.set_timer(10, "c")
        first.set_timer(10, "d")
        second.set_timer(10, "e")
        second.set_timer(10, "f")
        assert stream.pending_timers == 6
        assert stream.advance_to(10) == 6
        assert calls == [("first", ["a", "b"]), ("second", ["c"]), ("first", ["d"]), ("second", ["e", "f"])]
        assert stream.waves_fired == 1

    def test_a_run_holds_one_fire_second(self):
        """Kills "a run takes any fire second": the 11 timer would fire at 10."""
        stream = StreamProcessor()
        calls = []
        group = stream.timer_group(lambda fire_ats, keys, payloads: calls.append((fire_ats, keys)))
        group.set_timer(10, "a")
        group.set_timer(11, "b")
        group.set_timer(10, "c")
        assert stream.advance_to(10) == 2
        assert calls == [([10, 10], ["a", "c"])]
        assert stream.advance_to(11) == 1
        assert calls[1] == ([11], ["b"])

    def test_group_timers_leave_event_buffers_alone(self):
        """Draining a key's buffered events is the plain ``set_timer``
        contract; a group timer is its payload row."""
        stream = StreamProcessor()
        joined = []
        group = stream.timer_group(lambda fire_ats, keys, payloads: joined.append((keys, payloads)))
        stream.publish(StreamEvent("context", "k", 0, {"v": 1}))
        group.set_timer(5, "k", payload="row")
        stream.set_timer(6, "k", lambda key, events: joined.append((key, len(events))))
        assert stream.events_published == 1
        stream.advance_to(5)
        assert joined == [(["k"], ["row"])] and stream.buffered_keys == 1
        stream.advance_to(6)
        assert joined[1] == ("k", 1) and stream.buffered_keys == 0

    def test_a_timer_behind_the_clock_is_refused_on_every_path(self):
        stream = StreamProcessor()
        group = stream.timer_group(lambda *columns: None)
        stream.advance_to(100)
        for register in (
            lambda: group.set_timer(99, "k"),
            lambda: stream.set_timer(99, "k", lambda key, events: None),
            lambda: stream.set_control_timer(99, "k", lambda key, events: None),
        ):
            with pytest.raises(ValueError, match="earlier than the stream clock"):
                register()
        assert stream.pending_timers == 0 and stream.next_timer_at is None


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

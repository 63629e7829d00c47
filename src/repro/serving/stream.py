"""Session-keyed stream processing (the "Kafka-like" pipeline of Section 9).

In production, context variables are published to a stream at session start,
access events are published with the same session id, and a timer equal to
the session length joins the two once the session window closes — only then
can the ground-truth access flag be known and the hidden state updated.
:class:`StreamProcessor` reproduces that dataflow in process: events are
buffered by key, timers fire in timestamp order when the simulated clock
advances, and a join callback receives the buffered events for the session.

Timers are delivered in *waves*: every ``advance_to`` call groups the due
timers that fall inside the same coalescing window (same fire second by
default) and fires them together.  Timers registered through a
:class:`TimerGroup` are handed to their group callback as one list of
:class:`TimerFiring` records — this is how the serving engine receives a
whole wave of session-end updates and applies them as a single ``[B,
hidden]`` GRU step instead of one Python round-trip per session.  Plain
``set_timer`` callbacks still fire one at a time; either way the order is
deterministic: fire timestamp first, then registration order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["StreamEvent", "StreamProcessor", "TimerFiring", "TimerGroup"]


@dataclass(frozen=True)
class StreamEvent:
    """One event published to the stream."""

    topic: str
    key: str
    timestamp: int
    payload: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class TimerFiring:
    """One timer delivery inside a wave: the key's buffered events plus the
    opaque payload the timer was registered with."""

    fire_at: int
    key: str
    events: list[StreamEvent]
    payload: Any = None


class TimerGroup:
    """Handle for timers that are delivered wave-at-a-time to one callback.

    Obtained from :meth:`StreamProcessor.timer_group`.  All timers set through
    the same group that land in the same wave are passed to ``callback`` as a
    single ``list[TimerFiring]`` (in fire-timestamp-then-registration order),
    so the receiver can process them as one batch.  Timers from *different*
    groups — or plain ``set_timer`` callbacks — interleaved inside a wave
    split the wave into runs, preserving the exact per-timer order.
    """

    def __init__(self, stream: "StreamProcessor", callback: Callable[[list[TimerFiring]], None]) -> None:
        self._stream = stream
        self.callback = callback

    def set_timer(self, fire_at: int, key: str, payload: Any = None) -> None:
        """Schedule a wave-delivered timer for ``key`` at ``fire_at``."""
        self._stream._push_timer(fire_at, key, None, self, payload)


class StreamProcessor:
    """Buffers events by key and fires registered timers in timestamp order.

    ``coalescing_window`` widens the wave: a wave opened by a timer due at
    ``t0`` also absorbs every pending timer due at or before ``t0 + window``
    (never past the ``advance_to`` target).  The default window of 0 still
    coalesces timers that share a fire second — the common case when many
    sessions start in the same burst and their windows close together.
    """

    def __init__(self, coalescing_window: int = 0) -> None:
        if coalescing_window < 0:
            raise ValueError("coalescing_window must be non-negative")
        self.coalescing_window = coalescing_window
        self._buffers: dict[str, list[StreamEvent]] = {}
        # Heap entries: (fire_at, seq, key, callback, group, payload) with
        # callback/group mutually exclusive.  ``seq`` makes entries unique so
        # callbacks are never compared, and pins registration order.
        self._timers: list[tuple[int, int, str, Any, TimerGroup | None, Any]] = []
        self._counter = itertools.count()
        self._control_seqs: set[int] = set()
        self._barriers: dict[int, Callable[[], None]] = {}
        self._barrier_ids = itertools.count()
        self.clock: int = 0
        self.events_published: int = 0
        self.timers_fired: int = 0
        self.waves_fired: int = 0

    # ------------------------------------------------------------------
    def publish(self, event: StreamEvent) -> None:
        """Append an event to its key's buffer."""
        if event.timestamp < self.clock:
            raise ValueError(
                f"event at {event.timestamp} is earlier than the stream clock {self.clock}"
            )
        self._buffers.setdefault(event.key, []).append(event)
        self.events_published += 1

    def _push_timer(self, fire_at: int, key: str, callback, group, payload) -> int:
        if fire_at < self.clock:
            raise ValueError(f"timer at {fire_at} is earlier than the stream clock {self.clock}")
        seq = next(self._counter)
        heapq.heappush(self._timers, (fire_at, seq, key, callback, group, payload))
        return seq

    def set_timer(self, fire_at: int, key: str, callback: Callable[[str, list[StreamEvent]], None]) -> None:
        """Schedule ``callback(key, buffered_events)`` at ``fire_at``.

        Plain timers fire one at a time even inside a wave; use
        :meth:`timer_group` when the receiver can consume a whole wave.
        """
        self._push_timer(fire_at, key, callback, None, None)

    def set_control_timer(self, fire_at: int, key: str, callback: Callable[[str, list[StreamEvent]], None]) -> None:
        """Schedule a barrier-exempt *control-plane* timer.

        Like :meth:`set_timer`, but firing it does not run the pre-wave
        barriers.  The barriers exist so queued predictions are scored
        before a timer can rewrite per-user state they depend on;
        control-plane events — shard failure, recovery, membership changes
        — change *placement*, never a stored value, so flushing the
        micro-batch for them would change batch composition (and, through
        shape-dependent BLAS kernels, the low-order bits of scores) for no
        correctness gain.  A control timer at the head of the heap fires
        alone at its exact fire time.  One that falls inside a data wave's
        window — or shares the opening second with a data timer registered
        before it — is popped with that wave: it still runs by itself, in
        (fire time, registration) order between the group runs on either
        side, but behind the wave's barriers and at the wave's closing
        clock.  It never opens or widens a wave.
        """
        self._control_seqs.add(self._push_timer(fire_at, key, callback, None, None))

    def timer_group(self, callback: Callable[[list[TimerFiring]], None]) -> TimerGroup:
        """Create a :class:`TimerGroup` whose timers are delivered wave-at-a-time."""
        return TimerGroup(self, callback)

    def register_barrier(self, callback: Callable[[], None]) -> int:
        """Register a hook run before each wave fires; returns a handle.

        Micro-batch queues register their flush here so that *whoever*
        advances the clock — the queue's own ``advance_to`` or a caller
        driving the stream directly — queued predictions are always scored
        before a timer can rewrite the state they depend on.  Running the
        barriers before every wave (not once per ``advance_to``) keeps that
        guarantee even when a timer callback enqueues new work mid-advance.

        The returned handle deregisters the hook via
        :meth:`deregister_barrier`; a retired queue must deregister before a
        replacement is attached to the same stream.
        """
        handle = next(self._barrier_ids)
        self._barriers[handle] = callback
        return handle

    def deregister_barrier(self, handle: int) -> None:
        """Remove a barrier registered by :meth:`register_barrier`."""
        if handle not in self._barriers:
            raise KeyError(f"unknown barrier handle {handle!r}")
        del self._barriers[handle]

    # ------------------------------------------------------------------
    def advance_to(self, timestamp: int) -> int:
        """Advance the clock, firing every timer due at or before ``timestamp``.

        Returns the number of timers fired.  Due timers are popped in
        (fire timestamp, registration) order and grouped into waves; each
        wave drains its keys' buffers, sets the clock to the wave's last fire
        time, and delivers maximal same-group runs through the group callback
        (single timers through their own callbacks, one at a time).
        """
        if timestamp < self.clock:
            raise ValueError("the stream clock cannot move backwards")
        fired = 0
        while self._timers and self._timers[0][0] <= timestamp:
            if self._timers[0][1] in self._control_seqs:
                # Control-plane timer: fire alone, barrier-exempt, and leave
                # any data-plane timer due at the same instant for the next
                # loop pass (where the barriers run before its wave forms).
                fire_at, seq, key, callback, _, _ = heapq.heappop(self._timers)
                self._control_seqs.discard(seq)
                self.clock = fire_at
                self.timers_fired += 1
                fired += 1
                callback(key, self._buffers.pop(key, []))
                continue
            for barrier in list(self._barriers.values()):
                barrier()
            if not (self._timers and self._timers[0][0] <= timestamp):
                break
            deadline = min(timestamp, self._timers[0][0] + self.coalescing_window)
            wave = []
            while self._timers and self._timers[0][0] <= deadline:
                wave.append(heapq.heappop(self._timers))
            if self._control_seqs:
                # Control timers that rode the wave are no longer pending;
                # a leaked seq would keep next_timer_at scanning the heap.
                self._control_seqs.difference_update(entry[1] for entry in wave)
            self.clock = wave[-1][0]
            self.waves_fired += 1
            self.timers_fired += len(wave)
            fired += len(wave)
            for group, members in self._wave_runs(wave):
                if group is None:
                    for fire_at, _, key, callback, _, _ in members:
                        callback(key, self._buffers.pop(key, []))
                else:
                    group.callback(
                        [
                            TimerFiring(fire_at, key, self._buffers.pop(key, []), payload)
                            for fire_at, _, key, _, _, payload in members
                        ]
                    )
        self.clock = timestamp
        return fired

    @staticmethod
    def _wave_runs(wave):
        """Split a wave into maximal consecutive runs sharing one group.

        Runs preserve the total (fire_at, registration) order exactly: a
        plain timer or a timer from another group sitting between two group
        members closes the run, so coalescing never reorders deliveries.
        """
        runs: list[tuple[TimerGroup | None, list]] = []
        for entry in wave:
            group = entry[4]
            if runs and runs[-1][0] is group and group is not None:
                runs[-1][1].append(entry)
            else:
                runs.append((group, [entry]))
        return runs

    def flush(self) -> int:
        """Fire all remaining timers regardless of the clock."""
        if not self._timers:
            return 0
        last = max(t[0] for t in self._timers)
        return self.advance_to(last)

    # ------------------------------------------------------------------
    @property
    def pending_timers(self) -> int:
        return len(self._timers)

    @property
    def next_timer_at(self) -> int | None:
        """Fire time of the earliest pending *data-plane* timer, or ``None``.

        The micro-batch serving engine uses this as its flush barrier: queued
        predictions must be scored before the clock crosses a timer that
        could rewrite a hidden state they depend on.  Control-plane timers
        (:meth:`set_control_timer`) never rewrite stored values, so they are
        invisible here — otherwise a pending fault-injection timer would
        force an early flush and change micro-batch composition.
        """
        if not self._timers:
            return None
        if not self._control_seqs:
            return self._timers[0][0]
        due = [t[0] for t in self._timers if t[1] not in self._control_seqs]
        return min(due) if due else None

    @property
    def buffered_keys(self) -> int:
        return len(self._buffers)

"""Session-keyed stream processing (the "Kafka-like" pipeline of Section 9).

In production, context variables are published to a stream at session start,
access events are published with the same session id, and a timer equal to
the session length joins the two once the session window closes — only then
can the ground-truth access flag be known and the hidden state updated.
:class:`StreamProcessor` reproduces that dataflow in process: events are
buffered by key, timers fire in timestamp order when the simulated clock
advances, and a join callback receives the buffered events for the session.
That per-timer join (``publish`` + ``set_timer``) is the paper's literal
dataflow and the reference the wave path is pinned against.

Timers are delivered in *waves*: every ``advance_to`` call groups the due
timers that fall inside the same coalescing window (same fire second by
default) and fires them together.  Timers registered through a
:class:`TimerGroup` carry an opaque payload *row* instead of buffered
events, and the heap stores them **run-length**: consecutive registrations
of one group for one fire second share a single heap entry holding parallel
``keys`` / ``payloads`` lists, so a burst of 64 sessions closing together is
one push and one pop.  A wave hands the group callback **columns** —
``callback(fire_ats, keys, payloads)``, three parallel lists — which is how
the serving engine receives a whole wave of session-end updates and applies
them as a single ``[B, hidden]`` GRU step without building an object per
session.  Plain ``set_timer`` callbacks still fire one at a time; either way
the order is deterministic: fire timestamp first, then registration order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable

__all__ = ["StreamEvent", "StreamProcessor", "TimerGroup"]

_entry_group = itemgetter(4)


@dataclass(frozen=True)
class StreamEvent:
    """One event published to the stream."""

    topic: str
    key: str
    timestamp: int
    payload: dict[str, Any] = field(default_factory=dict)


class TimerGroup:
    """Handle for timers that are delivered wave-at-a-time to one callback.

    Obtained from :meth:`StreamProcessor.timer_group`.  All timers set through
    the same group that land in the same wave reach ``callback(fire_ats,
    keys, payloads)`` as three parallel lists (in fire-timestamp-then-
    registration order), so the receiver can process them as one batch.
    Timers from *different* groups — or plain ``set_timer`` callbacks —
    interleaved inside a wave split the wave into runs, preserving the exact
    per-timer order.  A group timer is its ``payload`` row: ``key`` is a
    label handed back beside it, and no event buffer is drained (joining
    buffered events stays the plain ``set_timer`` contract).
    """

    def __init__(self, stream: "StreamProcessor", callback: Callable[[list[int], list, list], None]) -> None:
        self._stream = stream
        self.callback = callback

    def set_timer(self, fire_at: int, key: Any, payload: Any = None) -> None:
        """Schedule a wave-delivered timer for ``key`` at ``fire_at``."""
        self._stream._push_group_timer(self, fire_at, key, payload)


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
        # Heap entries: (fire_at, seq, key, callback, None, None) for a plain
        # or control timer; (fire_at, seq, keys, None, group, payloads) for a
        # *run* of group timers, ``keys`` / ``payloads`` being parallel lists
        # with one slot per timer.  ``seq`` numbers entries in registration
        # order — a run is consecutive registrations, so it sorts exactly
        # where its members would — and makes entries unique, so callbacks
        # and lists are never compared.
        self._timers: list[tuple[int, int, Any, Any, TimerGroup | None, Any]] = []
        # The last-pushed entry while it is a run that may still grow: any
        # other push closes it, and so does a wave's pop (a fired run is
        # gone; a control timer popped alone is never a run).
        self._open_run: tuple | None = None
        self._timers_set = 0
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

    def _push_timer(self, fire_at: int, key: str, callback) -> int:
        if fire_at < self.clock:
            raise ValueError(f"timer at {fire_at} is earlier than the stream clock {self.clock}")
        seq = next(self._counter)
        heapq.heappush(self._timers, (fire_at, seq, key, callback, None, None))
        self._open_run = None
        self._timers_set += 1
        return seq

    def _push_group_timer(self, group: TimerGroup, fire_at: int, key: Any, payload: Any) -> None:
        """Register one group timer: a slot in the open run when it is the
        same group and fire second (still pending, so not behind the clock),
        a new one-slot run otherwise."""
        run = self._open_run
        if run is not None and run[0] == fire_at and run[4] is group:
            run[2].append(key)
            run[5].append(payload)
        else:
            if fire_at < self.clock:
                raise ValueError(f"timer at {fire_at} is earlier than the stream clock {self.clock}")
            self._open_run = run = (fire_at, next(self._counter), [key], None, group, [payload])
            heapq.heappush(self._timers, run)
        self._timers_set += 1

    def set_timer(self, fire_at: int, key: str, callback: Callable[[str, list[StreamEvent]], None]) -> None:
        """Schedule ``callback(key, buffered_events)`` at ``fire_at``.

        Plain timers fire one at a time even inside a wave; use
        :meth:`timer_group` when the receiver can consume a whole wave.
        """
        self._push_timer(fire_at, key, callback)

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
        self._control_seqs.add(self._push_timer(fire_at, key, callback))

    def timer_group(self, callback: Callable[[list[int], list, list], None]) -> TimerGroup:
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

        Returns the number of timers fired.  Due heap entries are popped in
        (fire timestamp, registration) order and grouped into waves; each
        wave sets the clock to its last fire time and delivers maximal
        same-group stretches — adjacent runs concatenated — through the
        group callback as columns (plain and control timers through their
        own callbacks, one at a time, each draining its key's buffer).
        """
        if timestamp < self.clock:
            raise ValueError("the stream clock cannot move backwards")
        fired = 0
        timers = self._timers
        while timers and timers[0][0] <= timestamp:
            if timers[0][1] in self._control_seqs:
                # Control-plane timer: fire alone, barrier-exempt, and leave
                # any data-plane timer due at the same instant for the next
                # loop pass (where the barriers run before its wave forms).
                fire_at, seq, key, callback, _, _ = heapq.heappop(timers)
                self._control_seqs.discard(seq)
                self.clock = fire_at
                self.timers_fired += 1
                fired += 1
                callback(key, self._buffers.pop(key, []))
                continue
            for barrier in list(self._barriers.values()):
                barrier()
            if not (timers and timers[0][0] <= timestamp):
                break
            deadline = min(timestamp, timers[0][0] + self.coalescing_window)
            wave = []
            count = 0
            while timers and timers[0][0] <= deadline:
                entry = heapq.heappop(timers)
                wave.append(entry)
                count += 1 if entry[4] is None else len(entry[2])
            self._open_run = None
            if self._control_seqs:
                # Control timers that rode the wave are no longer pending;
                # a leaked seq would keep next_timer_at scanning the heap.
                self._control_seqs.difference_update(entry[1] for entry in wave)
            self.clock = wave[-1][0]
            self.waves_fired += 1
            self.timers_fired += count
            fired += count
            # A stretch of adjacent runs of one group (several fire seconds
            # inside the window) is one delivery, as fresh columns; a plain
            # timer or another group's run in between ends the stretch, so
            # coalescing never reorders deliveries.
            for group, entries in itertools.groupby(wave, key=_entry_group):
                if group is None:
                    for _, _, key, callback, _, _ in entries:
                        callback(key, self._buffers.pop(key, []))
                    continue
                runs = list(entries)
                group.callback(
                    [run[0] for run in runs for _ in run[2]],
                    [key for run in runs for key in run[2]],
                    [payload for run in runs for payload in run[5]],
                )
        self.clock = timestamp
        return fired

    def flush(self) -> int:
        """Fire all remaining timers regardless of the clock."""
        if not self._timers:
            return 0
        last = max(t[0] for t in self._timers)
        return self.advance_to(last)

    # ------------------------------------------------------------------
    @property
    def pending_timers(self) -> int:
        """Timers (not heap entries: a run counts every slot) yet to fire."""
        return self._timers_set - self.timers_fired

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

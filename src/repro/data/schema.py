"""Core data model: sessions, per-user access logs and datasets.

The paper (Section 3.1) defines three concepts:

* **Session** — a fixed-length window of application use, beginning when the
  user opens the application.
* **Context** — session-specific information recorded at session start (the
  timestamp, the unread badge count, the active tab, ...).
* **Access logs** — the per-user sequential record of past sessions, each
  carrying its context and a boolean *access flag* stating whether the target
  activity was used within that session.

For efficiency the library stores access logs column-oriented: one
:class:`UserLog` per user holding NumPy arrays for timestamps, access flags
and each context field; a :class:`HistoryBatch` lays many logs' columns
back to back for the aggregation featurizer.  A :class:`Dataset` is a named
collection of user logs plus a :class:`ContextSchema` describing the context
fields and global timing parameters (observation window, session length,
peak hours).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "ContextField",
    "ContextSchema",
    "UserLog",
    "HistoryBatch",
    "Dataset",
    "hour_of_day",
    "day_of_week",
    "sessions_in_time_order",
    "context_columns",
]

SECONDS_PER_HOUR = 3600
SECONDS_PER_DAY = 24 * SECONDS_PER_HOUR


def hour_of_day(timestamps: np.ndarray | int) -> np.ndarray | int:
    """Hour of day (0-23) for UNIX-style timestamps (UTC, epoch-aligned)."""
    return (np.asarray(timestamps) // SECONDS_PER_HOUR) % 24


def day_of_week(timestamps: np.ndarray | int) -> np.ndarray | int:
    """Day of week (0-6, 0 = Monday) for UNIX-style timestamps.

    The UNIX epoch (1970-01-01) was a Thursday, hence the +3 offset.
    """
    return ((np.asarray(timestamps) // SECONDS_PER_DAY) + 3) % 7


@dataclass(frozen=True)
class ContextField:
    """Description of one context variable.

    ``kind`` is either ``"categorical"`` (values are small non-negative
    integer codes with the given ``cardinality``) or ``"numeric"`` (values
    are integers or floats used as-is, e.g. the unread badge count).
    """

    name: str
    kind: str
    cardinality: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("categorical", "numeric"):
            raise ValueError(f"unknown context field kind {self.kind!r}")
        if self.kind == "categorical" and (self.cardinality is None or self.cardinality <= 0):
            raise ValueError(f"categorical field {self.name!r} needs a positive cardinality")


@dataclass(frozen=True)
class ContextSchema:
    """Ordered collection of context fields shared by all sessions of a dataset."""

    fields: tuple[ContextField, ...]

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate context field names: {names}")

    def __iter__(self) -> Iterator[ContextField]:
        return iter(self.fields)

    def __len__(self) -> int:
        return len(self.fields)

    def names(self) -> list[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> ContextField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)


@dataclass
class UserLog:
    """Column-oriented access log for a single user.

    ``timestamps`` are strictly increasing session-start times in seconds,
    ``accesses`` are 0/1 flags, and ``context`` maps each schema field name to
    an equally long array of values.
    """

    user_id: int
    timestamps: np.ndarray
    accesses: np.ndarray
    context: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.accesses = np.asarray(self.accesses, dtype=np.int8)
        if self.timestamps.ndim != 1 or self.accesses.ndim != 1:
            raise ValueError("timestamps and accesses must be 1-D")
        if self.timestamps.shape != self.accesses.shape:
            raise ValueError("timestamps and accesses must have equal length")
        if self.timestamps.size > 1 and np.any(np.diff(self.timestamps) < 0):
            raise ValueError("timestamps must be non-decreasing")
        if not np.all((self.accesses == 0) | (self.accesses == 1)):
            raise ValueError("access flags must be 0 or 1")
        for name, values in self.context.items():
            values = np.asarray(values)
            if values.shape != self.timestamps.shape:
                raise ValueError(f"context field {name!r} has mismatched length")
            self.context[name] = values

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def n_sessions(self) -> int:
        return len(self)

    @property
    def n_accesses(self) -> int:
        return int(self.accesses.sum())

    @property
    def access_rate(self) -> float:
        return float(self.accesses.mean()) if len(self) else 0.0

    def slice(self, start: int, stop: int) -> "UserLog":
        """Return a view-like copy of sessions ``[start:stop)``."""
        return UserLog(
            user_id=self.user_id,
            timestamps=self.timestamps[start:stop],
            accesses=self.accesses[start:stop],
            context={name: values[start:stop] for name, values in self.context.items()},
        )

    def before(self, timestamp: int) -> "UserLog":
        """Sessions strictly before ``timestamp`` (used for warm-up splits)."""
        stop = int(np.searchsorted(self.timestamps, timestamp, side="left"))
        return self.slice(0, stop)

    def truncate_last(self, max_sessions: int) -> "UserLog":
        """Keep only the most recent ``max_sessions`` sessions (Section 7.1)."""
        if max_sessions <= 0:
            raise ValueError("max_sessions must be positive")
        if len(self) <= max_sessions:
            return self
        return self.slice(len(self) - max_sessions, len(self))

    def context_row(self, index: int) -> dict[str, float]:
        """The context of one session as a plain dict (used by serving)."""
        return {name: values[index] for name, values in self.context.items()}


def context_columns(
    contexts: Sequence[Mapping[str, float] | None], names: Iterable[str]
) -> tuple[dict[str, np.ndarray], list[bool]]:
    """Request context rows transposed into columns: the serving door.

    One ``float64`` array per field in ``names`` (the dtype both encoders
    read; the aggregation's match codes truncate it back to integers, exact
    below 2**53), plus the has-context mask; a ``None`` context reads 0 in
    every field and ``False`` in the mask.  Training never comes here: it
    reads a :class:`UserLog`'s columns as they are.
    """
    columns = {name: np.asarray([0.0 if c is None else c[name] for c in contexts], dtype=np.float64) for name in names}
    return columns, [c is not None for c in contexts]


@dataclass
class HistoryBatch:
    """Many access logs as one set of columns, back to back in log order.

    Log ``i`` holds ``lengths[i]`` sessions; ``timestamps``, ``accesses`` and
    each ``context`` column hold every log's sessions in turn.  The same user
    may appear as several logs.  :class:`UserLog`'s refusals hold for every
    log and are checked once over the columns, with the same messages: a
    timestamp may fall only where one log ends and the next begins.
    """

    timestamps: np.ndarray
    accesses: np.ndarray
    lengths: np.ndarray
    context: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.accesses = np.asarray(self.accesses, dtype=np.int8)
        self.lengths = np.asarray(self.lengths, dtype=np.int64)
        if self.timestamps.ndim != 1 or self.accesses.ndim != 1:
            raise ValueError("timestamps and accesses must be 1-D")
        if self.timestamps.shape != self.accesses.shape:
            raise ValueError("timestamps and accesses must have equal length")
        n_sessions = self.timestamps.size
        bounds = np.zeros(self.lengths.size + 1, dtype=np.int64)  # where each log starts, then the end
        np.cumsum(self.lengths, out=bounds[1:])
        if bounds[-1] != n_sessions:
            raise ValueError("log lengths must sum to the session count")
        # falls[k]: session k is stamped before session k - 1.  A log's first
        # session may be; slots 0 and n_sessions are padding for the mask.
        falls = np.zeros(n_sessions + 1, dtype=bool)
        np.less(self.timestamps[1:], self.timestamps[:-1], out=falls[1:n_sessions])
        falls[bounds] = False
        if falls.any():
            raise ValueError("timestamps must be non-decreasing")
        if np.any(self.accesses.view(np.uint8) > 1):  # a negative flag reads above 127
            raise ValueError("access flags must be 0 or 1")
        for name, values in self.context.items():
            values = np.asarray(values)
            if values.shape != self.timestamps.shape:
                raise ValueError(f"context field {name!r} has mismatched length")
            self.context[name] = values

    @property
    def n_logs(self) -> int:
        return int(self.lengths.size)

    @classmethod
    def of_logs(cls, logs: Sequence[UserLog]) -> "HistoryBatch":
        """The logs' columns joined, one ``concatenate`` per column."""
        if not logs:
            return cls([], [], [])
        return cls(
            np.concatenate([log.timestamps for log in logs]),
            np.concatenate([log.accesses for log in logs]),
            [len(log) for log in logs],
            {name: np.concatenate([log.context[name] for log in logs]) for name in logs[0].context},
        )

    @classmethod
    def of_records(cls, records: Sequence[Mapping], names: Sequence[str]) -> "HistoryBatch":
        """Stored logs — ``{"timestamps": [...], "accesses": [...], "context":
        {name: [...]}}`` in plain lists — flattened into one batch.

        One pass extends one list per column with every record's values,
        then one array is built per column.  The columns must stay in step
        at every record's end: a record whose accesses or context ``names``
        are not as long as its timestamps is refused with :class:`UserLog`'s
        message before any array is built.
        """
        stamps: list = []
        flags: list = []
        columns: dict[str, list] = {name: [] for name in names}
        lengths: list[int] = []
        for record in records:
            stamps += record["timestamps"]
            flags += record["accesses"]
            if len(flags) != len(stamps):
                raise ValueError("timestamps and accesses must have equal length")
            context = record["context"]
            for name, column in columns.items():
                column += context[name]
                if len(column) != len(stamps):
                    raise ValueError(f"context field {name!r} has mismatched length")
            lengths.append(len(record["timestamps"]))
        return cls(stamps, flags, lengths, {name: np.asarray(column) for name, column in columns.items()})


@dataclass
class Dataset:
    """A named collection of user access logs plus global timing metadata."""

    name: str
    users: list[UserLog]
    schema: ContextSchema
    session_length: int
    start_time: int
    n_days: int
    peak_hours: tuple[int, int] | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.session_length <= 0:
            raise ValueError("session_length must be positive")
        if self.n_days <= 0:
            raise ValueError("n_days must be positive")
        if self.peak_hours is not None:
            lo, hi = self.peak_hours
            if not (0 <= lo < hi <= 24):
                raise ValueError("peak_hours must satisfy 0 <= start < end <= 24")
        expected = set(self.schema.names())
        for user in self.users:
            if set(user.context) != expected:
                raise ValueError(
                    f"user {user.user_id} context fields {sorted(user.context)} "
                    f"do not match schema {sorted(expected)}"
                )

    def __len__(self) -> int:
        return len(self.users)

    def __iter__(self) -> Iterator[UserLog]:
        return iter(self.users)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_sessions(self) -> int:
        return int(sum(len(u) for u in self.users))

    @property
    def n_accesses(self) -> int:
        return int(sum(u.n_accesses for u in self.users))

    @property
    def positive_rate(self) -> float:
        sessions = self.n_sessions
        return self.n_accesses / sessions if sessions else 0.0

    @property
    def end_time(self) -> int:
        return self.start_time + self.n_days * SECONDS_PER_DAY

    def day_boundary(self, days_from_end: int) -> int:
        """Timestamp of midnight ``days_from_end`` days before the end of the window."""
        if days_from_end < 0:
            raise ValueError("days_from_end must be non-negative")
        return self.end_time - days_from_end * SECONDS_PER_DAY

    def subset(self, user_ids: Sequence[int]) -> "Dataset":
        """Dataset restricted to the given user ids (order preserved)."""
        wanted = set(int(u) for u in user_ids)
        return Dataset(
            name=self.name,
            users=[u for u in self.users if u.user_id in wanted],
            schema=self.schema,
            session_length=self.session_length,
            start_time=self.start_time,
            n_days=self.n_days,
            peak_hours=self.peak_hours,
            description=self.description,
        )

    def user_ids(self) -> np.ndarray:
        return np.asarray([u.user_id for u in self.users], dtype=np.int64)

    def summary(self) -> Mapping[str, float]:
        """Headline statistics in the shape of the paper's Table 2."""
        return {
            "positive_rate": self.positive_rate,
            "sessions": float(self.n_sessions),
            "users": float(self.n_users),
        }


def sessions_in_time_order(users: Sequence[UserLog]) -> list[tuple[int, UserLog, int]]:
    """Every session of every user as ``(timestamp, user, index)``, time-ordered.

    Serving replays must consume sessions in global time order — the
    :class:`~repro.serving.stream.StreamProcessor` clock is monotone, so
    iterating user by user would move it backwards and raise.  Ties keep the
    users' listing order (the sort is stable).
    """
    return sorted(
        (
            (int(user.timestamps[index]), user, index)
            for user in users
            for index in range(len(user))
        ),
        key=lambda event: event[0],
    )

"""Prediction tasks: turning access logs into labelled examples.

The paper defines two prediction problems (Section 3.2):

* **Session access** — at the start of each session, predict whether the
  activity will be accessed within that session.  One example per session;
  the label is the session's access flag and the usable history is every
  session that started strictly before it.

* **Timeshifted (peak-window) access** (Section 3.2.1) — several hours before
  the daily peak window, predict whether the user will access the activity in
  any session during that window.  One example per user × day; no
  session-specific context is available at prediction time.

Both tasks return one :class:`ExampleTable`: aligned columns, one row per
example, grouped by owner in ``dataset.users`` order.  A session example's
context is not copied into it: it is row ``sessions[i]`` of its owner's
:class:`~repro.data.schema.UserLog` columns, and the tabular featurizer and
the sequence builder both read it there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .schema import SECONDS_PER_DAY, SECONDS_PER_HOUR, Dataset

__all__ = ["ExampleTable", "session_examples", "peak_window_examples", "peak_window_bounds"]


@dataclass(frozen=True)
class ExampleTable:
    """Labelled prediction examples as aligned 1-D ``int64`` columns.

    Row ``i`` belongs to ``dataset.users[owners[i]]`` (whose id is
    ``user_ids[i]``) and is predicted at ``prediction_times[i]``; only
    history strictly before that moment may be used for features.
    ``sessions[i]`` is the session's index in its owner's log on the session
    task (its context is that log's row there) and −1 on the timeshifted
    task, which has no session at prediction time; ``days[i]`` is the day
    index on the timeshifted task and −1 on the session task.  Rows are
    grouped by owner, owners ascending.
    """

    owners: np.ndarray
    user_ids: np.ndarray
    prediction_times: np.ndarray
    labels: np.ndarray
    sessions: np.ndarray
    days: np.ndarray

    def __len__(self) -> int:
        return int(self.owners.size)

    def check(self, dataset: Dataset) -> None:
        """Refuse rows whose owner is not ``dataset``'s user of that id, or
        rows out of owner order."""
        ids = dataset.user_ids()
        known = (self.owners >= 0) & (self.owners < ids.size)
        known[known] = ids[self.owners[known]] == self.user_ids[known]
        if not known.all():
            raise KeyError(f"examples reference unknown user {int(self.user_ids[~known][0])}")
        if np.any(self.owners[1:] < self.owners[:-1]):
            raise ValueError("example rows must be grouped by owner, owners ascending")

    def owner_bounds(self, n_users: int) -> np.ndarray:
        """Row ``bounds[o]:bounds[o + 1]`` holds owner ``o``'s examples."""
        return self.owners.searchsorted(np.arange(n_users + 1))


def _table(dataset: Dataset, counts, prediction_times, labels, sessions, days) -> ExampleTable:
    owners = np.repeat(np.arange(len(dataset.users), dtype=np.int64), counts)
    return ExampleTable(
        owners=owners,
        user_ids=dataset.user_ids()[owners],
        prediction_times=np.asarray(prediction_times, dtype=np.int64),
        labels=np.asarray(labels, dtype=np.int64),
        sessions=np.asarray(sessions, dtype=np.int64),
        days=np.asarray(days, dtype=np.int64),
    )


def session_examples(
    dataset: Dataset,
    start_time: int | None = None,
    end_time: int | None = None,
) -> ExampleTable:
    """Session-access examples, one row per session in the window.

    Only sessions with ``start_time <= t < end_time`` become examples (both
    bounds optional).  This implements the paper's protocol of training on
    the most recent days and evaluating on the final 7 days (Section 8) while
    still letting features look at the user's full prior history.  Each
    user's window is one ``searchsorted`` pair over its sorted stamps.
    """
    users = dataset.users
    lo = np.asarray([0 if start_time is None else u.timestamps.searchsorted(start_time) for u in users], dtype=np.int64)
    hi = np.asarray([len(u) if end_time is None else u.timestamps.searchsorted(end_time) for u in users], dtype=np.int64)
    counts = np.maximum(hi - lo, 0)
    # Each row's session: its offset within its owner's run, plus the run's first session.
    starts = np.cumsum(counts) - counts
    sessions = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts - lo, counts)
    stamps = [u.timestamps[a:b] for u, a, b in zip(users, lo, hi)]
    flags = [u.accesses[a:b] for u, a, b in zip(users, lo, hi)]
    return _table(
        dataset,
        counts,
        np.concatenate(stamps) if users else [],
        np.concatenate(flags) if users else [],
        sessions,
        np.full(sessions.size, -1),
    )


def peak_window_bounds(dataset: Dataset, day_index: int) -> tuple[int, int]:
    """Start and end timestamps of the peak window on the given day."""
    if dataset.peak_hours is None:
        raise ValueError(f"dataset {dataset.name!r} has no peak_hours defined")
    if not 0 <= day_index < dataset.n_days:
        raise ValueError(f"day_index {day_index} outside [0, {dataset.n_days})")
    lo_hour, hi_hour = dataset.peak_hours
    day_start = dataset.start_time + day_index * SECONDS_PER_DAY
    return day_start + lo_hour * SECONDS_PER_HOUR, day_start + hi_hour * SECONDS_PER_HOUR


def peak_window_examples(
    dataset: Dataset,
    lead_seconds: int = 6 * SECONDS_PER_HOUR,
    first_day: int = 0,
    last_day: int | None = None,
) -> ExampleTable:
    """Timeshifted precompute examples, one row per user per day.

    One example per user per day in ``[first_day, last_day)``.  The label is
    1 when the user has at least one access within that day's peak window.
    The prediction is made ``lead_seconds`` before the window opens, so
    features may only use sessions before that moment.  Each user's windows
    are one ``searchsorted`` pair over its stamps, read against its
    cumulative access count.
    """
    if dataset.peak_hours is None:
        raise ValueError(f"dataset {dataset.name!r} has no peak_hours defined")
    if lead_seconds < 0:
        raise ValueError("lead_seconds must be non-negative")
    last = last_day if last_day is not None else dataset.n_days
    if not 0 <= first_day < last <= dataset.n_days:
        raise ValueError("invalid day range")

    days = np.arange(first_day, last, dtype=np.int64)
    lo_hour, hi_hour = dataset.peak_hours
    day_starts = dataset.start_time + days * SECONDS_PER_DAY
    peak_starts, peak_ends = day_starts + lo_hour * SECONDS_PER_HOUR, day_starts + hi_hour * SECONDS_PER_HOUR
    labels = np.empty((len(dataset.users), days.size), dtype=np.int64)
    for row, user in enumerate(dataset.users):
        accessed = np.concatenate([[0], np.cumsum(user.accesses, dtype=np.int64)])
        labels[row] = accessed[user.timestamps.searchsorted(peak_ends)] > accessed[user.timestamps.searchsorted(peak_starts)]
    n_users = len(dataset.users)
    return _table(
        dataset,
        np.full(n_users, days.size),
        np.tile(peak_starts - lead_seconds, n_users),
        labels.reshape(-1),
        np.full(labels.size, -1),
        np.tile(days, n_users),
    )

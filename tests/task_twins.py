"""The example tasks' per-session and per-day loops, kept as test-only twins.

``repro.data.tasks`` returns one :class:`~repro.data.tasks.ExampleTable` of
aligned columns.  Before that it built one frozen :class:`Example` per
session (carrying its own context dict) or per user × day, grouped by user
id; those loops are kept here verbatim as the reference the table is
checked against (``tests/test_data.py``), and as the example records the
aggregation featurizer's reference reads (``tests/test_kernel_spellings.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import SECONDS_PER_HOUR, Dataset
from repro.data.tasks import peak_window_bounds


@dataclass(frozen=True)
class Example:
    """One labelled prediction example (``context`` is ``None`` on the
    timeshifted task; ``session_index`` / ``day_index`` are ``None`` on the
    task that has none)."""

    user_id: int
    prediction_time: int
    label: int
    context: dict[str, float] | None
    session_index: int | None
    day_index: int | None = None


def session_examples_loop(
    dataset: Dataset,
    start_time: int | None = None,
    end_time: int | None = None,
) -> dict[int, list[Example]]:
    lo = start_time if start_time is not None else -np.inf
    hi = end_time if end_time is not None else np.inf
    grouped: dict[int, list[Example]] = {}
    for user in dataset.users:
        examples: list[Example] = []
        for index, timestamp in enumerate(user.timestamps):
            if not (lo <= timestamp < hi):
                continue
            examples.append(
                Example(
                    user_id=user.user_id,
                    prediction_time=int(timestamp),
                    label=int(user.accesses[index]),
                    context=user.context_row(index),
                    session_index=index,
                )
            )
        if examples:
            grouped[user.user_id] = examples
    return grouped


def peak_window_examples_loop(
    dataset: Dataset,
    lead_seconds: int = 6 * SECONDS_PER_HOUR,
    first_day: int = 0,
    last_day: int | None = None,
) -> dict[int, list[Example]]:
    if dataset.peak_hours is None:
        raise ValueError(f"dataset {dataset.name!r} has no peak_hours defined")
    if lead_seconds < 0:
        raise ValueError("lead_seconds must be non-negative")
    last = last_day if last_day is not None else dataset.n_days
    if not 0 <= first_day < last <= dataset.n_days:
        raise ValueError("invalid day range")

    grouped: dict[int, list[Example]] = {}
    for user in dataset.users:
        examples: list[Example] = []
        for day in range(first_day, last):
            peak_start, peak_end = peak_window_bounds(dataset, day)
            in_peak = (user.timestamps >= peak_start) & (user.timestamps < peak_end)
            label = int(np.any(user.accesses[in_peak] == 1))
            examples.append(
                Example(
                    user_id=user.user_id,
                    prediction_time=int(peak_start - lead_seconds),
                    label=label,
                    context=None,
                    session_index=None,
                    day_index=day,
                )
            )
        grouped[user.user_id] = examples
    return grouped

"""Percentage-based baseline model (Section 5.1).

The simplest baseline: return each user's historical access percentage,
seeded with the global average access percentage α so that new users start
at the population rate rather than at 0:

    P(A_n) = (α + Σ_{i<n} A_i) / n

For the timeshifted task the same formula is applied over past peak windows
(one observation per day) instead of individual sessions.  Either way a
table of examples is scored in one pass over columns: a cumulative count
per user, read at each row's position.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import Dataset, HistoryBatch
from ..data.tasks import ExampleTable, peak_window_examples
from .base import AccessProbabilityModel, TaskSpec

__all__ = ["PercentageModel"]


class PercentageModel(AccessProbabilityModel):
    """Per-user running access percentage with a global-prior seed."""

    name = "percentage"

    def __init__(self) -> None:
        self.alpha_: float | None = None
        self._task: TaskSpec | None = None

    # ------------------------------------------------------------------
    def fit(self, train: Dataset, task: TaskSpec) -> "PercentageModel":
        """Estimate the global prior α from the training population."""
        self._task = task
        if task.kind == "session":
            total_sessions = train.n_sessions
            self.alpha_ = train.n_accesses / total_sessions if total_sessions else 0.0
        else:
            labels = peak_window_examples(train, lead_seconds=task.lead_seconds).labels
            self.alpha_ = float(np.mean(labels)) if labels.size else 0.0
        return self

    # ------------------------------------------------------------------
    def predict_examples(self, dataset: Dataset, examples: ExampleTable) -> np.ndarray:
        if self.alpha_ is None or self._task is None:
            raise RuntimeError("model is not fitted")
        examples.check(dataset)
        if self._task.kind == "peak":
            # One observation per prior day: every user's full per-day label
            # history, so examples on the final days see all earlier days.
            if np.any(examples.days < 0):
                raise ValueError("peak-task examples must carry a day index")
            history = peak_window_examples(dataset, lead_seconds=self._task.lead_seconds)
            n_days = dataset.n_days
            prior = np.zeros((len(dataset.users), n_days + 1), dtype=np.int64)
            np.cumsum(history.labels.reshape(-1, n_days), axis=1, out=prior[:, 1:])
            n_prior, accessed = examples.days, prior[examples.owners, examples.days]
        else:
            # Sessions strictly before each prediction time in its owner's
            # log: one ``searchsorted`` over ``log * span + (t - first
            # stamp)``, every log's stamps laid end to end, with each row's
            # time clamped into its owner's span.
            logs = HistoryBatch.of_logs(dataset.users)
            times = logs.timestamps
            first, last = (int(times.min()), int(times.max())) if times.size else (0, 0)
            span = last - first + 2
            starts = np.cumsum(logs.lengths) - logs.lengths
            keys = np.repeat(np.arange(logs.n_logs), logs.lengths) * span + (times - first)
            cuts = np.clip(examples.prediction_times - first, 0, span - 1)
            row_starts = starts[examples.owners]
            n_prior = keys.searchsorted(examples.owners * span + cuts) - row_starts
            accessed = np.concatenate([[0], np.cumsum(logs.accesses, dtype=np.int64)])
            accessed = accessed[row_starts + n_prior] - accessed[row_starts]
        return (self.alpha_ + accessed) / (n_prior + 1)

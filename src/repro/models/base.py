"""Common interface for access-probability models.

Every model in the paper — the percentage baseline, logistic regression,
GBDT and the RNN — answers the same question: *given a user's access log and
the current state, what is the probability that the activity will be accessed
in this session / peak window?*  They are therefore exposed behind one
interface, :class:`AccessProbabilityModel`, parameterised by a
:class:`TaskSpec` describing which of the paper's two prediction problems is
being solved (Section 3.2 session access, or Section 3.2.1 timeshifted peak
access) and which day ranges are used for training and evaluation
(Section 8).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..data.schema import SECONDS_PER_HOUR, Dataset
from ..data.tasks import ExampleTable, peak_window_examples, session_examples

__all__ = ["TaskSpec", "PredictionResult", "AccessProbabilityModel"]


@dataclass(frozen=True)
class TaskSpec:
    """Which prediction problem is being solved, and its evaluation protocol.

    ``kind`` is ``"session"`` or ``"peak"``.  Tabular models train on
    examples from the most recent ``train_days`` so aggregation features have
    warm-up history (Section 5.3); the RNN computes its loss over the last
    ``rnn_loss_days`` (Section 6.3); all models are evaluated on the final
    ``eval_days`` (Section 8).  ``lead_seconds`` is how far before the peak
    window the timeshifted prediction is made.
    """

    kind: str = "session"
    train_days: int = 7
    rnn_loss_days: int = 21
    eval_days: int = 7
    lead_seconds: int = 6 * SECONDS_PER_HOUR

    def __post_init__(self) -> None:
        if self.kind not in ("session", "peak"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        for name in ("train_days", "rnn_loss_days", "eval_days"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    # ------------------------------------------------------------------
    def examples_for_last_days(self, dataset: Dataset, days: int) -> ExampleTable:
        """Examples whose prediction time falls in the trailing ``days`` days."""
        days = min(days, dataset.n_days)
        boundary = dataset.day_boundary(days)
        if self.kind == "session":
            return session_examples(dataset, start_time=boundary)
        first_day = dataset.n_days - days
        return peak_window_examples(dataset, lead_seconds=self.lead_seconds, first_day=first_day)

    def train_examples(self, dataset: Dataset) -> ExampleTable:
        """Training examples for tabular models (last ``train_days`` days)."""
        return self.examples_for_last_days(dataset, self.train_days)

    def loss_examples(self, dataset: Dataset) -> ExampleTable:
        """Examples the RNN loss is computed over (last ``rnn_loss_days`` days)."""
        return self.examples_for_last_days(dataset, self.rnn_loss_days)

    def eval_examples(self, dataset: Dataset) -> ExampleTable:
        """Held-out evaluation examples (last ``eval_days`` days)."""
        return self.examples_for_last_days(dataset, self.eval_days)


@dataclass
class PredictionResult:
    """Aligned scores, labels and bookkeeping for a set of examples."""

    y_true: np.ndarray
    y_score: np.ndarray
    user_ids: np.ndarray
    prediction_times: np.ndarray
    model_name: str = ""

    def __post_init__(self) -> None:
        n = len(self.y_true)
        if not (len(self.y_score) == len(self.user_ids) == len(self.prediction_times) == n):
            raise ValueError("misaligned prediction result arrays")

    def __len__(self) -> int:
        return int(len(self.y_true))

    @classmethod
    def from_examples(cls, examples: ExampleTable, scores: np.ndarray, model_name: str = "") -> "PredictionResult":
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        if len(examples) != scores.shape[0]:
            raise ValueError(f"expected {len(examples)} scores, got {scores.shape[0]}")
        return cls(
            y_true=examples.labels.astype(np.float64),
            y_score=scores,
            user_ids=examples.user_ids,
            prediction_times=examples.prediction_times,
            model_name=model_name,
        )

    def merge(self, other: "PredictionResult") -> "PredictionResult":
        """Concatenate two result sets (used to combine cross-validation folds)."""
        return PredictionResult(
            y_true=np.concatenate([self.y_true, other.y_true]),
            y_score=np.concatenate([self.y_score, other.y_score]),
            user_ids=np.concatenate([self.user_ids, other.user_ids]),
            prediction_times=np.concatenate([self.prediction_times, other.prediction_times]),
            model_name=self.model_name or other.model_name,
        )


class AccessProbabilityModel(ABC):
    """Interface shared by all access-probability models."""

    name: str = "model"

    @abstractmethod
    def fit(self, train: Dataset, task: TaskSpec) -> "AccessProbabilityModel":
        """Train the model on the given dataset for the given task."""

    @abstractmethod
    def predict_examples(self, dataset: Dataset, examples: ExampleTable) -> np.ndarray:
        """Scores aligned with the rows of ``examples``; refuses rows that do
        not name one of ``dataset``'s users (:meth:`ExampleTable.check`)."""

    # ------------------------------------------------------------------
    def evaluate(self, dataset: Dataset, task: TaskSpec) -> PredictionResult:
        """Convenience: score the task's evaluation examples on ``dataset``."""
        examples = task.eval_examples(dataset)
        scores = self.predict_examples(dataset, examples)
        return PredictionResult.from_examples(examples, scores, model_name=self.name)

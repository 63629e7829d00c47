"""Online experiment simulation (Section 9 and Figure 7).

The paper productionised the RNN for MobileTab and ran it against the
incumbent GBDT model, reporting:

* daily PR-AUC for users starting from an *empty history* (cold start), where
  the RNN takes roughly two weeks to stabilise and is consistently above the
  GBDT (Figure 7);
* at a threshold targeting 60% precision, a recall of 51.1% vs 47.4%, i.e. a
  7.81% increase in successful prefetches.

:class:`OnlineExperiment` reproduces both measurements on a held-out "live"
population: models are trained on the training population, thresholds are
calibrated on the training population's own predictions, and then every
session of the live population is scored in time order (each prediction can
only see that user's earlier history, so early days genuinely are cold).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.decider import PrecomputeOutcome, simulate_precompute
from ..core.policy import PrecisionTargetPolicy
from ..data.schema import SECONDS_PER_DAY, Dataset
from ..data.tasks import session_examples
from ..metrics import pr_auc
from ..models.base import AccessProbabilityModel, PredictionResult, TaskSpec

__all__ = [
    "OnlineArmResult",
    "OnlineExperimentReport",
    "OnlineExperiment",
]


@dataclass
class OnlineArmResult:
    """Outcome of one experiment arm (one model)."""

    model_name: str
    daily_pr_auc: list[tuple[int, float]]
    outcome: PrecomputeOutcome
    threshold: float
    result: PredictionResult

    @property
    def overall_pr_auc(self) -> float:
        return pr_auc(self.result.y_true, self.result.y_score)


@dataclass
class OnlineExperimentReport:
    """Results of all arms plus cross-arm comparisons."""

    arms: dict[str, OnlineArmResult] = field(default_factory=dict)

    def successful_prefetch_uplift(self, treatment: str, control: str) -> float:
        """Relative increase in successful prefetches of ``treatment`` over ``control``.

        The zero-control edge case is defined, not incidental: when the
        control arm prefetches nothing successfully, the uplift is ``inf``
        if the treatment succeeded at all (any improvement over nothing is
        unbounded in relative terms) and ``0.0`` when both arms are at zero
        (no evidence of a difference).  Downstream consumers check
        ``np.isfinite`` before averaging uplifts across runs; this contract
        is pinned by a regression test.
        """
        control_successes = self.arms[control].outcome.successful_prefetches
        treatment_successes = self.arms[treatment].outcome.successful_prefetches
        if control_successes == 0:
            return float("inf") if treatment_successes > 0 else 0.0
        return treatment_successes / control_successes - 1.0

    def stabilization_day(self, arm: str, tolerance: float = 0.05, window: int = 3) -> int | None:
        """First day after which the arm's daily PR-AUC stays within ``tolerance`` of its final level."""
        series = [value for _, value in self.arms[arm].daily_pr_auc if np.isfinite(value)]
        if len(series) < window + 1:
            return None
        final = float(np.mean(series[-window:]))
        for day, value in self.arms[arm].daily_pr_auc:
            remaining = [v for d, v in self.arms[arm].daily_pr_auc if d >= day and np.isfinite(v)]
            if remaining and all(abs(v - final) <= tolerance for v in remaining):
                return day
        return None


class OnlineExperiment:
    """Replays a live population against several trained models."""

    def __init__(
        self,
        models: dict[str, AccessProbabilityModel],
        task: TaskSpec | None = None,
        precision_target: float = 0.6,
    ) -> None:
        if not models:
            raise ValueError("at least one model arm is required")
        self.models = models
        self.task = task or TaskSpec(kind="session")
        self.precision_target = precision_target

    # ------------------------------------------------------------------
    def _daily_pr_auc(self, dataset: Dataset, result: PredictionResult) -> list[tuple[int, float]]:
        day_index = ((result.prediction_times - dataset.start_time) // SECONDS_PER_DAY).astype(int)
        series: list[tuple[int, float]] = []
        for day in range(dataset.n_days):
            mask = day_index == day
            if mask.sum() < 2 or result.y_true[mask].sum() == 0 or result.y_true[mask].sum() == mask.sum():
                series.append((day, float("nan")))
                continue
            series.append((day, pr_auc(result.y_true[mask], result.y_score[mask])))
        return series

    # ------------------------------------------------------------------
    def run(self, calibration: Dataset, live: Dataset) -> OnlineExperimentReport:
        """Calibrate thresholds on ``calibration`` users and replay ``live`` users.

        Models must already be fitted.  Every session of the live population
        is scored (not just the final week), so the early days show genuine
        cold-start behaviour.
        """
        report = OnlineExperimentReport()
        live_examples = session_examples(live)
        calibration_examples = session_examples(
            calibration, start_time=calibration.day_boundary(self.task.eval_days)
        )
        for name, model in self.models.items():
            calibration_scores = model.predict_examples(calibration, calibration_examples)
            calibration_result = PredictionResult.from_examples(calibration_examples, calibration_scores, name)
            policy = PrecisionTargetPolicy(self.precision_target).fit(
                calibration_result.y_true, calibration_result.y_score
            )

            live_scores = model.predict_examples(live, live_examples)
            live_result = PredictionResult.from_examples(live_examples, live_scores, name)
            outcome = simulate_precompute(live_result, policy)
            report.arms[name] = OnlineArmResult(
                model_name=name,
                daily_pr_auc=self._daily_pr_auc(live, live_result),
                outcome=outcome,
                threshold=policy.threshold,
                result=live_result,
            )
        return report

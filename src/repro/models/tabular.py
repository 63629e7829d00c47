"""Feature-engineered tabular models: logistic regression and GBDT (Sections 5.3-5.4).

Both wrap the :class:`~repro.features.pipeline.TabularFeaturizer` around a
classical estimator from :mod:`repro.ml`:

* :class:`LogisticRegressionModel` — one-hot encodes the time features and
  log-bucketed elapsed features (Section 5.3) before fitting an
  L2-regularised logistic regression.
* :class:`GBDTModel` — keeps ordinal encodings for time and elapsed features
  (Section 5.4), holds out 10% of training users as a validation set, and
  searches tree depths exhaustively to minimise validation log loss.

The feature configuration is exposed so the Table 5 ablation (context only /
+elapsed / +aggregations) can reuse the same classes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..data.schema import Dataset
from ..data.splits import validation_split
from ..data.tasks import ExampleTable
from ..features import FeatureConfig, TabularFeaturizer
from ..ml import GBDTConfig, GradientBoostedTrees, LogisticRegression, LogisticRegressionConfig
from .base import AccessProbabilityModel, TaskSpec

__all__ = ["LogisticRegressionModel", "GBDTModel"]


class _TabularModelBase(AccessProbabilityModel):
    """Shared fit/predict plumbing for featurizer + estimator models."""

    def __init__(self, feature_config: FeatureConfig) -> None:
        self.feature_config = feature_config
        self.featurizer: TabularFeaturizer | None = None
        self._task: TaskSpec | None = None

    # Subclasses implement the estimator-specific parts.
    def _fit_estimator(self, train: Dataset, task: TaskSpec) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _estimator_scores(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def fit(self, train: Dataset, task: TaskSpec) -> "_TabularModelBase":
        self._task = task
        self.featurizer = TabularFeaturizer(train.schema, self.feature_config)
        self._fit_estimator(train, task)
        return self

    def predict_examples(self, dataset: Dataset, examples: ExampleTable) -> np.ndarray:
        if self.featurizer is None:
            raise RuntimeError("model is not fitted")
        data = self.featurizer.transform(dataset, examples)
        if len(data) == 0:
            return np.zeros(0)
        return self._estimator_scores(data.X)

    @property
    def n_lookup_groups(self) -> int:
        """Aggregation groups the serving layer must fetch per prediction."""
        if self.featurizer is None:
            raise RuntimeError("model is not fitted")
        return self.featurizer.n_lookup_groups


class LogisticRegressionModel(_TabularModelBase):
    """Logistic regression on one-hot engineered features (Section 5.3)."""

    name = "lr"

    def __init__(
        self,
        feature_config: FeatureConfig | None = None,
        estimator_config: LogisticRegressionConfig | None = None,
    ) -> None:
        config = feature_config or FeatureConfig(one_hot_time=True, one_hot_elapsed=True)
        if not config.one_hot_elapsed:
            # Section 5.3 bucketises and one-hot encodes elapsed features for LR.
            config = replace(config, one_hot_elapsed=True)
        super().__init__(config)
        self.estimator_config = estimator_config or LogisticRegressionConfig()
        self.estimator: LogisticRegression | None = None

    def _fit_estimator(self, train: Dataset, task: TaskSpec) -> None:
        assert self.featurizer is not None
        data = self.featurizer.transform(train, task.train_examples(train))
        if len(data) == 0:
            raise ValueError("no training examples were produced")
        self.estimator = LogisticRegression(self.estimator_config).fit(data.X, data.y)

    def _estimator_scores(self, X: np.ndarray) -> np.ndarray:
        assert self.estimator is not None
        return self.estimator.predict_proba(X)


class GBDTModel(_TabularModelBase):
    """Gradient boosted decision trees on engineered features (Section 5.4)."""

    name = "gbdt"

    def __init__(
        self,
        feature_config: FeatureConfig | None = None,
        gbdt_config: GBDTConfig | None = None,
        depths: tuple[int, ...] = (2, 3, 4, 5, 6),
        validation_fraction: float = 0.1,
    ) -> None:
        super().__init__(feature_config or FeatureConfig(one_hot_time=False, one_hot_elapsed=False))
        self.gbdt_config = gbdt_config or GBDTConfig()
        self.depths = depths
        self.validation_fraction = validation_fraction
        self.estimator: GradientBoostedTrees | None = None
        self.best_depth_: int | None = None
        self.depth_search_losses_: dict[int, float] = {}

    def _fit_estimator(self, train: Dataset, task: TaskSpec) -> None:
        assert self.featurizer is not None
        split = validation_split(train, validation_fraction=self.validation_fraction, seed=self.gbdt_config.seed)
        train_data = self.featurizer.transform(split.train, task.train_examples(split.train))
        valid_data = self.featurizer.transform(split.test, task.train_examples(split.test))
        if len(train_data) == 0:
            raise ValueError("no training examples were produced")
        if len(valid_data) == 0 or valid_data.y.sum() == 0:
            # Degenerate validation split (tiny datasets): fall back to a single fit.
            self.estimator = GradientBoostedTrees(self.gbdt_config).fit(train_data.X, train_data.y)
            self.best_depth_ = self.gbdt_config.max_depth
            self.depth_search_losses_ = {}
            return
        model, best_depth, losses = GradientBoostedTrees.fit_with_depth_search(
            train_data.X,
            train_data.y,
            valid_data.X,
            valid_data.y,
            depths=self.depths,
            config=self.gbdt_config,
        )
        self.estimator = model
        self.best_depth_ = best_depth
        self.depth_search_losses_ = losses

    def _estimator_scores(self, X: np.ndarray) -> np.ndarray:
        assert self.estimator is not None
        return self.estimator.predict_proba(X)

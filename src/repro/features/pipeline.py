"""Tabular feature pipeline for the traditional models (Sections 5.2-5.4).

:class:`TabularFeaturizer` turns a labelled
:class:`~repro.data.tasks.ExampleTable` into a fixed-width design matrix by
assembling four feature families:

* ``context`` (C) — one-hot / hashed encodings of the current session context
  plus raw numeric context values;
* ``time`` — hour-of-day and day-of-week derived from the prediction
  timestamp;
* ``aggregations`` (A) — trailing-window session/access counts and rates,
  optionally restricted to context-matching history;
* ``elapsed`` (E) — time since the last session / last access (again with
  context-matched variants), either log-bucketed and one-hot encoded (for
  logistic regression) or passed as a single ordinal log-bucket column (for
  GBDT).

The family switches implement the Table 5 ablation (C, E+C, A+E+C).

Context reaches the featurizer as columns, one array per field plus a
has-context mask: in training, each session row's own row of its owner's
log columns; in serving, a micro-batch's request dicts transposed once by
:func:`~repro.data.schema.context_columns`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from ..data.schema import ContextSchema, Dataset, HistoryBatch, day_of_week, hour_of_day
from ..data.tasks import ExampleTable
from .aggregations import DEFAULT_WINDOWS, AggregationConfig, HistoryAggregator
from .bucketing import N_BUCKETS, log_bucket
from .encoders import HASH_MODULO, HashingEncoder, OneHotEncoder

__all__ = ["FeatureConfig", "TabularFeaturizer", "TabularData", "ablation_config"]


@dataclass(frozen=True)
class FeatureConfig:
    """Switches and hyper-parameters of the tabular feature pipeline."""

    include_context: bool = True
    include_time: bool = True
    include_aggregations: bool = True
    include_elapsed: bool = True
    one_hot_time: bool = True
    one_hot_elapsed: bool = False
    windows: tuple[int, ...] = DEFAULT_WINDOWS
    max_context_subset: int = 2
    max_one_hot_cardinality: int = 64
    hash_modulo: int = HASH_MODULO
    elapsed_buckets: int = N_BUCKETS

    def aggregation_config(self) -> AggregationConfig:
        return AggregationConfig(
            windows=self.windows,
            max_subset_size=self.max_context_subset if (self.include_aggregations or self.include_elapsed) else 0,
            include_elapsed=self.include_elapsed,
            include_aggregations=self.include_aggregations,
        )


def ablation_config(features: str, base: FeatureConfig | None = None) -> FeatureConfig:
    """Named feature sets for the Table 5 ablation.

    ``"C"`` — contextual features only; ``"E+C"`` — adds time-elapsed
    features; ``"A+E+C"`` — the full set with time-based aggregations.
    """
    base = base or FeatureConfig()
    normalized = features.replace(" ", "").upper()
    if normalized == "C":
        return replace(base, include_aggregations=False, include_elapsed=False)
    if normalized in ("E+C", "C+E"):
        return replace(base, include_aggregations=False, include_elapsed=True)
    if normalized in ("A+E+C", "A+C+E", "FULL"):
        return replace(base, include_aggregations=True, include_elapsed=True)
    raise ValueError(f"unknown ablation feature set {features!r}; expected 'C', 'E+C' or 'A+E+C'")


@dataclass
class TabularData:
    """A design matrix plus aligned labels and bookkeeping columns."""

    X: np.ndarray
    y: np.ndarray
    user_ids: np.ndarray
    prediction_times: np.ndarray
    feature_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if not (len(self.y) == len(self.user_ids) == len(self.prediction_times) == n):
            raise ValueError("misaligned tabular data arrays")

    def __len__(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    def subset(self, mask: np.ndarray) -> "TabularData":
        return TabularData(
            X=self.X[mask],
            y=self.y[mask],
            user_ids=self.user_ids[mask],
            prediction_times=self.prediction_times[mask],
            feature_names=self.feature_names,
        )


class TabularFeaturizer:
    """Builds fixed-width feature vectors from examples and access history."""

    def __init__(self, schema: ContextSchema, config: FeatureConfig | None = None) -> None:
        self.schema = schema
        self.config = config or FeatureConfig()
        self._context_encoders: dict[str, OneHotEncoder | HashingEncoder | None] = {}
        for field_def in schema:
            if field_def.kind == "numeric":
                self._context_encoders[field_def.name] = None
            elif field_def.cardinality is not None and field_def.cardinality <= self.config.max_one_hot_cardinality:
                self._context_encoders[field_def.name] = OneHotEncoder(field_def.cardinality)
            else:
                self._context_encoders[field_def.name] = HashingEncoder(self.config.hash_modulo)
        self.aggregator = HistoryAggregator(schema, self.config.aggregation_config())
        self._aggregation_names = self.aggregator.feature_names()
        self._elapsed_columns = [i for i, name in enumerate(self._aggregation_names) if name.startswith("elapsed[")]
        self._names = self._build_feature_names()
        # Where each aggregator column lands in the history block: plain
        # columns as they are, elapsed ones as a bucket (or its one-hot run).
        is_elapsed = np.zeros(len(self._aggregation_names), dtype=bool)
        is_elapsed[self._elapsed_columns] = True
        widths = np.where(is_elapsed, self.config.elapsed_buckets if self.config.one_hot_elapsed else 1, 1)
        targets = np.cumsum(widths) - widths
        self._history_width = int(widths.sum())
        self._plain_columns = np.flatnonzero(~is_elapsed)
        self._plain_targets = targets[~is_elapsed]
        self._elapsed_targets = targets[is_elapsed]

    # ------------------------------------------------------------------
    def _build_feature_names(self) -> list[str]:
        names: list[str] = []
        if self.config.include_context:
            for field_def in self.schema:
                encoder = self._context_encoders[field_def.name]
                if encoder is None:
                    names.append(f"ctx.{field_def.name}")
                    names.append(f"ctx.log1p_{field_def.name}")
                else:
                    names.extend(encoder.feature_names(f"ctx.{field_def.name}"))
        if self.config.include_time:
            if self.config.one_hot_time:
                names.extend(f"time.hour={h}" for h in range(24))
                names.extend(f"time.dow={d}" for d in range(7))
            else:
                names.extend(["time.hour", "time.dow"])
        for index, name in enumerate(self._aggregation_names):
            if index in self._elapsed_columns:
                if self.config.one_hot_elapsed:
                    names.extend(f"{name}.bucket={b}" for b in range(self.config.elapsed_buckets))
                else:
                    names.append(f"{name}.bucket")
            else:
                names.append(name)
        return names

    # ------------------------------------------------------------------
    def feature_names(self) -> list[str]:
        return list(self._names)

    @property
    def n_features(self) -> int:
        return len(self._names)

    @property
    def n_lookup_groups(self) -> int:
        """Aggregation groups a serving system must look up per prediction."""
        return self.aggregator.n_lookup_groups

    # ------------------------------------------------------------------
    def transform_user(
        self,
        history: HistoryBatch,
        owners,
        prediction_times,
        context: Mapping[str, np.ndarray],
        has_context: np.ndarray,
    ) -> np.ndarray:
        """Feature matrix for examples over any number of users' logs.

        Row ``i`` is predicted at ``prediction_times[i]``, in the context
        ``context[name][i]`` of each field (read only where
        ``has_context[i]``; a row without one has no current session and
        reads 0 there), from log ``owners[i]`` of ``history``, every log's
        columns laid back to back — one call featurizes a serving
        micro-batch (one fetched record per request,
        :meth:`HistoryBatch.of_records`, its contexts transposed by
        :func:`~repro.data.schema.context_columns`) or a whole training set
        (one log per user, :meth:`HistoryBatch.of_logs`).

        Every family writes at its column offset into one zero matrix:
        numeric context values by column assignment, categorical, hashed,
        hour and day columns by scattering ones at flat position ``row ·
        width + offset + hot column``, and the aggregator's columns through
        one index map into the history block (elapsed ones as a log bucket,
        or its one-hot run).
        """
        prediction_times = np.asarray(prediction_times, dtype=np.int64).reshape(-1)
        raw = self.aggregator.compute_batch(history, owners, prediction_times, context, has_context)
        n, width = prediction_times.size, self.n_features
        matrix = np.zeros((n, width), dtype=np.float64)
        flat, stop = matrix.reshape(-1), n * width
        offset = 0
        if self.config.include_context:
            for field_def in self.schema:
                encoder = self._context_encoders[field_def.name]
                values = np.asarray(context[field_def.name], dtype=np.float64)
                if encoder is None:
                    matrix[:, offset] = values
                    matrix[:, offset + 1] = np.log1p(np.maximum(values, 0.0))
                    offset += 2
                else:
                    flat[np.arange(offset, stop, width) + encoder.hot_column(values.astype(np.int64))] = 1.0
                    offset += encoder.width
        if self.config.include_time:
            # Hour and day are reduced modulo 24 and 7: no range check needed.
            hours, days = hour_of_day(prediction_times), day_of_week(prediction_times)
            if self.config.one_hot_time:
                flat[np.arange(offset, stop, width) + hours] = 1.0
                flat[np.arange(offset + 24, stop, width) + days] = 1.0
                offset += 24 + 7
            else:
                matrix[:, offset] = hours
                matrix[:, offset + 1] = days
                offset += 2
        if offset + self._history_width != width:
            raise RuntimeError(
                f"feature width mismatch: built {offset + self._history_width} columns, expected {width}"
            )
        encoded = matrix[:, offset:]
        if not self._elapsed_columns:
            encoded[:] = raw
            return matrix
        # One bucketing call for every elapsed column, placed by one index map.
        buckets = log_bucket(raw[:, self._elapsed_columns], n_buckets=self.config.elapsed_buckets)
        encoded[:, self._plain_targets] = raw[:, self._plain_columns]
        if self.config.one_hot_elapsed:
            encoded[np.arange(n)[:, None], self._elapsed_targets + buckets] = 1.0
        else:
            encoded[:, self._elapsed_targets] = buckets
        return matrix

    def transform(self, dataset: Dataset, examples: ExampleTable) -> TabularData:
        """Feature matrix for a whole dataset's examples, in one call.

        The history holds each owner with examples once; a session row's
        context is its own session's row of those columns, gathered, and a
        row without a session (the timeshifted task) has none.
        """
        examples.check(dataset)
        present = np.unique(examples.owners)
        history = HistoryBatch.of_logs([dataset.users[owner] for owner in present])
        owners = present.searchsorted(examples.owners)
        has_context = examples.sessions >= 0
        rows = (np.cumsum(history.lengths) - history.lengths)[owners[has_context]] + examples.sessions[has_context]
        context = {}
        for name in self.schema.names():
            values = history.context.get(name, np.zeros(0, dtype=np.int64))  # no logs: no columns
            context[name] = np.zeros(len(examples), dtype=values.dtype)
            context[name][has_context] = values[rows]
        return TabularData(
            X=self.transform_user(history, owners, examples.prediction_times, context, has_context),
            y=examples.labels.astype(np.float64),
            user_ids=examples.user_ids,
            prediction_times=examples.prediction_times,
            feature_names=self.feature_names(),
        )

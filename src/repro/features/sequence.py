"""Per-session feature vectors for the sequence (RNN) models (Section 6.1).

The RNN eliminates the aggregation and elapsed-time feature engineering of
Section 5.2; it only needs, for each session ``i``:

* a fixed-length vector ``f_i`` built from the session context (one-hot
  categorical fields, numeric fields) and the time-based features (hour of
  day, day of week) — produced here;
* the access flag ``A_i``;
* the session timestamp ``t_i`` (from which the model derives the bucketed
  ``Δt`` update input and the prediction-time gap ``t_i − t_k``).

:class:`SequenceBuilder` produces one :class:`UserSequence` per user; the RNN
model and trainer consume those directly.  One column encoder,
:meth:`SequenceBuilder.encode_columns`, serves both sides: training encodes
each log's context columns as they are (and reads a session example's
predict-time features back as that matrix's row), and serving's
:meth:`SequenceBuilder.encode_context_rows` is a thin door that transposes a
micro-batch's request dicts into columns first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..data.schema import ContextSchema, UserLog, context_columns, day_of_week, hour_of_day
from .bucketing import N_BUCKETS, log_bucket
from .encoders import HASH_MODULO, HashingEncoder, OneHotEncoder

__all__ = ["UserSequence", "SequenceBuilder"]


@dataclass
class UserSequence:
    """Model-ready representation of one user's access log."""

    user_id: int
    timestamps: np.ndarray
    accesses: np.ndarray
    features: np.ndarray
    delta_buckets: np.ndarray

    def __post_init__(self) -> None:
        n = self.timestamps.shape[0]
        if not (self.accesses.shape[0] == self.features.shape[0] == self.delta_buckets.shape[0] == n):
            raise ValueError("misaligned sequence arrays")

    def __len__(self) -> int:
        return int(self.timestamps.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def slice(self, start: int, stop: int) -> "UserSequence":
        """Sub-sequence (note: delta buckets are kept as originally computed)."""
        return UserSequence(
            user_id=self.user_id,
            timestamps=self.timestamps[start:stop],
            accesses=self.accesses[start:stop],
            features=self.features[start:stop],
            delta_buckets=self.delta_buckets[start:stop],
        )

    def truncate_last(self, max_sessions: int) -> "UserSequence":
        """Keep the most recent ``max_sessions`` sessions (Section 7.1)."""
        if max_sessions <= 0:
            raise ValueError("max_sessions must be positive")
        if len(self) <= max_sessions:
            return self
        return self.slice(len(self) - max_sessions, len(self))


class SequenceBuilder:
    """Builds :class:`UserSequence` objects from raw user logs."""

    def __init__(
        self,
        schema: ContextSchema,
        *,
        include_time: bool = True,
        max_one_hot_cardinality: int = 64,
        hash_modulo: int = HASH_MODULO,
        n_delta_buckets: int = N_BUCKETS,
    ) -> None:
        self.schema = schema
        self.include_time = include_time
        self.n_delta_buckets = n_delta_buckets
        self._encoders: dict[str, OneHotEncoder | HashingEncoder | None] = {}
        for field_def in schema:
            if field_def.kind == "numeric":
                self._encoders[field_def.name] = None
            elif field_def.cardinality is not None and field_def.cardinality <= max_one_hot_cardinality:
                self._encoders[field_def.name] = OneHotEncoder(field_def.cardinality)
            else:
                self._encoders[field_def.name] = HashingEncoder(hash_modulo)
        self._feature_names = self._build_feature_names()

    # ------------------------------------------------------------------
    def _build_feature_names(self) -> list[str]:
        names: list[str] = []
        for field_def in self.schema:
            encoder = self._encoders[field_def.name]
            if encoder is None:
                names.append(f"ctx.{field_def.name}")
                names.append(f"ctx.log1p_{field_def.name}")
            else:
                names.extend(encoder.feature_names(f"ctx.{field_def.name}"))
        if self.include_time:
            names.extend(f"time.hour={h}" for h in range(24))
            names.extend(f"time.dow={d}" for d in range(7))
        return names

    def feature_names(self) -> list[str]:
        return list(self._feature_names)

    @property
    def feature_dim(self) -> int:
        return len(self._feature_names)

    # ------------------------------------------------------------------
    def encode_columns(self, context: Mapping[str, np.ndarray], timestamps: np.ndarray) -> np.ndarray:
        """Encode context columns — a log's, or a micro-batch's transposed rows.

        Every field writes at its column offset into one zero matrix —
        numeric fields by column assignment, categorical and time fields by
        scattering ones at flat position ``row · width + offset + hot
        column`` — so a single row costs a handful of NumPy calls and zero
        rows is just the empty matrix.  ``timestamps`` are integer seconds;
        hour and day are reduced modulo 24 and 7, so they need no range
        check.
        """
        timestamps = np.asarray(timestamps, dtype=np.int64)
        n, width = timestamps.size, self.feature_dim
        matrix = np.zeros((n, width))
        flat, stop = matrix.reshape(-1), n * width
        offset = 0
        for field_def in self.schema:
            encoder = self._encoders[field_def.name]
            values = np.asarray(context[field_def.name], dtype=np.float64)
            if encoder is None:
                matrix[:, offset] = values
                matrix[:, offset + 1] = np.log1p(np.maximum(values, 0.0))
                offset += 2
            else:
                flat[np.arange(offset, stop, width) + encoder.hot_column(values.astype(np.int64))] = 1.0
                offset += encoder.width
        if self.include_time:
            flat[np.arange(offset, stop, width) + hour_of_day(timestamps)] = 1.0
            flat[np.arange(offset + 24, stop, width) + day_of_week(timestamps)] = 1.0
            offset += 24 + 7
        if offset != width:
            raise RuntimeError("feature width mismatch in sequence encoding")
        return matrix

    def encode_context_rows(self, contexts: list[dict[str, float]], timestamps: np.ndarray) -> np.ndarray:
        """Encode serving request contexts: their columns, through :meth:`encode_columns`."""
        return self.encode_columns(context_columns(contexts, self._encoders)[0], timestamps)

    def build_user(self, user: UserLog) -> UserSequence:
        """Build the model-ready sequence for one user, encoding its log's
        context columns as they are."""
        n = len(user)
        timestamps = user.timestamps.astype(np.int64)
        features = self.encode_columns(user.context, timestamps)
        deltas = np.zeros(n, dtype=np.float64)
        if n > 1:
            deltas[1:] = np.diff(timestamps).astype(np.float64)
        delta_buckets = log_bucket(deltas, n_buckets=self.n_delta_buckets)
        return UserSequence(
            user_id=user.user_id,
            timestamps=timestamps,
            accesses=user.accesses.astype(np.float64),
            features=features,
            delta_buckets=delta_buckets,
        )

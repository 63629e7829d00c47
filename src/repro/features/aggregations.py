"""Time-window aggregations and elapsed-time features (Section 5.2).

Traditional models cannot consume a variable-length access log directly, so
the paper engineers fixed-length features from it:

* **Time-based aggregations** — number of sessions, number of accesses and
  their ratio over trailing windows of 28 days, 7 days, 1 day and 1 hour;
  additionally restricted to past sessions whose context matches the current
  session's context on every field of some subset (e.g. "accesses from
  sessions with the same active tab").  All (window) × (context subset)
  combinations are generated.
* **Time-elapsed features** — seconds since the last session and since the
  last access, again optionally restricted to context-matching past sessions.

The aggregations are *causal*: for an example predicted at time ``t`` only
sessions that started strictly before ``t`` contribute.  The serving cost
model (Section 9) charges one key-value lookup per aggregation group, which
is why the number of generated feature groups matters beyond model quality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..data.schema import ContextSchema, HistoryBatch, UserLog

__all__ = ["AggregationConfig", "HistoryAggregator", "DEFAULT_WINDOWS", "MISSING_ELAPSED"]

#: Trailing windows used by the paper: 28 days, 7 days, 1 day, 1 hour.
DEFAULT_WINDOWS: tuple[int, ...] = (28 * 86400, 7 * 86400, 86400, 3600)

#: Sentinel for "no matching previous event"; downstream encoders map it to
#: the last log bucket / a capped numeric value.
MISSING_ELAPSED = np.inf

#: Bin edges used when matching on the numeric badge-count context: exact
#: matching on a 0-99 count would fragment history into useless slivers, so
#: counts are matched on coarse bins instead (0, 1-3, 4-10, 11+).
_NUMERIC_MATCH_BINS = np.array([0.5, 3.5, 10.5])


@dataclass(frozen=True)
class AggregationConfig:
    """Configuration of the aggregation feature generator."""

    windows: tuple[int, ...] = DEFAULT_WINDOWS
    max_subset_size: int = 2
    include_elapsed: bool = True
    include_aggregations: bool = True

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("at least one window is required")
        if any(w <= 0 for w in self.windows):
            raise ValueError("windows must be positive")
        if self.max_subset_size < 0:
            raise ValueError("max_subset_size must be non-negative")


def _numeric_match_code(values: np.ndarray) -> np.ndarray:
    """Coarse bin codes for numeric context values (see _NUMERIC_MATCH_BINS)."""
    return np.digitize(np.asarray(values, dtype=np.float64), _NUMERIC_MATCH_BINS)


class HistoryAggregator:
    """Computes aggregation and elapsed-time features for one dataset schema."""

    def __init__(self, schema: ContextSchema, config: AggregationConfig | None = None) -> None:
        self.schema = schema
        self.config = config or AggregationConfig()
        self.subsets: list[tuple[str, ...]] = self._build_subsets()
        # Subtracted from a prediction time q: q itself, then q - w + 1 per
        # window w (the first second a session must reach to stay inside).
        windows = self.config.windows if self.config.include_aggregations else ()
        self._query_offsets = np.asarray([0] + [w - 1 for w in windows], dtype=np.int64)

    # ------------------------------------------------------------------
    def _build_subsets(self) -> list[tuple[str, ...]]:
        names = self.schema.names()
        subsets: list[tuple[str, ...]] = [()]
        for size in range(1, min(self.config.max_subset_size, len(names)) + 1):
            subsets.extend(itertools.combinations(names, size))
        return subsets

    # ------------------------------------------------------------------
    def feature_names(self) -> list[str]:
        names: list[str] = []
        for subset in self.subsets:
            tag = "all" if not subset else "+".join(subset)
            if self.config.include_aggregations:
                for window in self.config.windows:
                    for stat in ("sessions", "accesses", "access_rate"):
                        names.append(f"agg[{tag}][{window}s].{stat}")
            if self.config.include_elapsed:
                names.append(f"elapsed[{tag}].since_session")
                names.append(f"elapsed[{tag}].since_access")
        return names

    @property
    def n_features(self) -> int:
        per_subset = 0
        if self.config.include_aggregations:
            per_subset += 3 * len(self.config.windows)
        if self.config.include_elapsed:
            per_subset += 2
        return per_subset * len(self.subsets)

    @property
    def n_lookup_groups(self) -> int:
        """Number of distinct (subset, window) aggregation groups.

        The serving simulation uses this as the number of key-value lookups a
        traditional model needs per prediction (Section 9 reports ~20 for
        MobileTab).
        """
        groups = 0
        if self.config.include_aggregations:
            groups += len(self.subsets) * len(self.config.windows)
        if self.config.include_elapsed:
            groups += len(self.subsets)
        return groups

    # ------------------------------------------------------------------
    def _match_codes(self, values: dict[str, np.ndarray], size: int) -> np.ndarray:
        """One int code per (subset, row): the subset's context values combined.

        ``values`` holds one column per field any subset reads; the result
        has one row per subset (the empty subset codes every row 0).
        """
        field_codes: dict[str, tuple[np.ndarray, int]] = {}
        for name, column in values.items():
            field_def = self.schema.field(name)
            if field_def.kind == "numeric":
                field_codes[name] = (_numeric_match_code(column), len(_NUMERIC_MATCH_BINS) + 1)
            else:
                field_codes[name] = (column.astype(np.int64), int(field_def.cardinality))
        codes = np.zeros((len(self.subsets), size), dtype=np.int64)
        for row, subset in enumerate(self.subsets):
            for name in subset:
                column_codes, cardinality = field_codes[name]
                codes[row] = codes[row] * cardinality + column_codes
        return codes

    # ------------------------------------------------------------------
    def compute(
        self,
        user: UserLog,
        prediction_times: np.ndarray,
        contexts: list[dict[str, float]] | None,
    ) -> np.ndarray:
        """Feature matrix of shape ``(len(prediction_times), n_features)``.

        ``contexts`` supplies the current context of each example (needed for
        context-matched subsets); pass ``None`` for the timeshifted task, in
        which case only the unconditional subset produces non-trivial values
        and the matched subsets report "no matching history".  This is the
        one-log case of :meth:`compute_batch`.
        """
        prediction_times = np.asarray(prediction_times, dtype=np.int64).reshape(-1)
        rows = [None] * prediction_times.size if contexts is None else contexts
        return self.compute_batch(
            HistoryBatch.of_logs([user]), np.zeros(prediction_times.size, dtype=np.int64), prediction_times, rows
        )

    def compute_batch(
        self,
        history: HistoryBatch,
        owners: np.ndarray,
        prediction_times: np.ndarray,
        contexts: list[dict[str, float] | None],
    ) -> np.ndarray:
        """Feature rows over any number of logs, in a fixed number of array calls.

        Row ``i`` is predicted at ``prediction_times[i]`` from the history in
        log ``owners[i]`` of ``history``, in context ``contexts[i]``; a
        ``None`` context means "no current session", so that row's matched
        subsets report no matching history.  The same log may own many rows
        (training) and the same user may appear as several logs (one fetched
        record per request).

        ``history``'s columns are the sessions, tagged with their segment
        (1-based log index; segment 0 holds no sessions).  Every (subset,
        session) and (subset, row) gets a match code, and one stable sort
        groups both by (subset, segment, code) — a contextless row's matched
        subsets read segment 0, an empty group.  Sessions then sit in
        (group, time) order, so one ``searchsorted`` over composite
        ``group * R + time rank`` keys finds, for every subset × row, where
        its group starts, where its history before the prediction time ends
        and where each window opens; a cumulative access column turns those
        positions into counts and into the time of the last access.
        """
        prediction_times = np.asarray(prediction_times, dtype=np.int64).reshape(-1)
        n_rows = prediction_times.size
        if len(contexts) != n_rows:
            raise ValueError("contexts must align with prediction_times")
        n_subsets = len(self.subsets)
        per_subset = self.n_features // n_subsets
        if n_rows == 0 or per_subset == 0:
            return np.zeros((n_rows, self.n_features), dtype=np.float64)
        owners = np.asarray(owners, dtype=np.int64)

        times, accesses, n_logs = history.timestamps, history.accesses, history.n_logs
        n_sessions = times.size
        segments = np.repeat(np.arange(1, n_logs + 1), history.lengths)
        values = {
            name: np.concatenate(
                [history.context[name], np.asarray([0 if c is None else c[name] for c in contexts])]
            )
            for name in dict.fromkeys(name for subset in self.subsets for name in subset)
        }
        codes = self._match_codes(values, n_sessions + n_rows)

        # Segment per (subset, entry), offset per subset so the sort key is
        # (subset, segment, code); entries are the sessions, then the rows.
        has_context = np.fromiter((c is not None for c in contexts), dtype=bool, count=n_rows)
        keys = np.empty((n_subsets, n_sessions + n_rows), dtype=np.int64)
        keys[:, :n_sessions] = segments
        keys[:, n_sessions:] = np.where(has_context, owners + 1, 0)
        keys[0, n_sessions:] = owners + 1  # the unconditional subset needs no context
        keys += np.arange(n_subsets)[:, None] * (n_logs + 1)
        order = np.lexsort((codes.ravel(), keys.ravel()))
        sorted_keys, sorted_codes = keys.ravel()[order], codes.ravel()[order]
        group = np.empty(order.size, dtype=np.int64)
        group[0] = 0
        np.cumsum((sorted_keys[1:] != sorted_keys[:-1]) | (sorted_codes[1:] != sorted_codes[:-1]), out=group[1:])

        entry = order % (n_sessions + n_rows)
        is_session = entry < n_sessions
        session = entry[is_session]  # sessions in (group, time) order
        row_group = np.empty(order.size, dtype=np.int64)
        row_group[order] = group
        row_group = row_group.reshape(n_subsets, -1)[:, n_sessions:].T  # [rows, subsets]

        # Composite keys over time ranks: "t < q" is "rank(t) < rank_left(q)"
        # and "t <= q - w" is "t < q - w + 1" on integer seconds.
        distinct_times, time_rank = np.unique(times, return_inverse=True)
        span = distinct_times.size + 1
        query_ranks = np.zeros((n_rows, self._query_offsets.size + 1), dtype=np.int64)
        query_ranks[:, 1:] = np.searchsorted(distinct_times, prediction_times[:, None] - self._query_offsets)
        found = np.searchsorted(
            group[is_session] * span + time_rank.reshape(-1)[session],
            row_group[:, :, None] * span + query_ranks[:, None, :],
        )
        start, before = found[..., 0], found[..., 1]  # [rows, subsets]

        cum_accesses = np.zeros(session.size + 1, dtype=np.int64)
        np.cumsum(accesses[session], out=cum_accesses[1:])
        session_times = times[session]
        features = np.empty((n_rows, n_subsets, per_subset), dtype=np.float64)
        if self.config.include_aggregations:
            # Window is (q - w, q): a session exactly w old has aged out.
            opened = found[..., 2:]
            n_in_window = (before[..., None] - opened).astype(np.float64)
            n_accessed = (cum_accesses[before][..., None] - cum_accesses[opened]).astype(np.float64)
            width = 3 * len(self.config.windows)
            features[..., 0:width:3] = n_in_window
            features[..., 1:width:3] = n_accessed
            features[..., 2:width:3] = np.where(
                n_in_window > 0, n_accessed / np.maximum(n_in_window, 1.0), 0.0
            )
        if self.config.include_elapsed:
            previous = np.concatenate([[0], session_times])[before]
            accessed_before = cum_accesses[before]
            last_access = np.concatenate([[0], session_times[accesses[session] == 1]])[accessed_before]
            queried = prediction_times[:, None]
            features[..., -2] = np.where(before > start, queried - previous, MISSING_ELAPSED)
            features[..., -1] = np.where(accessed_before > cum_accesses[start], queried - last_access, MISSING_ELAPSED)
        return features.reshape(n_rows, self.n_features)

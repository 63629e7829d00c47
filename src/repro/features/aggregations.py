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
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..data.schema import ContextSchema, HistoryBatch

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

_INT64_MAX = int(np.iinfo(np.int64).max)


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
    # ``np.digitize``'s own spelling for increasing bins, without its wrapper.
    return _NUMERIC_MATCH_BINS.searchsorted(np.asarray(values, dtype=np.float64), side="right")


def _match_cardinality(field_def) -> int:
    """How many match codes a field takes: its bins, or its categories."""
    return len(_NUMERIC_MATCH_BINS) + 1 if field_def.kind == "numeric" else int(field_def.cardinality)


class HistoryAggregator:
    """Computes aggregation and elapsed-time features for one dataset schema."""

    def __init__(self, schema: ContextSchema, config: AggregationConfig | None = None) -> None:
        self.schema = schema
        self.config = config or AggregationConfig()
        self.subsets: list[tuple[str, ...]] = self._build_subsets()
        # Subtracted from a prediction time q to cut its log: an offset past
        # any stamp (the log's start), q itself, then q - w + 1 per window w
        # (the first second a session must reach to stay inside).
        windows = self.config.windows if self.config.include_aggregations else ()
        self._query_offsets = np.asarray([_INT64_MAX, 0] + [w - 1 for w in windows], dtype=np.int64)
        self._max_window_offset = int(self._query_offsets[1:].max())
        # Match codes are mixed-radix numbers: a subset's code multiplies
        # each field's code by the cardinalities of the subset's later fields.
        names = list(dict.fromkeys(name for subset in self.subsets for name in subset))
        self._match_fields = [(name, schema.field(name).kind == "numeric") for name in names]
        self._code_multipliers = np.zeros((len(self.subsets), len(names)), dtype=np.int64)
        self._code_space = 1  # the largest code space of any subset
        for row, subset in enumerate(self.subsets):
            multiplier = 1
            for name in reversed(subset):
                self._code_multipliers[row, names.index(name)] = multiplier
                multiplier *= _match_cardinality(schema.field(name))
            self._code_space = max(self._code_space, multiplier)
        self._unconditional = (np.arange(len(self.subsets)) == 0)[:, None]  # the subset that needs no context
        self._subset_index = np.arange(len(self.subsets))[:, None]

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
    def _match_codes(self, history: HistoryBatch, context: Mapping[str, np.ndarray], n_rows: int) -> np.ndarray:
        """One int code per (subset, entry): the subset's context values combined.

        Entries are ``history``'s sessions, then one per row of the
        ``context`` columns; the empty subset codes every entry 0.  One
        field-code row per matched field, then one matrix product applies
        every subset's multipliers.
        """
        n_sessions = history.timestamps.size
        field_codes = np.empty((len(self._match_fields), n_sessions + n_rows), dtype=np.int64)
        for row, (name, numeric) in enumerate(self._match_fields):
            current = context[name]
            if numeric:
                field_codes[row] = _numeric_match_code(np.concatenate([history.context[name], current]))
            else:  # assignment casts like ``astype(np.int64)``: floats truncate
                field_codes[row, :n_sessions] = history.context[name]
                field_codes[row, n_sessions:] = current
        return self._code_multipliers @ field_codes

    # ------------------------------------------------------------------
    def compute_batch(
        self,
        history: HistoryBatch,
        owners: np.ndarray,
        prediction_times: np.ndarray,
        context: Mapping[str, np.ndarray],
        has_context: np.ndarray,
    ) -> np.ndarray:
        """Feature rows over any number of logs, in a fixed number of array calls.

        Row ``i`` is predicted at ``prediction_times[i]`` from the history in
        log ``owners[i]`` of ``history``, in context ``context[name][i]`` of
        each field; a row whose ``has_context[i]`` is false has no current
        session, so its matched subsets report no matching history (its
        context columns should read 0, as
        :func:`~repro.data.schema.context_columns` writes them).  The same
        log may own many rows (training) and the same user may appear as
        several logs (one fetched record per request).

        ``history`` keeps each log's sessions in time order, so one
        ``searchsorted`` over ``log * span + (t - first stamp)`` cuts every
        row's own log: the position of its log's start, of its prediction
        time q, and of each window's first second q - w + 1.  Then the
        sessions — never the rows — are sorted once on the packed key
        ``((subset * (L + 1) + log) * K + match code) * (N + 1) + position``
        (L logs, N sessions, K the largest code space of any subset; every
        key is distinct).  A row's key for a subset plus its cut positions
        finds, in one more ``searchsorted``, where its group starts, where
        its history before q ends and where each window opens; a contextless
        row's matched subsets read log L, which holds no sessions.  One
        gather of the cumulative access column at those positions gives the
        counts, and the time of the last access.  A context value outside
        its field's cardinality widens K to the codes present, so its code
        still meets only its equals, as in the per-subset loop it replaced.

        Refuses ``owners`` that are misaligned or outside ``[0, L)``, and a
        batch whose packed keys would not fit in ``int64``.
        """
        prediction_times = np.asarray(prediction_times, dtype=np.int64).reshape(-1)
        owners = np.asarray(owners, dtype=np.int64)
        has_context = np.asarray(has_context, dtype=bool)
        n_rows, n_logs = prediction_times.size, history.n_logs
        if has_context.shape != (n_rows,) or any(len(values) != n_rows for values in context.values()):
            raise ValueError("contexts must align with prediction_times")
        if owners.shape != (n_rows,):
            raise ValueError("owners must align with prediction_times")
        # One reduce checks both ends: a negative owner reads as at least 2**63.
        if n_rows and owners.view(np.uint64).max() >= n_logs:
            raise ValueError(f"owners out of range [0, {n_logs}): min={owners.min()}, max={owners.max()}")
        n_subsets = len(self.subsets)
        per_subset = self.n_features // n_subsets
        if n_rows == 0 or per_subset == 0:
            return np.zeros((n_rows, self.n_features), dtype=np.float64)

        times, accesses = history.timestamps, history.accesses
        n_sessions = times.size
        first, last = (int(times.min()), int(times.max())) if n_sessions else (0, 0)
        span = last - first + 2  # a relative stamp is at most span - 2; span - 1 is "after them all"
        codes = self._match_codes(history, context, n_rows)
        low, code_space = 0, self._code_space
        if codes.view(np.uint64).max() >= code_space:
            # A context value outside its field's cardinality: widen K to
            # the codes present, so equal codes still meet and no other
            # subset's or log's group is reached.
            low = int(codes.min())
            code_space = int(codes.max()) - low + 1
        if (
            n_logs * span + self._max_window_offset > _INT64_MAX
            or n_subsets * (n_logs + 1) * code_space * (n_sessions + 1) > _INT64_MAX + 1
        ):
            raise ValueError(
                f"history too wide for int64 keys: {n_logs} logs spanning {span - 2} s, "
                f"{n_sessions} sessions, code space {code_space}"
            )
        if low:
            codes -= low

        # Every row's cuts of its own log: [rows, 2 + windows] positions.
        # ``q`` is clamped to the stamps' range widened by the longest window
        # first, so no difference below wraps.  (Method spellings such as
        # ``a.searchsorted`` and ufunc pairs for ``np.clip`` skip a
        # microsecond of dispatch per call at this size.)
        log_of = np.arange(n_logs).repeat(history.lengths)
        clamped = np.minimum(np.maximum(prediction_times, first), min(last + 1 + self._max_window_offset, _INT64_MAX))
        cuts = np.maximum(clamped[:, None] - first - self._query_offsets, 0)
        np.minimum(cuts, span - 1, out=cuts)
        cuts += (owners * span)[:, None]
        cuts = (log_of * span + (times - first)).searchsorted(cuts)

        # Packed keys, per subset: the sessions', then the rows' (log L
        # where a matched subset meets a contextless row).
        logs = np.empty((n_subsets, n_sessions + n_rows), dtype=np.int64)
        logs[:, :n_sessions] = log_of
        logs[:, n_sessions:] = np.where(has_context | self._unconditional, owners, n_logs)
        stride = n_sessions + 1
        keys = ((self._subset_index * (n_logs + 1) + logs) * code_space + codes) * stride
        sorted_keys = (keys[:, :n_sessions] + np.arange(n_sessions)).ravel()
        sorted_keys.sort()
        found = sorted_keys.searchsorted(keys[:, n_sessions:].T[:, :, None] + cuts[:, None, :])
        start, before = found[..., 0], found[..., 1]  # [rows, subsets]

        session = sorted_keys % stride  # sessions in (group, time) order
        flags = accesses[session]
        cum_accesses = np.zeros(session.size + 1, dtype=np.int64)
        np.add.accumulate(flags, dtype=np.int64, out=cum_accesses[1:])
        accessed = cum_accesses[found]
        features = np.empty((n_rows, n_subsets, per_subset), dtype=np.float64)
        if self.config.include_aggregations:
            # Window is (q - w, q): a session exactly w old has aged out.
            n_in_window = (before[..., None] - found[..., 2:]).astype(np.float64)
            n_accessed = (accessed[..., 1:2] - accessed[..., 2:]).astype(np.float64)
            width = 3 * len(self.config.windows)
            features[..., 0:width:3] = n_in_window
            features[..., 1:width:3] = n_accessed
            # An empty window has no accesses either: its rate is 0 / 1 = +0.0.
            np.divide(n_accessed, np.maximum(n_in_window, 1.0), out=features[..., 2:width:3])
        if self.config.include_elapsed:
            session_times = times[session]
            previous = np.concatenate([[0], session_times])[before]
            last_access = np.concatenate([[0], session_times[flags == 1]])[accessed[..., 1]]
            queried = prediction_times[:, None]
            features[..., -2] = np.where(before > start, queried - previous, MISSING_ELAPSED)
            features[..., -1] = np.where(accessed[..., 1] > accessed[..., 0], queried - last_access, MISSING_ELAPSED)
        return features.reshape(n_rows, self.n_features)

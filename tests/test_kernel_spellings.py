"""Every rewritten request-path kernel against its one reference.

The request path was made cheap by *re-spelling* its kernels — whole-array
ufunc chains in place of boolean-mask gathers, one call per micro-batch in
place of one per request, one sort in place of many — with the promise that
no stored state, probability or meter moves by a bit.  Each kernel keeps
exactly one reference here: the simplest spelling that is plainly right,
usually the per-request loop, kept verbatim.  Each test asserts the live
kernel returns the same dtype, shape and bits as its reference (NaNs in the
same places, zeros with the same sign) on shapes from one row to a wave and
on the values where the spellings could part ways: ``±0``, ``±inf``, NaN,
clip and bin edges, subnormals, window edges, tied stamps and gaps either
side of the 30-day cap.

A later re-spelling does not freeze its own parent beside the reference: it
extends the reference's strategies and hand cases until they reach what it
changed.  Where a kernel changes behaviour on purpose, the reference is
edited in place, with a comment naming the change.

The references, by kernel:

* the sigmoids, ``log_bucket``, context encoding and input assembly — the
  masked and block-concatenate spellings of 27c4646;
* the aggregation featurizer — ``ParentAggregator`` / ``ParentFeaturizer``
  (acba69b): one ``transform_user(log, [example])`` per request, one block
  per subset, one ``np.unique`` pass per match code.  It also answers for
  the flat history batch (one ``UserLog`` per fetched record,
  ``as_user_log``, which keeps the refusal messages) and for the one-sort
  aggregations (window edges, tied stamps, stamps far apart, context values
  outside their cardinality);
* GBDT prediction — per-call re-binning and a pending-mask walk of each
  tree (``decision_function_rebinned``); tree growth — the node-list grower
  ``ParentRegressionTree``, whose node lists the walk reads;
* the state arena's int8 encode — ``np.clip`` / ``np.round``.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import replace
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ContextField,
    ContextSchema,
    HistoryBatch,
    MobileTabGenerator,
    MPUGenerator,
    TimeshiftGenerator,
    UserLog,
)
from repro.data.schema import context_columns, day_of_week, hour_of_day
from repro.data.tasks import peak_window_examples, session_examples
from repro.features.aggregations import (
    _NUMERIC_MATCH_BINS,
    DEFAULT_WINDOWS,
    MISSING_ELAPSED,
    AggregationConfig,
    HistoryAggregator,
    _numeric_match_code,
)
from repro.features.bucketing import bucket_scale, log_bucket, one_hot_buckets
from repro.features.encoders import OneHotEncoder, encode_day_of_week, encode_hour_of_day
from repro.features.pipeline import FeatureConfig, TabularFeaturizer
from repro.features.sequence import SequenceBuilder
from repro.ml import GBDTConfig, GradientBoostedTrees, QuantileBinner, RegressionTree, TreeParams, gbdt
from repro.ml.tree import walk_heap_tables
from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork
from repro.nn import inference
from repro.serving.arena import ArenaSpec, StateArena
from task_twins import Example, peak_window_examples_loop, session_examples_loop


def assert_same_bits(actual, expected) -> None:
    """dtype, shape and values equal; NaN where NaN, ``-0.0`` where ``-0.0``."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected, equal_nan=True)
    if actual.dtype.kind == "f":
        numbers = ~np.isnan(expected)  # a NaN's sign bit carries nothing
        assert np.array_equal(np.signbit(actual[numbers]), np.signbit(expected[numbers]))


# ----------------------------------------------------------------------
# The five parent spellings (27c4646), kept verbatim as references.
# ----------------------------------------------------------------------
def stable_sigmoid_masked(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


def sigmoid_triple_clip(x: np.ndarray) -> np.ndarray:
    return np.where(
        x >= 0,
        1.0 / (1.0 + np.exp(-np.clip(x, -500, 500))),
        np.exp(np.clip(x, -500, 500)) / (1.0 + np.exp(np.clip(x, -500, 500))),
    )


def log_bucket_masked(elapsed_seconds, n_buckets: int = 50):
    elapsed = np.asarray(elapsed_seconds, dtype=np.float64)
    scalar = elapsed.ndim == 0
    elapsed = np.atleast_1d(elapsed)
    buckets = np.zeros(elapsed.shape, dtype=np.int64)
    no_event = ~np.isfinite(elapsed)
    positive = (~no_event) & (elapsed >= 1.0)
    with np.errstate(divide="ignore"):
        buckets[positive] = np.floor(bucket_scale(n_buckets) * np.log(elapsed[positive])).astype(np.int64)
    buckets[no_event] = n_buckets - 1
    buckets = np.clip(buckets, 0, n_buckets - 1)
    return int(buckets[0]) if scalar else buckets


def one_hot_blocks(values: np.ndarray, cardinality: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    if values.size and (values.min() < 0 or values.max() >= cardinality):
        raise ValueError(f"values out of range [0, {cardinality})")
    encoded = np.zeros((values.size, cardinality), dtype=np.float64)
    encoded[np.arange(values.size), values] = 1.0
    return encoded


def encode_context_rows_blocks(builder: SequenceBuilder, contexts, timestamps) -> np.ndarray:
    """Per-field ``[n, k]`` blocks joined by one ``concatenate``."""
    blocks: list[np.ndarray] = []
    for field_def in builder.schema:
        encoder = builder._encoders[field_def.name]
        values = np.asarray([c[field_def.name] for c in contexts], dtype=np.float64)
        if encoder is None:
            blocks.append(values.reshape(-1, 1))
            blocks.append(np.log1p(np.maximum(values, 0.0)).reshape(-1, 1))
        elif isinstance(encoder, OneHotEncoder):
            blocks.append(one_hot_blocks(values.astype(np.int64), encoder.cardinality))
        else:
            blocks.append(one_hot_blocks(encoder.bucket(values.astype(np.int64)), encoder.modulo))
    if builder.include_time:
        blocks.append(one_hot_blocks(hour_of_day(np.asarray(timestamps)), 24))
        blocks.append(one_hot_blocks(day_of_week(np.asarray(timestamps)), 7))
    return np.concatenate(blocks, axis=1) if blocks else np.zeros((len(contexts), 0))


def build_update_inputs_concat(config: RNNNetworkConfig, features, accesses, delta_buckets) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    accesses = np.asarray(accesses, dtype=np.float64).reshape(-1, 1)
    encoded = one_hot_blocks(delta_buckets, config.n_delta_buckets)
    return np.concatenate([features, encoded, accesses], axis=1)


def build_predict_inputs_concat(config: RNNNetworkConfig, features, gap_buckets) -> np.ndarray:
    encoded = one_hot_blocks(gap_buckets, config.n_delta_buckets)
    if not config.predict_uses_context:
        return encoded
    return np.concatenate([np.asarray(features, dtype=np.float64), encoded], axis=1)


# ----------------------------------------------------------------------
# Sigmoids
# ----------------------------------------------------------------------
SUBNORMAL = 5e-324
PLANTED = (
    0.0, -0.0, np.inf, -np.inf, np.nan, 500.0, -500.0, np.nextafter(500.0, 501.0), np.nextafter(-500.0, -501.0),
    800.0, -800.0, -745.2, SUBNORMAL, -SUBNORMAL, 2.0e-308, -2.0e-308,
)

activation_inputs = st.tuples(
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=1, max_value=150),
    st.floats(min_value=0.1, max_value=1000.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def _activations(rows: int, cols: int, scale: float, seed: int) -> np.ndarray:
    """Gaussian pre-activations at ``scale`` with the planted values scattered in."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(rows, cols)) * scale
    spots = rng.permutation(z.size)[: len(PLANTED)]
    z.reshape(-1)[spots] = PLANTED[: spots.size]
    return z


class TestSigmoidSpellings:
    """Kills: dropping the ``abs`` in ``stable_sigmoid`` (``exp(800)``
    overflows to ``inf / inf`` = NaN at z = −800), swapping the two branch
    numerators, and dropping the clip in ``sigmoid`` (x = −800 reads
    ``exp(−800)`` where ``Tensor.sigmoid`` reads ``exp(−500)``).  A ``>`` for
    the ``>=`` of the branch test is an equivalent mutant — both branches
    give ½ at ±0 — and is not claimed."""

    @settings(max_examples=60, deadline=None)
    @given(activation_inputs)
    def test_stable_sigmoid_matches_the_masked_spelling(self, drawn):
        z = _activations(*drawn)
        before = z.copy()
        assert_same_bits(inference.stable_sigmoid(z), stable_sigmoid_masked(z))
        assert_same_bits(z, before)  # the in-place temporaries never touch the input

    @settings(max_examples=60, deadline=None)
    @given(activation_inputs)
    def test_head_sigmoid_matches_the_triple_clip_spelling(self, drawn):
        x = _activations(*drawn)
        before = x.copy()
        assert_same_bits(inference.sigmoid(x), sigmoid_triple_clip(x))
        assert_same_bits(x, before)

    def test_strided_views_are_read_not_written(self):
        """The LSTM step hands ``sigmoid`` column slices of its gate matrix."""
        gates = _activations(9, 40, 30.0, seed=3)
        before = gates.copy()
        for view in (gates[:, 10:20], gates[::2], gates.T):
            assert_same_bits(inference.sigmoid(view), sigmoid_triple_clip(view))
            assert_same_bits(inference.stable_sigmoid(view), stable_sigmoid_masked(view))
        assert_same_bits(gates, before)


# ----------------------------------------------------------------------
# log_bucket
# ----------------------------------------------------------------------
THIRTY_DAYS = 30 * 24 * 3600
GAPS = (0, 0.5, 1, 2_591_999.9999, THIRTY_DAYS, 1e30, -3, np.inf, -np.inf, np.nan)


class TestLogBucketSpelling:
    """Kills: dropping the ``minimum(n − 1)`` cap (bucket 230 at 1e30),
    dropping the non-finite patch (NaN and −inf fall to bucket 0 instead of
    the last), a ``> 1`` for the ``≥ 1`` floor (gap 1 is ``ln 1 = 0`` either
    way, but 0.5 must not reach ``log``), and returning a 0-d array for a
    scalar gap."""

    @pytest.mark.parametrize("n_buckets", [50, 4, 1])
    def test_named_gaps_as_an_array(self, n_buckets):
        gaps = np.asarray(GAPS, dtype=np.float64)
        assert_same_bits(log_bucket(gaps, n_buckets=n_buckets), log_bucket_masked(gaps, n_buckets=n_buckets))

    @pytest.mark.parametrize("gap", GAPS)
    def test_named_gaps_as_scalars_return_a_python_int(self, gap):
        bucket = log_bucket(gap)
        assert type(bucket) is int
        assert bucket == log_bucket_masked(gap)
        assert type(log_bucket(np.float64(gap))) is int

    def test_every_integer_gap_up_to_a_day_and_the_cap_edges(self):
        gaps = np.concatenate(
            [np.arange(0, 86_401), np.arange(THIRTY_DAYS - 2_000, THIRTY_DAYS + 2_000)]
        ).astype(np.float64)
        assert_same_bits(log_bucket(gaps), log_bucket_masked(gaps))

    def test_shape_and_dtype_follow_the_input(self):
        for shape in [(0,), (1,), (3, 2)]:
            assert_same_bits(log_bucket(np.full(shape, 77.0)), log_bucket_masked(np.full(shape, 77.0)))
        assert_same_bits(log_bucket([3, 4000]), log_bucket_masked([3, 4000]))

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.one_of(st.sampled_from(GAPS), st.floats(allow_nan=True, allow_infinity=True, width=64)),
            min_size=0,
            max_size=64,
        ),
        st.integers(min_value=1, max_value=80),
    )
    def test_any_float_gaps(self, gaps, n_buckets):
        gaps = np.asarray(gaps, dtype=np.float64)
        assert_same_bits(log_bucket(gaps, n_buckets=n_buckets), log_bucket_masked(gaps, n_buckets=n_buckets))


# ----------------------------------------------------------------------
# Context encoding and input assembly
# ----------------------------------------------------------------------
SCHEMA = ContextSchema(
    fields=(
        ContextField("unread", "numeric"),
        ContextField("tab", "categorical", cardinality=8),
        ContextField("app", "categorical", cardinality=5000),  # hashed: above the one-hot cap
        ContextField("dwell", "numeric"),
        ContextField("surface", "categorical", cardinality=3),
    )
)
BATCH_SIZES = (0, 1, 2, 64)


def _contexts(n: int, seed: int) -> tuple[list[dict], np.ndarray]:
    rng = np.random.default_rng(seed)
    contexts = [
        {
            "unread": [0, -0.0, 3, 17.5, -2.0][int(rng.integers(5))],
            "tab": int(rng.integers(8)),
            "app": int(rng.integers(5000)),
            "dwell": float(rng.exponential(40.0)),
            "surface": np.int64(rng.integers(3)),
        }
        for _ in range(n)
    ]
    timestamps = 1_561_939_200 + rng.integers(0, 30 * 86400, size=n).astype(np.int64)
    return contexts, timestamps


class TestContextEncodingSpelling:
    """Kills: an off-by-one column offset (any field's block shifts into its
    neighbour's), writing hour and day at the same offset, dropping the
    ``log1p`` column, and losing a categorical range check."""

    @pytest.mark.parametrize("include_time", [True, False])
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_offset_writes_match_the_block_concatenate(self, n, include_time):
        builder = SequenceBuilder(SCHEMA, include_time=include_time)
        contexts, timestamps = _contexts(n, seed=n)
        assert_same_bits(
            builder.encode_context_rows(contexts, timestamps),
            encode_context_rows_blocks(builder, contexts, timestamps),
        )

    def test_no_rows_is_the_empty_matrix(self):
        builder = SequenceBuilder(SCHEMA)
        encoded = builder.encode_context_rows([], np.zeros(0, dtype=np.int64))
        assert encoded.shape == (0, builder.feature_dim)
        assert encoded.dtype == np.float64

    def test_a_row_equals_its_slice_of_the_batch(self):
        builder = SequenceBuilder(SCHEMA)
        contexts, timestamps = _contexts(64, seed=5)
        batch = builder.encode_context_rows(contexts, timestamps)
        for row in (0, 17, 63):
            assert_same_bits(builder.encode_context_rows([contexts[row]], timestamps[row : row + 1]), batch[row : row + 1])

    def test_out_of_range_category_still_raises(self):
        builder = SequenceBuilder(SCHEMA)
        contexts, timestamps = _contexts(2, seed=1)
        for bad in (8, -1):
            contexts[1]["tab"] = bad
            with pytest.raises(ValueError, match="out of range"):
                builder.encode_context_rows(contexts, timestamps)


class TestInputAssemblySpelling:
    """Kills: scattering ``T(·)`` at ``bucket`` instead of ``feature_dim +
    bucket``, writing the access flag into the last bucket column, and
    dropping the bucket range check or either alignment check."""

    @staticmethod
    def _network(predict_uses_context: bool = True) -> RNNPrecomputeNetwork:
        config = RNNNetworkConfig(
            feature_dim=7, hidden_size=4, mlp_hidden=4, n_delta_buckets=6, predict_uses_context=predict_uses_context
        )
        return RNNPrecomputeNetwork(config, rng=np.random.default_rng(0)).eval()

    @staticmethod
    def _rows(n: int):
        rng = np.random.default_rng(n)
        features = rng.normal(size=(n, 7))
        features[features > 1.0] = -0.0
        return features, rng.integers(0, 2, size=n).astype(np.float64), rng.integers(0, 6, size=n)

    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_update_inputs_match_the_concatenate(self, n):
        network = self._network()
        features, accesses, buckets = self._rows(n)
        assert_same_bits(
            network.build_update_inputs(features, accesses, buckets),
            build_update_inputs_concat(network.config, features, accesses, buckets),
        )

    @pytest.mark.parametrize("predict_uses_context", [True, False])
    @pytest.mark.parametrize("n", BATCH_SIZES)
    def test_predict_inputs_match_the_concatenate(self, n, predict_uses_context):
        network = self._network(predict_uses_context)
        features, _, buckets = self._rows(n)
        assert_same_bits(
            network.build_predict_inputs(features, buckets),
            build_predict_inputs_concat(network.config, features, buckets),
        )

    def test_every_check_is_kept(self):
        network = self._network()
        features, accesses, buckets = self._rows(3)
        for bad in (6, -1):
            with pytest.raises(ValueError, match="out of range"):
                network.build_update_inputs(features, accesses, [0, bad, 1])
            with pytest.raises(ValueError, match="out of range"):
                network.build_predict_inputs(features, [0, bad, 1])
        with pytest.raises(ValueError, match="misaligned"):
            network.build_update_inputs(features, accesses[:2], buckets)
        with pytest.raises(ValueError, match="misaligned"):
            network.build_update_inputs(features[:2], accesses, buckets)
        with pytest.raises(ValueError, match="misaligned"):
            network.build_predict_inputs(features, buckets[:2])
        with pytest.raises(ValueError, match="feature width"):
            network.build_update_inputs(features[:, :5], accesses, buckets)
        with pytest.raises(ValueError, match="expects context features"):
            network.build_predict_inputs(None, buckets)


# ----------------------------------------------------------------------
# The aggregation featurizer (the incumbent's request path)
# ----------------------------------------------------------------------
class ParentAggregator:
    """``HistoryAggregator``'s feature code at acba69b, verbatim: one log at a
    time, one block per subset, one ``np.unique`` pass per distinct code."""

    def __init__(self, live: HistoryAggregator) -> None:
        self.schema, self.config, self.subsets = live.schema, live.config, live.subsets
        self.n_features = live.n_features

    def _match_codes(self, subset: tuple[str, ...], values: dict[str, np.ndarray], size: int) -> np.ndarray:
        """Combine the subset's context values into a single int code per row."""
        if not subset:
            return np.zeros(size, dtype=np.int64)
        codes = np.zeros(size, dtype=np.int64)
        for name in subset:
            column = np.asarray(values[name])
            field_def = self.schema.field(name)
            if field_def.kind == "numeric":
                column_codes = _numeric_match_code(column)
                cardinality = len(_NUMERIC_MATCH_BINS) + 1
            else:
                column_codes = column.astype(np.int64)
                cardinality = int(field_def.cardinality or (column_codes.max() + 1 if column_codes.size else 1))
            codes = codes * cardinality + column_codes
        return codes

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
        and the matched subsets report "no matching history".
        """
        prediction_times = np.asarray(prediction_times, dtype=np.int64)
        n_examples = prediction_times.size
        features = np.zeros((n_examples, self.n_features), dtype=np.float64)
        if n_examples == 0:
            return features

        session_times = user.timestamps
        accesses = user.accesses.astype(np.int64)

        example_context: dict[str, np.ndarray] = {}
        if contexts is not None:
            if len(contexts) != n_examples:
                raise ValueError("contexts must align with prediction_times")
            for name in self.schema.names():
                example_context[name] = np.asarray([c[name] for c in contexts])

        column = 0
        per_subset = (3 * len(self.config.windows) if self.config.include_aggregations else 0) + (
            2 if self.config.include_elapsed else 0
        )
        for subset in self.subsets:
            block = features[:, column : column + per_subset]
            if subset and contexts is None:
                # No current context: matched subsets have no usable history.
                if self.config.include_elapsed:
                    block[:, -2:] = MISSING_ELAPSED
                column += per_subset
                continue
            session_codes = self._match_codes(subset, user.context, len(user))
            example_codes = self._match_codes(subset, example_context, n_examples) if subset else np.zeros(
                n_examples, dtype=np.int64
            )
            self._fill_subset_block(
                block, session_times, accesses, session_codes, prediction_times, example_codes
            )
            column += per_subset
        return features

    def _fill_subset_block(
        self,
        block: np.ndarray,
        session_times: np.ndarray,
        accesses: np.ndarray,
        session_codes: np.ndarray,
        prediction_times: np.ndarray,
        example_codes: np.ndarray,
    ) -> None:
        """Fill one subset's feature columns for all examples (in place)."""
        n_windows = len(self.config.windows)
        if self.config.include_elapsed:
            block[:, -2:] = MISSING_ELAPSED

        for code in np.unique(example_codes):
            example_mask = example_codes == code
            example_times = prediction_times[example_mask]
            member = session_codes == code
            times_g = session_times[member]
            if times_g.size == 0:
                continue
            accesses_g = accesses[member]
            cum_accesses = np.concatenate([[0], np.cumsum(accesses_g)])
            # Index (within the group) of the most recent access at or before j.
            access_positions = np.where(accesses_g == 1)[0]

            pos = np.searchsorted(times_g, example_times, side="left")
            col = 0
            if self.config.include_aggregations:
                for window in self.config.windows:
                    # Window is (q - w, q): a session exactly w old has aged out.
                    lo = np.searchsorted(times_g, example_times - window, side="right")
                    n_sessions = (pos - lo).astype(np.float64)
                    n_acc = (cum_accesses[pos] - cum_accesses[lo]).astype(np.float64)
                    with np.errstate(invalid="ignore", divide="ignore"):
                        rate = np.where(n_sessions > 0, n_acc / np.maximum(n_sessions, 1.0), 0.0)
                    block[example_mask, col] = n_sessions
                    block[example_mask, col + 1] = n_acc
                    block[example_mask, col + 2] = rate
                    col += 3
            if self.config.include_elapsed:
                since_session = np.full(example_times.shape, MISSING_ELAPSED)
                has_prev = pos > 0
                since_session[has_prev] = example_times[has_prev] - times_g[pos[has_prev] - 1]

                since_access = np.full(example_times.shape, MISSING_ELAPSED)
                if access_positions.size:
                    # For each example, the number of accesses strictly before it.
                    access_count_before = cum_accesses[pos]
                    has_access = access_count_before > 0
                    last_access_index = access_positions[access_count_before[has_access] - 1]
                    since_access[has_access] = example_times[has_access] - times_g[last_access_index]
                block[example_mask, col] = since_session
                block[example_mask, col + 1] = since_access


class ParentFeaturizer:
    """``TabularFeaturizer``'s per-user path at acba69b, verbatim: one
    ``transform_user(user, examples)`` call per user, one column block per
    aggregator column."""

    def __init__(self, live: TabularFeaturizer) -> None:
        self.schema, self.config, self.n_features = live.schema, live.config, live.n_features
        self._context_encoders = live._context_encoders
        self._elapsed_columns = live._elapsed_columns
        self.aggregator = ParentAggregator(live.aggregator)

    def _encode_context(self, examples: list[Example]) -> np.ndarray:
        blocks: list[np.ndarray] = []
        for field_def in self.schema:
            encoder = self._context_encoders[field_def.name]
            values = np.asarray(
                [0.0 if e.context is None else e.context[field_def.name] for e in examples], dtype=np.float64
            )
            if encoder is None:
                blocks.append(values.reshape(-1, 1))
                blocks.append(np.log1p(np.maximum(values, 0.0)).reshape(-1, 1))
            else:
                blocks.append(encoder.encode(values.astype(np.int64)))
        return np.concatenate(blocks, axis=1) if blocks else np.zeros((len(examples), 0))

    def _encode_time(self, prediction_times: np.ndarray) -> np.ndarray:
        hour = encode_hour_of_day(prediction_times, one_hot=self.config.one_hot_time)
        dow = encode_day_of_week(prediction_times, one_hot=self.config.one_hot_time)
        return np.concatenate([hour, dow], axis=1)

    def _encode_history(self, user: UserLog, examples: list[Example]) -> np.ndarray:
        prediction_times = np.asarray([e.prediction_time for e in examples], dtype=np.int64)
        contexts = None
        if all(e.context is not None for e in examples):
            contexts = [e.context for e in examples]
        raw = self.aggregator.compute(user, prediction_times, contexts)
        if not self._elapsed_columns:
            return raw
        blocks: list[np.ndarray] = []
        elapsed_set = set(self._elapsed_columns)
        for column in range(raw.shape[1]):
            values = raw[:, column]
            if column not in elapsed_set:
                blocks.append(values.reshape(-1, 1))
            elif self.config.one_hot_elapsed:
                blocks.append(one_hot_buckets(values, n_buckets=self.config.elapsed_buckets))
            else:
                blocks.append(
                    np.asarray(log_bucket(values, n_buckets=self.config.elapsed_buckets), dtype=np.float64).reshape(-1, 1)
                )
        return np.concatenate(blocks, axis=1)

    def transform_user(self, user: UserLog, examples: list[Example]) -> np.ndarray:
        """Feature matrix for one user's examples."""
        if not examples:
            return np.zeros((0, self.n_features), dtype=np.float64)
        prediction_times = np.asarray([e.prediction_time for e in examples], dtype=np.int64)
        blocks: list[np.ndarray] = []
        if self.config.include_context:
            blocks.append(self._encode_context(examples))
        if self.config.include_time:
            blocks.append(self._encode_time(prediction_times))
        blocks.append(self._encode_history(user, examples))
        matrix = np.concatenate(blocks, axis=1)
        if matrix.shape[1] != self.n_features:
            raise RuntimeError(
                f"feature width mismatch: built {matrix.shape[1]} columns, expected {self.n_features}"
            )
        return matrix


BASE_TIME = 1_561_939_200  # Monday 2019-07-01 00:00 UTC
#: Session offsets that put ties, window edges and 30-day spans within reach.
OFFSET_GRID = (0, 1, 3599, 3600, 3601, 86_399, 86_400, 7 * 86_400, 28 * 86_400, 28 * 86_400 + 1, 30 * 86_400)
#: Prediction time minus an anchor session's time: equal, a window exactly
#: (the session ages out), a second either side, or earlier than the anchor.
QUERY_DELTAS = (0, 1, -1, 3599, 3600, 3601, 86_400, 7 * 86_400, 28 * 86_400, 28 * 86_400 - 1, 28 * 86_400 + 1)
AGG_SCHEMAS = {
    "mobiletab": MobileTabGenerator().schema,
    "mpu": MPUGenerator(n_apps=200).schema,  # app ids above the one-hot cap: hashed encoders
    "timeshift": TimeshiftGenerator().schema,
}
FEATURE_SETS = [
    FeatureConfig(include_aggregations=False, include_elapsed=False),  # C
    FeatureConfig(include_aggregations=False, include_elapsed=True),  # E+C
    FeatureConfig(),  # A+E+C
]


def _field_values(field_def: ContextField):
    if field_def.kind == "numeric":
        # Both sides of each match bin edge (0.5, 3.5, 10.5), ints and floats.
        return st.sampled_from([0, 1, 3, 4, 10, 11, 0.5, 3.5, 10.5, 17.25, 99])
    return st.sampled_from(sorted({0, 1, field_def.cardinality - 1}))


@st.composite
def _user_log(draw, schema: ContextSchema, user_id: int) -> UserLog:
    n = draw(st.integers(min_value=0, max_value=12))
    offsets = draw(st.lists(st.one_of(st.sampled_from(OFFSET_GRID), st.integers(0, 30 * 86_400)), min_size=n, max_size=n))
    return UserLog(
        user_id=user_id,
        timestamps=BASE_TIME + np.asarray(sorted(offsets), dtype=np.int64),
        accesses=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        context={f.name: np.asarray(draw(st.lists(_field_values(f), min_size=n, max_size=n))) for f in schema},
    )


@st.composite
def _batch(draw, schema: ContextSchema):
    """Fetched logs (a user may be fetched twice) plus rows that read them:
    contextless rows mixed in, contexts copied from a session (so matched
    subsets find history) or drawn, prediction times on window edges."""
    logs = [draw(_user_log(schema, user_id)) for user_id in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        logs.append(logs[0].slice(0, len(logs[0])))  # the same user twice in one batch
    owners, times, contexts = [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        owner = draw(st.integers(0, len(logs) - 1))
        log = logs[owner]
        anchor = int(log.timestamps[draw(st.integers(0, len(log) - 1))]) if len(log) else BASE_TIME
        delta = draw(st.one_of(st.sampled_from(QUERY_DELTAS), st.integers(-86_400, 31 * 86_400)))
        kind = draw(st.sampled_from(["none", "session", "drawn"] if len(log) else ["none", "drawn"]))
        if kind == "none":
            context = None
        elif kind == "session":
            context = log.context_row(draw(st.integers(0, len(log) - 1)))
        else:
            context = {f.name: draw(_field_values(f)) for f in schema}
        owners.append(owner)
        times.append(anchor + delta)
        contexts.append(context)
    return logs, np.asarray(owners, dtype=np.int64), np.asarray(times, dtype=np.int64), contexts


def _parent_rows(parent: ParentFeaturizer, logs, owners, times, contexts) -> np.ndarray:
    """The parent's serving path: one ``transform_user(log, [example])`` per row."""
    rows = [
        parent.transform_user(logs[owner], [Example(int(owner), int(time), 0, context, None)])
        for owner, time, context in zip(owners, times, contexts)
    ]
    return np.concatenate(rows, axis=0)


def _served(live, history, owners, times, contexts) -> np.ndarray:
    """The live ``transform_user`` (featurizer) or ``compute_batch``
    (aggregator) fed as the serving door feeds it: the request dicts
    transposed once by ``context_columns``."""
    method = live.transform_user if isinstance(live, TabularFeaturizer) else live.compute_batch
    return method(history, owners, times, *context_columns(contexts, live.schema.names()))


def _parent_compute(aggregator: HistoryAggregator, logs, owners, times, contexts) -> np.ndarray:
    """The parent's aggregations one row at a time: ``compute(log, [t], None | [context])``."""
    parent = ParentAggregator(aggregator)
    rows = [
        parent.compute(logs[owner], [time], None if context is None else [context])
        for owner, time, context in zip(owners, times, contexts)
    ]
    return np.concatenate(rows, axis=0)


class TestAggregationFeaturizerSpelling:
    """The whole-array featurizer against the parent's per-request, per-subset,
    per-code spelling.  Kills: sorting sessions without the segment key (two
    users' histories merge), a ``side="right"`` / ``≤`` slip at either window
    edge (a session exactly ``w`` old, or at the prediction time, counted), a
    contextless row reading its owner's matched history, a global instead of
    per-group "accesses before" (a since_access from another group), and an
    index map that shifts an elapsed column into its neighbour."""

    @pytest.mark.parametrize("max_subset", [0, 1, 2])
    @pytest.mark.parametrize("one_hot_elapsed", [False, True])
    @pytest.mark.parametrize("one_hot_time", [False, True])
    @pytest.mark.parametrize("feature_set", FEATURE_SETS, ids=["C", "E+C", "A+E+C"])
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_a_batch_matches_the_parent_row_by_row(self, feature_set, one_hot_time, one_hot_elapsed, max_subset, data):
        schema = AGG_SCHEMAS[data.draw(st.sampled_from(sorted(AGG_SCHEMAS)))]
        config = replace(
            feature_set, one_hot_time=one_hot_time, one_hot_elapsed=one_hot_elapsed, max_context_subset=max_subset
        )
        featurizer = TabularFeaturizer(schema, config)
        logs, owners, times, contexts = data.draw(_batch(schema))
        assert_same_bits(
            _served(featurizer, HistoryBatch.of_logs(logs), owners, times, contexts),
            _parent_rows(ParentFeaturizer(featurizer), logs, owners, times, contexts),
        )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_every_row_equals_its_own_one_row_call(self, data):
        schema = AGG_SCHEMAS[data.draw(st.sampled_from(sorted(AGG_SCHEMAS)))]
        featurizer = TabularFeaturizer(schema, FeatureConfig(one_hot_elapsed=data.draw(st.booleans())))
        logs, owners, times, contexts = data.draw(_batch(schema))
        batch = _served(featurizer, HistoryBatch.of_logs(logs), owners, times, contexts)
        for row, owner in enumerate(owners):
            alone = _served(featurizer, HistoryBatch.of_logs([logs[owner]]), [0], times[row : row + 1], contexts[row : row + 1])
            assert_same_bits(batch[row : row + 1], alone)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_one_log_compute_matches_the_parent(self, data):
        """One log: many rows, one context rule (all contextless, or none)."""
        schema = AGG_SCHEMAS[data.draw(st.sampled_from(sorted(AGG_SCHEMAS)))]
        aggregator = HistoryAggregator(schema, AggregationConfig(max_subset_size=data.draw(st.integers(0, 2))))
        logs, _, times, contexts = data.draw(_batch(schema))
        if data.draw(st.booleans()):
            contexts = None  # the timeshifted task: no current context at all
        else:
            contexts = [c if c is not None else {f.name: data.draw(_field_values(f)) for f in schema} for c in contexts]
        assert_same_bits(
            _served(aggregator, HistoryBatch.of_logs(logs[:1]), [0] * len(times), times, contexts or [None] * len(times)),
            ParentAggregator(aggregator).compute(logs[0], times, contexts),
        )

    def test_window_edges_and_ties_by_hand(self):
        """A session exactly one window old and one at the prediction time are
        both out; tied sessions count together; no rows is an empty matrix."""
        schema = AGG_SCHEMAS["mobiletab"]
        featurizer = TabularFeaturizer(schema, FeatureConfig())
        t = BASE_TIME + 40 * 86_400
        log = UserLog(
            user_id=3,
            timestamps=[t - 28 * 86_400, t - 3600, t - 3600, t - 3599, t],
            accesses=[1, 0, 1, 0, 1],
            context={"unread_count": np.asarray([0, 4, 4, 11, 0]), "active_tab": np.asarray([0, 1, 1, 1, 0])},
        )
        empty = UserLog(user_id=4, timestamps=[], accesses=[], context={"unread_count": [], "active_tab": []})
        contexts = [log.context_row(1), None, log.context_row(0), log.context_row(1)]
        owners, times = np.asarray([0, 0, 1, 0]), np.asarray([t, t, t, t + 1])
        features = _served(featurizer, HistoryBatch.of_logs([log, empty]), owners, times, contexts)
        assert_same_bits(features, _parent_rows(ParentFeaturizer(featurizer), [log, empty], owners, times, contexts))
        names = featurizer.feature_names()
        assert features[0, names.index("agg[all][3600s].sessions")] == 1  # t - 3600 aged out, t not yet in
        assert features[0, names.index("agg[all][2419200s].sessions")] == 3  # the tie counts twice
        assert features[3, names.index("agg[all][3600s].sessions")] == 1  # t is in, t - 3599 aged out
        assert features[1, names.index("agg[active_tab][3600s].sessions")] == 0  # contextless row
        assert features[1, names.index("elapsed[active_tab].since_session.bucket")] == 49
        assert features[2, names.index("elapsed[all].since_session.bucket")] == 49  # empty history
        assert _served(featurizer, HistoryBatch.of_logs([]), [], [], []).shape == (0, featurizer.n_features)

    @pytest.mark.parametrize("one_hot_elapsed", [False, True])
    @pytest.mark.parametrize("dataset", ["tiny_mobiletab", "tiny_mpu", "tiny_timeshift"])
    def test_training_transform_matches_the_per_user_loop(self, dataset, one_hot_elapsed, request):
        """Training's one call equals the parent's one ``transform_user`` per user."""
        dataset = request.getfixturevalue(dataset)
        featurizer = TabularFeaturizer(dataset.schema, FeatureConfig(one_hot_elapsed=one_hot_elapsed))
        parent = ParentFeaturizer(featurizer)
        by_id = {user.user_id: user for user in dataset.users}
        tasks = [(session_examples(dataset), session_examples_loop(dataset))]
        tasks += [(peak_window_examples(dataset), peak_window_examples_loop(dataset))] if dataset.peak_hours else []
        for table, examples_by_user in tasks:  # the timeshifted task has no contexts
            data = featurizer.transform(dataset, table)
            expected = [parent.transform_user(by_id[uid], examples) for uid, examples in examples_by_user.items()]
            assert_same_bits(data.X, np.concatenate(expected, axis=0))
            assert_same_bits(data.user_ids, table.user_ids)
            assert_same_bits(data.prediction_times, table.prediction_times)


# ----------------------------------------------------------------------
# The flat history batch (the incumbent's fetched records)
# ----------------------------------------------------------------------
def as_user_log(user_id: int, record: dict) -> UserLog:
    """``BatchedAggregationBackend._as_user_log`` at 29fd535, verbatim: one
    ``UserLog`` (and 2 + F arrays) per fetched record."""
    return UserLog(
        user_id=user_id,
        timestamps=np.asarray(record["timestamps"], dtype=np.int64),
        accesses=np.asarray(record["accesses"], dtype=np.int8),
        context={name: np.asarray(values) for name, values in record["context"].items()},
    )


#: A numeric column's values, by record: ints only, floats only, or both —
#: so a batch can hold an int64 record beside a float64 one.
NUMERIC_POOLS = {
    "ints": (0, 1, 3, 4, 10, 11, 99),
    "floats": (0.5, 3.5, 10.5, 17.25, 0.0, 4.0),
    "mixed": (0, 3, 4, 11, 0.5, 10.5, 17.25),
}


@st.composite
def _stored_record(draw, schema: ContextSchema, numbers: str, n: int | None = None) -> dict:
    """An ``agg:`` record as the backend stores it: plain lists, in order."""
    n = draw(st.integers(min_value=0, max_value=12)) if n is None else n
    offsets = sorted(draw(st.lists(st.one_of(st.sampled_from(OFFSET_GRID), st.integers(0, 30 * 86_400)), min_size=n, max_size=n)))
    numpy_scalars = draw(st.booleans())  # a served context row may hold NumPy scalars
    context = {}
    for f in schema:
        values = st.sampled_from(NUMERIC_POOLS[numbers]) if f.kind == "numeric" else _field_values(f)
        drawn = draw(st.lists(values, min_size=n, max_size=n))
        context[f.name] = [np.asarray(v)[()] for v in drawn] if numpy_scalars else drawn
    return {
        "timestamps": [BASE_TIME + offset for offset in offsets],
        "accesses": draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        "context": context,
    }


@st.composite
def _record_batch(draw, schema: ContextSchema, size: int):
    """A micro-batch of fetched records, row i reading record i.  From 7
    rows up it always holds an empty record, a user fetched twice (the same
    record twice) and an int-only numeric column beside a float-only one."""
    records = [draw(_stored_record(schema, draw(st.sampled_from(sorted(NUMERIC_POOLS))))) for _ in range(size)]
    users = list(range(size))
    if size >= 7:
        records[:4] = [
            draw(_stored_record(schema, "ints", n=0)),
            draw(_stored_record(schema, "ints", n=draw(st.integers(1, 12)))),
            draw(_stored_record(schema, "floats", n=draw(st.integers(1, 12)))),
            records[1],
        ]
        users[3] = users[1]
        order = draw(st.permutations(range(size)))
        records, users = [records[i] for i in order], [users[i] for i in order]
    times, contexts = [], []
    for record in records:
        stamps = record["timestamps"]
        anchor = stamps[draw(st.integers(0, len(stamps) - 1))] if stamps else BASE_TIME
        times.append(anchor + draw(st.one_of(st.sampled_from(QUERY_DELTAS), st.integers(-86_400, 31 * 86_400))))
        kind = draw(st.sampled_from(["none", "session", "drawn"] if stamps else ["none", "drawn"]))
        if kind == "none":
            contexts.append(None)
        elif kind == "session":
            row = draw(st.integers(0, len(stamps) - 1))
            contexts.append({name: values[row] for name, values in record["context"].items()})
        else:
            contexts.append({f.name: draw(_field_values(f)) for f in schema})
    return users, records, np.asarray(times, dtype=np.int64), contexts


#: Each tamper edits a copy of one record; "pair" tampers two, in opposite
#: directions, so the batch's column totals still agree.
RECORD_TAMPERS = {
    "regress": lambda records, i, j, name: records[i]["timestamps"].reverse(),
    "flag-2": lambda records, i, j, name: records[i]["accesses"].__setitem__(-1, 2),
    "flag-minus-1": lambda records, i, j, name: records[i]["accesses"].__setitem__(0, -1),
    "short-accesses": lambda records, i, j, name: records[i]["accesses"].pop(),
    "short-context": lambda records, i, j, name: records[i]["context"][name].pop(),
    "context-pair": lambda records, i, j, name: (
        records[i]["context"][name].pop(),
        records[j]["context"][name].append(records[j]["context"][name][-1]),
    ),
    "accesses-pair": lambda records, i, j, name: (
        records[i]["accesses"].pop(),
        records[j]["accesses"].append(0),
    ),
}


class TestHistoryBatchSpelling:
    """The flat history batch against the parent's one ``UserLog`` per
    fetched record (``as_user_log``) and one ``transform_user`` per request.
    Kills: the record boundary mask dropped or moved by one (a stamp that
    falls from one record to the next is refused, or a regression beside a
    boundary is let through), segment lengths or log ids shifted by one
    (rows read the neighbouring record), a context column left out of step
    inside the batch (a short record beside a long one), a flag check that
    lets ``-1`` through, and a dtype fixed per column instead of promoted
    across records."""

    @pytest.mark.parametrize("size", [1, 7, 8])
    @pytest.mark.parametrize("schema_name", sorted(AGG_SCHEMAS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_a_micro_batch_of_records_matches_one_user_log_per_record(self, schema_name, size, data):
        schema = AGG_SCHEMAS[schema_name]
        featurizer = TabularFeaturizer(schema, FeatureConfig(one_hot_elapsed=data.draw(st.booleans())))
        users, records, times, contexts = data.draw(_record_batch(schema, size))
        owners, logs = np.arange(size), [as_user_log(user, record) for user, record in zip(users, records)]
        assert_same_bits(
            _served(featurizer, HistoryBatch.of_records(records, schema.names()), owners, times, contexts),
            _parent_rows(ParentFeaturizer(featurizer), logs, owners, times, contexts),
        )

    @pytest.mark.parametrize("tamper", sorted(RECORD_TAMPERS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_a_tampered_batch_is_refused_with_the_user_logs_message(self, tamper, data):
        schema = AGG_SCHEMAS[data.draw(st.sampled_from(sorted(AGG_SCHEMAS)))]
        size = data.draw(st.sampled_from([7, 8] if tamper.endswith("pair") else [1, 7, 8]))
        records = [data.draw(_stored_record(schema, "mixed", n=data.draw(st.integers(2, 6)))) for _ in range(size)]
        for record in records:  # two distinct stamps, so a reversal regresses
            record["timestamps"][-1] += 1
        i = data.draw(st.integers(0, size - 1))
        j = (i + data.draw(st.integers(1, size - 1))) % size if size > 1 else i
        RECORD_TAMPERS[tamper](records, i, j, data.draw(st.sampled_from(schema.names())))
        with pytest.raises(ValueError) as parent:
            [as_user_log(user, record) for user, record in enumerate(records)]
        with pytest.raises(ValueError, match=f"^{re.escape(str(parent.value))}$"):
            HistoryBatch.of_records(records, schema.names())


# ----------------------------------------------------------------------
# One session sort (the incumbent's aggregations, one matrix)
# ----------------------------------------------------------------------
#: Prediction time minus an anchor session's stamp: on it, a second either
#: side, and each window's w - 1, w and w + 1 (a session exactly w - 1 old
#: is in the window, one exactly w old has aged out).
EDGE_DELTAS = tuple(sorted({-1, 0, 1} | {w + d for w in DEFAULT_WINDOWS for d in (-1, 0, 1)}))
#: Few enough session offsets that stamps tie within a log and across logs,
#: spread wide enough to straddle every window.
TIE_GRID = (0, 1, 3600, 86_400, 7 * 86_400, 28 * 86_400)
#: Match values outside a categorical field's ``[0, cardinality)``.
OUT_OF_RANGE = (-7, -1)


@st.composite
def _tied_log(draw, schema: ContextSchema, user_id: int, values=_field_values) -> UserLog:
    n = draw(st.integers(min_value=0, max_value=10))
    offsets = draw(st.lists(st.one_of(st.sampled_from(TIE_GRID), st.integers(0, 30 * 86_400)), min_size=n, max_size=n))
    return UserLog(
        user_id=user_id,
        timestamps=BASE_TIME + np.asarray(sorted(offsets), dtype=np.int64),
        accesses=draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
        context={f.name: np.asarray(draw(st.lists(values(f), min_size=n, max_size=n))) for f in schema},
    )


@st.composite
def _edge_batch(draw, schema: ContextSchema, values=_field_values):
    """Logs with tied stamps, an empty log and the first log twice (one user
    fetched twice), read by rows on window edges, on a stored stamp, before
    all history or far after it, with and without a context."""
    logs = [draw(_tied_log(schema, user_id, values)) for user_id in range(draw(st.integers(1, 3)))]
    empty = UserLog(user_id=9, timestamps=[], accesses=[], context={f.name: np.zeros(0, np.int64) for f in schema})
    logs.insert(draw(st.integers(0, len(logs))), empty)
    logs.append(logs[0].slice(0, len(logs[0])))
    stamps = np.concatenate([log.timestamps for log in logs])
    owners, times, contexts = [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        owner = draw(st.integers(0, len(logs) - 1))
        log = logs[owner]
        where = draw(st.sampled_from(["edge", "before", "after", "anywhere"] if stamps.size else ["anywhere"]))
        if where == "edge" and len(log):
            time = int(log.timestamps[draw(st.integers(0, len(log) - 1))]) + draw(st.sampled_from(EDGE_DELTAS))
        elif where == "before":
            time = int(stamps.min()) - draw(st.sampled_from([1, 3600, 10**6]))
        elif where == "after":
            time = int(stamps.max()) + draw(st.sampled_from([1, 28 * 86_400, 10**8]))
        else:
            time = BASE_TIME + draw(st.integers(-86_400, 31 * 86_400))
        kind = draw(st.sampled_from(["none", "session", "drawn"] if len(log) else ["none", "drawn"]))
        if kind == "none":
            context = None
        elif kind == "session":
            context = log.context_row(draw(st.integers(0, len(log) - 1)))
        else:
            context = {f.name: draw(values(f)) for f in schema}
        owners.append(owner)
        times.append(time)
        contexts.append(context)
    return logs, np.asarray(owners, dtype=np.int64), np.asarray(times, dtype=np.int64), contexts


def _out_of_range_values(field_def: ContextField):
    if field_def.kind == "numeric":
        return _field_values(field_def)
    cardinality = field_def.cardinality
    return st.sampled_from(sorted({0, cardinality - 1, cardinality, 3 * cardinality, *OUT_OF_RANGE}))


class TestOneSessionSortSpelling:
    """The one-sort ``compute_batch`` and one-matrix ``transform_user``
    against the parent's per-request loop, on window edges, tied stamps,
    stamps far apart and context values outside their cardinality.  Kills:
    the time cut clipped at ``span - 2`` (a row after all history loses the
    sessions on the batch's last stamp), contextless rows keyed to their
    owner's log (they read matched history), the position dropped from the
    packed key (a group's sessions tie, so every cut lands at its end),
    ``q - w`` for ``q - w + 1`` (a session exactly ``w`` old counted), the
    widening skipped (a code outside ``[0, K)`` reads the next log's or
    subset's group) and K taken from the first subset (pinned directly:
    with the widening it is served right, only through the slow path)."""

    @pytest.mark.parametrize("max_subset", [0, 1, 2])
    @pytest.mark.parametrize("feature_set", FEATURE_SETS, ids=["C", "E+C", "A+E+C"])
    @pytest.mark.parametrize("schema_name", sorted(AGG_SCHEMAS))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_an_edge_batch_matches_the_parent_row_by_row(self, schema_name, feature_set, max_subset, data):
        schema = AGG_SCHEMAS[schema_name]
        config = replace(
            feature_set,
            one_hot_time=data.draw(st.booleans()),
            one_hot_elapsed=data.draw(st.booleans()),
            max_context_subset=max_subset,
        )
        featurizer = TabularFeaturizer(schema, config)
        logs, owners, times, contexts = data.draw(_edge_batch(schema))
        assert_same_bits(
            _served(featurizer, HistoryBatch.of_logs(logs), owners, times, contexts),
            _parent_rows(ParentFeaturizer(featurizer), logs, owners, times, contexts),
        )

    @pytest.mark.parametrize("schema_name", sorted(AGG_SCHEMAS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_values_outside_their_cardinality_match_the_parent(self, schema_name, data):
        """Codes from such values collide as the parent's mixed-radix codes
        do, and never reach another log's or subset's sessions."""
        schema = AGG_SCHEMAS[schema_name]
        aggregator = HistoryAggregator(schema, AggregationConfig(max_subset_size=data.draw(st.integers(1, 2))))
        logs, owners, times, contexts = data.draw(_edge_batch(schema, _out_of_range_values))
        assert_same_bits(
            _served(aggregator, HistoryBatch.of_logs(logs), owners, times, contexts),
            _parent_compute(aggregator, logs, owners, times, contexts),
        )

    def test_the_code_space_is_the_largest_subsets(self):
        """K is the product of the match cardinalities of the widest subset
        (numeric fields match on four bins), not the first subset's."""
        expected = {"mobiletab": 4 * 8, "mpu": 200 * 200, "timeshift": 2}
        for name, schema in AGG_SCHEMAS.items():
            assert HistoryAggregator(schema)._code_space == expected[name]
            assert HistoryAggregator(schema, AggregationConfig(max_subset_size=0))._code_space == 1

    @pytest.mark.parametrize("span", [10**12, 2**61])
    def test_a_wide_history_inside_the_key_bound_matches_the_parent(self, span):
        schema = AGG_SCHEMAS["mobiletab"]
        featurizer = TabularFeaturizer(schema, FeatureConfig())
        t = BASE_TIME + span
        log = UserLog(
            user_id=1,
            timestamps=[BASE_TIME, BASE_TIME, t - 86_400, t - 1],
            accesses=[1, 0, 1, 0],
            context={"unread_count": np.asarray([0, 4, 4, 11]), "active_tab": np.asarray([0, 1, 1, 7])},
        )
        logs = [log, log.slice(1, 3)]
        owners, times = np.asarray([0, 1, 0, 0]), np.asarray([t, t, BASE_TIME, t + span])
        contexts = [log.context_row(2), log.context_row(0), None, log.context_row(3)]
        assert_same_bits(
            _served(featurizer, HistoryBatch.of_logs(logs), owners, times, contexts),
            _parent_rows(ParentFeaturizer(featurizer), logs, owners, times, contexts),
        )

    def test_a_prediction_time_far_past_the_stamps_does_not_wrap(self):
        """``q - first stamp`` would pass 2**63 here although the stamps fit
        the key bound: q is clamped to the stamps' range before any cut."""
        featurizer = TabularFeaturizer(AGG_SCHEMAS["timeshift"], FeatureConfig(max_context_subset=1))
        log = UserLog(user_id=1, timestamps=[-(2**62) - 10, 0], accesses=[0, 1], context={"is_peak": [1, 0]})
        owners, times, contexts = [0, 0, 0], [2**62, 2**62, -(2**62)], [None, {"is_peak": 1}, {"is_peak": 1}]
        history = HistoryBatch.of_logs([log])
        assert_same_bits(
            _served(featurizer, history, owners, times, contexts),
            _parent_rows(ParentFeaturizer(featurizer), [log], owners, times, contexts),
        )
        aggregator = featurizer.aggregator
        features = _served(aggregator, history, owners, times, contexts)
        assert_same_bits(features, _parent_compute(aggregator, [log], owners, times, contexts))
        assert features[0, aggregator.feature_names().index("elapsed[all].since_access")] == 2**62

    def test_keys_that_would_wrap_are_refused(self):
        """Stamps or a code space too wide for ``int64`` keys raise, and are
        never served wrapped."""
        schema = AGG_SCHEMAS["mobiletab"]
        aggregator = HistoryAggregator(schema)
        log = UserLog(
            user_id=1, timestamps=[0, 2**62], accesses=[1, 0], context={"unread_count": [0, 1], "active_tab": [0, 1]}
        )
        with pytest.raises(ValueError, match="too wide for int64 keys"):
            _served(aggregator, HistoryBatch.of_logs([log, log]), [0, 1], [2**62, 2**62], [None, None])
        wide = ContextSchema(fields=tuple(ContextField(name, "categorical", cardinality=2**31) for name in "ab"))
        log = UserLog(user_id=1, timestamps=[5], accesses=[1], context={"a": [0], "b": [1]})
        with pytest.raises(ValueError, match="too wide for int64 keys"):
            _served(HistoryAggregator(wide), HistoryBatch.of_logs([log]), [0], [6], [{"a": 0, "b": 1}])

    @pytest.mark.parametrize("feature_set", FEATURE_SETS, ids=["C", "E+C", "A+E+C"])
    def test_bad_owners_are_refused(self, feature_set):
        """An owner outside ``[0, n_logs)`` would read another subset's log
        under packed keys; misaligned owners would broadcast."""
        schema = AGG_SCHEMAS["mobiletab"]
        featurizer = TabularFeaturizer(schema, feature_set)
        log = UserLog(user_id=1, timestamps=[BASE_TIME], accesses=[1], context={"unread_count": [0], "active_tab": [0]})
        history = HistoryBatch.of_logs([log, log])
        times, contexts = [BASE_TIME + 1, BASE_TIME + 2], [None, log.context_row(0)]
        for owners in ([0, 2], [-1, 0], [0, 2**40]):
            with pytest.raises(ValueError, match=r"^owners out of range \[0, 2\)"):
                _served(featurizer, history, owners, times, contexts)
        for owners in ([0], [0, 1, 1], [[0, 1]]):
            with pytest.raises(ValueError, match="^owners must align with prediction_times$"):
                _served(featurizer.aggregator, history, owners, times, contexts)
        with pytest.raises(ValueError, match=r"^owners out of range \[0, 0\)"):
            _served(featurizer, HistoryBatch.of_logs([]), [0], [BASE_TIME], [None])

    @pytest.mark.parametrize("n_contexts", [1, 3])
    def test_misaligned_contexts_keep_their_message(self, n_contexts):
        schema = AGG_SCHEMAS["mobiletab"]
        featurizer = TabularFeaturizer(schema, FeatureConfig())
        log = UserLog(user_id=1, timestamps=[BASE_TIME], accesses=[1], context={"unread_count": [0], "active_tab": [0]})
        contexts = [log.context_row(0)] * n_contexts
        with pytest.raises(ValueError, match="^contexts must align with prediction_times$"):
            _served(featurizer, HistoryBatch.of_logs([log]), [0, 0], [BASE_TIME + 1, BASE_TIME + 2], contexts)


# ----------------------------------------------------------------------
# GBDT prediction (the incumbent's model call)
# ----------------------------------------------------------------------
def transform_per_column(binner: QuantileBinner, X: np.ndarray) -> np.ndarray:
    """The parent's ``QuantileBinner.transform``, which scoring called every time."""
    if binner.bin_edges_ is None:
        raise RuntimeError("binner is not fitted")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(binner.bin_edges_):
        raise ValueError("X has the wrong shape for this binner")
    binned = np.zeros(X.shape, dtype=np.uint16)
    for column, edges in enumerate(binner.bin_edges_):
        if edges.size == 0:
            continue
        values = X[:, column]
        # Non-finite values (e.g. "no previous access") sort above every
        # edge, landing them in the top bin — a consistent, learnable slot.
        values = np.where(np.isfinite(values), values, np.inf)
        binned[:, column] = np.searchsorted(edges, values, side="left")
    return binned


class ParentRegressionTree:
    """``RegressionTree`` at 7c98075, verbatim: grown as six parallel node
    lists, then walked in Python to build the heap tables it is scored from."""

    def __init__(self, params: TreeParams) -> None:
        self.params = params
        # Flat node arrays; children of node i are stored by index.
        self.feature: list[int] = []
        self.threshold_bin: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.is_leaf: list[bool] = []

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(sum(self.is_leaf))

    def _new_node(self, value: float) -> int:
        self.feature.append(-1)
        self.threshold_bin.append(-1)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(value)
        self.is_leaf.append(True)
        return len(self.feature) - 1

    # ------------------------------------------------------------------
    def fit(self, binned: np.ndarray, gradients: np.ndarray, hessians: np.ndarray, n_bins: int) -> "ParentRegressionTree":
        """Grow the tree on pre-binned features and per-example grad/hess."""
        binned = np.asarray(binned)
        gradients = np.asarray(gradients, dtype=np.float64)
        hessians = np.asarray(hessians, dtype=np.float64)
        n_samples, n_features = binned.shape
        if gradients.shape[0] != n_samples or hessians.shape[0] != n_samples:
            raise ValueError("gradients/hessians must align with the binned matrix")
        params = self.params
        lam = params.reg_lambda

        total_g = gradients.sum()
        total_h = hessians.sum()
        root = self._new_node(-total_g / (total_h + lam))

        # node assignment of every sample; -1 marks samples in finalized leaves.
        node_of_sample = np.zeros(n_samples, dtype=np.int64)
        active_nodes = [root]
        node_stats = {root: (total_g, total_h)}

        for depth in range(params.max_depth):
            if not active_nodes:
                break
            active_index = {node: i for i, node in enumerate(active_nodes)}
            active_mask = np.isin(node_of_sample, active_nodes)
            if not active_mask.any():
                break
            sample_index = np.nonzero(active_mask)[0]
            local_node = np.vectorize(active_index.get, otypes=[np.int64])(node_of_sample[sample_index])
            sub_binned = binned[sample_index]

            n_active = len(active_nodes)
            # Flattened (node, feature, bin) histogram indices.
            flat = (
                (local_node[:, None] * n_features + np.arange(n_features)[None, :]) * n_bins
                + sub_binned.astype(np.int64)
            ).ravel()
            weights_g = np.repeat(gradients[sample_index], n_features)
            weights_h = np.repeat(hessians[sample_index], n_features)
            size = n_active * n_features * n_bins
            hist_g = np.bincount(flat, weights=weights_g, minlength=size).reshape(n_active, n_features, n_bins)
            hist_h = np.bincount(flat, weights=weights_h, minlength=size).reshape(n_active, n_features, n_bins)

            # Cumulative (left-side) statistics over bins for every candidate split.
            left_g = np.cumsum(hist_g, axis=2)
            left_h = np.cumsum(hist_h, axis=2)
            node_g = np.array([node_stats[n][0] for n in active_nodes])[:, None, None]
            node_h = np.array([node_stats[n][1] for n in active_nodes])[:, None, None]
            right_g = node_g - left_g
            right_h = node_h - left_h

            valid = (left_h >= params.min_child_weight) & (right_h >= params.min_child_weight)
            # Exclude the last bin: splitting there puts everything left.
            valid[:, :, -1] = False
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = 0.5 * (
                    left_g**2 / (left_h + lam)
                    + right_g**2 / (right_h + lam)
                    - node_g**2 / (node_h + lam)
                ) - params.gamma
            gain = np.where(valid, gain, -np.inf)

            flat_gain = gain.reshape(n_active, -1)
            best_flat = np.argmax(flat_gain, axis=1)
            best_gain = flat_gain[np.arange(n_active), best_flat]
            best_feature = best_flat // n_bins
            best_bin = best_flat % n_bins

            next_active: list[int] = []
            split_spec: dict[int, tuple[int, int, int, int]] = {}
            for i, node in enumerate(active_nodes):
                if depth == params.max_depth - 1 or best_gain[i] <= params.min_split_gain or not np.isfinite(best_gain[i]):
                    continue
                f, b = int(best_feature[i]), int(best_bin[i])
                gl, hl = float(left_g[i, f, b]), float(left_h[i, f, b])
                gr, hr = float(right_g[i, f, b]), float(right_h[i, f, b])
                left_child = self._new_node(-gl / (hl + lam))
                right_child = self._new_node(-gr / (hr + lam))
                self.feature[node] = f
                self.threshold_bin[node] = b
                self.left[node] = left_child
                self.right[node] = right_child
                self.is_leaf[node] = False
                node_stats[left_child] = (gl, hl)
                node_stats[right_child] = (gr, hr)
                split_spec[node] = (f, b, left_child, right_child)
                next_active.extend([left_child, right_child])

            if not split_spec:
                break
            # Route samples of split nodes to their children.
            for node, (f, b, left_child, right_child) in split_spec.items():
                members = sample_index[node_of_sample[sample_index] == node]
                goes_left = binned[members, f] <= b
                node_of_sample[members] = np.where(goes_left, left_child, right_child)
            active_nodes = next_active

        return self

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Split levels on the longest root-to-leaf path (0 for a single leaf)."""
        deepest = 0
        stack = [(0, 0)]
        while stack:
            node, level = stack.pop()
            if self.is_leaf[node]:
                deepest = max(deepest, level)
            else:
                stack.extend([(self.left[node], level + 1), (self.right[node], level + 1)])
        return deepest

    def heap_tables(
        self, depth: int, split_value: Callable[[int, int], float]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tree as complete heap tables ``(feature, threshold, leaf)`` of ``depth >= self.depth`` levels.

        Inner slot ``i`` has children ``2i + 1`` (``x <= threshold``) and
        ``2i + 2``; ``leaf`` holds the ``2**depth`` slots below the last
        level.  A split on bin ``b`` of feature ``f`` gets threshold
        ``split_value(f, b)``.  A leaf above ``depth`` passes through: every
        inner slot below it keeps threshold ``+inf`` (so rows go left) and
        all leaf slots it covers hold its value.
        """
        n_leaves = 1 << depth
        feature = np.zeros(n_leaves - 1, dtype=np.intp)
        threshold = np.full(n_leaves - 1, np.inf)
        leaf = np.zeros(n_leaves, dtype=np.float64)
        stack = [(0, 0, 0)]  # (node, heap slot, level)
        while stack:
            node, slot, level = stack.pop()
            if self.is_leaf[node]:
                width = 1 << (depth - level)
                first = (slot + 1) * width - n_leaves
                leaf[first : first + width] = self.value[node]
                continue
            feature[slot] = self.feature[node]
            threshold[slot] = split_value(self.feature[node], self.threshold_bin[node])
            stack.append((self.left[node], 2 * slot + 1, level + 1))
            stack.append((self.right[node], 2 * slot + 2, level + 1))
        return feature, threshold, leaf

    def predict(self, binned: np.ndarray) -> np.ndarray:
        """Leaf values for each row of a binned feature matrix."""
        feature, threshold, leaf = self.heap_tables(self.depth, lambda f, b: b)
        return walk_heap_tables(feature[None], threshold[None], leaf[None], np.asarray(binned))[:, 0]

    # ------------------------------------------------------------------
    def feature_importance(self, n_features: int) -> np.ndarray:
        """Split counts per feature (a simple importance measure)."""
        importance = np.zeros(n_features, dtype=np.float64)
        for node in range(self.n_nodes):
            if not self.is_leaf[node]:
                importance[self.feature[node]] += 1.0
        return importance


def tree_predict_pending(tree: ParentRegressionTree, binned: np.ndarray) -> np.ndarray:
    """``RegressionTree.predict`` before the heap-table walk: a pending-mask walk of the node lists."""
    binned = np.asarray(binned)
    n_samples = binned.shape[0]
    output = np.empty(n_samples, dtype=np.float64)
    feature = np.asarray(tree.feature)
    threshold = np.asarray(tree.threshold_bin)
    left = np.asarray(tree.left)
    right = np.asarray(tree.right)
    value = np.asarray(tree.value)
    is_leaf = np.asarray(tree.is_leaf)

    node = np.zeros(n_samples, dtype=np.int64)
    pending = np.arange(n_samples)
    while pending.size:
        current = node[pending]
        leaf_mask = is_leaf[current]
        done = pending[leaf_mask]
        output[done] = value[current[leaf_mask]]
        pending = pending[~leaf_mask]
        if pending.size == 0:
            break
        current = node[pending]
        split_feature = feature[current]
        goes_left = binned[pending, split_feature] <= threshold[current]
        node[pending] = np.where(goes_left, left[current], right[current])
    return output


def decision_function_rebinned(model: GradientBoostedTrees, X) -> np.ndarray:
    """The parent's ``GradientBoostedTrees.decision_function``: re-bin, then add tree by tree."""
    if model.binner is None:
        raise RuntimeError("model is not fitted")
    binned = transform_per_column(model.binner, np.asarray(X, dtype=np.float64))
    raw = np.full(binned.shape[0], model.base_score_)
    for tree in model.trees:
        raw += model.config.learning_rate * tree_predict_pending(tree, binned)
    return raw


def _gbdt_problem(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns: continuous, tied integers, a constant, all-NaN (no edges),
    continuous with NaN/±inf holes, uniform."""
    rng = np.random.default_rng(seed)
    holes = rng.choice([np.nan, np.inf, -np.inf], n)
    X = np.column_stack(
        [
            rng.normal(size=n),
            rng.integers(0, 5, n).astype(np.float64),
            np.full(n, 3.0),
            np.full(n, np.nan),
            np.where(rng.random(n) < 0.2, holes, rng.normal(size=n)),
            rng.random(n),
        ]
    )
    signal = np.where(np.isfinite(X[:, 4]), X[:, 4], np.where(holes == -np.inf, -2.0, 1.5))
    logit = 1.5 * (X[:, 0] > 0.3) - 0.4 * X[:, 1] + signal + 2.0 * X[:, 5] - 1.0
    return X, (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)


@cache
def _gbdt_suite(grower: type = RegressionTree) -> tuple[GradientBoostedTrees, ...]:
    """The depth search's candidates (depths 1-10, early-stopped on a
    validation split), plus subsampled and ``min_child_weight=0`` variants:
    ensembles from single-leaf trees (``D = 0``) to mixed depths up to 9,
    each tree grown by ``grower``."""
    X, y = _gbdt_problem(400, seed=0)
    X_valid, y_valid = _gbdt_problem(150, seed=1)
    base = GBDTConfig(n_rounds=15)
    configs = [replace(base, max_depth=depth) for depth in range(1, 11)]
    configs += [
        replace(base, max_depth=7, subsample=0.6, min_child_weight=3.0, seed=3),
        replace(base, max_depth=4, min_child_weight=0.0),
    ]
    with mock.patch.object(gbdt, "RegressionTree", grower):
        return tuple(GradientBoostedTrees(config).fit(X, y, eval_set=(X_valid, y_valid)) for config in configs)


def _suite_pair(data) -> tuple[GradientBoostedTrees, GradientBoostedTrees]:
    """One drawn suite member, and its twin grown by the parent's grower."""
    index = data.draw(st.integers(0, len(_gbdt_suite()) - 1))
    return _gbdt_suite()[index], _gbdt_suite(ParentRegressionTree)[index]


def _probe_rows(binner: QuantileBinner, rows: int, seed: int) -> np.ndarray:
    """Rows whose every value sits on a bin edge, one ulp either side of one,
    at ±0, ±inf, NaN, ±1e300 or somewhere normal."""
    rng = np.random.default_rng(seed)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300])
    columns = []
    for edges in binner.bin_edges_:
        pool = np.concatenate(
            [edges, np.nextafter(edges, np.inf), np.nextafter(edges, -np.inf), special, rng.normal(size=4) * 3.0]
        )
        columns.append(rng.choice(pool, rows))
    return np.column_stack(columns) if rows else np.zeros((0, binner.n_features))


class TestGBDTPredictSpelling:
    """The packed raw-threshold walk over the whole ensemble against the
    parent's per-call re-binning and per-tree pending-mask walk, on twin
    ensembles whose trees the node-list grower grew.  Kills:
    ``>=`` for the walk's ``>`` (a value exactly on an edge goes right where
    its bin code went left), dropping the non-finite → ``+inf`` map in
    ``decision_function`` (NaN and ``-inf`` compare false and go left, where
    their top-bin code went right), and padding a shallow leaf with 0 in
    ``heap_tables`` (a row ending at a leaf above the deepest tree's depth
    scores 0 for that tree).  Filling only the leftmost leaf slot a shallow
    leaf covers is an equivalent mutant — no row passes an ``+inf``
    threshold to the right — and is not claimed."""

    @pytest.mark.parametrize("rows", [0, 1, 7, 8, 64])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_a_batch_matches_the_rebinned_tree_by_tree_sum(self, rows, data):
        model, parent = _suite_pair(data)
        X = _probe_rows(model.binner, rows, data.draw(st.integers(0, 2**32 - 1)))
        before = X.copy()
        expected = decision_function_rebinned(parent, X)
        assert_same_bits(model.decision_function(X), expected)
        assert_same_bits(model.predict_proba(X), stable_sigmoid_masked(expected))
        assert_same_bits(X, before)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_row_equals_its_own_one_row_call(self, data):
        suite = _gbdt_suite()
        model = suite[data.draw(st.integers(0, len(suite) - 1))]
        X = _probe_rows(model.binner, 8, data.draw(st.integers(0, 2**32 - 1)))
        batch = model.decision_function(X)
        for row in range(X.shape[0]):
            assert_same_bits(batch[row : row + 1], model.decision_function(X[row : row + 1]))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_tree_predict_on_bin_codes_matches_the_pending_walk(self, data):
        """``fit``'s per-round update walks one tree on bin codes."""
        model, parent = _suite_pair(data)
        X = _probe_rows(model.binner, 64, data.draw(st.integers(0, 2**32 - 1)))
        binned = transform_per_column(model.binner, X)
        assert_same_bits(model.binner.transform(X), binned)  # training still bins
        assert len(model.trees) == len(parent.trees)
        for tree, parent_tree in zip(model.trees, parent.trees):
            assert_same_bits(tree.predict(binned), tree_predict_pending(parent_tree, binned))

    def test_a_split_past_the_last_edge_sends_every_row_left(self):
        """A split on a bin ``b >= len(edges)`` has an empty right side, so
        the boosting gain never picks it; a tree grown on constant gradients
        with a negative ``min_split_gain`` does (every real split loses, an
        empty side loses nothing).  Column 0 is 90 % zeros: one edge at 0,
        the ones in bin 1 < ``max_bins - 1``; column 1 has no edges."""
        rng = np.random.default_rng(2)
        X = np.column_stack([(rng.random(200) < 0.1).astype(np.float64), np.full(200, np.nan), rng.normal(size=200)])
        binner = QuantileBinner(max_bins=4).fit(X)
        binned = binner.transform(X)
        params = TreeParams(max_depth=4, min_child_weight=0.0, min_split_gain=-1.0)
        tree = RegressionTree(params).fit(binned, np.full(200, 0.5), np.ones(200), 4)
        parent = ParentRegressionTree(params).fit(binned, np.full(200, 0.5), np.ones(200), 4)
        past = [
            node
            for node in range(parent.n_nodes)
            if not parent.is_leaf[node] and parent.threshold_bin[node] >= binner.bin_edges_[parent.feature[node]].size
        ]
        assert past
        feature, threshold, leaf = tree.heap_tables(tree.depth, binner.split_threshold)
        probe = _probe_rows(binner, 64, seed=5)
        walked = walk_heap_tables(feature[None], threshold[None], leaf[None], np.where(np.isfinite(probe), probe, np.inf))
        assert_same_bits(walked[:, 0], tree_predict_pending(parent, transform_per_column(binner, probe)))

    def test_the_suite_reaches_every_case_it_claims(self):
        suite = _gbdt_suite()
        depths = [sorted({tree.depth for tree in model.trees}) for model in suite]
        assert depths[0] == [0]  # max_depth=1: single-leaf trees, a walk of no steps
        assert any(len(d) > 1 for d in depths)  # shallow leaves padded to a deeper tree's depth
        assert max(max(d) for d in depths) >= 8
        assert any(edges.size == 0 for edges in suite[0].binner.bin_edges_)
        assert all(model.leaf_value_.shape[1] == 2 ** max(d) for model, d in zip(suite, depths))

    def test_the_suite_packs_the_tables_the_parent_grower_packs(self):
        for model, parent in zip(_gbdt_suite(), _gbdt_suite(ParentRegressionTree)):
            for name in ("node_feature_", "node_threshold_", "leaf_value_"):
                assert_same_bits(getattr(model, name), getattr(parent, name))
            assert model.n_nodes == parent.n_nodes
            assert_same_bits(model.feature_importance(), parent.feature_importance())
            assert_same_bits(np.array(model.train_loss_history_), np.array(parent.train_loss_history_))
            assert_same_bits(np.array(model.valid_loss_history_), np.array(parent.valid_loss_history_))


@st.composite
def tree_problems(draw) -> tuple[QuantileBinner, np.ndarray, np.ndarray, np.ndarray, TreeParams]:
    """Binned rows (tied values, NaN and ``+inf`` holes, a column with no
    edges, up to 8 bins), gradients (constant, or following column 1 with
    noise) even where column 1 is not drawn, hessians (some near zero) and growth parameters from single
    leaves to ten node levels, with ``min_child_weight=0`` and a negative
    ``min_split_gain`` among them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 200))
    pool = np.array([-1.0, 0.0, 0.5, 1.0, 2.0, np.nan, np.inf])
    normal = rng.normal(size=rows)
    X = np.column_stack(
        [
            rng.choice(pool, rows),
            normal,
            rng.integers(0, 3, rows).astype(np.float64),
            np.full(rows, np.nan),
        ]
    )[:, : draw(st.integers(1, 4))]
    binner = QuantileBinner(max_bins=draw(st.integers(2, 8))).fit(X)
    if draw(st.integers(0, 3)) == 0:
        gradients = np.full(rows, draw(st.sampled_from([-0.5, 0.0, 0.25, 1.0])))
    else:
        gradients = np.sign(normal) + rng.normal(size=rows)
    hessians = rng.random(rows) + draw(st.sampled_from([0.0, 0.5]))
    params = TreeParams(
        max_depth=draw(st.integers(1, 10)),
        min_child_weight=draw(st.sampled_from([0.0, 0.1, 1.0, 3.0])),
        reg_lambda=draw(st.sampled_from([0.1, 1.0, 2.5])),
        gamma=draw(st.sampled_from([0.0, 0.05])),
        min_split_gain=draw(st.sampled_from([-1.0, 0.0, 1e-6])),
    )
    return binner, binner.transform(X), gradients, hessians, params


class TestTreeGrowerSpelling:
    """The heap-layout grower against the parent's node-list grower
    (``ParentRegressionTree``) on drawn rows and parameters.  Kills: ``>=``
    for the routing step's ``>`` (a code equal to the split bin goes right
    and the next level's histograms move), a non-splitting slot that does
    not pass its value down (a leaf above the last level reads 0 in the
    padded leaf table), and growing ``max_depth`` split levels instead of
    ``max_depth - 1`` (trees one level too deep)."""

    @settings(max_examples=200, deadline=None)
    @given(problem=tree_problems())
    def test_the_heap_grower_grows_the_parents_tree(self, problem):
        binner, binned, gradients, hessians, params = problem
        tree = RegressionTree(params).fit(binned, gradients, hessians, binner.max_bins)
        parent = ParentRegressionTree(params).fit(binned, gradients, hessians, binner.max_bins)
        assert (tree.depth, tree.n_nodes, tree.n_leaves) == (parent.depth, parent.n_nodes, parent.n_leaves)
        assert_same_bits(tree.feature_importance(4), parent.feature_importance(4))
        for depth in range(parent.depth, parent.depth + 3):
            for split_value in (lambda f, b: b, binner.split_threshold):
                for table, parent_table in zip(tree.heap_tables(depth, split_value), parent.heap_tables(depth, split_value)):
                    assert_same_bits(table, parent_table)
        assert_same_bits(tree.predict(binned), tree_predict_pending(parent, binned))


# ----------------------------------------------------------------------
# The state arena's batch int8 encode
# ----------------------------------------------------------------------
def arena_encode_clip(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    peaks = np.max(np.abs(states), axis=1)
    scales = peaks / 127.0
    safe = np.where(peaks == 0.0, 1.0, scales)
    encoded = np.clip(np.round(states / safe[:, None]), -127, 127).astype(np.int8)
    scales = np.where(peaks == 0.0, 0.0, scales)
    return encoded, scales


class TestArenaEncodeSpelling:
    """Kills: ``floor(x + 0.5)`` or half-away rounding for ``rint`` (126.5
    reads 127), dropping the zero-row guard (0/0 is an invalid operation on
    an all-zero row, raised for finite input, though x86 casts its NaN to
    the same 0), and a clip bound of ±128 (the subnormal row's x/0 = inf
    casts to −128)."""

    ENCODE = staticmethod(StateArena(ArenaSpec(prefix="hidden:", state_size=6, quantized=True)).encode)
    NAMED = np.array(
        [
            [254.0, 253.0, 251.0, -253.0, 1.0, 3.0],  # scale 2: ±126.5, 125.5, 0.5, 1.5
            [-254.0, -1.0, -3.0, 5.0, 0.0, -0.0],
            [0.0, -0.0, 0.0, 0.0, -0.0, 0.0],  # all zero: scale 0, every entry 0
            [5e-324, -5e-324, 0.0, 0.0, 0.0, 0.0],  # subnormal peak: its scale underflows to 0
            [1e308, -1e308, 3e307, 0.0, 1.0, -1.0],
            [np.inf, 1.0, -1.0, 0.0, 2.0, 3.0],
            [np.nan, 1.0, -1.0, 0.0, 2.0, 3.0],
        ]
    )

    def assert_same_encoding(self, states, invalid="raise"):
        with np.errstate(divide="ignore", invalid=invalid):
            encoded, scales = self.ENCODE(states)
            expected_encoded, expected_scales = arena_encode_clip(states)
        assert_same_bits(encoded, expected_encoded)
        assert_same_bits(scales, expected_scales)

    def test_named_rows(self):
        self.assert_same_encoding(self.NAMED, invalid="ignore")
        for index, row in enumerate(self.NAMED):
            # From the subnormal row on, both spellings divide 0 by 0 or inf by inf.
            self.assert_same_encoding(row[None, :], invalid="raise" if index < 3 else "ignore")

    @pytest.mark.parametrize("rows", [0, 1, 64])
    def test_drawn_waves(self, rows):
        rng = np.random.default_rng(rows)
        states = rng.normal(scale=3.0, size=(rows, 6))
        states[::5] = np.round(states[::5] * 2) / 2
        states[::5, 0] = 127.0  # scale 1: the half-integers are rounding ties
        self.assert_same_encoding(states)

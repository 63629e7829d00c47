"""Every rewritten request-path kernel against its frozen old spelling.

The batch-1 request path was made cheap by *re-spelling* five functions —
whole-array ufunc chains in place of boolean-mask gathers, ``errstate``
contexts, per-field blocks and ``concatenate`` — with the promise that no
stored state, probability or meter moves by a bit.  The old spellings live
on here, verbatim, as the references; each test asserts the new function
returns the same dtype, shape and bits (NaNs in the same places, zeros with
the same sign) on shapes from one row to a wave and on the values where
the spellings could part ways: ``±0``, ``±inf``, NaN, the clip edge
``±500``, subnormals, and gaps either side of the 30-day cap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import ContextField, ContextSchema
from repro.data.schema import day_of_week, hour_of_day
from repro.features.bucketing import bucket_scale, log_bucket
from repro.features.encoders import OneHotEncoder
from repro.features.sequence import SequenceBuilder
from repro.models.rnn import RNNNetworkConfig, RNNPrecomputeNetwork
from repro.nn import inference


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

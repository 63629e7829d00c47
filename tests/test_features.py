"""Feature engineering tests, including a brute-force check of the aggregations."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import ContextField, ContextSchema, HistoryBatch, UserLog
from repro.data.schema import context_columns
from repro.data.tasks import ExampleTable, peak_window_examples, session_examples
from repro.features import (
    AggregationConfig,
    FeatureConfig,
    HashingEncoder,
    HistoryAggregator,
    OneHotEncoder,
    SequenceBuilder,
    TabularFeaturizer,
    ablation_config,
    log_bucket,
    one_hot_buckets,
)


class TestBucketing:
    def test_paper_formula_examples(self):
        # T(t) = floor(50/15 * ln t); 30 days ~= e^14.76 s lands just inside 50 buckets.
        assert log_bucket(1) == 0
        assert log_bucket(np.e ** 3) == pytest.approx(10)
        assert log_bucket(30 * 24 * 3600) == 49
        assert log_bucket(0) == 0
        assert log_bucket(np.inf) == 49

    @settings(max_examples=50, deadline=None)
    @given(st.floats(min_value=0, max_value=10 * 24 * 3600), st.floats(min_value=0, max_value=10 * 24 * 3600))
    def test_bucketing_is_monotone_and_in_range(self, a, b):
        low, high = sorted([a, b])
        assert 0 <= log_bucket(low) <= log_bucket(high) <= 49

    def test_one_hot_buckets_shape(self):
        encoded = one_hot_buckets(np.array([1.0, 3600.0, np.inf]))
        assert encoded.shape == (3, 50)
        assert np.all(encoded.sum(axis=1) == 1)


class TestEncoders:
    def test_one_hot_round_trip_and_range_errors(self):
        encoder = OneHotEncoder(4)
        encoded = encoder.encode([0, 3, 2])
        assert encoded.shape == (3, 4)
        assert np.array_equal(encoded.argmax(axis=1), [0, 3, 2])
        with pytest.raises(ValueError):
            encoder.encode([4])
        assert OneHotEncoder(4, clip=True).encode([5]).argmax() == 1

    def test_hashing_encoder_is_stable_and_bounded(self):
        encoder = HashingEncoder(modulo=97)
        values = np.arange(1000)
        first = encoder.bucket(values)
        second = encoder.bucket(values)
        assert np.array_equal(first, second)
        assert first.min() >= 0 and first.max() < 97
        # Strings hash deterministically too.
        assert encoder.bucket(np.array(["com.app.alpha"]))[0] == encoder.bucket(np.array(["com.app.alpha"]))[0]

    def test_hashing_spreads_values(self):
        buckets = HashingEncoder(97).bucket(np.arange(500))
        assert len(np.unique(buckets)) > 60


def _brute_force_aggregation(user: UserLog, prediction_time: int, window: int, subset, context):
    """Reference (O(n^2)) implementation of the Section 5.2 aggregations."""
    count = accesses = 0
    last_session = last_access = None
    for i in range(len(user)):
        t = int(user.timestamps[i])
        if t >= prediction_time:
            continue
        if subset and any(_match_value(user, name, i) != _match_value_ctx(context, name) for name in subset):
            continue
        if t > prediction_time - window:
            count += 1
            accesses += int(user.accesses[i])
        last_session = t if last_session is None else max(last_session, t)
        if user.accesses[i] == 1:
            last_access = t if last_access is None else max(last_access, t)
    return count, accesses, last_session, last_access


def _match_value(user, name, i):
    value = user.context[name][i]
    if name == "badge":
        return int(np.digitize(float(value), [0.5, 3.5, 10.5]))
    return int(value)


def _match_value_ctx(context, name):
    value = context[name]
    if name == "badge":
        return int(np.digitize(float(value), [0.5, 3.5, 10.5]))
    return int(value)


class TestAggregations:
    def test_against_brute_force(self, handcrafted_dataset):
        schema = handcrafted_dataset.schema
        config = AggregationConfig(windows=(28 * 86400, 86400, 3600), max_subset_size=2)
        aggregator = HistoryAggregator(schema, config)
        user = handcrafted_dataset.users[0]
        table = session_examples(handcrafted_dataset)
        times, sessions = table.prediction_times[table.owners == 0], table.sessions[table.owners == 0]
        contexts = [user.context_row(session) for session in sessions]
        features = aggregator.compute_batch(
            HistoryBatch.of_logs([user]), np.zeros(times.size), times, *context_columns(contexts, schema.names())
        )
        names = aggregator.feature_names()
        assert features.shape == (len(times), len(names))

        for row, (time, context) in enumerate(zip(times.tolist(), contexts)):
            for subset in aggregator.subsets:
                tag = "all" if not subset else "+".join(subset)
                for window in config.windows:
                    count, accesses, _, _ = _brute_force_aggregation(user, time, window, subset, context)
                    count_col = names.index(f"agg[{tag}][{window}s].sessions")
                    access_col = names.index(f"agg[{tag}][{window}s].accesses")
                    assert features[row, count_col] == count, (subset, window, row)
                    assert features[row, access_col] == accesses
                _, _, last_session, last_access = _brute_force_aggregation(user, time, 10**12, subset, context)
                session_col = names.index(f"elapsed[{tag}].since_session")
                access_col = names.index(f"elapsed[{tag}].since_access")
                expected_session = np.inf if last_session is None else time - last_session
                expected_access = np.inf if last_access is None else time - last_access
                assert features[row, session_col] == expected_session
                assert features[row, access_col] == expected_access

    def test_current_session_is_excluded_from_history(self, handcrafted_dataset):
        aggregator = HistoryAggregator(handcrafted_dataset.schema, AggregationConfig(max_subset_size=0))
        user = handcrafted_dataset.users[0]
        first_time = np.asarray([int(user.timestamps[0])])
        features = aggregator.compute_batch(
            HistoryBatch.of_logs([user]), [0], first_time, *context_columns([user.context_row(0)], user.context)
        )
        # No history before the first session: zero counts, missing elapsed.
        assert np.all(features[0, :-2] == 0)
        assert np.all(np.isinf(features[0, -2:]))

    def test_no_context_disables_matched_subsets(self, handcrafted_dataset):
        aggregator = HistoryAggregator(handcrafted_dataset.schema, AggregationConfig(max_subset_size=2))
        user = handcrafted_dataset.users[0]
        query = np.asarray([int(user.timestamps[-1]) + 1000])
        features = aggregator.compute_batch(
            HistoryBatch.of_logs([user]), [0], query, *context_columns([None], user.context)
        )
        names = aggregator.feature_names()
        unconditional = names.index("agg[all][2419200s].sessions")
        conditional = names.index("agg[badge][2419200s].sessions")
        assert features[0, unconditional] == 4
        assert features[0, conditional] == 0

    def test_lookup_group_count_matches_paper_for_mobiletab(self, tiny_mobiletab):
        featurizer = TabularFeaturizer(tiny_mobiletab.schema, FeatureConfig())
        assert featurizer.n_lookup_groups == 20  # "about 20 aggregation feature lookups"


class TestTabularFeaturizer:
    def test_feature_names_align_with_matrix_width(self, tiny_mobiletab):
        featurizer = TabularFeaturizer(tiny_mobiletab.schema, FeatureConfig())
        examples = session_examples(tiny_mobiletab, start_time=tiny_mobiletab.day_boundary(3))
        data = featurizer.transform(tiny_mobiletab, examples)
        assert data.X.shape[1] == len(featurizer.feature_names()) == featurizer.n_features
        assert len(data) == len(examples)
        assert not np.isnan(data.X).any() and not np.isinf(data.X).any()

    def test_one_hot_elapsed_expands_width(self, tiny_mobiletab):
        narrow = TabularFeaturizer(tiny_mobiletab.schema, FeatureConfig(one_hot_elapsed=False))
        wide = TabularFeaturizer(tiny_mobiletab.schema, FeatureConfig(one_hot_elapsed=True))
        assert wide.n_features > narrow.n_features

    def test_ablation_configs(self):
        assert not ablation_config("C").include_elapsed
        assert not ablation_config("C").include_aggregations
        assert ablation_config("E+C").include_elapsed
        assert not ablation_config("E+C").include_aggregations
        assert ablation_config("A+E+C").include_aggregations
        with pytest.raises(ValueError):
            ablation_config("X")

    def test_ablation_reduces_feature_count(self, tiny_mobiletab):
        full = TabularFeaturizer(tiny_mobiletab.schema, ablation_config("A+E+C"))
        context_only = TabularFeaturizer(tiny_mobiletab.schema, ablation_config("C"))
        assert context_only.n_features < full.n_features

    @staticmethod
    def _training_sets(dataset, one_hot_elapsed):
        """A featurizer and the dataset's task example tables."""
        featurizer = TabularFeaturizer(dataset.schema, FeatureConfig(one_hot_elapsed=one_hot_elapsed))
        tasks = [session_examples(dataset)] + ([peak_window_examples(dataset)] if dataset.peak_hours else [])
        return featurizer, tasks  # the timeshifted task has no contexts

    @pytest.mark.parametrize("one_hot_elapsed", [False, True])
    @pytest.mark.parametrize("dataset", ["tiny_mobiletab", "tiny_mpu", "tiny_timeshift"])
    def test_training_transform_matches_the_served_records(self, dataset, one_hot_elapsed, request):
        """Training's one call over NumPy logs, each row's context gathered
        from its own session, equals the serving spelling of the same logs:
        each a stored record of plain lists, flattened by
        ``HistoryBatch.of_records``, and each context a request dict
        transposed by ``context_columns``, so training and serving cannot
        skew."""
        dataset = request.getfixturevalue(dataset)
        featurizer, tasks = self._training_sets(dataset, one_hot_elapsed)
        for table in tasks:
            present = np.unique(table.owners)
            records = [
                {
                    "timestamps": dataset.users[owner].timestamps.tolist(),
                    "accesses": dataset.users[owner].accesses.tolist(),
                    "context": {name: values.tolist() for name, values in dataset.users[owner].context.items()},
                }
                for owner in present
            ]
            contexts = [
                None if session < 0 else dataset.users[owner].context_row(session)
                for owner, session in zip(table.owners.tolist(), table.sessions.tolist())
            ]
            served = featurizer.transform_user(
                HistoryBatch.of_records(records, dataset.schema.names()),
                present.searchsorted(table.owners),
                table.prediction_times,
                *context_columns(contexts, dataset.schema.names()),
            )
            np.testing.assert_array_equal(featurizer.transform(dataset, table).X, served, strict=True)

    @pytest.mark.parametrize("one_hot_elapsed", [False, True])
    @pytest.mark.parametrize("dataset", ["tiny_mobiletab", "tiny_mpu", "tiny_timeshift"])
    def test_training_transform_matches_one_call_per_user(self, dataset, one_hot_elapsed, request):
        """One sort over every user's sessions keeps each row to its own
        user's log: the whole set equals one call per user, taken in reverse."""
        dataset = request.getfixturevalue(dataset)
        featurizer, tasks = self._training_sets(dataset, one_hot_elapsed)
        for table in tasks:
            present = np.unique(table.owners).tolist()
            alone = {}
            for owner in reversed(present):
                mine = table.owners == owner
                rows = ExampleTable(**{name: getattr(table, name)[mine] for name in ExampleTable.__dataclass_fields__})
                alone[owner] = featurizer.transform(dataset, rows).X
            np.testing.assert_array_equal(
                featurizer.transform(dataset, table).X,
                np.concatenate([alone[owner] for owner in present], axis=0),
                strict=True,
            )


class TestSequenceBuilder:
    def test_sequence_shapes_and_delta_buckets(self, tiny_mobiletab):
        builder = SequenceBuilder(tiny_mobiletab.schema)
        user = next(u for u in tiny_mobiletab.users if len(u) > 3)
        sequence = builder.build_user(user)
        assert sequence.features.shape == (len(user), builder.feature_dim)
        assert sequence.delta_buckets[0] == 0
        assert np.all(sequence.delta_buckets >= 0) and np.all(sequence.delta_buckets < 50)

    def test_truncation_keeps_most_recent_sessions(self, tiny_mpu):
        builder = SequenceBuilder(tiny_mpu.schema)
        user = max(tiny_mpu.users, key=len)
        sequence = builder.build_user(user).truncate_last(10)
        assert len(sequence) == 10
        assert sequence.timestamps[-1] == user.timestamps[-1]

    def test_feature_dim_counts_context_and_time(self, tiny_mobiletab):
        builder = SequenceBuilder(tiny_mobiletab.schema)
        # unread (2 numeric columns) + active_tab one-hot (8) + hour (24) + dow (7)
        assert builder.feature_dim == 2 + 8 + 24 + 7

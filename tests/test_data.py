"""Dataset schema, generator, split, task and statistics tests."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    ContextField,
    ContextSchema,
    Dataset,
    UserLog,
    access_rate_cdf,
    dataset_summary,
    day_of_week,
    fraction_with_history,
    hour_of_day,
    k_fold_splits,
    make_dataset,
    session_count_histogram,
    user_split,
    validation_split,
)
from repro.data.tasks import peak_window_bounds, peak_window_examples, session_examples
from task_twins import peak_window_examples_loop, session_examples_loop


class TestSchema:
    def test_hour_and_day_of_week(self):
        base = 1_561_939_200  # Monday 2019-07-01 00:00 UTC
        assert hour_of_day(base) == 0
        assert hour_of_day(base + 5 * SECONDS_PER_HOUR) == 5
        assert day_of_week(base) == 0
        assert day_of_week(base + 6 * SECONDS_PER_DAY) == 6
        assert day_of_week(base + 7 * SECONDS_PER_DAY) == 0

    def test_userlog_validation(self):
        with pytest.raises(ValueError):
            UserLog(0, np.array([2, 1]), np.array([0, 1]), {})
        with pytest.raises(ValueError):
            UserLog(0, np.array([1, 2]), np.array([0, 2]), {})
        with pytest.raises(ValueError):
            UserLog(0, np.array([1, 2]), np.array([0, 1]), {"x": np.array([1])})

    def test_userlog_slicing_and_truncation(self, handcrafted_dataset):
        user = handcrafted_dataset.users[0]
        assert len(user) == 4 and user.n_accesses == 2
        recent = user.truncate_last(2)
        assert len(recent) == 2
        assert recent.timestamps[0] == user.timestamps[2]
        before = user.before(int(user.timestamps[2]))
        assert len(before) == 2

    def test_dataset_subset_and_summary(self, handcrafted_dataset):
        subset = handcrafted_dataset.subset([1])
        assert subset.n_users == 1 and subset.users[0].user_id == 1
        assert handcrafted_dataset.n_sessions == 6
        assert handcrafted_dataset.positive_rate == pytest.approx(3 / 6)
        with pytest.raises(ValueError):
            Dataset(
                name="bad",
                users=handcrafted_dataset.users,
                schema=ContextSchema(fields=(ContextField("other", "numeric"),)),
                session_length=60,
                start_time=0,
                n_days=1,
            )

    def test_context_schema_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ContextSchema(fields=(ContextField("a", "numeric"), ContextField("a", "numeric")))
        with pytest.raises(ValueError):
            ContextField("x", "categorical")


class TestGenerators:
    @pytest.mark.parametrize("name", ["mobiletab", "timeshift", "mpu"])
    def test_generation_is_deterministic(self, name):
        kwargs = {"n_users": 10, "n_days": 7}
        first = make_dataset(name, seed=11, **kwargs)
        second = make_dataset(name, seed=11, **kwargs)
        assert first.n_sessions == second.n_sessions
        for a, b in zip(first.users, second.users):
            assert np.array_equal(a.timestamps, b.timestamps)
            assert np.array_equal(a.accesses, b.accesses)

    def test_different_seeds_differ(self):
        a = make_dataset("mobiletab", seed=1, n_users=10, n_days=7)
        b = make_dataset("mobiletab", seed=2, n_users=10, n_days=7)
        assert a.n_sessions != b.n_sessions or any(
            not np.array_equal(x.accesses, y.accesses) for x, y in zip(a.users, b.users)
        )

    def test_mobiletab_statistics_are_plausible(self, tiny_mobiletab):
        summary = dataset_summary(tiny_mobiletab)
        assert 0.03 < summary.positive_rate < 0.3
        assert 0.1 < summary.zero_access_user_fraction < 0.7
        assert set(tiny_mobiletab.schema.names()) == {"unread_count", "active_tab"}

    def test_mpu_has_long_histories_and_high_positive_rate(self, tiny_mpu):
        summary = dataset_summary(tiny_mpu)
        assert summary.positive_rate > 0.2
        assert summary.mean_sessions_per_user > 30

    def test_timestamps_sorted_and_context_aligned(self, tiny_timeshift):
        for user in tiny_timeshift.users:
            assert np.all(np.diff(user.timestamps) >= 0)
            for values in user.context.values():
                assert len(values) == len(user)

    def test_unknown_dataset_name(self):
        with pytest.raises(KeyError):
            make_dataset("nosuch")


class TestSplits:
    def test_user_split_is_disjoint_and_complete(self, tiny_mobiletab):
        split = user_split(tiny_mobiletab, test_fraction=0.25, seed=3)
        train_ids = set(split.train.user_ids().tolist())
        test_ids = set(split.test.user_ids().tolist())
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(tiny_mobiletab.user_ids().tolist())

    def test_k_fold_covers_every_user_exactly_once(self, tiny_mpu):
        folds = k_fold_splits(tiny_mpu, k=4, seed=0)
        all_test_ids = [uid for fold in folds for uid in fold.test.user_ids().tolist()]
        assert sorted(all_test_ids) == sorted(tiny_mpu.user_ids().tolist())
        for fold in folds:
            assert not set(fold.train.user_ids().tolist()) & set(fold.test.user_ids().tolist())

    def test_validation_split_differs_from_test_split(self, tiny_mobiletab):
        outer = user_split(tiny_mobiletab, 0.2, seed=0)
        inner = validation_split(outer.train, 0.2, seed=0)
        assert inner.train.n_users + inner.test.n_users == outer.train.n_users

    def test_split_validation_errors(self, tiny_mobiletab):
        with pytest.raises(ValueError):
            user_split(tiny_mobiletab, test_fraction=0.0)
        with pytest.raises(ValueError):
            k_fold_splits(tiny_mobiletab, k=1)


def _twin_columns(dataset, grouped) -> dict[str, np.ndarray]:
    """The twin's records as the table's columns."""
    owner_of = {user.user_id: owner for owner, user in enumerate(dataset.users)}
    flat = [example for examples in grouped.values() for example in examples]
    columns = {
        "owners": [owner_of[e.user_id] for e in flat],
        "user_ids": [e.user_id for e in flat],
        "prediction_times": [e.prediction_time for e in flat],
        "labels": [e.label for e in flat],
        "sessions": [-1 if e.session_index is None else e.session_index for e in flat],
        "days": [-1 if e.day_index is None else e.day_index for e in flat],
    }
    return {name: np.asarray(values, dtype=np.int64).reshape(-1) for name, values in columns.items()}, flat


def assert_table_equals_twin(dataset, table, grouped) -> None:
    expected, flat = _twin_columns(dataset, grouped)
    assert len(table) == len(flat)
    for name, column in expected.items():
        actual = getattr(table, name)
        assert actual.dtype == np.int64 and actual.shape == column.shape, name
        assert np.array_equal(actual, column), name
    # A session row's context is its owner's log row at ``sessions``.
    contexts = [
        None if session < 0 else dataset.users[owner].context_row(session)
        for owner, session in zip(table.owners.tolist(), table.sessions.tolist())
    ]
    assert contexts == [e.context for e in flat]


class TestTasks:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["mobiletab", "timeshift", "mpu"])
    def test_tables_equal_the_per_session_and_per_day_loops(self, name, seed):
        dataset = make_dataset(name, seed=seed, n_users=12, n_days=6)
        if dataset.peak_hours is None:
            dataset = dataclasses.replace(dataset, peak_hours=(17, 21))
        start, day = dataset.start_time, SECONDS_PER_DAY
        stamps = np.sort(np.concatenate([user.timestamps for user in dataset.users]))
        stamp_lo, stamp_hi = int(stamps[stamps.size // 3]), int(stamps[2 * stamps.size // 3])
        narrow = (start + 4 * day + 3 * SECONDS_PER_HOUR, start + 4 * day + 4 * SECONDS_PER_HOUR)
        windows = [
            (stamp_lo, stamp_hi),  # bounds on session stamps: t == start is in, t == end is out
            (None, None),
            (start + 2 * day, None),
            (None, start + 3 * day + 1),
            narrow,  # users with none
            (start + day, start + day),  # empty
            (start + 3 * day, start + day),  # inverted: empty
            (start - 10 * day, start + 100 * day),
        ]
        for lo, hi in windows:
            assert_table_equals_twin(dataset, session_examples(dataset, lo, hi), session_examples_loop(dataset, lo, hi))
        assert len(session_examples(dataset, start + day, start + day)) == 0
        assert len(np.unique(session_examples(dataset, *narrow).owners)) < len(dataset.users)  # some user has none
        last = dataset.n_days
        for first_day, last_day, lead in [(0, None, 6 * SECONDS_PER_HOUR), (0, 1, 0), (last - 1, last, 3600), (2, 4, 0)]:
            assert_table_equals_twin(
                dataset,
                peak_window_examples(dataset, lead, first_day, last_day),
                peak_window_examples_loop(dataset, lead, first_day, last_day),
            )

    def test_peak_labels_at_the_window_edges(self, handcrafted_dataset):
        """An access stamped at a peak window's end is outside it, one at its
        start inside: the table and the per-day loop agree on both."""
        day0_start, day0_end = peak_window_bounds(handcrafted_dataset, 0)
        day1_start, _ = peak_window_bounds(handcrafted_dataset, 1)
        edges = UserLog(
            user_id=5,
            timestamps=[day0_start - 1, day0_end, day1_start],
            accesses=[1, 1, 1],
            context={"badge": [0, 0, 0], "surface": [0, 0, 0]},
        )
        dataset = dataclasses.replace(handcrafted_dataset, users=[edges])
        table = peak_window_examples(dataset)
        assert table.labels.tolist() == [0, 1, 0]
        assert_table_equals_twin(dataset, table, peak_window_examples_loop(dataset))

    def test_session_examples_respect_time_window(self, handcrafted_dataset):
        boundary = handcrafted_dataset.start_time + SECONDS_PER_DAY
        examples = session_examples(handcrafted_dataset, start_time=boundary)
        assert np.all(examples.prediction_times >= boundary)
        assert len(examples) == 3  # sessions at +30h, +31h, +50h
        assert examples.sessions.tolist() == [2, 3, 1]
        assert examples.owners.tolist() == [0, 0, 1]

    def test_session_example_labels_and_context(self, handcrafted_dataset):
        examples = session_examples(handcrafted_dataset)
        mine = examples.owners == 0
        assert examples.labels[mine].tolist() == [1, 0, 1, 0]
        assert examples.days.tolist() == [-1] * len(examples)
        user = handcrafted_dataset.users[0]
        assert user.context_row(int(examples.sessions[mine][0])) == {"badge": 3, "surface": 0}

    def test_peak_window_bounds_and_labels(self, handcrafted_dataset):
        start, end = peak_window_bounds(handcrafted_dataset, 0)
        assert (start - handcrafted_dataset.start_time) // SECONDS_PER_HOUR == 17
        assert (end - start) // SECONDS_PER_HOUR == 4
        table = peak_window_examples(handcrafted_dataset, lead_seconds=2 * SECONDS_PER_HOUR)
        # User B's access at +50h (= day 2, 02:00) is outside peak hours.
        assert table.labels[table.user_ids == 1].tolist() == [0, 0, 0]
        assert table.sessions.tolist() == [-1] * len(table)
        for day, time in zip(table.days.tolist(), table.prediction_times.tolist()):
            peak_start, _ = peak_window_bounds(handcrafted_dataset, day)
            assert time == peak_start - 2 * SECONDS_PER_HOUR

    def test_peak_examples_require_peak_hours(self, tiny_mobiletab):
        with pytest.raises(ValueError):
            peak_window_examples(tiny_mobiletab)


class TestStats:
    def test_access_rate_cdf_is_monotone_and_normalised(self, tiny_mobiletab):
        rates, cdf = access_rate_cdf(tiny_mobiletab)
        assert cdf[-1] == pytest.approx(1.0)
        assert np.all(np.diff(cdf) >= 0)
        assert rates[0] == 0.0

    def test_session_count_histogram_counts_all_users(self, tiny_mpu):
        _, counts = session_count_histogram(tiny_mpu, bin_width=20)
        assert counts.sum() == tiny_mpu.n_users

    def test_fraction_with_history_is_high_for_mature_logs(self, tiny_mobiletab):
        assert fraction_with_history(tiny_mobiletab, evaluation_days=7) > 0.8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=500))
def test_property_generated_access_flags_are_binary(seed):
    dataset = make_dataset("mobiletab", seed=seed, n_users=4, n_days=5)
    for user in dataset.users:
        assert np.all((user.accesses == 0) | (user.accesses == 1))
        assert np.all(user.context["unread_count"] >= 0)
        assert np.all(user.context["active_tab"] < 8)

"""Shared fixtures: tiny synthetic datasets so the suite stays fast."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ContextField, ContextSchema, Dataset, UserLog, make_dataset
from serving_harness import make_parts


@pytest.fixture(scope="session")
def serving_parts():
    """``(schema, builder, network)`` for the engine-level serving tests
    (``serving_harness.make_parts``)."""
    return make_parts()


@pytest.fixture(scope="session")
def tiny_mobiletab() -> Dataset:
    return make_dataset("mobiletab", seed=7, n_users=40, n_days=21)


@pytest.fixture(scope="session")
def tiny_timeshift() -> Dataset:
    return make_dataset("timeshift", seed=7, n_users=40, n_days=21)


@pytest.fixture(scope="session")
def tiny_mpu() -> Dataset:
    return make_dataset("mpu", seed=7, n_users=12, n_days=14, mean_notifications_per_day=8.0)


@pytest.fixture()
def handcrafted_dataset() -> Dataset:
    """A two-user dataset with hand-checkable timestamps and accesses."""
    schema = ContextSchema(
        fields=(
            ContextField("badge", "numeric"),
            ContextField("surface", "categorical", cardinality=3),
        )
    )
    base = 1_561_939_200  # Monday 2019-07-01 00:00 UTC
    hour = 3600
    user_a = UserLog(
        user_id=0,
        timestamps=np.array([base + 1 * hour, base + 5 * hour, base + 30 * hour, base + 31 * hour]),
        accesses=np.array([1, 0, 1, 0]),
        context={
            "badge": np.array([3, 0, 5, 1]),
            "surface": np.array([0, 1, 0, 2]),
        },
    )
    user_b = UserLog(
        user_id=1,
        timestamps=np.array([base + 2 * hour, base + 50 * hour]),
        accesses=np.array([0, 1]),
        context={
            "badge": np.array([0, 9]),
            "surface": np.array([2, 2]),
        },
    )
    return Dataset(
        name="handcrafted",
        users=[user_a, user_b],
        schema=schema,
        session_length=1200,
        start_time=base,
        n_days=3,
        peak_hours=(17, 21),
    )

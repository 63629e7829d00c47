"""Datasets: schema, synthetic trace generators, splits and statistics."""

from .generators import DEFAULT_START_TIME, DiurnalProfile, RegimeChain
from .mobiletab import MobileTabConfig, MobileTabGenerator, TAB_NAMES
from .mpu import MPUConfig, MPUGenerator, SCREEN_STATES
from .registry import DATASET_NAMES, default_scale, make_dataset
from .schema import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    ContextField,
    ContextSchema,
    Dataset,
    HistoryBatch,
    UserLog,
    day_of_week,
    hour_of_day,
    sessions_in_time_order,
)
from .splits import TrainTestSplit, k_fold_splits, user_split, validation_split
from .stats import (
    DatasetSummary,
    access_rate_cdf,
    dataset_summary,
    fraction_with_history,
    session_count_histogram,
)
from .timeshift import DEFAULT_PEAK_HOURS, TimeshiftConfig, TimeshiftGenerator

__all__ = [
    "DEFAULT_START_TIME",
    "DiurnalProfile",
    "RegimeChain",
    "MobileTabConfig",
    "MobileTabGenerator",
    "TAB_NAMES",
    "MPUConfig",
    "MPUGenerator",
    "SCREEN_STATES",
    "TimeshiftConfig",
    "TimeshiftGenerator",
    "DEFAULT_PEAK_HOURS",
    "DATASET_NAMES",
    "default_scale",
    "make_dataset",
    "SECONDS_PER_DAY",
    "SECONDS_PER_HOUR",
    "ContextField",
    "ContextSchema",
    "Dataset",
    "HistoryBatch",
    "UserLog",
    "day_of_week",
    "hour_of_day",
    "sessions_in_time_order",
    "TrainTestSplit",
    "k_fold_splits",
    "user_split",
    "validation_split",
    "DatasetSummary",
    "access_rate_cdf",
    "dataset_summary",
    "fraction_with_history",
    "session_count_histogram",
]

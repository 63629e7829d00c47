"""Synthetic Timeshift dataset (Section 4.2 of the paper).

On the Facebook website, relatively static data queries can be computed and
cached several hours before they are needed.  The paper's Timeshift dataset
records, for one million users over 30 days, every website session (fixed
20-minute windows) with two pieces of context — the timestamp and a flag
saying whether the session fell inside the daily *peak hours* window — plus
an access flag for a moderately used data query.

The timeshifted-precompute task (Section 3.2.1) is derived from these logs:
for each user × day, predict during off-peak hours whether the user will
need the query result during the next peak window, using history alone (no
session context is available at prediction time).

The generator reproduces the published structure: positive session rate
≈ 7%, ≈ 42% of users with no accesses at all, strong weekday/weekend and
peak/off-peak usage patterns, and sticky multi-day engagement regimes that
give sequence models an edge over fixed-window aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import (
    DEFAULT_START_TIME,
    DiurnalProfile,
    RegimeChain,
    heavy_tailed_mean_rate,
    sample_sessions_for_day,
    sigmoid,
)
from .schema import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    ContextField,
    ContextSchema,
    Dataset,
    UserLog,
    day_of_week,
    hour_of_day,
)

__all__ = ["TimeshiftConfig", "TimeshiftGenerator", "DEFAULT_PEAK_HOURS"]

#: Daily peak-hours window (17:00-21:00) used both by the generator and by the
#: timeshifted-precompute task construction.
DEFAULT_PEAK_HOURS: tuple[int, int] = (17, 21)


@dataclass(frozen=True)
class TimeshiftConfig:
    """Configuration for the Timeshift generator (scaled-down defaults)."""

    n_users: int = 1000
    n_days: int = 30
    start_time: int = DEFAULT_START_TIME
    session_length: int = 20 * 60
    mean_sessions_per_day: float = 1.4
    never_user_fraction: float = 0.05
    base_logit: float = -5.0
    peak_hours: tuple[int, int] = DEFAULT_PEAK_HOURS
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_days <= 0:
            raise ValueError("n_users and n_days must be positive")
        if not 0.0 <= self.never_user_fraction < 1.0:
            raise ValueError("never_user_fraction must be in [0, 1)")
        lo, hi = self.peak_hours
        if not (0 <= lo < hi <= 24):
            raise ValueError("peak_hours must satisfy 0 <= start < end <= 24")


@dataclass
class _UserProfile:
    sessions_per_day: float
    affinity: float
    diurnal: DiurnalProfile
    regime: RegimeChain
    weekday_effect: np.ndarray
    peak_bias: float
    habit_strength: float
    habit_timescale: float
    never_user: bool


class TimeshiftGenerator:
    """Generates a :class:`~repro.data.schema.Dataset` of Timeshift-like traces."""

    def __init__(self, config: TimeshiftConfig | None = None, **overrides) -> None:
        if config is None:
            config = TimeshiftConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.schema = ContextSchema(
            fields=(ContextField("is_peak", "categorical", cardinality=2),)
        )

    # ------------------------------------------------------------------
    def _sample_profile(self, rng: np.random.Generator) -> _UserProfile:
        cfg = self.config
        never = rng.random() < cfg.never_user_fraction
        # Weekly usage pattern: many users are weekday-heavy (work pattern),
        # some are weekend-heavy.
        weekday_effect = rng.normal(0.0, 0.35, size=7)
        if rng.random() < 0.6:
            weekday_effect[:5] += rng.uniform(0.2, 0.8)
        else:
            weekday_effect[5:] += rng.uniform(0.2, 0.8)
        return _UserProfile(
            sessions_per_day=max(heavy_tailed_mean_rate(rng, cfg.mean_sessions_per_day), 0.05),
            affinity=0.0 if never else rng.gamma(2.0, 0.6),
            diurnal=DiurnalProfile.sample(rng),
            regime=RegimeChain.sample(rng, engaged_bonus_scale=1.8),
            weekday_effect=weekday_effect,
            peak_bias=rng.normal(1.3, 0.6),
            habit_strength=rng.normal(0.8, 0.4),
            habit_timescale=rng.uniform(6.0, 72.0) * 3600.0,
            never_user=never,
        )

    # ------------------------------------------------------------------
    def _generate_user(self, user_id: int, rng: np.random.Generator) -> UserLog:
        cfg = self.config
        profile = self._sample_profile(rng)
        lo, hi = cfg.peak_hours

        day_regimes = profile.regime.simulate(rng, cfg.n_days).tolist()

        day_starts = cfg.start_time + np.arange(cfg.n_days, dtype=np.int64) * SECONDS_PER_DAY
        weekday_effect = profile.weekday_effect.tolist()
        all_times: list[np.ndarray] = []
        for day_start, weekday in zip(day_starts.tolist(), day_of_week(day_starts).tolist()):
            expected = profile.sessions_per_day * (1.0 + 0.2 * weekday_effect[weekday])
            all_times.append(sample_sessions_for_day(rng, day_start, max(expected, 0.0), profile.diurnal))
        times = np.concatenate(all_times) if all_times else np.zeros(0, dtype=np.int64)
        n = times.size
        if n == 0:
            return UserLog(
                user_id=user_id,
                timestamps=times,
                accesses=np.zeros(0, dtype=np.int8),
                context={"is_peak": np.zeros(0, dtype=np.int64)},
            )

        hours = hour_of_day(times)
        is_peak = ((hours >= lo) & (hours < hi)).astype(np.int64)
        stamps = times.tolist()
        weekdays = day_of_week(times).tolist()
        day_indices = ((times - cfg.start_time) // SECONDS_PER_DAY).tolist()
        peaks = is_peak.tolist()

        accesses = [0] * n
        last_access_time: int | None = None
        for i in range(n):
            logit = cfg.base_logit
            if profile.never_user:
                logit -= 8.0
            else:
                logit += profile.affinity - 1.0
                logit += profile.peak_bias * (1.0 if peaks[i] else -0.3)
                logit += 0.8 * weekday_effect[weekdays[i]]
                regime = day_regimes[min(day_indices[i], cfg.n_days - 1)]
                logit += profile.regime.engaged_bonus * (1.0 if regime == 1 else -0.7)
                if last_access_time is not None:
                    recency = math.exp(-(stamps[i] - last_access_time) / profile.habit_timescale)
                    logit += profile.habit_strength * recency
            access = 1 if rng.random() < sigmoid(logit) else 0
            accesses[i] = access
            if access:
                last_access_time = stamps[i]

        return UserLog(
            user_id=user_id,
            timestamps=times,
            accesses=np.asarray(accesses, dtype=np.int8),
            context={"is_peak": is_peak},
        )

    # ------------------------------------------------------------------
    def generate(self) -> Dataset:
        """Generate the full dataset deterministically from the config seed."""
        cfg = self.config
        master = np.random.default_rng(cfg.seed)
        seeds = master.integers(0, 2**63 - 1, size=cfg.n_users)
        users = [
            self._generate_user(user_id, np.random.default_rng(int(seed)))
            for user_id, seed in enumerate(seeds)
        ]
        return Dataset(
            name="timeshift",
            users=users,
            schema=self.schema,
            session_length=cfg.session_length,
            start_time=cfg.start_time,
            n_days=cfg.n_days,
            peak_hours=cfg.peak_hours,
            description="Synthetic timeshifted data-query traces (Section 4.2 analogue).",
        )

"""Synthetic Mobile Phone Use (MPU) dataset (Section 4.3 of the paper).

The real dataset (Pielot et al., 2017) traces 279 Android users over four
weeks.  Following Katevas et al. (2017) and the paper, each *session* starts
when a notification appears (fixed 10-minute window) and an *access* is
recorded when the user opens the application associated with the
notification.  Four context variables are derived per notification: the
current time, the screen state (off / on / unlocked), the application the
notification belongs to, and the last opened application.

The dataset is not redistributable and cannot be fetched offline, so this
generator synthesises traces with the published structure: a small number of
users with very long histories (thousands of notifications each, long-tailed
as in Figure 5), an overall positive rate around 40%, strong per-app
affinities, screen-state effects, and bursty attention regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .generators import (
    DEFAULT_START_TIME,
    DiurnalProfile,
    RegimeChain,
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

__all__ = ["MPUConfig", "MPUGenerator", "SCREEN_STATES"]

#: Screen state at notification arrival.
SCREEN_STATES = ("off", "on", "unlocked")


@dataclass(frozen=True)
class MPUConfig:
    """Configuration for the MPU generator.

    The paper's dataset has 279 users averaging ~8,400 notifications over 28
    days.  The defaults here keep the small-user / long-history shape while
    remaining cheap: notification volume per user is heavy-tailed with a long
    tail several times the median.
    """

    n_users: int = 100
    n_days: int = 28
    start_time: int = DEFAULT_START_TIME
    session_length: int = 10 * 60
    mean_notifications_per_day: float = 18.0
    n_apps: int = 40
    base_logit: float = -0.65
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_days <= 0:
            raise ValueError("n_users and n_days must be positive")
        if self.n_apps < 2:
            raise ValueError("n_apps must be at least 2")


@dataclass
class _UserProfile:
    notifications_per_day: float
    app_mix: np.ndarray
    app_affinity_engaged: np.ndarray
    app_affinity_dormant: np.ndarray
    screen_effect: np.ndarray
    diurnal: DiurnalProfile
    attention_diurnal: DiurnalProfile
    regime: RegimeChain
    habit_strength: float
    habit_timescale: float
    base_shift: float


class MPUGenerator:
    """Generates a :class:`~repro.data.schema.Dataset` of notification traces."""

    def __init__(self, config: MPUConfig | None = None, **overrides) -> None:
        if config is None:
            config = MPUConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.schema = ContextSchema(
            fields=(
                ContextField("screen_state", "categorical", cardinality=len(SCREEN_STATES)),
                ContextField("app_id", "categorical", cardinality=config.n_apps),
                ContextField("last_opened_app", "categorical", cardinality=config.n_apps),
            )
        )

    # ------------------------------------------------------------------
    def _sample_profile(self, rng: np.random.Generator) -> _UserProfile:
        cfg = self.config
        # Per-user Zipf-like distribution over which apps send notifications.
        raw = rng.dirichlet(np.full(cfg.n_apps, 0.25))
        # Per-app open propensity: a handful of "important" apps per user.
        # Crucially, the propensity depends on the user's current attention
        # regime — when "engaged" the user attends a broader set of apps, when
        # "dormant" only the most important ones.  The regime persists for a
        # handful of hours, a timescale that falls *between* the 1-hour and
        # 1-day aggregation windows of Section 5.2, which is exactly the kind
        # of sequential structure a recurrent state can track but fixed-window
        # aggregates blur.
        affinity_dormant = rng.normal(-1.6, 0.9, size=cfg.n_apps)
        important = rng.choice(cfg.n_apps, size=max(2, cfg.n_apps // 8), replace=False)
        affinity_dormant[important] += rng.uniform(1.5, 3.0, size=important.size)
        affinity_engaged = affinity_dormant + rng.uniform(0.8, 2.2)
        broad = rng.choice(cfg.n_apps, size=max(3, cfg.n_apps // 5), replace=False)
        affinity_engaged[broad] += rng.uniform(0.5, 2.0, size=broad.size)
        # Notification volume: log-normal for a long right tail (Figure 5).
        volume = float(np.exp(rng.normal(np.log(cfg.mean_notifications_per_day), 0.8)))
        regime = RegimeChain(
            stay_engaged=rng.uniform(0.82, 0.95),
            stay_dormant=rng.uniform(0.85, 0.96),
            engaged_bonus=rng.gamma(2.0, 0.5),
            start_engaged_probability=rng.uniform(0.3, 0.7),
        )
        return _UserProfile(
            notifications_per_day=max(volume, 1.0),
            app_mix=raw,
            app_affinity_engaged=affinity_engaged,
            app_affinity_dormant=affinity_dormant,
            screen_effect=np.array([-0.6, 0.3, 1.1]) + rng.normal(0.0, 0.2, size=3),
            diurnal=DiurnalProfile.sample(rng),
            attention_diurnal=DiurnalProfile.sample(rng),
            regime=regime,
            habit_strength=rng.normal(0.7, 0.3),
            habit_timescale=rng.uniform(0.5, 12.0) * 3600.0,
            base_shift=rng.normal(0.0, 0.6),
        )

    # ------------------------------------------------------------------
    def _generate_user(self, user_id: int, rng: np.random.Generator) -> UserLog:
        cfg = self.config
        profile = self._sample_profile(rng)

        times_list: list[np.ndarray] = []
        for day in range(cfg.n_days):
            day_start = cfg.start_time + day * SECONDS_PER_DAY
            count = rng.poisson(profile.notifications_per_day)
            if count == 0:
                continue
            hours = profile.diurnal.sample_hours(rng, count)
            offsets = hours * SECONDS_PER_HOUR + rng.integers(0, SECONDS_PER_HOUR, size=count)
            times_list.append(np.sort(day_start + offsets.astype(np.int64)))
        times = np.concatenate(times_list) if times_list else np.zeros(0, dtype=np.int64)
        n = times.size
        if n == 0:
            empty = np.zeros(0, dtype=np.int64)
            return UserLog(
                user_id=user_id,
                timestamps=times,
                accesses=np.zeros(0, dtype=np.int8),
                context={"screen_state": empty, "app_id": empty.copy(), "last_opened_app": empty.copy()},
            )

        hours = hour_of_day(times).tolist()
        regimes = profile.regime.simulate(rng, n).tolist()
        app_ids = rng.choice(cfg.n_apps, size=n, p=profile.app_mix)
        screen_states = rng.choice(len(SCREEN_STATES), size=n, p=np.array([0.5, 0.3, 0.2]))
        stamps = times.tolist()
        apps = app_ids.tolist()
        screens = screen_states.tolist()
        affinity_engaged = profile.app_affinity_engaged.tolist()
        affinity_dormant = profile.app_affinity_dormant.tolist()
        screen_effect = profile.screen_effect.tolist()

        accesses = [0] * n
        last_opened = [0] * n
        current_last_opened = int(rng.integers(0, cfg.n_apps))
        last_access_time: int | None = None

        for i in range(n):
            last_opened[i] = current_last_opened
            logit = cfg.base_logit + profile.base_shift
            if regimes[i] == 1:
                logit += affinity_engaged[apps[i]]
                logit += profile.regime.engaged_bonus * 0.8
            else:
                logit += affinity_dormant[apps[i]]
                logit -= profile.regime.engaged_bonus * 0.5
            logit += screen_effect[screens[i]]
            logit += 0.4 * math.log(profile.attention_diurnal.propensity[hours[i]] + 1e-3)
            if current_last_opened == apps[i]:
                logit += 0.6
            if last_access_time is not None:
                recency = math.exp(-(stamps[i] - last_access_time) / profile.habit_timescale)
                logit += profile.habit_strength * recency
            access = 1 if rng.random() < sigmoid(logit) else 0
            accesses[i] = access
            if access:
                last_access_time = stamps[i]
                current_last_opened = apps[i]

        return UserLog(
            user_id=user_id,
            timestamps=times,
            accesses=np.asarray(accesses, dtype=np.int8),
            context={
                "screen_state": screen_states.astype(np.int64),
                "app_id": app_ids.astype(np.int64),
                "last_opened_app": np.asarray(last_opened, dtype=np.int64),
            },
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
            name="mpu",
            users=users,
            schema=self.schema,
            session_length=cfg.session_length,
            start_time=cfg.start_time,
            n_days=cfg.n_days,
            description="Synthetic Mobile Phone Use notification traces (Section 4.3 analogue).",
        )

"""Synthetic MobileTab dataset (Section 4.1 of the paper).

The real dataset logs, for one million Facebook mobile users over 30 days,
every application session together with three context variables — the
timestamp, the unread badge count shown over the tab icon (0-99), and the
name of the active tab at startup — plus an access flag stating whether the
user interacted with the target tab during the 20-minute session.

The generator reproduces the published structure:

* overall positive rate ≈ 11% with roughly 36% of users recording no access
  at all over the observation window (Table 2 / Figure 1);
* heavy-tailed per-user session counts;
* access propensity that depends on the badge count, the active tab, the
  user's diurnal rhythm, a sticky engaged/dormant regime, and short-term
  recency (habit) effects — so that models which exploit history and context
  outperform the context-free percentage baseline, and sequence models have
  signal beyond fixed-window aggregates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    ContextField,
    ContextSchema,
    Dataset,
    UserLog,
    day_of_week,
    hour_of_day,
)

__all__ = ["MobileTabConfig", "MobileTabGenerator", "TAB_NAMES"]

#: The surfaces a session can start on.  Index 0 is the tab whose accesses we
#: predict; starting *on* that tab trivially implies an access, which the
#: generator reflects with a large logit bonus.
TAB_NAMES = ("target", "home", "watch", "marketplace", "notifications", "menu", "groups", "gaming")


@dataclass(frozen=True)
class MobileTabConfig:
    """Knobs for the MobileTab generator.

    The defaults are scaled down from the paper (10^6 users) to laptop scale;
    the structure, not the volume, is what the experiments need.
    """

    n_users: int = 1000
    n_days: int = 30
    start_time: int = DEFAULT_START_TIME
    session_length: int = 20 * 60
    mean_sessions_per_day: float = 2.2
    never_user_fraction: float = 0.25
    base_logit: float = -5.0
    unread_max: int = 99
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_users <= 0 or self.n_days <= 0:
            raise ValueError("n_users and n_days must be positive")
        if not 0.0 <= self.never_user_fraction < 1.0:
            raise ValueError("never_user_fraction must be in [0, 1)")


@dataclass
class _UserProfile:
    """Latent per-user behaviour parameters (not observable by any model)."""

    sessions_per_day: float
    affinity: float
    unread_sensitivity: float
    tab_preferences: np.ndarray
    active_tab_bonus: np.ndarray
    diurnal: DiurnalProfile
    access_diurnal: DiurnalProfile
    regime: RegimeChain
    habit_strength: float
    habit_timescale: float
    weekday_effect: np.ndarray
    unread_rate_per_hour: float
    never_user: bool = False
    extra: dict = field(default_factory=dict)


class MobileTabGenerator:
    """Generates a :class:`~repro.data.schema.Dataset` of MobileTab-like traces."""

    def __init__(self, config: MobileTabConfig | None = None, **overrides) -> None:
        if config is None:
            config = MobileTabConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.schema = ContextSchema(
            fields=(
                ContextField("unread_count", "numeric"),
                ContextField("active_tab", "categorical", cardinality=len(TAB_NAMES)),
            )
        )

    # ------------------------------------------------------------------
    def _sample_profile(self, rng: np.random.Generator) -> _UserProfile:
        cfg = self.config
        never = rng.random() < cfg.never_user_fraction
        affinity = 0.0 if never else rng.gamma(2.2, 0.55)
        tab_preferences = rng.dirichlet(np.array([0.4, 4.0, 1.5, 1.0, 1.2, 0.8, 0.9, 0.6]))
        # Per-user, per-tab contextual effect on the access logit.  These
        # idiosyncratic interactions are what the context-matched aggregation
        # features of Section 5.2 try to recover.
        active_tab_bonus = rng.normal(0.0, 0.7, size=len(TAB_NAMES))
        active_tab_bonus[0] = 4.0  # already on the target tab -> almost surely an access
        return _UserProfile(
            sessions_per_day=max(heavy_tailed_mean_rate(rng, cfg.mean_sessions_per_day), 0.05),
            affinity=affinity,
            unread_sensitivity=rng.gamma(2.0, 0.5),
            tab_preferences=tab_preferences,
            active_tab_bonus=active_tab_bonus,
            diurnal=DiurnalProfile.sample(rng),
            access_diurnal=DiurnalProfile.sample(rng),
            regime=RegimeChain.sample(rng),
            habit_strength=rng.normal(0.9, 0.4),
            habit_timescale=rng.uniform(4.0, 48.0) * 3600.0,
            weekday_effect=rng.normal(0.0, 0.25, size=7),
            unread_rate_per_hour=rng.gamma(1.5, 0.8),
            never_user=never,
        )

    # ------------------------------------------------------------------
    def _generate_user(self, user_id: int, rng: np.random.Generator) -> UserLog:
        cfg = self.config
        profile = self._sample_profile(rng)

        day_starts = cfg.start_time + np.arange(cfg.n_days, dtype=np.int64) * SECONDS_PER_DAY
        weekday_effect = profile.weekday_effect.tolist()
        timestamps: list[np.ndarray] = []
        for day_start, weekday in zip(day_starts.tolist(), day_of_week(day_starts).tolist()):
            expected = profile.sessions_per_day * (1.0 + 0.15 * weekday_effect[weekday])
            timestamps.append(
                sample_sessions_for_day(rng, day_start, max(expected, 0.0), profile.diurnal)
            )
        times = np.concatenate(timestamps) if timestamps else np.zeros(0, dtype=np.int64)
        n = times.size
        if n == 0:
            return UserLog(
                user_id=user_id,
                timestamps=times,
                accesses=np.zeros(0, dtype=np.int8),
                context={"unread_count": np.zeros(0, dtype=np.int64), "active_tab": np.zeros(0, dtype=np.int64)},
            )

        regimes = profile.regime.simulate(rng, n).tolist()
        active_tabs = rng.choice(len(TAB_NAMES), size=n, p=profile.tab_preferences)
        hours = hour_of_day(times).tolist()
        weekdays = day_of_week(times).tolist()
        stamps = times.tolist()
        tabs = active_tabs.tolist()
        tab_bonus = profile.active_tab_bonus.tolist()

        accesses = [0] * n
        unread_counts = [0] * n
        unread = float(rng.integers(0, 5))
        last_access_time: int | None = None

        for i in range(n):
            if i > 0:
                elapsed_hours = (stamps[i] - stamps[i - 1]) / 3600.0
                unread = min(unread + rng.poisson(profile.unread_rate_per_hour * elapsed_hours), cfg.unread_max)
            unread_counts[i] = int(unread)

            logit = cfg.base_logit
            if profile.never_user:
                logit -= 8.0
            else:
                logit += profile.affinity - 1.2
                logit += profile.unread_sensitivity * math.log1p(unread) * 0.45
                logit += tab_bonus[tabs[i]] * 0.6
                logit += 0.5 * math.log(profile.access_diurnal.propensity[hours[i]] + 1e-3)
                logit += weekday_effect[weekdays[i]]
                logit += profile.regime.engaged_bonus * (1.0 if regimes[i] == 1 else -0.6)
                if last_access_time is not None:
                    recency = math.exp(-(stamps[i] - last_access_time) / profile.habit_timescale)
                    logit += profile.habit_strength * recency

            access = 1 if rng.random() < sigmoid(logit) else 0
            accesses[i] = access
            if access:
                last_access_time = stamps[i]
                # Reading the tab clears most of the badge count.
                unread = float(rng.binomial(int(unread), 0.1)) if unread > 0 else 0.0

        return UserLog(
            user_id=user_id,
            timestamps=times,
            accesses=np.asarray(accesses, dtype=np.int8),
            context={
                "unread_count": np.asarray(unread_counts, dtype=np.int64),
                "active_tab": active_tabs.astype(np.int64),
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
            name="mobiletab",
            users=users,
            schema=self.schema,
            session_length=cfg.session_length,
            start_time=cfg.start_time,
            n_days=cfg.n_days,
            description="Synthetic mobile tab prefetch traces (Section 4.1 analogue).",
        )

"""Shared building blocks for the synthetic activity-trace generators.

The paper evaluates on two proprietary Facebook datasets (MobileTab,
Timeshift) and the Mobile Phone Use dataset, none of which are available in
this environment.  The generators in :mod:`repro.data.mobiletab`,
:mod:`repro.data.timeshift` and :mod:`repro.data.mpu` synthesise access logs
with the same *structure* the paper's models exploit:

* heterogeneous per-user engagement (heavy-tailed session counts, Figure 5);
* a large fraction of users who never access the activity (Figure 1);
* diurnal and weekly rhythms in both session arrival and access propensity;
* context effects (badge count, active surface, screen state, app identity);
* *sequential* structure — latent engaged/dormant regimes that persist over
  many sessions, and short-term recency/habituation effects — which is the
  signal recurrent models capture and fixed-window aggregations only
  approximate.

This module holds the primitives those generators share: diurnal profiles,
regime chains, heavy-tailed rate samplers and the logistic link.

Each generator draws its per-session access flags in a Python loop, so that
loop runs on Python scalars: the per-session columns are read once with
``.tolist()``, the per-user tables (a profile's hourly propensity, its
weekday effects) are lists, and the transcendental calls are ``math.log``,
``math.log1p``, ``math.exp`` and the scalar :func:`sigmoid`.  NumPy 0-d
arithmetic costs microseconds of dispatch per call, and a session makes about
ten.  A rewrite of a loop must make the same RNG calls in the same order:
``tests/test_dataset_digest.py`` pins one dataset per generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .schema import SECONDS_PER_DAY, SECONDS_PER_HOUR

__all__ = [
    "DEFAULT_START_TIME",
    "sigmoid",
    "DiurnalProfile",
    "RegimeChain",
    "sample_sessions_for_day",
    "heavy_tailed_mean_rate",
]

# 2019-07-01 00:00:00 UTC — a Monday, so day_of_week(start) == 0.
DEFAULT_START_TIME = 1_561_939_200


def sigmoid(x: float) -> float:
    """Numerically stable logistic function of one Python float."""
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass
class DiurnalProfile:
    """A per-user distribution over the 24 hours of the day.

    Mixture of three Gaussian bumps (morning / midday / evening) with
    user-specific weights, wrapped onto the 24-hour circle.  Used both to
    place session start times and to modulate access propensity by hour.
    """

    hour_weights: np.ndarray
    #: Relative propensity of each hour 0-23, normalised to mean 1 (floats).
    propensity: list[float] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.propensity = (self.hour_weights * 24.0).tolist()

    @classmethod
    def sample(cls, rng: np.random.Generator) -> "DiurnalProfile":
        centers = np.array([8.0, 13.0, 20.0]) + rng.normal(0.0, 1.0, size=3)
        widths = rng.uniform(1.5, 3.5, size=3)
        mix = rng.dirichlet(np.array([1.0, 1.0, 1.5]))
        hours = np.arange(24, dtype=np.float64)
        weights = np.zeros(24)
        for center, width, w in zip(centers, widths, mix):
            # Wrapped (circular) distance on the 24h clock.
            distance = np.minimum(np.abs(hours - center), 24.0 - np.abs(hours - center))
            weights += w * np.exp(-0.5 * (distance / width) ** 2)
        weights += 0.02  # floor so no hour has zero probability
        return cls(hour_weights=weights / weights.sum())

    def sample_hours(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` hours of day (integers 0-23) from the profile."""
        return rng.choice(24, size=size, p=self.hour_weights)


@dataclass
class RegimeChain:
    """Two-state (engaged / dormant) Markov chain over sessions or days.

    The chain is sticky (persistence typically 0.9-0.99), producing long
    stretches of elevated or suppressed access propensity.  This is the main
    long-range sequential signal in the synthetic traces: a model that only
    sees fixed-window aggregates blurs regime boundaries, whereas a recurrent
    state can track them.
    """

    stay_engaged: float
    stay_dormant: float
    engaged_bonus: float
    start_engaged_probability: float = 0.5

    @classmethod
    def sample(cls, rng: np.random.Generator, engaged_bonus_scale: float = 1.6) -> "RegimeChain":
        return cls(
            stay_engaged=rng.uniform(0.90, 0.99),
            stay_dormant=rng.uniform(0.90, 0.99),
            engaged_bonus=rng.gamma(2.0, engaged_bonus_scale / 2.0),
            start_engaged_probability=rng.uniform(0.3, 0.7),
        )

    def simulate(self, rng: np.random.Generator, length: int) -> np.ndarray:
        """Return a 0/1 array of regime indicators (1 = engaged)."""
        if length <= 0:
            return np.zeros(0, dtype=np.int8)
        states = np.empty(length, dtype=np.int8)
        state = 1 if rng.random() < self.start_engaged_probability else 0
        for i in range(length):
            states[i] = state
            stay = self.stay_engaged if state == 1 else self.stay_dormant
            if rng.random() >= stay:
                state = 1 - state
        return states


def heavy_tailed_mean_rate(rng: np.random.Generator, mean: float, shape: float = 1.3) -> float:
    """Sample a per-user mean event rate from a Gamma with the given mean.

    A shape below ~1.5 yields the long right tail visible in the paper's
    Figure 5 (a few users with an order of magnitude more sessions than the
    median).
    """
    if mean <= 0 or shape <= 0:
        raise ValueError("mean and shape must be positive")
    return float(rng.gamma(shape, mean / shape))


def sample_sessions_for_day(
    rng: np.random.Generator,
    day_start: int,
    expected_sessions: float,
    profile: DiurnalProfile,
    min_gap_seconds: int = 300,
) -> np.ndarray:
    """Sample session-start timestamps within one day.

    The number of sessions is Poisson distributed; start hours follow the
    user's diurnal profile, and minutes/seconds are uniform.  Sessions closer
    together than ``min_gap_seconds`` are merged (the application would still
    be running), matching the paper's fixed-length session definition.
    """
    count = rng.poisson(max(expected_sessions, 0.0))
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    hours = profile.sample_hours(rng, count)
    offsets = hours * SECONDS_PER_HOUR + rng.integers(0, SECONDS_PER_HOUR, size=count)
    timestamps = np.sort(day_start + offsets.astype(np.int64))
    if timestamps.size > 1:
        keep = np.concatenate([[True], np.diff(timestamps) >= min_gap_seconds])
        timestamps = timestamps[keep]
    return timestamps

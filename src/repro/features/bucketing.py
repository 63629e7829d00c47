"""Log-bucketing of elapsed-time values (Section 5.2 / 6.1 of the paper).

Elapsed-time quantities (time since last access, time between sessions) are
heavily skewed — some sessions are seconds apart, others days apart — so the
paper buckets them with ``T(t) = floor(50/15 · ln(t))``, chosen so that the
largest possible gap (30 days ≈ e^14.76 seconds) lands just inside 50
buckets.  The same transform is applied to the ``Δt`` inputs of the RNN.
"""

from __future__ import annotations

import numpy as np

__all__ = ["N_BUCKETS", "log_bucket", "one_hot_buckets", "bucket_scale"]

#: Number of buckets used by the paper.
N_BUCKETS = 50

#: ln(30 days in seconds) — the largest elapsed time representable in 30-day logs.
_LN_MAX = float(np.log(30 * 24 * 3600))


def bucket_scale(n_buckets: int = N_BUCKETS) -> float:
    """Multiplier applied to ``ln(t)``; the paper uses 50/15."""
    if n_buckets <= 0:
        raise ValueError("n_buckets must be positive")
    return n_buckets / 15.0


def log_bucket(elapsed_seconds, n_buckets: int = N_BUCKETS) -> np.ndarray:
    """Map elapsed seconds to integer buckets ``floor(scale · ln(t))``.

    Values of zero or less (including the ``Δt_1 = 0`` convention for the
    first session of a sequence) map to bucket 0; values beyond the 30-day
    range are clipped into the last bucket.  Non-finite values (used to mean
    "no previous event") also map to the last bucket, i.e. "as long ago as
    representable".
    """
    elapsed = np.asarray(elapsed_seconds, dtype=np.float64)
    # One whole-array pass, as cheap for a single gap as for a wave of them:
    # non-finite gaps become +inf, everything under a second becomes 1
    # (ln 1 = 0, bucket 0), and the cap takes +inf with the >30-day gaps.
    elapsed = np.where(np.isfinite(elapsed), elapsed, np.inf)
    scaled = np.floor(bucket_scale(n_buckets) * np.log(np.maximum(elapsed, 1.0)))
    buckets = np.minimum(scaled, n_buckets - 1).astype(np.int64)
    return int(buckets) if elapsed.ndim == 0 else buckets


def one_hot_buckets(elapsed_seconds, n_buckets: int = N_BUCKETS) -> np.ndarray:
    """One-hot encode the log buckets (used by logistic regression, Sec. 5.3)."""
    buckets = np.atleast_1d(log_bucket(elapsed_seconds, n_buckets=n_buckets))
    encoded = np.zeros((buckets.size, n_buckets), dtype=np.float64)
    encoded[np.arange(buckets.size), buckets] = 1.0
    return encoded

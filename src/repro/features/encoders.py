"""Categorical and time encoders (Section 5.2).

* :class:`OneHotEncoder` — standard one-hot encoding of small categorical
  context variables.
* :class:`HashingEncoder` — for high-cardinality variables (tab names,
  application identifiers) the paper first hashes the value and takes the
  remainder modulo 97, then one-hot encodes the result.
* :func:`encode_hour_of_day` / :func:`encode_day_of_week` — one-hot encodings
  of the time-based features derived from the raw timestamp.
"""

from __future__ import annotations

import numpy as np

from ..data.schema import day_of_week, hour_of_day

__all__ = [
    "OneHotEncoder",
    "HashingEncoder",
    "encode_hour_of_day",
    "encode_day_of_week",
    "HASH_MODULO",
]

#: Modulus used by the paper when hashing high-cardinality categorical values.
HASH_MODULO = 97


def _one_hot(columns: np.ndarray, width: int) -> np.ndarray:
    encoded = np.zeros((columns.size, width), dtype=np.float64)
    encoded[np.arange(columns.size), columns] = 1.0
    return encoded


class OneHotEncoder:
    """One-hot encoder over a fixed number of integer categories.

    Values outside ``[0, cardinality)`` raise unless ``clip=True``, in which
    case they are mapped into range with a modulo (useful when a categorical
    code space grows after the encoder was fit).
    """

    def __init__(self, cardinality: int, *, clip: bool = False) -> None:
        if cardinality <= 0:
            raise ValueError("cardinality must be positive")
        self.cardinality = int(cardinality)
        self.clip = clip

    @property
    def width(self) -> int:
        return self.cardinality

    def hot_column(self, values) -> np.ndarray:
        """Validated flat ``int64`` index of each value's hot column.

        The range check (or the ``clip`` modulo) lives here, so a caller that
        scatters the ones itself at a column offset keeps it.
        """
        values = np.asarray(values, dtype=np.int64).reshape(-1)
        if self.clip:
            return values % self.cardinality
        # One reduce checks both ends of the range: through the unsigned view
        # a negative code reads as at least 2**63.
        if values.size and values.view(np.uint64).max() >= self.cardinality:
            raise ValueError(
                f"values out of range [0, {self.cardinality}): min={values.min()}, max={values.max()}"
            )
        return values

    def encode(self, values) -> np.ndarray:
        return _one_hot(self.hot_column(values), self.cardinality)

    def feature_names(self, prefix: str) -> list[str]:
        return [f"{prefix}={i}" for i in range(self.cardinality)]


class HashingEncoder:
    """Hash-then-one-hot encoder for high-cardinality categorical values.

    Integer codes are mixed with a multiplicative hash before the modulo so
    that consecutive codes do not collide into consecutive buckets; string
    values are hashed with a stable FNV-1a.
    """

    _FNV_OFFSET = np.uint64(14695981039346656037)
    _FNV_PRIME = np.uint64(1099511628211)
    _MIX = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, modulo: int = HASH_MODULO) -> None:
        if modulo <= 1:
            raise ValueError("modulo must be greater than 1")
        self.modulo = int(modulo)

    @property
    def width(self) -> int:
        return self.modulo

    def bucket(self, values) -> np.ndarray:
        """Map values (ints or strings) to hash buckets in ``[0, modulo)``."""
        values = np.asarray(values)
        if values.dtype.kind in ("i", "u", "f"):
            codes = values.astype(np.uint64).reshape(-1)
            with np.errstate(over="ignore"):
                mixed = codes * self._MIX
                mixed ^= mixed >> np.uint64(29)
                mixed = mixed * self._FNV_PRIME
            return (mixed % np.uint64(self.modulo)).astype(np.int64)
        buckets = np.empty(values.size, dtype=np.int64)
        for i, value in enumerate(values.reshape(-1)):
            h = self._FNV_OFFSET
            for byte in str(value).encode("utf-8"):
                h ^= np.uint64(byte)
                with np.errstate(over="ignore"):
                    h = h * self._FNV_PRIME
            buckets[i] = int(h % np.uint64(self.modulo))
        return buckets

    #: The hash bucket *is* the hot column (same name as on :class:`OneHotEncoder`).
    hot_column = bucket

    def encode(self, values) -> np.ndarray:
        return _one_hot(self.bucket(values), self.modulo)

    def feature_names(self, prefix: str) -> list[str]:
        return [f"{prefix}#%02d" % i for i in range(self.modulo)]


def encode_hour_of_day(timestamps, one_hot: bool = True) -> np.ndarray:
    """Hour of day (0-23) from timestamps, one-hot or ordinal column."""
    hours = np.asarray(hour_of_day(np.asarray(timestamps)), dtype=np.int64).reshape(-1)
    if not one_hot:
        return hours.astype(np.float64).reshape(-1, 1)
    return OneHotEncoder(24).encode(hours)


def encode_day_of_week(timestamps, one_hot: bool = True) -> np.ndarray:
    """Day of week (0-6) from timestamps, one-hot or ordinal column."""
    days = np.asarray(day_of_week(np.asarray(timestamps)), dtype=np.int64).reshape(-1)
    if not one_hot:
        return days.astype(np.float64).reshape(-1, 1)
    return OneHotEncoder(7).encode(days)

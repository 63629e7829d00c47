"""Quantile binning of features for histogram-based tree learning.

XGBoost-style gradient boosting (Section 5.4) does not need exact feature
values — only an ordering — so features are discretised into at most
``max_bins`` quantile bins once, and all split finding then works on compact
integer codes.  This both matches modern GBDT implementations and keeps the
pure-NumPy training loop fast.
"""

from __future__ import annotations

import numpy as np

__all__ = ["QuantileBinner"]


class QuantileBinner:
    """Per-feature quantile discretiser producing uint8/uint16 bin codes."""

    def __init__(self, max_bins: int = 64) -> None:
        if not 2 <= max_bins <= 256:
            raise ValueError("max_bins must be in [2, 256]")
        self.max_bins = max_bins
        self.bin_edges_: list[np.ndarray] | None = None

    @property
    def n_features(self) -> int:
        if self.bin_edges_ is None:
            raise RuntimeError("binner is not fitted")
        return len(self.bin_edges_)

    def fit(self, X: np.ndarray) -> "QuantileBinner":
        """Learn per-feature bin edges from the training matrix."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] == 0:
            raise ValueError("cannot fit binner on an empty matrix")
        edges: list[np.ndarray] = []
        quantiles = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
        for column in range(X.shape[1]):
            values = X[:, column]
            finite = values[np.isfinite(values)]
            if finite.size == 0:
                edges.append(np.zeros(0))
                continue
            candidate = np.unique(np.quantile(finite, quantiles))
            # Drop edges that would create empty bins (identical quantiles).
            edges.append(candidate)
        self.bin_edges_ = edges
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map a raw feature matrix to integer bin codes."""
        if self.bin_edges_ is None:
            raise RuntimeError("binner is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.bin_edges_):
            raise ValueError("X has the wrong shape for this binner")
        binned = np.zeros(X.shape, dtype=np.uint16)
        for column, edges in enumerate(self.bin_edges_):
            if edges.size == 0:
                continue
            values = X[:, column]
            # Non-finite values (e.g. "no previous access") sort above every
            # edge, landing them in the top bin — a consistent, learnable slot.
            values = np.where(np.isfinite(values), values, np.inf)
            binned[:, column] = np.searchsorted(edges, values, side="left")
        return binned

    def split_threshold(self, column: int | np.ndarray, code: int | np.ndarray) -> float | np.ndarray:
        """The raw value ``t`` with ``transform`` code ``<= code`` exactly when ``x <= t``.

        The code counts the (sorted, distinct) edges below a value, so it is
        at most ``code`` exactly when the value is at most ``edges[code]``;
        past the last edge every value qualifies, and ``t`` is ``+inf``
        (non-finite inputs must be mapped to ``+inf`` first, as here).
        Elementwise over arrays of columns and codes.
        """
        if self.bin_edges_ is None:
            raise RuntimeError("binner is not fitted")
        sizes = np.array([edges.size for edges in self.bin_edges_])
        # Each column's edges, then the +inf past its last edge.
        table = np.concatenate([part for edges in self.bin_edges_ for part in (edges, [np.inf])])
        start = np.cumsum(sizes + 1) - sizes - 1
        return table[start[column] + np.minimum(code, sizes[column])]

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        return self.fit(X).transform(X)

    def n_bins(self, column: int) -> int:
        """Number of distinct bins produced for a feature column."""
        if self.bin_edges_ is None:
            raise RuntimeError("binner is not fitted")
        return int(self.bin_edges_[column].size) + 1

"""The recurrent access-prediction network (Section 6 / Figure 3).

The model is split into the two functions the paper requires for correct
handling of the update lag δ:

* ``RNN_update`` — a recurrent cell (GRU by default; LSTM and tanh are
  available for the Section 6.2 ablation) that consumes
  ``[f_i ; T(Δt_i) ; A_i]`` at the *end* of session ``i`` and produces the
  next hidden state ``h_i``.
* ``RNN_predict`` — a feed-forward head that consumes the latest *usable*
  hidden state ``h_k`` (where ``t_k < t_i − δ``) together with the current
  prediction inputs ``[f_i ; T(t_i − t_k)]`` and outputs ``P(A_i)``.  The
  hidden state is modulated by a latent cross
  ``h_k ∘ (1 + L([f_i ; T(t_i − t_k)]))`` (Beutel et al., 2018) before the
  MLP, which Section 6.2 reports as a meaningful improvement.

For the timeshifted task the prediction input is just ``[T(start_d − t_k)]``
— no session context exists at prediction time (Equation 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.rnn import make_cell

__all__ = ["RNNNetworkConfig", "RNNPrecomputeNetwork", "PredictionSpec", "build_prediction_spec"]


@dataclass(frozen=True)
class RNNNetworkConfig:
    """Architecture hyper-parameters (paper defaults: GRU, 128 hidden, 128-wide MLP)."""

    feature_dim: int = 0
    hidden_size: int = 48
    mlp_hidden: int = 64
    cell: str = "gru"
    dropout: float = 0.2
    latent_cross: bool = True
    n_delta_buckets: int = 50
    predict_uses_context: bool = True

    def __post_init__(self) -> None:
        if self.hidden_size <= 0 or self.mlp_hidden <= 0:
            raise ValueError("hidden_size and mlp_hidden must be positive")
        if self.feature_dim < 0:
            raise ValueError("feature_dim must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")

    @property
    def update_input_dim(self) -> int:
        """Width of the ``RNN_update`` input ``[f_i ; T(Δt_i) ; A_i]``."""
        return self.feature_dim + self.n_delta_buckets + 1

    @property
    def predict_input_dim(self) -> int:
        """Width of the ``RNN_predict`` input ``[f_i ; T(t_i − t_k)]`` (or just the gap)."""
        context = self.feature_dim if self.predict_uses_context else 0
        return context + self.n_delta_buckets


class RNNPrecomputeNetwork(nn.Module):
    """GRU/LSTM/tanh hidden-state updater plus latent-cross MLP predictor."""

    def __init__(self, config: RNNNetworkConfig, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        self.cell = make_cell(config.cell, config.update_input_dim, config.hidden_size, rng=rng)
        predict_in = config.predict_input_dim
        if config.latent_cross:
            self.latent = nn.Linear(predict_in, config.hidden_size, rng=rng)
        else:
            self.latent = None
        self.w1 = nn.Linear(predict_in + config.hidden_size, config.mlp_hidden, rng=rng)
        self.w2 = nn.Linear(config.mlp_hidden, 1, rng=rng)
        self.dropout = nn.Dropout(config.dropout, rng=rng)

    # ------------------------------------------------------------------
    @property
    def state_size(self) -> int:
        """Width of the persisted per-user hidden state (what serving stores)."""
        return self.cell.state_size

    def initial_state(self, batch_size: int = 1) -> nn.Tensor:
        return self.cell.initial_state(batch_size)

    # ------------------------------------------------------------------
    def update_hidden(self, state: nn.Tensor, update_inputs: nn.Tensor) -> nn.Tensor:
        """One ``RNN_update`` step: consume ``[f_i ; T(Δt_i) ; A_i]`` at session end."""
        return self.cell(update_inputs, state)

    def _hidden_part(self, state: nn.Tensor) -> nn.Tensor:
        return self.cell.hidden_slice(state)

    def predict_logits(self, state: nn.Tensor, predict_inputs: nn.Tensor) -> nn.Tensor:
        """``RNN_predict``: logits of ``P(A)`` from ``h_k`` and the prediction inputs."""
        hidden = self._hidden_part(state)
        if self.latent is not None:
            hidden = hidden * (self.latent(predict_inputs) + 1.0)
        mlp_input = nn.concat([hidden, predict_inputs], axis=1)
        activated = self.dropout(self.w1(mlp_input)).relu()
        return self.w2(activated)

    def predict_proba(self, state: nn.Tensor, predict_inputs: nn.Tensor) -> nn.Tensor:
        return self.predict_logits(state, predict_inputs).sigmoid()

    # ------------------------------------------------------------------
    # Batched eval-time inference (plain NumPy; the serving hot path).
    # ------------------------------------------------------------------
    def update_hidden_batch(self, states: np.ndarray, update_inputs: np.ndarray) -> np.ndarray:
        """Vectorized ``RNN_update`` over ``[B, state]`` / ``[B, input]`` stacks.

        Same arithmetic as :meth:`update_hidden` (to floating-point identity)
        but without autograd bookkeeping; serving uses it to advance many
        users' hidden states with a single set of matmuls.
        """
        states = np.asarray(states, dtype=np.float64)
        update_inputs = np.asarray(update_inputs, dtype=np.float64)
        return self.cell.inference_step(update_inputs, states)

    def predict_logits_batch(self, states: np.ndarray, predict_inputs: np.ndarray) -> np.ndarray:
        """Vectorized eval-time ``RNN_predict`` logits over stacked states.

        Dropout is an identity at evaluation; serving always runs frozen
        networks, so this path refuses to emulate training-mode stochasticity.
        """
        if self.training and self.config.dropout > 0.0:
            raise RuntimeError("batched inference requires the network to be in eval() mode")
        states = np.asarray(states, dtype=np.float64)
        predict_inputs = np.asarray(predict_inputs, dtype=np.float64)
        hidden = self.cell.hidden_slice(states)
        if self.latent is not None:
            hidden = hidden * (
                nn.inference.linear(predict_inputs, self.latent.weight.data, self.latent.bias.data) + 1.0
            )
        mlp_input = np.concatenate([hidden, predict_inputs], axis=1)
        activated = nn.inference.relu(
            nn.inference.linear(mlp_input, self.w1.weight.data, self.w1.bias.data)
        )
        return nn.inference.linear(activated, self.w2.weight.data, self.w2.bias.data)

    def predict_proba_batch(self, states: np.ndarray, predict_inputs: np.ndarray) -> np.ndarray:
        """Vectorized eval-time ``P(A)`` as a flat ``[B]`` probability array."""
        return nn.inference.sigmoid(self.predict_logits_batch(states, predict_inputs)).reshape(-1)

    # ------------------------------------------------------------------
    # Input assembly helpers (plain NumPy; no gradients flow through these).
    # ------------------------------------------------------------------
    def _assemble_inputs(self, features: np.ndarray | None, buckets: np.ndarray, tail: int) -> np.ndarray:
        """``[features ; T(bucket) ; 0 × tail]`` rows.

        One zero matrix, the feature block written by slice and the one-hot
        ``T(·)`` inputs of Section 6.1 scattered behind it — the same few
        calls whether one row or a whole wave is assembled.
        """
        config = self.config
        buckets = np.asarray(buckets, dtype=np.int64).reshape(-1)
        n = buckets.size
        # One reduce checks both ends of the range: through the unsigned view
        # a negative bucket reads as at least 2**63.
        if n and buckets.view(np.uint64).max() >= config.n_delta_buckets:
            raise ValueError(f"delta buckets out of range [0, {config.n_delta_buckets})")
        offset = 0
        if features is not None:
            features = np.asarray(features, dtype=np.float64)
            if features.shape[0] != n:
                raise ValueError("misaligned input arrays")
            offset = features.shape[1]
            if offset != config.feature_dim:
                raise ValueError(f"feature width {offset} does not match configured {config.feature_dim}")
        width = offset + config.n_delta_buckets + tail
        inputs = np.zeros((n, width))
        if offset:
            inputs[:, :offset] = features
        # Row r's hot column is flat position r·width + offset + bucket.
        inputs.reshape(-1)[np.arange(offset, n * width, width) + buckets] = 1.0
        return inputs

    def build_update_inputs(self, features: np.ndarray, accesses: np.ndarray, delta_buckets: np.ndarray) -> np.ndarray:
        """Assemble ``[f_i ; T(Δt_i) ; A_i]`` rows for a whole sequence."""
        inputs = self._assemble_inputs(features, delta_buckets, tail=1)
        accesses = np.asarray(accesses, dtype=np.float64).reshape(-1)
        if accesses.shape[0] != inputs.shape[0]:
            raise ValueError("misaligned input arrays")
        inputs[:, -1] = accesses
        return inputs

    def build_predict_inputs(self, features: np.ndarray | None, gap_buckets: np.ndarray) -> np.ndarray:
        """Assemble ``[f_i ; T(t_i − t_k)]`` rows (or just the gap for timeshift)."""
        if not self.config.predict_uses_context:
            features = None
        elif features is None:
            raise ValueError("this network expects context features at prediction time")
        return self._assemble_inputs(features, gap_buckets, tail=0)


@dataclass
class PredictionSpec:
    """Everything needed to score a set of predictions against one user's sequence.

    ``k_index[j]`` is the index of the latest *usable* hidden state for
    prediction ``j`` (0 means "no usable history", i.e. ``h_0 = 0``);
    ``gap_buckets[j]`` is ``T(t_j − t_k)`` (bucket 0 when ``k = 0``);
    ``features`` holds the current-session context rows or ``None`` for the
    timeshifted task; ``labels`` are the ground-truth access flags.
    """

    k_index: np.ndarray
    gap_buckets: np.ndarray
    features: np.ndarray | None
    labels: np.ndarray
    prediction_times: np.ndarray

    def __post_init__(self) -> None:
        n = self.k_index.shape[0]
        aligned = (
            self.gap_buckets.shape[0] == n
            and self.labels.shape[0] == n
            and self.prediction_times.shape[0] == n
            and (self.features is None or self.features.shape[0] == n)
        )
        if not aligned:
            raise ValueError("misaligned prediction spec arrays")

    def __len__(self) -> int:
        return int(self.k_index.shape[0])


def build_prediction_spec(
    sequence_timestamps: np.ndarray,
    prediction_times: np.ndarray,
    labels: np.ndarray,
    features: np.ndarray | None,
    update_lag: int,
    n_delta_buckets: int,
) -> PredictionSpec:
    """Compute ``k`` indices and gap buckets for a set of predictions.

    Implements the paper's rule: ``k`` is the largest index such that
    ``t_k < t − δ``; if none exists, ``k = 0`` and the gap is treated as 0.
    """
    from ..features.bucketing import log_bucket

    sequence_timestamps = np.asarray(sequence_timestamps, dtype=np.int64)
    prediction_times = np.asarray(prediction_times, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if update_lag < 0:
        raise ValueError("update_lag must be non-negative")

    k_index = np.searchsorted(sequence_timestamps, prediction_times - update_lag, side="left")
    gaps = np.zeros(prediction_times.shape[0], dtype=np.float64)
    has_history = k_index > 0
    if has_history.any():
        gaps[has_history] = prediction_times[has_history] - sequence_timestamps[k_index[has_history] - 1]
    gap_buckets = log_bucket(gaps, n_buckets=n_delta_buckets)
    return PredictionSpec(
        k_index=k_index.astype(np.int64),
        gap_buckets=gap_buckets,
        features=None if features is None else np.asarray(features, dtype=np.float64),
        labels=labels,
        prediction_times=prediction_times,
    )

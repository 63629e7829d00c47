"""Training and inference loops for the recurrent model (Section 7).

The paper trains with Adam (lr 1e-3), minibatches of 10 users, loss averaged
over every prediction/label pair inside the minibatch's loss window, and one
epoch for the large datasets versus eight for MPU.  Two minibatch evaluation
strategies are provided:

* ``"padded"`` — sequences in a minibatch are padded to a common length and
  stepped together with masking.  This is the vectorisation-friendly strategy
  (NumPy's analogue of batched tensor ops).
* ``"per_user"`` — each user's sequence is evaluated independently and
  gradients are accumulated before the optimiser step, mirroring the paper's
  custom thread-per-user parallelism (Section 7.1).  The training-throughput
  benchmark compares the two.

Either way a minibatch's recurrence is one autograd node,
:func:`repro.nn.rnn.recurrent_sequence`: its forward steps the cell over
plain arrays and its backward walks the steps in reverse through the cell's
hand-written ``step_backward``, so the graph a loss reaches holds a constant
number of nodes whatever the sequence length.

The trainer records a training curve of (sessions processed, minibatch log
loss) pairs, which reproduces Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import nn
from ..features.sequence import UserSequence
from ..metrics import log_loss
from ..nn import functional as F
from ..nn.rnn import recurrent_sequence
from .rnn import PredictionSpec, RNNPrecomputeNetwork

__all__ = ["RNNTrainerConfig", "TrainingCurvePoint", "RNNTrainer"]


@dataclass(frozen=True)
class RNNTrainerConfig:
    """Optimisation hyper-parameters for the RNN trainer."""

    epochs: int = 1
    batch_users: int = 10
    learning_rate: float = 1e-3
    grad_clip: float = 5.0
    strategy: str = "padded"
    sort_by_length: bool = True
    shuffle: bool = True
    early_stopping_patience: int | None = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs <= 0 or self.batch_users <= 0:
            raise ValueError("epochs and batch_users must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.strategy not in ("padded", "per_user"):
            raise ValueError("strategy must be 'padded' or 'per_user'")


@dataclass(frozen=True)
class TrainingCurvePoint:
    """One minibatch on the Figure 4 training curve."""

    sessions_processed: int
    loss: float
    epoch: int


class RNNTrainer:
    """Runs minibatch training and batched inference for the RNN network."""

    def __init__(self, config: RNNTrainerConfig | None = None, **overrides) -> None:
        if config is None:
            config = RNNTrainerConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.curve: list[TrainingCurvePoint] = []
        self.validation_losses: list[float] = []

    # ------------------------------------------------------------------
    # Forward pass over a batch of users
    # ------------------------------------------------------------------
    def _forward_batch(
        self,
        network: RNNPrecomputeNetwork,
        sequences: list[UserSequence],
        specs: list[PredictionSpec],
    ) -> tuple[nn.Tensor, np.ndarray, list[int]] | None:
        """Run update+predict for a batch; returns (logits, labels, per-user counts).

        ``None`` when no spec in the batch has a prediction: nothing to score,
        so the recurrence is not stepped either.
        """
        if not any(len(spec) for spec in specs):
            return None
        batch_size = len(sequences)
        max_len = max((len(s) for s in sequences), default=0)
        update_dim = network.config.update_input_dim
        update_inputs = np.zeros((batch_size, max_len, update_dim), dtype=np.float64)
        valid = np.zeros((batch_size, max_len, 1), dtype=np.float64)
        for b, sequence in enumerate(sequences):
            n = len(sequence)
            if n == 0:
                continue
            update_inputs[b, :n, :] = network.build_update_inputs(
                sequence.features, sequence.accesses, sequence.delta_buckets
            )
            valid[b, :n, 0] = 1.0

        stacked = recurrent_sequence(network.cell, update_inputs, valid)  # (max_len + 1, batch, state)

        k_indices: list[np.ndarray] = []
        batch_indices: list[np.ndarray] = []
        predict_inputs: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        counts: list[int] = []
        for b, spec in enumerate(specs):
            counts.append(len(spec))
            if len(spec) == 0:
                continue
            k_indices.append(spec.k_index)
            batch_indices.append(np.full(len(spec), b, dtype=np.int64))
            predict_inputs.append(network.build_predict_inputs(spec.features, spec.gap_buckets))
            labels.append(spec.labels)
        k_all = np.concatenate(k_indices)
        b_all = np.concatenate(batch_indices)
        selected = stacked[(k_all, b_all)]
        logits = network.predict_logits(selected, nn.Tensor(np.concatenate(predict_inputs, axis=0)))
        return logits.reshape(-1), np.concatenate(labels), counts

    # ------------------------------------------------------------------
    def _make_batches(self, order: np.ndarray, lengths: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
        cfg = self.config
        if cfg.sort_by_length:
            order = order[np.argsort(lengths[order], kind="stable")]
        batches = [order[i : i + cfg.batch_users] for i in range(0, len(order), cfg.batch_users)]
        if cfg.shuffle:
            rng.shuffle(batches)
        return batches

    # ------------------------------------------------------------------
    def train(
        self,
        network: RNNPrecomputeNetwork,
        sequences: list[UserSequence],
        specs: list[PredictionSpec],
        validation: tuple[list[UserSequence], list[PredictionSpec]] | None = None,
    ) -> list[TrainingCurvePoint]:
        """Train in place; returns the (Figure 4) training curve.

        When ``validation`` sequences/specs are given, validation log loss is
        evaluated after every epoch and the parameters from the best epoch are
        restored at the end (early stopping after
        ``early_stopping_patience`` epochs without improvement).  The paper
        does not need this at production scale, but with small synthetic
        populations the RNN can otherwise overfit its training users.
        """
        if len(sequences) != len(specs):
            raise ValueError("sequences and specs must align")
        if not sequences:
            raise ValueError("no training sequences provided")
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        optimizer = nn.Adam(network.parameters(), lr=cfg.learning_rate)
        lengths = np.asarray([len(s) for s in sequences])
        self.curve = []
        self.validation_losses: list[float] = []
        sessions_processed = 0
        best_loss = np.inf
        best_state: dict[str, np.ndarray] | None = None
        epochs_since_best = 0

        network.train()
        for epoch in range(cfg.epochs):
            order = np.arange(len(sequences))
            batches = self._make_batches(order, lengths, rng)
            for batch in batches:
                batch_sequences = [sequences[i] for i in batch]
                batch_specs = [specs[i] for i in batch]
                optimizer.zero_grad()
                if cfg.strategy == "padded":
                    forward = self._forward_batch(network, batch_sequences, batch_specs)
                    if forward is None:
                        continue
                    logits, labels, _ = forward
                    loss = F.binary_cross_entropy_with_logits(logits, labels)
                    loss.backward()
                    batch_loss = loss.item()
                else:
                    batch_loss = self._per_user_backward(network, batch_sequences, batch_specs)
                    if batch_loss is None:
                        continue
                if cfg.grad_clip > 0:
                    nn.clip_grad_norm_(network.parameters(), cfg.grad_clip)
                optimizer.step()
                sessions_processed += int(sum(len(s) for s in batch_sequences))
                self.curve.append(
                    TrainingCurvePoint(sessions_processed=sessions_processed, loss=float(batch_loss), epoch=epoch)
                )
            if validation is not None:
                validation_loss = self.evaluate_loss(network, validation[0], validation[1])
                self.validation_losses.append(validation_loss)
                network.train()
                if validation_loss < best_loss - 1e-5:
                    best_loss = validation_loss
                    best_state = network.state_dict()
                    epochs_since_best = 0
                else:
                    epochs_since_best += 1
                    if (
                        cfg.early_stopping_patience is not None
                        and epochs_since_best >= cfg.early_stopping_patience
                    ):
                        break
        if best_state is not None:
            network.load_state_dict(best_state)
        network.eval()
        return self.curve

    # ------------------------------------------------------------------
    def evaluate_loss(
        self,
        network: RNNPrecomputeNetwork,
        sequences: list[UserSequence],
        specs: list[PredictionSpec],
    ) -> float:
        """Mean log loss over all predictions in the given sequences/specs."""
        probabilities = np.concatenate(self.predict(network, sequences, specs)) if sequences else np.zeros(0)
        labels = np.concatenate([spec.labels for spec in specs]) if specs else np.zeros(0)
        if labels.size == 0:
            return float("nan")
        return log_loss(labels, probabilities)

    def _per_user_backward(
        self,
        network: RNNPrecomputeNetwork,
        sequences: list[UserSequence],
        specs: list[PredictionSpec],
    ) -> float | None:
        """Accumulate gradients user by user (Section 7.1's parallelism model)."""
        total_predictions = int(sum(len(spec) for spec in specs))
        if total_predictions == 0:
            return None
        weighted_loss = 0.0
        for sequence, spec in zip(sequences, specs):
            if len(spec) == 0:
                continue
            logits, labels, _ = self._forward_batch(network, [sequence], [spec])
            user_loss = F.binary_cross_entropy_with_logits(logits, labels)
            weight = len(spec) / total_predictions
            (user_loss * weight).backward()
            weighted_loss += user_loss.item() * weight
        return weighted_loss

    # ------------------------------------------------------------------
    def predict(
        self,
        network: RNNPrecomputeNetwork,
        sequences: list[UserSequence],
        specs: list[PredictionSpec],
        batch_users: int | None = None,
    ) -> list[np.ndarray]:
        """Per-user probability arrays, in the order of the input sequences."""
        if len(sequences) != len(specs):
            raise ValueError("sequences and specs must align")
        batch_users = batch_users or self.config.batch_users
        was_training = network.training
        network.eval()
        outputs: list[np.ndarray] = [np.zeros(0)] * len(sequences)
        with nn.no_grad():
            for start in range(0, len(sequences), batch_users):
                indices = list(range(start, min(start + batch_users, len(sequences))))
                batch_sequences = [sequences[i] for i in indices]
                batch_specs = [specs[i] for i in indices]
                forward = self._forward_batch(network, batch_sequences, batch_specs)
                if forward is None:
                    for i in indices:
                        outputs[i] = np.zeros(0)
                    continue
                logits, _, counts = forward
                probabilities = 1.0 / (1.0 + np.exp(-logits.numpy()))
                cursor = 0
                for position, i in enumerate(indices):
                    count = counts[position]
                    outputs[i] = probabilities[cursor : cursor + count]
                    cursor += count
        if was_training:
            network.train()
        return outputs

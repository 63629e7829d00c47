"""End-to-end RNN access-probability model (Sections 6-7).

:class:`RNNModel` ties together the sequence feature builder, the recurrent
network and the trainer behind the common
:class:`~repro.models.base.AccessProbabilityModel` interface, implementing
the paper's full training recipe:

* per-session feature vectors only (no aggregation feature engineering);
* ``Δt`` inputs bucketed with the log transform of Section 5.2;
* hidden updates delayed by the lag ``δ = session length + ε`` so a
  prediction never uses a hidden state that could not exist yet in
  production (Section 6.1, Figure 2);
* loss restricted to the most recent ``rnn_loss_days`` (21 of 30) days
  (Section 6.3);
* Adam, minibatches of 10 users, optional history truncation (Section 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.schema import Dataset
from ..data.tasks import ExampleTable
from ..features.sequence import SequenceBuilder, UserSequence
from .base import AccessProbabilityModel, TaskSpec
from .rnn import PredictionSpec, RNNNetworkConfig, RNNPrecomputeNetwork, build_prediction_spec
from .trainer import RNNTrainer, RNNTrainerConfig, TrainingCurvePoint

__all__ = ["RNNModelConfig", "RNNModel"]


@dataclass(frozen=True)
class RNNModelConfig:
    """Hyper-parameters for the full RNN model.

    The paper uses a 128-dimensional hidden state and a 128-unit MLP; the
    defaults here are smaller so the pure-NumPy implementation trains in
    seconds at test scale, and benchmarks can raise them.
    """

    hidden_size: int = 48
    mlp_hidden: int = 64
    cell: str = "gru"
    dropout: float = 0.2
    latent_cross: bool = True
    epochs: int | None = None
    target_steps: int = 500
    max_epochs: int = 40
    batch_users: int = 10
    learning_rate: float = 2e-3
    grad_clip: float = 5.0
    strategy: str = "padded"
    n_delta_buckets: int = 50
    truncate_sessions: int = 10_000
    update_lag: int | None = None
    extra_lag: int = 60
    validation_fraction: float = 0.1
    early_stopping_patience: int | None = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.truncate_sessions <= 0:
            raise ValueError("truncate_sessions must be positive")
        if self.extra_lag < 0:
            raise ValueError("extra_lag must be non-negative")
        if self.epochs is not None and self.epochs <= 0:
            raise ValueError("epochs must be positive when given")
        if self.target_steps <= 0 or self.max_epochs <= 0:
            raise ValueError("target_steps and max_epochs must be positive")

    def resolve_batch_users(self, n_train_users: int) -> int:
        """Effective minibatch size.

        The paper uses 10 users per minibatch on million-user datasets and
        falls back to per-user processing for the tiny MPU population
        (Section 7.1).  With very few training users a batch of 10 would give
        only a handful of optimiser steps per epoch, so the batch shrinks so
        that an epoch always contains a reasonable number of updates.
        """
        if n_train_users >= 8 * self.batch_users:
            return self.batch_users
        return int(np.clip(n_train_users // 8, 2, self.batch_users))

    def resolve_epochs(self, n_train_users: int) -> int:
        """Number of epochs to run.

        The paper trains one epoch on million-user datasets and eight on the
        small MPU dataset — what matters is the number of optimiser steps,
        not passes over the data.  When ``epochs`` is not given explicitly we
        aim for roughly ``target_steps`` minibatch updates, capped at
        ``max_epochs``.
        """
        if self.epochs is not None:
            return self.epochs
        batch_users = self.resolve_batch_users(n_train_users)
        batches_per_epoch = max(1, int(np.ceil(n_train_users / batch_users)))
        return int(np.clip(np.ceil(self.target_steps / batches_per_epoch), 1, self.max_epochs))


class RNNModel(AccessProbabilityModel):
    """Recurrent access-probability model (the paper's contribution)."""

    name = "rnn"

    def __init__(self, config: RNNModelConfig | None = None, **overrides) -> None:
        if config is None:
            config = RNNModelConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.builder: SequenceBuilder | None = None
        self.network: RNNPrecomputeNetwork | None = None
        self.trainer: RNNTrainer | None = None
        self.training_curve_: list[TrainingCurvePoint] = []
        self._task: TaskSpec | None = None
        self._update_lag: int | None = None

    # ------------------------------------------------------------------
    def _resolve_update_lag(self, dataset: Dataset) -> int:
        if self.config.update_lag is not None:
            return self.config.update_lag
        # δ = session length + ε: the access flag is only known once the
        # session window closes, plus a small processing delay (Section 6.1).
        return dataset.session_length + self.config.extra_lag

    def _sequences_and_specs(
        self, dataset: Dataset, examples: ExampleTable, owners
    ) -> tuple[list[UserSequence], list[PredictionSpec]]:
        """Each owner's truncated sequence and the spec of its examples.

        On the session task a row's predict-time features are row
        ``sessions[i]`` of the matrix :meth:`SequenceBuilder.build_user`
        encoded for the owner's whole log (the session's context at its own
        start), taken before the history is truncated.
        """
        assert self.builder is not None and self._task is not None and self._update_lag is not None
        bounds = examples.owner_bounds(len(dataset.users))
        sequences: list[UserSequence] = []
        specs: list[PredictionSpec] = []
        for owner in owners:
            rows = slice(bounds[owner], bounds[owner + 1])
            sequence = self.builder.build_user(dataset.users[owner])
            features = sequence.features[examples.sessions[rows]] if self._task.kind == "session" else None
            sequence = sequence.truncate_last(self.config.truncate_sessions)
            sequences.append(sequence)
            specs.append(
                build_prediction_spec(
                    sequence.timestamps,
                    examples.prediction_times[rows],
                    examples.labels[rows].astype(np.float64),
                    features,
                    update_lag=self._update_lag,
                    n_delta_buckets=self.config.n_delta_buckets,
                )
            )
        return sequences, specs

    # ------------------------------------------------------------------
    def fit(self, train: Dataset, task: TaskSpec) -> "RNNModel":
        cfg = self.config
        self._task = task
        self._update_lag = self._resolve_update_lag(train)
        self.builder = SequenceBuilder(train.schema, n_delta_buckets=cfg.n_delta_buckets)

        # Hold out a small validation population for early stopping (only
        # needed because the synthetic populations are orders of magnitude
        # smaller than the paper's; see RNNTrainer.train).
        validation_data = None
        fit_population = train
        if cfg.validation_fraction > 0 and cfg.early_stopping_patience is not None and train.n_users >= 20:
            from ..data.splits import validation_split

            val_split = validation_split(train, validation_fraction=cfg.validation_fraction, seed=cfg.seed)
            fit_population = val_split.train
            validation = val_split.test
            validation_data = self._sequences_and_specs(
                validation, task.loss_examples(validation), range(len(validation.users))
            )

        sequences, specs = self._sequences_and_specs(
            fit_population, task.loss_examples(fit_population), range(len(fit_population.users))
        )

        network_config = RNNNetworkConfig(
            feature_dim=self.builder.feature_dim,
            hidden_size=cfg.hidden_size,
            mlp_hidden=cfg.mlp_hidden,
            cell=cfg.cell,
            dropout=cfg.dropout,
            latent_cross=cfg.latent_cross,
            n_delta_buckets=cfg.n_delta_buckets,
            predict_uses_context=(task.kind == "session"),
        )
        self.network = RNNPrecomputeNetwork(network_config, rng=np.random.default_rng(cfg.seed))
        self.trainer = RNNTrainer(
            RNNTrainerConfig(
                epochs=cfg.resolve_epochs(len(sequences)),
                batch_users=cfg.resolve_batch_users(len(sequences)),
                learning_rate=cfg.learning_rate,
                grad_clip=cfg.grad_clip,
                strategy=cfg.strategy,
                early_stopping_patience=cfg.early_stopping_patience,
                seed=cfg.seed,
            )
        )
        self.training_curve_ = self.trainer.train(self.network, sequences, specs, validation=validation_data)
        return self

    # ------------------------------------------------------------------
    def predict_examples(self, dataset: Dataset, examples: ExampleTable) -> np.ndarray:
        if self.network is None or self.builder is None or self.trainer is None:
            raise RuntimeError("model is not fitted")
        examples.check(dataset)
        if not len(examples):
            return np.zeros(0)
        sequences, specs = self._sequences_and_specs(dataset, examples, np.unique(examples.owners))
        return np.concatenate(self.trainer.predict(self.network, sequences, specs))

    # ------------------------------------------------------------------
    @property
    def hidden_state_size(self) -> int:
        """Width of the per-user state the serving layer must persist."""
        if self.network is None:
            raise RuntimeError("model is not fitted")
        return self.network.state_size

    def state_dict(self) -> dict[str, np.ndarray]:
        """Trained network parameters (for the serving deployment simulation)."""
        if self.network is None:
            raise RuntimeError("model is not fitted")
        return self.network.state_dict()

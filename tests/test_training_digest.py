"""Golden digests of trained weights: one small seeded fit per model family.

``golden/training_digest.json`` holds one SHA-256 per fit over everything the
fit leaves behind that scoring or reporting reads.  For a
:class:`~repro.ml.GradientBoostedTrees` that is the packed heap tables
(``node_feature_``, ``node_threshold_``, ``leaf_value_``), the base score,
the best iteration, the node count, the feature importances and both loss
histories; the depth search adds its chosen depth and the validation loss of
every depth it tried.  For a :class:`~repro.ml.LogisticRegression` it is the
coefficients, the intercept and the loss history.  For each
:class:`~repro.models.RNNModel` fit (GRU, LSTM and tanh cells) it is every
network parameter, by name, and the per-minibatch training curve (sessions
processed, loss, epoch).

The tabular digests were captured at the commit *before* ``RegressionTree``
stopped growing node lists and started growing heap tables, the GRU digest at
the commit before the serving records became tuple rows, and the LSTM and tanh
digests at the commit before a minibatch's recurrence became one autograd node
(they judge each cell's hand-written ``step_backward``), so a change to how
the trainers run is checked against weights the old spelling produced.  A
re-spelling of a trainer must leave every digest unchanged; a change that
moves trained bits on purpose regenerates the file and says what moved::

    PYTHONPATH=src python tests/test_training_digest.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.data import make_dataset
from repro.ml import GBDTConfig, GradientBoostedTrees, LogisticRegression, LogisticRegressionConfig
from repro.models import GBDTModel, LogisticRegressionModel, PercentageModel, RNNModel, RNNModelConfig, TaskSpec

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "training_digest.json"


def _problem(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Five columns: continuous, tied integers, a constant, continuous with
    NaN holes, uniform; the label depends on all but the constant."""
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [
            rng.normal(size=n),
            rng.integers(0, 4, n).astype(np.float64),
            np.full(n, 2.0),
            np.where(rng.random(n) < 0.15, np.nan, rng.normal(size=n)),
            rng.random(n),
        ]
    )
    signal = np.nan_to_num(X[:, 3], nan=1.0)
    logit = 1.2 * (X[:, 0] > 0.2) - 0.5 * X[:, 1] + signal * X[:, 4] + 0.5
    return X, (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        array = np.asarray(part)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _gbdt_parts(model: GradientBoostedTrees) -> tuple:
    return (
        model.node_feature_,
        model.node_threshold_,
        model.leaf_value_,
        model.base_score_,
        model.best_iteration_,
        model.n_nodes,
        model.feature_importance(),
        model.train_loss_history_,
        model.valid_loss_history_,
    )


def gbdt_plain() -> str:
    X, y = _problem(300, seed=0)
    X_valid, y_valid = _problem(120, seed=1)
    model = GradientBoostedTrees(GBDTConfig(n_rounds=20, max_depth=5)).fit(X, y, eval_set=(X_valid, y_valid))
    return _digest(*_gbdt_parts(model))


def gbdt_subsampled() -> str:
    X, y = _problem(300, seed=2)
    config = GBDTConfig(n_rounds=15, max_depth=6, subsample=0.7, min_child_weight=2.0, seed=4)
    return _digest(*_gbdt_parts(GradientBoostedTrees(config).fit(X, y)))


def gbdt_depth_search() -> str:
    X, y = _problem(300, seed=3)
    X_valid, y_valid = _problem(120, seed=4)
    model, depth, losses = GradientBoostedTrees.fit_with_depth_search(
        X, y, X_valid, y_valid, depths=(1, 2, 4, 7), config=GBDTConfig(n_rounds=12)
    )
    return _digest(*_gbdt_parts(model), depth, list(losses), list(losses.values()))


def logistic() -> str:
    X, y = _problem(300, seed=5)
    model = LogisticRegression(max_iter=80).fit(np.nan_to_num(X, nan=0.0), y)
    return _digest(model.coef_, model.intercept_, model.loss_history_)


def _rnn(cell: str) -> str:
    """One epoch of the RNN network over a 20-user week (under a second)."""
    dataset = make_dataset("mobiletab", seed=5, n_users=20, n_days=7)
    config = RNNModelConfig(
        hidden_size=8, mlp_hidden=8, cell=cell, epochs=1, early_stopping_patience=None, seed=0
    )
    model = RNNModel(config).fit(dataset, TaskSpec(kind="session", rnn_loss_days=5))
    parameters = model.state_dict()
    curve = [(point.sessions_processed, point.loss, point.epoch) for point in model.training_curve_]
    return _digest(*sorted(parameters), *(parameters[name] for name in sorted(parameters)), curve)


def gru() -> str:
    return _rnn("gru")


def lstm() -> str:
    return _rnn("lstm")


def tanh() -> str:
    return _rnn("tanh")


def _rnn_parts(model: RNNModel) -> tuple:
    parameters = model.state_dict()
    curve = [(point.sessions_processed, point.loss, point.epoch) for point in model.training_curve_]
    return (*sorted(parameters), *(parameters[name] for name in sorted(parameters)), curve)


def _end_to_end(model, dataset, task: TaskSpec, *weights) -> str:
    """``model.fit(dataset, task)`` then ``evaluate``: the weights the fit
    left (read by ``weights(model)``) and every column of the result."""
    model.fit(dataset, task)
    result = model.evaluate(dataset, task)
    parts = [part for read in weights for part in read(model)]
    return _digest(*parts, result.y_true, result.y_score, result.user_ids, result.prediction_times)


def e2e_gbdt_session() -> str:
    """GBDT through ``TabularFeaturizer.transform`` on the session task."""
    model = GBDTModel(gbdt_config=GBDTConfig(n_rounds=8), depths=(2, 3))
    return _end_to_end(
        model,
        make_dataset("mobiletab", seed=1, n_users=20, n_days=10),
        TaskSpec(kind="session", train_days=4, eval_days=3),
        lambda m: _gbdt_parts(m.estimator),
        lambda m: (m.best_depth_, list(m.depth_search_losses_), list(m.depth_search_losses_.values())),
    )


def e2e_lr_peak() -> str:
    """Logistic regression on the contextless peak task (Timeshift)."""
    model = LogisticRegressionModel(estimator_config=LogisticRegressionConfig(max_iter=40))
    return _end_to_end(
        model,
        make_dataset("timeshift", seed=2, n_users=25, n_days=12),
        TaskSpec(kind="peak", train_days=6, eval_days=4),
        lambda m: (m.estimator.coef_, m.estimator.intercept_, m.estimator.loss_history_),
    )


def e2e_percentage_session() -> str:
    return _end_to_end(
        PercentageModel(),
        make_dataset("mobiletab", seed=3, n_users=15, n_days=8),
        TaskSpec(kind="session", eval_days=3),
        lambda m: (m.alpha_,),
    )


def e2e_percentage_peak() -> str:
    return _end_to_end(
        PercentageModel(),
        make_dataset("timeshift", seed=4, n_users=15, n_days=9),
        TaskSpec(kind="peak", eval_days=4),
        lambda m: (m.alpha_,),
    )


def e2e_gru_peak() -> str:
    """The RNN on the peak task: no context at prediction time."""
    config = RNNModelConfig(hidden_size=8, mlp_hidden=8, epochs=1, early_stopping_patience=None, seed=1)
    return _end_to_end(
        RNNModel(config),
        make_dataset("timeshift", seed=5, n_users=12, n_days=8),
        TaskSpec(kind="peak", rnn_loss_days=6, eval_days=3),
        _rnn_parts,
    )


def e2e_gru_validation() -> str:
    """The RNN with early stopping on: 20+ users, so validation specs are built."""
    config = RNNModelConfig(hidden_size=8, mlp_hidden=8, epochs=2, early_stopping_patience=1, seed=2)
    return _end_to_end(
        RNNModel(config),
        make_dataset("mobiletab", seed=6, n_users=24, n_days=7),
        TaskSpec(kind="session", rnn_loss_days=5, eval_days=2),
        _rnn_parts,
    )


def e2e_gru_truncated() -> str:
    """The RNN on truncated histories: a session's predict-time features are
    its row of the whole log's encoding, not of the kept tail."""
    config = RNNModelConfig(hidden_size=8, mlp_hidden=8, epochs=1, truncate_sessions=6, early_stopping_patience=None)
    return _end_to_end(
        RNNModel(config),
        make_dataset("mpu", seed=7, n_users=10, n_days=6),
        TaskSpec(kind="session", rnn_loss_days=4, eval_days=2),
        _rnn_parts,
    )


FITS = {
    fit.__name__: fit
    for fit in (
        gbdt_plain,
        gbdt_subsampled,
        gbdt_depth_search,
        logistic,
        gru,
        lstm,
        tanh,
        e2e_gbdt_session,
        e2e_lr_peak,
        e2e_percentage_session,
        e2e_percentage_peak,
        e2e_gru_peak,
        e2e_gru_validation,
        e2e_gru_truncated,
    )
}


@pytest.mark.parametrize("name", sorted(FITS))
def test_training_reproduces_the_captured_weights(name):
    expected = json.loads(GOLDEN_PATH.read_text())
    assert FITS[name]() == expected[name]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({name: fit() for name, fit in FITS.items()}, indent=1) + "\n")

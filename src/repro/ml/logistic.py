"""L2-regularised logistic regression (replacement for scikit-learn's, Section 5.3).

The paper trains ``sklearn.linear_model.LogisticRegression`` with the saga
solver on the engineered feature vectors.  This implementation optimises the
same objective — mean binary log loss plus an L2 penalty — with full-batch
Adam and an optional internal feature standardisation for conditioning (the
engineered aggregation counts span several orders of magnitude).  The solver
choice does not change the model class, only the route to the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.inference import stable_sigmoid

__all__ = ["LogisticRegression", "LogisticRegressionConfig"]


@dataclass(frozen=True)
class LogisticRegressionConfig:
    """Hyper-parameters of the logistic regression trainer."""

    l2: float = 1e-2
    learning_rate: float = 0.1
    max_iter: int = 600
    tol: float = 1e-6
    standardize: bool = True
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be positive")


class LogisticRegression:
    """Binary logistic regression with full-batch Adam optimisation."""

    def __init__(self, config: LogisticRegressionConfig | None = None, **overrides) -> None:
        if config is None:
            config = LogisticRegressionConfig(**overrides)
        elif overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.config = config
        self.coef_: np.ndarray | None = None
        self.intercept_: float = 0.0
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None
        self.loss_history_: list[float] = []

    # ------------------------------------------------------------------
    def _prepare(self, X: np.ndarray, fit_scaler: bool) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if not self.config.standardize:
            return X
        if fit_scaler:
            self._mean = X.mean(axis=0)
            scale = X.std(axis=0)
            scale[scale < 1e-12] = 1.0
            self._scale = scale
        if self._mean is None or self._scale is None:
            raise RuntimeError("model must be fit before transforming features")
        return (X - self._mean) / self._scale

    # ------------------------------------------------------------------
    def fit(self, X, y, sample_weight=None) -> "LogisticRegression":
        """Fit the model by minimising regularised mean log loss."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if X.ndim != 2:
            raise ValueError("X must be 2-D")
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y have mismatched lengths")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be 0 or 1")
        if sample_weight is None:
            weights = np.ones_like(y)
        else:
            weights = np.asarray(sample_weight, dtype=np.float64).reshape(-1)
            if weights.shape != y.shape:
                raise ValueError("sample_weight must match y")
        weights = weights / weights.sum()

        Xs = self._prepare(X, fit_scaler=True)
        n_features = Xs.shape[1]
        coef = np.zeros(n_features)
        intercept = float(np.log((y * weights).sum() / max(1e-12, ((1 - y) * weights).sum()) + 1e-12))

        cfg = self.config
        m = np.zeros(n_features + 1)
        v = np.zeros(n_features + 1)
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        previous_loss = np.inf
        self.loss_history_ = []

        for step in range(1, cfg.max_iter + 1):
            logits = Xs @ coef + intercept
            probs = stable_sigmoid(logits)
            error = (probs - y) * weights
            grad_coef = Xs.T @ error + cfg.l2 * coef
            grad_intercept = error.sum()
            grad = np.concatenate([grad_coef, [grad_intercept]])

            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad * grad
            m_hat = m / (1 - beta1 ** step)
            v_hat = v / (1 - beta2 ** step)
            update = cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
            coef -= update[:-1]
            intercept -= update[-1]

            clipped = np.clip(probs, 1e-12, 1 - 1e-12)
            loss = float(-(weights * (y * np.log(clipped) + (1 - y) * np.log(1 - clipped))).sum())
            loss += 0.5 * cfg.l2 * float(coef @ coef)
            self.loss_history_.append(loss)
            if abs(previous_loss - loss) < cfg.tol:
                break
            previous_loss = loss

        self.coef_ = coef
        self.intercept_ = float(intercept)
        return self

    # ------------------------------------------------------------------
    def decision_function(self, X) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted")
        Xs = self._prepare(np.asarray(X, dtype=np.float64), fit_scaler=False)
        return Xs @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Probability of the positive class for each row of ``X``."""
        return stable_sigmoid(self.decision_function(X))

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(np.int64)

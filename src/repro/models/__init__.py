"""Access-probability models: percentage baseline, LR, GBDT and the RNN."""

from .base import AccessProbabilityModel, PredictionResult, TaskSpec
from .percentage import PercentageModel
from .rnn import PredictionSpec, RNNNetworkConfig, RNNPrecomputeNetwork, build_prediction_spec
from .rnn_model import RNNModel, RNNModelConfig
from .tabular import GBDTModel, LogisticRegressionModel
from .trainer import RNNTrainer, RNNTrainerConfig, TrainingCurvePoint

__all__ = [
    "AccessProbabilityModel",
    "PredictionResult",
    "TaskSpec",
    "PercentageModel",
    "LogisticRegressionModel",
    "GBDTModel",
    "RNNModel",
    "RNNModelConfig",
    "RNNNetworkConfig",
    "RNNPrecomputeNetwork",
    "PredictionSpec",
    "build_prediction_spec",
    "RNNTrainer",
    "RNNTrainerConfig",
    "TrainingCurvePoint",
]

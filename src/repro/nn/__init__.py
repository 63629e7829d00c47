"""NumPy-based neural-network substrate (autograd, layers, RNN cells, optimizers).

This subpackage replaces the PyTorch dependency of the original paper with a
self-contained implementation sufficient to express the models of Sections 6
and 7: a reverse-mode autograd engine (:mod:`repro.nn.tensor`), layer modules
(:mod:`repro.nn.modules`), recurrent cells (:mod:`repro.nn.rnn`), optimizers
(:mod:`repro.nn.optim`) and state-dict serialization
(:mod:`repro.nn.serialization`).
"""

from . import functional, inference
from .modules import MLP, Dropout, Identity, Linear, Module, Parameter, ReLU, Sequential
from .optim import SGD, Adam, Optimizer, clip_grad_norm_
from .rnn import ElmanCell, GRUCell, LSTMCell, RecurrentCell, make_cell, recurrent_sequence
from .serialization import load_into_module, load_state_dict, save_module, save_state_dict
from .tensor import Tensor, as_tensor, concat, is_grad_enabled, no_grad, stack

__all__ = [
    "functional",
    "inference",
    "Tensor",
    "as_tensor",
    "concat",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "Module",
    "Parameter",
    "Linear",
    "Dropout",
    "ReLU",
    "Identity",
    "Sequential",
    "MLP",
    "RecurrentCell",
    "GRUCell",
    "LSTMCell",
    "ElmanCell",
    "make_cell",
    "recurrent_sequence",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm_",
    "save_module",
    "save_state_dict",
    "load_state_dict",
    "load_into_module",
]

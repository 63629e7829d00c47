"""Recurrent cells: GRU, LSTM and a plain tanh (Elman) cell.

Section 6.2 of the paper evaluates three options for the hidden-state update
function ``RNN_update`` — a basic tanh recurrent unit, a gated recurrent unit
(GRU) and an LSTM — and finds that GRUs perform best on every dataset.  All
three are provided here behind a common :class:`RecurrentCell` interface so
the ablation benchmark can swap them freely.

All cells follow the PyTorch ``*Cell`` convention: they process one time step
for a batch, taking an input of shape ``(batch, input_size)`` and a hidden
state of shape ``(batch, hidden_size)`` and returning the new hidden state.

Training steps a padded minibatch through :func:`recurrent_sequence`: one
autograd node for the whole recurrence, not a handful per time step.  Each
cell provides the plain-array pair it runs on — :meth:`RecurrentCell.step`
(forward, returning a cache) and :meth:`RecurrentCell.step_backward`
(accumulating the step's parameter gradients) — with the same arithmetic, in
the same order, as the cell's per-step autograd ``forward``, so both paths
train the same bits.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from . import init
from .inference import elman_step, gru_step, lstm_step, sigmoid, stable_sigmoid
from .modules import Module, Parameter
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = [
    "RecurrentCell",
    "GRUCell",
    "LSTMCell",
    "ElmanCell",
    "make_cell",
    "fused_gru_step",
    "recurrent_sequence",
]


class RecurrentCell(Module):
    """Interface for single-step recurrent units."""

    input_size: int
    hidden_size: int

    def initial_state(self, batch_size: int = 1) -> Tensor:
        """All-zero initial hidden state ``h_0`` (Section 6.1)."""
        return Tensor(np.zeros((batch_size, self.state_size), dtype=np.float64))

    @property
    def state_size(self) -> int:
        """Width of the serialized hidden state (2*hidden for LSTM)."""
        return self.hidden_size

    def hidden_slice(self, states):
        """The predictor-visible ``h`` part of a batched state stack.

        Works on NumPy arrays and Tensors alike (plain column slicing).
        Cells with packed state (LSTM's ``[h; c]``) override this; it is the
        single source of truth for the state layout on both the autograd and
        batched serving paths.
        """
        return states

    def forward(self, inputs: Tensor, state: Tensor) -> Tensor:  # pragma: no cover - abstract
        raise NotImplementedError

    def inference_step(self, inputs: np.ndarray, state: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """One batched eval-time step over plain ``[B, ·]`` float64 stacks.

        Each cell hands its own parameter arrays to its batch-size-invariant
        kernel in :mod:`repro.nn.inference` (same arithmetic as ``forward``,
        no autograd) — what the serving layer's session-end update runs.
        """
        raise NotImplementedError

    def step(self, inputs: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, tuple]:  # pragma: no cover - abstract
        """One training-time step over plain arrays: ``(new_state, cache)``.

        The same arithmetic as ``forward``, bit for bit; ``cache`` holds what
        :meth:`step_backward` needs and is opaque to callers.
        """
        raise NotImplementedError

    def step_backward(  # pragma: no cover - abstract
        self, grad: np.ndarray, cache: tuple, want_state: bool
    ) -> np.ndarray | None:
        """Back-propagate ``grad`` (w.r.t. the step's new state) through one step.

        Each parameter's gradient is added through its ``_accumulate``, one
        contribution per call, with the products ``forward``'s autograd graph
        forms.  Returns the gradient w.r.t. the step's input state, or
        ``None`` when ``want_state`` is false.
        """
        raise NotImplementedError


def _gru_forward(
    x: np.ndarray,
    h_prev: np.ndarray,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias_ih: Tensor,
    bias_hh: Tensor,
) -> tuple[np.ndarray, tuple]:
    """The GRU step's forward on plain arrays: ``(h_new, cache)``."""
    hidden = h_prev.shape[1]
    gates_i = x @ weight_ih.data.T + bias_ih.data
    gates_h = h_prev @ weight_hh.data.T + bias_hh.data
    gates = stable_sigmoid(gates_i[:, : 2 * hidden] + gates_h[:, : 2 * hidden])
    reset, update = gates[:, :hidden], gates[:, hidden:]
    gh_candidate = gates_h[:, 2 * hidden :]
    candidate = np.tanh(gates_i[:, 2 * hidden :] + reset * gh_candidate)
    out = (1.0 - update) * candidate + update * h_prev
    return out, (x, h_prev, reset, update, candidate, gh_candidate, weight_ih, weight_hh, bias_ih, bias_hh)


def _gru_backward(
    grad: np.ndarray, cache: tuple, want_inputs: bool, want_state: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """The GRU step's hand-written backward.

    Accumulates the gradient of every weight that requires one and returns
    ``(d_inputs, d_state)``, each ``None`` unless asked for.
    """
    x, h_prev, reset, update, candidate, gh_candidate, weight_ih, weight_hh, bias_ih, bias_hh = cache
    d_candidate = grad * (1.0 - update)
    d_update = grad * (h_prev - candidate)
    d_h_prev = grad * update

    d_candidate_pre = d_candidate * (1.0 - candidate**2)
    d_reset = d_candidate_pre * gh_candidate
    d_reset_pre = d_reset * reset * (1.0 - reset)
    d_update_pre = d_update * update * (1.0 - update)

    d_gates_i = np.concatenate([d_reset_pre, d_update_pre, d_candidate_pre], axis=1)
    d_gates_h = np.concatenate([d_reset_pre, d_update_pre, d_candidate_pre * reset], axis=1)

    d_inputs = d_gates_i @ weight_ih.data if want_inputs else None
    d_state = d_h_prev + d_gates_h @ weight_hh.data if want_state else None
    if weight_ih.requires_grad:
        weight_ih._accumulate(d_gates_i.T @ x)
    if weight_hh.requires_grad:
        weight_hh._accumulate(d_gates_h.T @ h_prev)
    if bias_ih.requires_grad:
        bias_ih._accumulate(d_gates_i.sum(axis=0))
    if bias_hh.requires_grad:
        bias_hh._accumulate(d_gates_h.sum(axis=0))
    return d_inputs, d_state


def _accumulate_linear(weight: Tensor, inputs: np.ndarray, d_out: np.ndarray) -> None:
    """Add ``inputs @ weight.T``'s weight gradient, as ``F.linear`` forms it.

    The autograd graph reaches ``weight`` through a transpose node, so the
    product is ``(inputs.T @ d_out).T``, not ``d_out.T @ inputs`` — the two
    can differ in the last ulp.
    """
    if weight.requires_grad:
        weight._accumulate((inputs.T @ d_out).T)


def fused_gru_step(
    inputs: Tensor,
    state: Tensor,
    weight_ih: Tensor,
    weight_hh: Tensor,
    bias_ih: Tensor,
    bias_hh: Tensor,
) -> Tensor:
    """One GRU step as a single autograd node.

    Back-propagation through user histories visits tens of thousands of GRU
    steps per minibatch; building the step from ~25 primitive tensor ops makes
    Python graph overhead the training bottleneck.  This fused op computes the
    PyTorch-convention GRU update in NumPy and implements its exact backward
    pass by hand (validated against the composable implementation and finite
    differences in the test suite).
    """
    inputs = as_tensor(inputs)
    state = as_tensor(state)
    out_data, cache = _gru_forward(inputs.data, state.data, weight_ih, weight_hh, bias_ih, bias_hh)

    def backward(grad: np.ndarray) -> None:
        d_inputs, d_state = _gru_backward(grad, cache, inputs.requires_grad, state.requires_grad)
        if d_inputs is not None:
            inputs._accumulate(d_inputs)
        if d_state is not None:
            state._accumulate(d_state)

    return Tensor._result(out_data, (inputs, state, weight_ih, weight_hh, bias_ih, bias_hh), backward)


class GRUCell(RecurrentCell):
    """Gated recurrent unit (Cho et al., 2014).

    Gate equations (PyTorch convention)::

        r = sigma(W_ir x + b_ir + W_hr h + b_hr)
        z = sigma(W_iz x + b_iz + W_hz h + b_hz)
        n = tanh (W_in x + b_in + r * (W_hn h + b_hn))
        h' = (1 - z) * n + z * h

    ``forward`` uses the fused single-node implementation for speed;
    ``forward_composed`` builds the same computation from primitive ops and is
    kept for gradient cross-checking in the tests.
    """

    def __init__(self, input_size: int, hidden_size: int, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.uniform_fan_in((3 * hidden_size, input_size), hidden_size, rng))
        self.weight_hh = Parameter(init.uniform_fan_in((3 * hidden_size, hidden_size), hidden_size, rng))
        self.bias_ih = Parameter(init.zeros((3 * hidden_size,)))
        self.bias_hh = Parameter(init.zeros((3 * hidden_size,)))

    def forward(self, inputs: Tensor, state: Tensor) -> Tensor:
        return fused_gru_step(inputs, state, self.weight_ih, self.weight_hh, self.bias_ih, self.bias_hh)

    def step(self, inputs: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, tuple]:
        return _gru_forward(inputs, state, self.weight_ih, self.weight_hh, self.bias_ih, self.bias_hh)

    def step_backward(self, grad: np.ndarray, cache: tuple, want_state: bool) -> np.ndarray | None:
        return _gru_backward(grad, cache, False, want_state)[1]

    def inference_step(self, inputs: np.ndarray, state: np.ndarray) -> np.ndarray:
        return gru_step(
            inputs, state, self.weight_ih.data, self.weight_hh.data, self.bias_ih.data, self.bias_hh.data
        )

    def forward_composed(self, inputs: Tensor, state: Tensor) -> Tensor:
        """Reference implementation built from primitive autograd ops."""
        inputs = as_tensor(inputs)
        state = as_tensor(state)
        h = self.hidden_size
        gates_i = F.linear(inputs, self.weight_ih, self.bias_ih)
        gates_h = F.linear(state, self.weight_hh, self.bias_hh)
        reset = (gates_i[:, :h] + gates_h[:, :h]).sigmoid()
        update = (gates_i[:, h:2 * h] + gates_h[:, h:2 * h]).sigmoid()
        candidate = (gates_i[:, 2 * h:] + reset * gates_h[:, 2 * h:]).tanh()
        return (1.0 - update) * candidate + update * state


class LSTMCell(RecurrentCell):
    """Long short-term memory cell.

    The cell state ``c`` and hidden state ``h`` are packed side by side into
    a single ``(batch, 2*hidden)`` state vector so that the rest of the
    library (and the key-value store in the serving layer) can treat every
    cell's state as one opaque vector.
    """

    def __init__(self, input_size: int, hidden_size: int, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.uniform_fan_in((4 * hidden_size, input_size), hidden_size, rng))
        self.weight_hh = Parameter(init.uniform_fan_in((4 * hidden_size, hidden_size), hidden_size, rng))
        self.bias_ih = Parameter(init.zeros((4 * hidden_size,)))
        self.bias_hh = Parameter(init.zeros((4 * hidden_size,)))

    @property
    def state_size(self) -> int:
        return 2 * self.hidden_size

    def forward(self, inputs: Tensor, state: Tensor) -> Tensor:
        inputs = as_tensor(inputs)
        state = as_tensor(state)
        hsize = self.hidden_size
        h_prev = state[:, :hsize]
        c_prev = state[:, hsize:]
        gates = F.linear(inputs, self.weight_ih, self.bias_ih) + F.linear(h_prev, self.weight_hh, self.bias_hh)
        i_gate = gates[:, :hsize].sigmoid()
        f_gate = gates[:, hsize:2 * hsize].sigmoid()
        g_gate = gates[:, 2 * hsize:3 * hsize].tanh()
        o_gate = gates[:, 3 * hsize:].sigmoid()
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return F.concat([h_new, c_new], axis=1)

    def step(self, inputs: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, tuple]:
        hsize = self.hidden_size
        h_prev = state[:, :hsize]
        c_prev = state[:, hsize:]
        gates = (inputs @ self.weight_ih.data.T + self.bias_ih.data) + (
            h_prev @ self.weight_hh.data.T + self.bias_hh.data
        )
        i_gate = sigmoid(gates[:, :hsize])
        f_gate = sigmoid(gates[:, hsize : 2 * hsize])
        g_gate = np.tanh(gates[:, 2 * hsize : 3 * hsize])
        o_gate = sigmoid(gates[:, 3 * hsize :])
        c_new = f_gate * c_prev + i_gate * g_gate
        c_tanh = np.tanh(c_new)
        out = np.concatenate([o_gate * c_tanh, c_new], axis=1)
        return out, (inputs, h_prev, c_prev, i_gate, f_gate, g_gate, o_gate, c_tanh)

    def step_backward(self, grad: np.ndarray, cache: tuple, want_state: bool) -> np.ndarray | None:
        inputs, h_prev, c_prev, i_gate, f_gate, g_gate, o_gate, c_tanh = cache
        hsize = self.hidden_size
        d_h = grad[:, :hsize]
        d_c = grad[:, hsize:] + d_h * o_gate * (1.0 - c_tanh**2)
        d_gates = np.concatenate(
            [
                d_c * g_gate * i_gate * (1.0 - i_gate),
                d_c * c_prev * f_gate * (1.0 - f_gate),
                d_c * i_gate * (1.0 - g_gate**2),
                d_h * c_tanh * o_gate * (1.0 - o_gate),
            ],
            axis=1,
        )
        _accumulate_linear(self.weight_ih, inputs, d_gates)
        _accumulate_linear(self.weight_hh, h_prev, d_gates)
        if self.bias_ih.requires_grad:
            self.bias_ih._accumulate(d_gates.sum(axis=0))
        if self.bias_hh.requires_grad:
            self.bias_hh._accumulate(d_gates.sum(axis=0))
        if not want_state:
            return None
        return np.concatenate([d_gates @ self.weight_hh.data, d_c * f_gate], axis=1)

    def inference_step(self, inputs: np.ndarray, state: np.ndarray) -> np.ndarray:
        return lstm_step(
            inputs, state, self.weight_ih.data, self.weight_hh.data, self.bias_ih.data, self.bias_hh.data
        )

    def hidden_part(self, state: Tensor) -> Tensor:
        """Extract the ``h`` half of the packed state (fed to the predictor)."""
        return self.hidden_slice(state)

    def hidden_slice(self, states):
        return states[:, : self.hidden_size]


class ElmanCell(RecurrentCell):
    """Basic tanh recurrent unit: ``h' = tanh(W_ih x + W_hh h + b)``."""

    def __init__(self, input_size: int, hidden_size: int, *, rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("input_size and hidden_size must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_ih = Parameter(init.uniform_fan_in((hidden_size, input_size), hidden_size, rng))
        self.weight_hh = Parameter(init.uniform_fan_in((hidden_size, hidden_size), hidden_size, rng))
        self.bias = Parameter(init.zeros((hidden_size,)))

    def forward(self, inputs: Tensor, state: Tensor) -> Tensor:
        inputs = as_tensor(inputs)
        state = as_tensor(state)
        return (F.linear(inputs, self.weight_ih, self.bias) + F.linear(state, self.weight_hh)).tanh()

    def step(self, inputs: np.ndarray, state: np.ndarray) -> tuple[np.ndarray, tuple]:
        out = np.tanh((inputs @ self.weight_ih.data.T + self.bias.data) + state @ self.weight_hh.data.T)
        return out, (inputs, state, out)

    def step_backward(self, grad: np.ndarray, cache: tuple, want_state: bool) -> np.ndarray | None:
        inputs, state, out = cache
        d_pre = grad * (1.0 - out**2)
        _accumulate_linear(self.weight_ih, inputs, d_pre)
        _accumulate_linear(self.weight_hh, state, d_pre)
        if self.bias.requires_grad:
            self.bias._accumulate(d_pre.sum(axis=0))
        return d_pre @ self.weight_hh.data if want_state else None

    def inference_step(self, inputs: np.ndarray, state: np.ndarray) -> np.ndarray:
        return elman_step(inputs, state, self.weight_ih.data, self.weight_hh.data, self.bias.data)


def recurrent_sequence(cell: RecurrentCell, inputs: np.ndarray, valid: np.ndarray) -> Tensor:
    """Step ``cell`` over a padded minibatch as one autograd node.

    ``inputs`` is ``(batch, steps, input_size)`` and ``valid`` the matching
    ``(batch, steps, 1)`` 0/1 mask; where ``valid[b, t]`` is 0, row ``b``
    keeps its state (``u * m + h * (1 - m)``, the mask applied inside the
    node).  Returns the ``(steps + 1, batch, state_size)`` stack of states,
    ``h_0 = 0`` first.

    The forward loops over ``t`` on plain arrays through :meth:`RecurrentCell.step`,
    caching each step only when a gradient can be asked for.  The backward
    walks ``t`` from ``steps - 1`` down to 0 through
    :meth:`RecurrentCell.step_backward`, each state's gradient summed as the
    per-step graph sums it (its own slice of the output gradient, then the
    cell's contribution, then the masked carry), so a fit through this node
    trains the same bits as one through a ``cell(x_t, h)`` loop.
    """
    batch, steps = inputs.shape[:2]
    parameters = cell.parameters()
    record = is_grad_enabled() and any(p.requires_grad for p in parameters)
    states = np.zeros((steps + 1, batch, cell.state_size))
    caches: list[tuple] = []
    for t in range(steps):
        mask = valid[:, t, :]
        updated, cache = cell.step(inputs[:, t, :], states[t])
        states[t + 1] = updated * mask + states[t] * (1.0 - mask)
        if record:
            caches.append(cache)

    def backward(grad: np.ndarray) -> None:
        carried = grad[steps]
        for t in range(steps - 1, -1, -1):
            mask = valid[:, t, :]
            d_state = cell.step_backward(carried * mask, caches[t], t > 0)
            if t:
                carried = grad[t] + d_state + carried * (1.0 - mask)

    return Tensor._result(states, parameters, backward)


_CELL_REGISTRY = {
    "gru": GRUCell,
    "lstm": LSTMCell,
    "tanh": ElmanCell,
    "elman": ElmanCell,
}


def make_cell(kind: str, input_size: int, hidden_size: int, *, rng: np.random.Generator | None = None) -> RecurrentCell:
    """Construct a recurrent cell by name (``"gru"``, ``"lstm"`` or ``"tanh"``)."""
    try:
        cls = _CELL_REGISTRY[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown cell kind {kind!r}; expected one of {sorted(_CELL_REGISTRY)}") from None
    return cls(input_size, hidden_size, rng=rng)

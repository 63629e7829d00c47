"""Recurrent cell tests: fused-vs-composed GRU equivalence, gradient checks,
and the one-node recurrence against its per-step twin."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.features.sequence import UserSequence
from repro.models import trainer as trainer_module
from repro.models.rnn import PredictionSpec, RNNNetworkConfig, RNNPrecomputeNetwork
from repro.models.trainer import RNNTrainer
from repro.nn import ElmanCell, GRUCell, LSTMCell, Tensor, make_cell
from repro.nn import functional as F
from repro.nn.rnn import fused_gru_step, recurrent_sequence


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=4),
    input_size=st.integers(min_value=1, max_value=6),
    hidden_size=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_fused_gru_matches_composed_forward_and_backward(batch, input_size, hidden_size, seed):
    rng = np.random.default_rng(seed)
    cell = GRUCell(input_size, hidden_size, rng=rng)
    x_data = rng.normal(size=(batch, input_size))
    h_data = rng.normal(size=(batch, hidden_size))

    x1, h1 = Tensor(x_data, requires_grad=True), Tensor(h_data, requires_grad=True)
    fused = cell(x1, h1)
    (fused * fused).sum().backward()
    fused_grads = {name: p.grad.copy() for name, p in cell.named_parameters()}
    fused_x_grad, fused_h_grad = x1.grad.copy(), h1.grad.copy()

    cell.zero_grad()
    x2, h2 = Tensor(x_data, requires_grad=True), Tensor(h_data, requires_grad=True)
    composed = cell.forward_composed(x2, h2)
    (composed * composed).sum().backward()

    assert np.allclose(fused.data, composed.data, atol=1e-12)
    for name, parameter in cell.named_parameters():
        assert np.allclose(fused_grads[name], parameter.grad, atol=1e-9), name
    assert np.allclose(fused_x_grad, x2.grad, atol=1e-9)
    assert np.allclose(fused_h_grad, h2.grad, atol=1e-9)


@pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell, ElmanCell])
def test_cell_parameter_gradients_match_finite_differences(cell_cls):
    rng = np.random.default_rng(0)
    cell = cell_cls(4, 3, rng=rng)
    x = Tensor(rng.normal(size=(2, 4)))
    h = Tensor(rng.normal(size=(2, cell.state_size)))

    out = cell(x, h)
    (out * out).sum().backward()

    parameter = cell.weight_hh
    i, j = 1, 2
    eps = 1e-6
    original = parameter.data[i, j]

    def value() -> float:
        return float((cell(Tensor(x.data), Tensor(h.data)).data ** 2).sum())

    parameter.data[i, j] = original + eps
    upper = value()
    parameter.data[i, j] = original - eps
    lower = value()
    parameter.data[i, j] = original
    assert parameter.grad[i, j] == pytest.approx((upper - lower) / (2 * eps), abs=1e-5)


def test_lstm_state_is_packed_hidden_and_cell():
    cell = LSTMCell(3, 5)
    assert cell.state_size == 10
    state = cell.initial_state(2)
    assert state.shape == (2, 10)
    new_state = cell(Tensor(np.ones((2, 3))), state)
    hidden = cell.hidden_part(new_state)
    assert hidden.shape == (2, 5)
    # The hidden half must be tanh-bounded.
    assert np.all(np.abs(hidden.data) <= 1.0)


def test_initial_state_is_zero_and_batched():
    cell = GRUCell(2, 4)
    state = cell.initial_state(7)
    assert state.shape == (7, 4)
    assert np.allclose(state.data, 0.0)


def test_make_cell_dispatch_and_errors():
    assert isinstance(make_cell("gru", 3, 2), GRUCell)
    assert isinstance(make_cell("LSTM", 3, 2), LSTMCell)
    assert isinstance(make_cell("tanh", 3, 2), ElmanCell)
    with pytest.raises(ValueError):
        make_cell("transformer", 3, 2)
    with pytest.raises(ValueError):
        GRUCell(0, 2)


def test_fused_gru_respects_no_grad_parents():
    cell = GRUCell(3, 2)
    out = fused_gru_step(
        Tensor(np.ones((1, 3))),
        Tensor(np.zeros((1, 2))),
        Tensor(cell.weight_ih.data),
        Tensor(cell.weight_hh.data),
        Tensor(cell.bias_ih.data),
        Tensor(cell.bias_hh.data),
    )
    assert not out.requires_grad


def test_gru_hidden_state_stays_bounded_over_long_sequences():
    rng = np.random.default_rng(2)
    cell = GRUCell(4, 6, rng=rng)
    state = cell.initial_state(3)
    for _ in range(200):
        state = cell(Tensor(rng.normal(size=(3, 4))), state)
    assert np.all(np.abs(state.data) <= 1.0 + 1e-9)


# ----------------------------------------------------------------------
# The one-node recurrence (recurrent_sequence) against its per-step twin
# ----------------------------------------------------------------------
def per_step_twin(cell, inputs, valid):
    """The per-step ``Tensor`` loop the trainer ran before the recurrence was
    one node: a ``cell(x_t, h)`` call, two mask products and a sum per step,
    then a stack."""
    states = [cell.initial_state(inputs.shape[0])]
    for t in range(inputs.shape[1]):
        x_t = Tensor(inputs[:, t, :])
        mask = Tensor(valid[:, t, :])
        updated = cell(x_t, states[-1])
        states.append(updated * mask + states[-1] * (1.0 - mask))
    return nn.stack(states, axis=0)


FEATURES, BUCKETS = 3, 6


def _network(cell: str, seed: int) -> RNNPrecomputeNetwork:
    config = RNNNetworkConfig(
        feature_dim=FEATURES, hidden_size=4, mlp_hidden=5, cell=cell, dropout=0.0, n_delta_buckets=BUCKETS
    )
    return RNNPrecomputeNetwork(config, rng=np.random.default_rng(seed))


def _batch(lengths, n_predictions, seed):
    """Random sequences of the given lengths and specs with the given
    prediction counts (each ``k`` anywhere in ``[0, length]``)."""
    rng = np.random.default_rng(seed)
    sequences, specs = [], []
    for user, (n, p) in enumerate(zip(lengths, n_predictions)):
        sequences.append(
            UserSequence(
                user_id=user,
                timestamps=np.arange(n, dtype=np.int64),
                accesses=rng.integers(0, 2, n).astype(np.float64),
                features=rng.normal(size=(n, FEATURES)),
                delta_buckets=rng.integers(0, BUCKETS, n),
            )
        )
        specs.append(
            PredictionSpec(
                k_index=rng.integers(0, n + 1, p),
                gap_buckets=rng.integers(0, BUCKETS, p),
                features=rng.normal(size=(p, FEATURES)),
                labels=rng.integers(0, 2, p).astype(np.float64),
                prediction_times=np.arange(p, dtype=np.int64),
            )
        )
    return sequences, specs


def _fit_step(network, sequences, specs, sequence_fn, monkeypatch):
    """One minibatch's loss and gradients through the trainer, its
    recurrence spelled by ``sequence_fn``."""
    monkeypatch.setattr(trainer_module, "recurrent_sequence", sequence_fn)
    network.zero_grad()
    logits, labels, _ = RNNTrainer()._forward_batch(network, sequences, specs)
    loss = F.binary_cross_entropy_with_logits(logits, labels)
    loss.backward()
    # A parameter nothing reached (the cell's, when no row has a step) keeps
    # grad None; compare its bytes as empty.
    grads = {name: p.grad for name, p in network.named_parameters()}
    return loss, {name: np.asarray(grad if grad is not None else []) for name, grad in grads.items()}


BATCHES = {
    # Ragged rows, one of them empty, one with no predictions of its own.
    "ragged": ((5, 0, 3, 9, 1), (4, 2, 0, 6, 1)),
    # The per_user strategy's B = 1.
    "single": ((7,), (5,)),
    # A wider batch, so the weight-gradient contractions sum over more rows.
    "wide": (tuple(range(3, 27, 2)), (2,) * 12),
    # Every state is the zero state: nothing to step, predictions from h_0.
    "empty": ((0, 0), (2, 1)),
}


@pytest.mark.parametrize("batch", sorted(BATCHES))
@pytest.mark.parametrize("cell", ["gru", "lstm", "tanh"])
def test_sequence_node_matches_per_step_twin_bit_for_bit(cell, batch, monkeypatch):
    lengths, n_predictions = BATCHES[batch]
    for seed in range(3):
        network = _network(cell, seed)
        sequences, specs = _batch(lengths, n_predictions, seed)
        node_loss, node_grads = _fit_step(network, sequences, specs, recurrent_sequence, monkeypatch)
        twin_loss, twin_grads = _fit_step(network, sequences, specs, per_step_twin, monkeypatch)
        assert node_loss.data.tobytes() == twin_loss.data.tobytes()
        assert sorted(node_grads) == sorted(twin_grads)
        for name in twin_grads:
            assert node_grads[name].tobytes() == twin_grads[name].tobytes(), (cell, batch, seed, name)

        rng = np.random.default_rng(seed)
        inputs = rng.normal(size=(len(lengths), max(lengths), network.cell.input_size))
        valid = (np.arange(max(lengths))[None, :, None] < np.asarray(lengths)[:, None, None]).astype(np.float64)
        node = recurrent_sequence(network.cell, inputs, valid).data
        twin = per_step_twin(network.cell, inputs, valid).data
        assert node.shape == twin.shape == (max(lengths) + 1, len(lengths), network.cell.state_size)
        assert node.tobytes() == twin.tobytes()


def test_a_batch_without_predictions_is_not_stepped(monkeypatch):
    network = _network("gru", 0)
    sequences, specs = _batch((6, 4), (0, 0), 0)
    stepped = []
    monkeypatch.setattr(trainer_module, "recurrent_sequence", lambda *args: stepped.append(args))
    assert RNNTrainer()._forward_batch(network, sequences, specs) is None
    assert stepped == []


class _Box:
    """A weak-referenceable wrapper, to watch step caches die."""

    def __init__(self, cache):
        self.cache = cache


@pytest.mark.parametrize("cell_cls", [GRUCell, LSTMCell, ElmanCell])
def test_no_grad_keeps_no_step_caches(cell_cls, monkeypatch):
    cell = cell_cls(3, 4, rng=np.random.default_rng(0))
    step, step_backward = cell.step, cell.step_backward
    boxes = []

    def boxed_step(inputs, state):
        out, cache = step(inputs, state)
        boxes.append(_Box(cache))
        return out, boxes[-1]

    monkeypatch.setattr(cell, "step", boxed_step)
    monkeypatch.setattr(cell, "step_backward", lambda grad, box, want: step_backward(grad, box.cache, want))
    inputs = np.random.default_rng(1).normal(size=(2, 5, 3))
    valid = np.ones((2, 5, 1))

    def live_caches(result):
        """Caches still alive while ``result`` (held by this frame) lives."""
        refs = [weakref.ref(box) for box in boxes]
        boxes.clear()
        gc.collect()
        return sum(ref() is not None for ref in refs)

    with_grad = recurrent_sequence(cell, inputs, valid)
    assert with_grad.requires_grad and live_caches(with_grad) == 5
    with nn.no_grad():
        without = recurrent_sequence(cell, inputs, valid)
    assert not without.requires_grad and without._backward is None
    assert live_caches(without) == 0
    assert without.data.tobytes() == with_grad.data.tobytes()


def _reachable_nodes(tensor) -> int:
    seen, stack = set(), [tensor]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


@pytest.mark.parametrize("cell", ["gru", "lstm", "tanh"])
def test_graph_size_does_not_grow_with_sequence_length(cell):
    counts = []
    for max_len in (3, 40):
        network = _network(cell, 0)
        sequences, specs = _batch((max_len, 2), (3, 2), 0)
        logits, labels, _ = RNNTrainer()._forward_batch(network, sequences, specs)
        counts.append(_reachable_nodes(F.binary_cross_entropy_with_logits(logits, labels)))
    assert counts[0] == counts[1]

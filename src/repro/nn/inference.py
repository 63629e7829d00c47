"""Batched eval-time inference kernels (plain NumPy, no autograd).

The serving layer's hot path is a forward pass over a *stack* of per-user
hidden states — no gradients, no graph.  Routing that through
:class:`~repro.nn.tensor.Tensor` would allocate an autograd node per
operation per request, which is exactly the Python overhead the paper's
production system avoids by batching.  These kernels compute the same
functions as the module/autograd implementations (same operation order, so
results agree to floating-point identity on identical inputs) but operate
directly on ``np.ndarray`` stacks of shape ``[batch, dim]``.

Only the *evaluation-time* forward is provided: dropout is an identity at
inference, and serving always runs frozen (``eval()``-mode) networks.

The recurrent *update* kernels additionally guarantee **batch-size
invariance**: applying a ``[B, hidden]`` stack of session updates in one step
is bit-identical to applying the same rows one at a time.  BLAS matmuls do
not have that property (blocking and FMA order depend on the shape), so the
update kernels contract through :func:`row_stable_linear` instead — this is
what lets the wave-coalesced timer scheduler batch session-end GRU updates
without being observable in any stored state.

**One spelling for every batch size.**  A request served alone runs these
same kernels at ``B = 1``, where the arithmetic is a few microseconds and
every extra NumPy call is a visible share of the request.  So each kernel is
written as a short chain of whole-array ufuncs — no boolean-mask gathers, no
Python-level ``np.clip``, temporaries reused through ``out=`` — and there
is no single-row fork: the cheap spelling *is* the batched one.  The
largest update call is one block of
:data:`~repro.serving.batching.UPDATE_BLOCK_ROWS` rows (the serving lane
steps a longer wave block by block), so an update kernel's temporaries are
bounded by the block; the predict kernels see at most one micro-batch,
except the predictive autoscaler's forecast, which scores every stored
user at once.  Weight matrices are used as
stored: ``weight.T`` stays a strided view, because ``x @ W.T`` and
``x @ np.ascontiguousarray(W.T)`` pick different BLAS kernels (``gemv_t`` vs
``gemv_n``) and differ in the last ulp at ``B = 1``, which would move every
stored state and probability for a contraction that is ≈ 2 µs of the
request.  Each recurrent cell owns its inference step
(:meth:`repro.nn.rnn.RecurrentCell.inference_step`), built from the step
functions below.

**No blocked contraction reproduces the ``B = 1`` bits, so two numeric
contracts ship.**  Stored states are bit-exact across batch sizes through
:func:`row_stable_linear`; predictions use BLAS :func:`linear` and agree
across batch sizes to 1e-10, the tolerance the serving tests and the
benchmark's oracle (``perf/perf_oracle.py``) check.  A single contract
would need a GEMM whose rows match the per-row ``[1, n]`` product, and on
OpenBLAS 0.3.31 (Haswell kernels, one thread and the default pool alike)
none does.  ``x @ W.T``
differs from :func:`row_stable_linear` in some row at every ``B`` in
{2, 3, 4, 7, 8, 16, 17, 64, 512}, for every serving shape: GRU 144×92 and
144×48, LSTM 192×92 and 192×48, tanh 48×92 and 48×48, the MLP head 64×139
and the latent projection 48×91.  Fixed blocks of ``k`` ∈ {4, 8, 16} rows,
the tail zero-padded so BLAS always sees one shape, differ as well, and
``np.einsum`` without ``optimize`` differs even at ``B = 1``.  The question
is closed on this stack; a BLAS change is the only thing that reopens it.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "linear",
    "row_stable_linear",
    "relu",
    "sigmoid",
    "stable_sigmoid",
    "gru_step",
    "lstm_step",
    "elman_step",
]


def linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map ``x @ weight.T + bias`` (PyTorch convention)."""
    out = x @ weight.T
    if bias is not None:
        out += bias
    return out


def row_stable_linear(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map whose per-row results are independent of the batch size.

    ``(x @ W.T)[i]`` generally differs from ``x[i:i+1] @ W.T`` in the last
    ulp because BLAS picks different blocking/accumulation orders for
    different shapes.  Feeding matmul a stacked ``[B, 1, n] @ [n, m]``
    instead routes every row through the identical ``[1, n]`` kernel — the
    same one a singleton update uses — so each row's bits are independent of
    how many rows ride along, at a C-level loop's cost rather than Python's.
    The batch-size invariance (and hence the wave scheduler's bit-exact
    coalescing) is pinned by ``test_update_kernels_are_batch_size_invariant``.

    ``weight.T`` is deliberately the strided view of the stored matrix, not
    a contiguous transposed copy: the copy sends the ``[1, n]`` product down
    a different BLAS kernel whose last ulp differs (see the module note).
    """
    out = np.matmul(x[:, None, :], weight.T)[:, 0, :]
    if bias is not None:
        out += bias
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit, matching ``Tensor.relu`` (``x * (x > 0)``)."""
    return x * (x > 0)


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-free sigmoid — the GRU gate function, autograd and batched.

    ``e = exp(−|z|)`` lies in ``(0, 1]`` whatever the input, and the two
    stable branches share the denominator: ``1 / (1 + e)`` where ``z ≥ 0``,
    ``e / (1 + e)`` below.  :func:`repro.nn.rnn.fused_gru_step` and
    :func:`gru_step` both call this one function, so the bit-identity between
    the training and serving GRU paths cannot drift.  Two float temporaries,
    both reused in place.
    """
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = e + 1.0
    np.putmask(e, z >= 0, 1.0)
    return np.divide(e, out, out=out)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid, matching ``Tensor.sigmoid`` exactly.

    ``Tensor.sigmoid`` clips its input to ``[-500, 500]`` in each branch;
    clipping once up front and taking :func:`stable_sigmoid` of the result is
    the same arithmetic (the clip keeps the sign, so the branch test agrees).
    """
    clipped = np.maximum(x, -500.0)
    return stable_sigmoid(np.minimum(clipped, 500.0, out=clipped))


def gru_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    bias_ih: np.ndarray,
    bias_hh: np.ndarray,
) -> np.ndarray:
    """One batched GRU step over ``[B, input]`` / ``[B, hidden]`` stacks.

    Same arithmetic as :func:`repro.nn.rnn.fused_gru_step`'s forward pass
    (PyTorch gate convention) minus the autograd bookkeeping, contracted via
    :func:`row_stable_linear` so the step is batch-size invariant: a wave of
    updates equals the same updates applied one at a time, bit for bit.
    """
    hidden = h_prev.shape[1]
    gates_i = row_stable_linear(x, weight_ih, bias_ih)
    gates_h = row_stable_linear(h_prev, weight_hh, bias_hh)
    gates = stable_sigmoid(gates_i[:, : 2 * hidden] + gates_h[:, : 2 * hidden])
    reset, update = gates[:, :hidden], gates[:, hidden:]
    candidate = np.tanh(gates_i[:, 2 * hidden :] + reset * gates_h[:, 2 * hidden :])
    return (1.0 - update) * candidate + update * h_prev


def lstm_step(
    x: np.ndarray,
    state: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    bias_ih: np.ndarray,
    bias_hh: np.ndarray,
) -> np.ndarray:
    """One batched, batch-size-invariant LSTM step over the packed ``[B, 2*hidden]`` state."""
    hidden = state.shape[1] // 2
    h_prev = state[:, :hidden]
    c_prev = state[:, hidden:]
    gates = row_stable_linear(x, weight_ih, bias_ih) + row_stable_linear(h_prev, weight_hh, bias_hh)
    i_gate = sigmoid(gates[:, :hidden])
    f_gate = sigmoid(gates[:, hidden : 2 * hidden])
    g_gate = np.tanh(gates[:, 2 * hidden : 3 * hidden])
    o_gate = sigmoid(gates[:, 3 * hidden :])
    c_new = f_gate * c_prev + i_gate * g_gate
    h_new = o_gate * np.tanh(c_new)
    return np.concatenate([h_new, c_new], axis=1)


def elman_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    weight_ih: np.ndarray,
    weight_hh: np.ndarray,
    bias: np.ndarray,
) -> np.ndarray:
    """One batched, batch-size-invariant tanh (Elman) step."""
    return np.tanh(row_stable_linear(x, weight_ih, bias) + row_stable_linear(h_prev, weight_hh))

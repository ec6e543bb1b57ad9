"""Functional neural-network operations built on :class:`repro.nn.Tensor`.

These free functions are the ones training calls: activations, the losses
the censors fit with (BCE on logits, MAE) and the encoder / critic regress
with (MAE, MSE), the PPO update's clipped-surrogate policy loss, the tanh
MLP's forward and backward, and the fused recurrent sequence kernels.

Every matmul of the training MLP forward and of the fused recurrent kernels
below goes through :func:`repro.nn.tensor.rc_matmul`, the single
execution-backend choke point: inside a ``row_consistent_matmul`` context
the projections run on the active :mod:`repro.nn.backend` (the compiled
blocked kernel by default) without any code here knowing which.

The PPO update's graph is three nodes with closed-form backwards,
bit-identical to the composed ``Tensor``-op formulations kept in
``tests/oracles/composed_ppo.py``: ``ppo_policy_loss``, into which the
actor's log-probabilities and entropy fold; the critic's values, whose MLP
runs through ``tanh_mlp_forward`` / ``tanh_mlp_backward`` as the actor's
does; and ``mse_loss``.  Their elementwise work (the MLP's bias + tanh and
its tanh gradient, the Gaussian log-density, the ratio and clip of the
surrogate) runs on the active backend's training hooks; every BLAS product
is a numpy ``@`` and every reduction a numpy ``.sum()``, with the same
operands and layout as the composed formulation, which is what keeps the
bits.  The recurrent sequences' backwards follow the same split: one
backend BPTT step hook per time step between numpy products.

Backwards hand their parents the arrays they have just allocated through
``Tensor._accumulate_fresh``, which adopts a first gradient instead of
copying it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import backend as _backend
from .tensor import Tensor, _unbroadcast, as_tensor, is_grad_enabled, rc_matmul

__all__ = [
    "relu",
    "tanh",
    "stable_sigmoid",
    "mse_loss",
    "mae_loss",
    "binary_cross_entropy_with_logits",
    "ppo_policy_loss",
    "tanh_mlp_forward",
    "tanh_mlp_backward",
    "gru_cell_forward",
    "gru_sequence",
    "lstm_sequence",
]


def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()


def tanh(x: Tensor) -> Tensor:
    return as_tensor(x).tanh()


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements (one node)."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    diff = prediction.data + -target.data
    count = float(diff.size)
    out_data = (diff * diff).sum() / count

    def backward(grad: np.ndarray) -> None:
        d_square = grad / count * diff
        prediction._accumulate_fresh(_unbroadcast(d_square + d_square, prediction.data.shape))

    return Tensor._make(out_data, (prediction,), backward)


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error over all elements (used by the StateEncoder)."""
    prediction, target = as_tensor(prediction), as_tensor(target)
    return (prediction - target.detach()).abs().mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: Tensor) -> Tensor:
    """Numerically stable BCE that takes raw logits."""
    logits = as_tensor(logits)
    targets = as_tensor(targets).detach()
    # max(x, 0) - x*t + log(1 + exp(-|x|))
    relu_term = logits.relu()
    softplus = (1.0 + (-logits.abs()).exp()).log()
    return (relu_term - logits * targets + softplus).mean()


def _folded(tensor: Tensor) -> Tuple[Tuple[Tensor, ...], Callable[[np.ndarray], None]]:
    """The parents and the backward a consumer records in place of ``tensor``:
    a node's own, so its closure runs inside the consumer's and the walk never
    visits it, or a leaf itself."""
    if tensor._backward is None:
        return (tensor,), tensor._accumulate_fresh
    return tensor._parents, tensor._backward


def ppo_policy_loss(
    log_probs: Tensor,
    entropy: Tensor,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_epsilon: float,
    entropy_coef: float,
) -> Tuple[Tensor, np.ndarray]:
    """PPO's actor loss ``−E[min(I·Â, clip(I, 1±ε)·Â)] − c_H·H`` as one node.

    ``I = exp(log_probs − old_log_probs)`` is the probability ratio and
    ``H`` the policy ``entropy``; returns ``(loss, I)`` — the ratio as a
    plain array, for the clip-fraction diagnostic.  Where the two products
    tie the unclipped branch is taken, and the clipped branch passes
    gradient only where ``I`` is inside the clip range (bounds included).

    Nodes passed as ``log_probs`` / ``entropy`` (``log_prob_and_entropy``
    returns two) are folded in: the loss records their parents, the actor's
    parameters, and runs their backwards in its own, the entropy's first, so
    the whole actor loss is one node of the walked graph.
    """
    log_probs, entropy = as_tensor(log_probs), as_tensor(entropy)
    backend = _backend.active_backend()
    surrogate, ratio, take_raw, inside = backend.clipped_surrogate(
        log_probs.data, old_log_probs, advantages, 1.0 - clip_epsilon, 1.0 + clip_epsilon
    )
    count = float(ratio.size)
    out_data = -(surrogate.sum() / count) + -(entropy.data * entropy_coef)
    log_prob_parents, log_prob_backward = _folded(log_probs)
    entropy_parents, entropy_backward = _folded(entropy)

    def backward(grad: np.ndarray) -> None:
        if entropy.requires_grad:
            entropy_backward(-grad * entropy_coef)
        if log_probs.requires_grad:
            log_prob_backward(
                backend.clipped_surrogate_backward(-grad / count, ratio, advantages, take_raw, inside)
            )

    return Tensor._make(out_data, log_prob_parents + entropy_parents, backward), ratio


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable sigmoid on a raw numpy array.

    ``1 / (1 + exp(-x))`` overflows (and warns) for large-magnitude negative
    logits; branching on the sign keeps every ``exp`` argument non-positive.
    Shared by the censor scoring paths, which apply it to unbounded head
    logits outside the autodiff graph.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


# --------------------------------------------------------------------------- #
# Tanh MLP
# --------------------------------------------------------------------------- #
# The actor's and the critic's training nodes (``repro.core.actor_critic``)
# run the MLP through this forward / backward pair under the same numerical
# contract as the recurrent kernels below: every expression mirrors the
# composed ``Linear`` / ``Tanh`` formulation operation for operation, so
# values and gradients are bit-identical to it.  The composed bodies live in
# ``tests/oracles/composed_ppo.py``.


def tanh_mlp_forward(
    x: np.ndarray, layers: Sequence[Tuple[np.ndarray, np.ndarray]], matmul: Callable
) -> List[np.ndarray]:
    """Linear-tanh-…-Linear on raw arrays — the one definition of its forward.

    ``layers`` holds one ``(weight, bias)`` pair per Linear; every layer but
    the last is followed by a tanh, its bias and tanh the active backend's
    ``bias_tanh``.  Returns ``[x, h_1, …, h_{L-1}, out]``: each layer's
    input, then the output.  The training nodes pass :func:`rc_matmul`; the
    inference forward (:func:`repro.core.actor_critic.mlp_forward`) passes
    the active backend's ``matmul2d`` itself.
    """
    backend = _backend.active_backend()
    activations = [x]
    last = len(layers) - 1
    for index, (weight, bias) in enumerate(layers):
        x = matmul(x, weight)
        x = backend.bias_tanh(x, bias) if index < last else x + bias
        activations.append(x)
    return activations


def tanh_mlp_backward(
    grad: np.ndarray,
    x: Tensor,
    layers: Sequence[Tuple[Tensor, Tensor]],
    activations: Sequence[np.ndarray],
) -> None:
    """Accumulate the gradients of a :func:`tanh_mlp_forward` whose output
    received ``grad`` — the one definition of its backward.

    Walks the layers last to first and computes an input gradient only where
    one is wanted: the hidden layers, and ``x`` itself when it requires grad.
    """
    backend = _backend.active_backend()
    for index in range(len(layers) - 1, -1, -1):
        weight, bias = layers[index]
        layer_input = activations[index]
        if bias.requires_grad:
            bias._accumulate_fresh(grad.sum(axis=0))
        if weight.requires_grad:
            weight._accumulate_fresh(layer_input.T @ grad)
        if index > 0:
            grad = backend.tanh_backward(grad @ weight.data.T, layer_input)
        elif x.requires_grad:
            x._accumulate_fresh(grad @ weight.data.T)


# --------------------------------------------------------------------------- #
# Fused recurrent kernels
# --------------------------------------------------------------------------- #
# Each primitive computes its forward in plain numpy on packed gate weights
# (``w_x`` holding all input projections side by side, ``w_h`` all hidden
# projections, ``b`` all biases), caches the gate activations and implements
# the closed-form backward in a single closure.  A whole layer × time block
# therefore records one autograd node (two for the LSTM, whose final cell
# state is a second output) instead of the ~15 per step a composed Tensor-op
# formulation produces, with all input projections hoisted into a single
# ``(B·T, in) @ (in, gates·H)`` GEMM before the time loop.
#
# Numerical contract: every elementwise expression mirrors the composed
# formulation operation for operation (``(gx + gh) + b``, the same sigmoid /
# tanh forms), and all projections route through ``rc_matmul``; fused and
# composed forwards are therefore bit-identical, and inside a
# ``row_consistent_matmul()`` context the sequence path and the array step
# (``gru_cell_forward``) are bit-identical to each other regardless of
# batch/time chunking.
#
# The elementwise math is owned by the active execution backend: the gate
# math of the forwards (``active_backend().gru_gates`` / ``.lstm_gates``),
# whose cached activations come back from the backend, and one time step of
# the closed-form backwards (``.gru_bptt_step`` / ``.lstm_bptt_step``).  The
# `reference` backend runs the original numpy expressions, the default
# `blocked` backend compiled kernels self-checked bit-identical to them.
# The products stay here as numpy ``@`` on the same operands: the
# recurrent ``d_t @ w_h.T`` between two steps, and the hoisted ``dW_x`` /
# ``dW_h`` / ``dx`` products and bias sums after the loop — which is what
# keeps every gradient byte-identical across backends.


def gru_cell_forward(
    x: np.ndarray, hidden: np.ndarray, w_x: np.ndarray, w_h: np.ndarray, b: np.ndarray, matmul
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The GRU step on raw arrays — the one definition of its forward.

    Gate layout along the packed columns is ``[r | z | n]``::

        r = sigmoid(gx_r + gh_r + b_r)
        z = sigmoid(gx_z + gh_z + b_z)
        n = tanh(gx_n + r * gh_n + b_n)
        h' = (1 - z) * n + z * h

    with ``gx = matmul(x, w_x)`` and ``gh = matmul(hidden, w_h)`` each a
    single GEMM.  Returns the active backend's ``(h', reset, update,
    candidate, gh_n)``.  :meth:`repro.nn.GRU.step_arrays`, the inference
    step, passes the backend's ``matmul2d``.
    """
    gx = matmul(x, w_x)
    gh = matmul(hidden, w_h)
    return _backend.active_backend().gru_gates(gx, gh, b, hidden)


def _check_sequence(
    name: str, x: Tensor, w_x: Tensor, w_h: Tensor, states: Sequence[Tuple[str, Tensor]]
) -> None:
    """Refuse, before any projection, an ``x`` that is not ``(B, T ≥ 1, in)``
    or an initial state that is not ``(B, H)`` — the shapes ``w_x`` and
    ``w_h`` fix — so every backend raises the same ``ValueError``."""
    inputs, size = w_x.data.shape[0], w_h.data.shape[0]
    ok = x.data.ndim == 3 and x.data.shape[1] >= 1 and x.data.shape[2] == inputs
    batch = x.data.shape[0] if x.data.ndim == 3 else "B"
    ok = ok and all(state.data.shape == (batch, size) for _, state in states)
    if not ok:
        wanted = ", ".join(f"{label} ({batch}, {size})" for label, _ in states)
        got = ", ".join(f"{label} {state.data.shape}" for label, state in states)
        raise ValueError(
            f"{name} expects x ({batch}, T >= 1, {inputs}) and {wanted}; got x {x.data.shape}, {got}"
        )


def gru_sequence(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor, h0: Tensor) -> Tensor:
    """Fused single-layer GRU over a ``(B, T, in)`` sequence.

    All ``T`` input projections are hoisted out of the time loop into one
    ``(B·T, in) @ (in, 3H)`` GEMM; the loop then performs one hidden GEMM and
    the gate elementwise math per step.  Returns the ``(B, T, H)`` outputs as
    a single autograd node whose backward runs the closed-form BPTT
    recurrence — per step the active backend's ``gru_bptt_step`` and the
    recurrent product ``d_gh_t @ w_h.T`` — rebuilding ``dw_x`` / ``dw_h`` /
    ``dx`` with hoisted GEMMs.  The final hidden state is
    ``outputs[:, -1, :]``.  ``x`` must be ``(B, T ≥ 1, in)`` and ``h0``
    ``(B, H)``, else ``ValueError``.
    """
    x, h0 = as_tensor(x), as_tensor(h0)
    w_x, w_h, b = as_tensor(w_x), as_tensor(w_h), as_tensor(b)
    _check_sequence("gru_sequence", x, w_x, w_h, [("h0", h0)])
    batch, steps, _ = x.data.shape
    size = h0.data.shape[-1]
    w_h_data, b_data = w_h.data, b.data

    x_flat = np.ascontiguousarray(x.data.reshape(batch * steps, -1))
    gx_all = rc_matmul(x_flat, w_x.data).reshape(batch, steps, 3 * size)

    parents = (x, w_x, w_h, b, h0)
    recording = is_grad_enabled() and any(p.requires_grad for p in parents)

    outputs = np.empty((batch, steps, size))
    if recording:
        resets = np.empty((batch, steps, size))
        updates = np.empty((batch, steps, size))
        candidates = np.empty((batch, steps, size))
        gh_ns = np.empty((batch, steps, size))
        h_prevs = np.empty((batch, steps, size))

    backend = _backend.active_backend()
    hidden = h0.data
    for t in range(steps):
        gh = rc_matmul(hidden, w_h_data)
        new_hidden, reset, update, candidate, gh_n = backend.gru_gates(
            gx_all[:, t, :], gh, b_data, hidden
        )
        if recording:
            resets[:, t], updates[:, t] = reset, update
            candidates[:, t], gh_ns[:, t] = candidate, gh_n
            h_prevs[:, t] = hidden
        hidden = new_hidden
        outputs[:, t] = hidden

    if not recording:
        return Tensor(outputs)

    def backward(grad: np.ndarray) -> None:
        d_gx_all = np.empty((batch, steps, 3 * size))
        d_gh_all = np.empty((batch, steps, 3 * size))
        w_h_t = w_h_data.T
        d_hidden = np.zeros((batch, size))
        for t in range(steps - 1, -1, -1):
            carry = backend.gru_bptt_step(
                t, d_hidden, grad, resets, updates, candidates, h_prevs, gh_ns, d_gx_all, d_gh_all
            )
            d_hidden = carry + d_gh_all[:, t] @ w_h_t
        d_gx_flat = d_gx_all.reshape(batch * steps, 3 * size)
        if x.requires_grad:
            x._accumulate_fresh((d_gx_flat @ w_x.data.T).reshape(x.data.shape))
        if w_x.requires_grad:
            w_x._accumulate_fresh(x_flat.T @ d_gx_flat)
        if w_h.requires_grad:
            w_h._accumulate_fresh(
                h_prevs.reshape(batch * steps, size).T
                @ d_gh_all.reshape(batch * steps, 3 * size)
            )
        if b.requires_grad:
            b._accumulate_fresh(d_gx_flat.sum(axis=0))
        if h0.requires_grad:
            h0._accumulate_fresh(d_hidden)

    return Tensor._make(outputs, parents, backward)


def lstm_sequence(
    x: Tensor,
    w_x: Tensor,
    w_h: Tensor,
    b: Tensor,
    h0: Tensor,
    c0: Tensor,
) -> Tuple[Tensor, Tensor]:
    """Fused single-layer LSTM over a ``(B, T, in)`` sequence.

    Input projections for all timesteps are hoisted into one
    ``(B·T, in) @ (in, 4H)`` GEMM.  Returns ``(outputs, final_cell)``:
    ``outputs`` is a ``(B, T, H)`` node whose backward is the closed-form
    BPTT recurrence (the final hidden state is ``outputs[:, -1, :]``), and
    ``final_cell`` is a second node over the same cached forward so
    gradients flowing into the final cell state alone are also supported.
    Both backwards run, per step, the active backend's ``lstm_bptt_step``
    and the recurrent product ``d_pre_t @ w_h.T``.  ``x`` must be
    ``(B, T ≥ 1, in)`` and ``h0`` / ``c0`` ``(B, H)``, else ``ValueError``.
    """
    x, h0, c0 = as_tensor(x), as_tensor(h0), as_tensor(c0)
    w_x, w_h, b = as_tensor(w_x), as_tensor(w_h), as_tensor(b)
    _check_sequence("lstm_sequence", x, w_x, w_h, [("h0", h0), ("c0", c0)])
    batch, steps, _ = x.data.shape
    size = h0.data.shape[-1]
    w_h_data, b_data = w_h.data, b.data

    x_flat = np.ascontiguousarray(x.data.reshape(batch * steps, -1))
    gx_all = rc_matmul(x_flat, w_x.data).reshape(batch, steps, 4 * size)

    parents = (x, w_x, w_h, b, h0, c0)
    recording = is_grad_enabled() and any(p.requires_grad for p in parents)

    outputs = np.empty((batch, steps, size))
    if recording:
        gates_i = np.empty((batch, steps, size))
        gates_f = np.empty((batch, steps, size))
        gates_g = np.empty((batch, steps, size))
        gates_o = np.empty((batch, steps, size))
        tanh_cells = np.empty((batch, steps, size))
        h_prevs = np.empty((batch, steps, size))
        c_prevs = np.empty((batch, steps, size))

    backend = _backend.active_backend()
    hidden, cell = h0.data, c0.data
    for t in range(steps):
        gh = rc_matmul(hidden, w_h_data)
        new_hidden, new_cell, gate_i, gate_f, gate_g, gate_o, tanh_cell = (
            backend.lstm_gates(gx_all[:, t, :], gh, b_data, cell)
        )
        if recording:
            gates_i[:, t], gates_f[:, t] = gate_i, gate_f
            gates_g[:, t], gates_o[:, t] = gate_g, gate_o
            tanh_cells[:, t] = tanh_cell
            h_prevs[:, t], c_prevs[:, t] = hidden, cell
        cell = new_cell
        hidden = new_hidden
        outputs[:, t] = hidden

    if not recording:
        return Tensor(outputs), Tensor(cell)

    def run_bptt(grad_outputs: Optional[np.ndarray], grad_final_cell: Optional[np.ndarray]) -> None:
        d_pre_all = np.empty((batch, steps, 4 * size))
        w_h_t = w_h_data.T
        d_hidden = np.zeros((batch, size))
        d_cell = np.zeros((batch, size)) if grad_final_cell is None else grad_final_cell.copy()
        for t in range(steps - 1, -1, -1):
            d_cell = backend.lstm_bptt_step(
                t, d_hidden, d_cell, grad_outputs,
                gates_i, gates_f, gates_g, gates_o, tanh_cells, c_prevs, d_pre_all,
            )
            d_hidden = d_pre_all[:, t] @ w_h_t
        d_pre_flat = d_pre_all.reshape(batch * steps, 4 * size)
        if x.requires_grad:
            x._accumulate_fresh((d_pre_flat @ w_x.data.T).reshape(x.data.shape))
        if w_x.requires_grad:
            w_x._accumulate_fresh(x_flat.T @ d_pre_flat)
        if w_h.requires_grad:
            w_h._accumulate_fresh(
                h_prevs.reshape(batch * steps, size).T
                @ d_pre_all.reshape(batch * steps, 4 * size)
            )
        if b.requires_grad:
            b._accumulate_fresh(d_pre_flat.sum(axis=0))
        if h0.requires_grad:
            h0._accumulate_fresh(d_hidden)
        if c0.requires_grad:
            c0._accumulate_fresh(d_cell)

    def backward_outputs(grad: np.ndarray) -> None:
        run_bptt(grad, None)

    def backward_final_cell(grad: np.ndarray) -> None:
        run_bptt(None, grad)

    return (
        Tensor._make(outputs, parents, backward_outputs),
        Tensor._make(cell, parents, backward_final_cell),
    )

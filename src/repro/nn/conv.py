"""1-D convolution block (for the Deep Fingerprinting classifier).

:class:`Conv1d` holds a convolution's parameters; :meth:`Conv1d.relu_pool`
runs it as DF's whole conv block -- convolution, ReLU and a max-pool of two
-- and records **one** autograd node where the composed graph recorded six
(column matrix, product, bias add, transpose, ReLU, ``MaxPool1d``; five
when the input needs no gradient).

The convolution is the im2col trick: the column matrix comes from the
active backend's ``im2col_1d`` hook, the product is numpy's ``@`` on it, and
the backend's ``bias_relu_pool`` hook does the bias, the ReLU (a multiply by
the mask) and the pool (``np.maximum`` of the even and odd positions), out
in the conv layout.  That is DF scoring's own forward.  The closed-form
backward runs two more hooks around numpy's products:

* ``bias_relu_pool_backward`` sends each pooled gradient to the first
  maximum of its pair (through ``+0.0 +``, as the pool's scatter did) and
  multiplies by the ReLU mask;
* ``col2im_1d`` scatters the column gradient back onto the input, adding
  kernel offset ``kernel_size - 1`` first and offset 0 last from ``+0.0``,
  so every input element sums its terms in the order the composed graph's
  per-offset strided ``+=`` did.

Every BLAS product and reduction is a numpy call on operands of the
composed graph's shapes and strides (the batched ``swapaxes(columns) @
grad`` and its batch-axis sum for the weight, ``grad @ weight.T`` for the
columns, ``_unbroadcast``'s sums for the bias), so forward values and all
three gradients are ``view(uint64)``-equal to the composed Conv1d → ReLU →
MaxPool1d graph kept in ``tests/oracles/conv_reference.py``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import backend as _backend
from . import init
from .layers import Module, Parameter
from .tensor import Tensor, _unbroadcast, as_tensor

__all__ = ["Conv1d"]


def _check_at_least(layer: str, name: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{layer}: {name} must be >= {minimum}, got {value}")


class Conv1d(Module):
    """1-D convolution parameters for inputs of shape ``(batch, channels, length)``.

    ``weight`` is ``(in_channels * kernel_size, out_channels)`` (row
    ``c * kernel_size + j`` multiplies input channel ``c`` at window offset
    ``j``), ``bias`` is ``(out_channels,)``.  The layer has no ``forward``;
    :meth:`relu_pool` is the block DF trains and attacks through.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        _check_at_least("Conv1d", "kernel_size", kernel_size, 1)
        _check_at_least("Conv1d", "stride", stride, 1)
        _check_at_least("Conv1d", "padding", padding, 0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        weight_shape = (in_channels * kernel_size, out_channels)
        self.weight = Parameter(init.xavier_uniform(weight_shape, rng=rng), name="weight")
        self.bias = Parameter(init.zeros((out_channels,)), name="bias")

    def relu_pool(self, x: Tensor) -> Tensor:
        """Convolution, ReLU and a max-pool of two over ``x`` as one node.

        ``(batch, in_channels, length)`` in, ``(batch, out_channels,
        positions // 2)`` out (C-contiguous), ``positions`` being the
        convolution's output length (at least 2, else ``ValueError``); an
        odd last position is dropped, as ``MaxPool1d(2)`` drops it.  Among
        tied maxima the gradient goes to the first.  The input gradient is
        computed only when ``x`` requires one (the white-box attacks
        differentiate DF's input).
        """
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"Conv1d expects (batch, channels, length), got shape {x.shape}")
        backend = _backend.active_backend()
        weight, bias = self.weight, self.bias
        kernel_size, stride, padding = self.kernel_size, self.stride, self.padding
        columns = backend.im2col_1d(x.data, kernel_size, stride, padding)
        if columns.shape[1] < 2:  # as MaxPool1d(2) refused a window longer than its input
            raise ValueError(f"Conv1d.relu_pool: {columns.shape[1]} position(s), the pool needs 2")
        h = columns @ weight.data  # (batch, positions, out_channels)
        # the backward recomputes the mask from the product and this bias
        bias_data = bias.data.copy()
        length = x.data.shape[2]

        def backward(grad: np.ndarray) -> None:
            d_h = backend.bias_relu_pool_backward(grad, h, bias_data)
            if bias.requires_grad:
                bias._accumulate_fresh(_unbroadcast(d_h, bias_data.shape))
            if weight.requires_grad:
                weight._accumulate_fresh(_unbroadcast(np.swapaxes(columns, -1, -2) @ d_h, weight.data.shape))
            if x.requires_grad:
                d_columns = d_h @ weight.data.T
                x._accumulate_fresh(backend.col2im_1d(d_columns, length, kernel_size, stride, padding))

        return Tensor._make(backend.bias_relu_pool(h, bias_data), (x, weight, bias), backward)

"""Equivalence oracle: DF's conv block as the composed Conv1d → ReLU → MaxPool1d graph.

``nn.Conv1d.relu_pool`` records one autograd node per conv block.  The
reference it is held to is the graph it replaced, one node per step
(:func:`composed_relu_pool`): ``Conv1d.forward`` (the backend's column
matrix, product, bias add, transpose), ``Tensor.relu`` and ``MaxPool1d(2)``.
The two layer bodies are production's as they stood before the fusion,
verbatim: ``MaxPool1d`` folds ``np.maximum`` over the window's offsets and
sends the gradient to the first strict maximum (``candidate > running``, so
a NaN never takes it from an earlier cell), both backward scatters add one
strided slice per kernel offset, last offset first.  Those bodies were
themselves held bit-identical to the per-position seed loops, which a NaN
activation alone tells apart (``argmax`` picks a NaN).  They are kept only
as the reference the bitwise tests (``tests/test_nn_recurrent_conv.py``,
``tests/test_properties.py``, ``tests/test_censors.py``) compare the fused
block against -- do not optimise or "fix" them.  ``ReferenceConv1d``
inherits the production constructor and adds the forward production no
longer has.

To run DF (or anything else built on ``Conv1d.relu_pool``) on the composed
graph, patch it over the fused block::

    monkeypatch.setattr(nn.Conv1d, "relu_pool", composed_relu_pool)
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro import nn
from repro.nn import backend as _backend
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["ReferenceConv1d", "ReferenceMaxPool1d", "composed_relu_pool", "windows_1d"]


def windows_1d(x: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Read-only strided view ``(batch, channels, out_length, kernel_size)`` of
    the windows a 1-D kernel visits along the last axis (no data copied)."""
    return sliding_window_view(x, kernel_size, axis=2)[:, :, ::stride]


class ReferenceConv1d(nn.Conv1d):
    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"Conv1d expects (batch, channels, length), got shape {x.shape}")
        columns = _backend.active_backend().im2col_1d(
            x.data, self.kernel_size, self.stride, self.padding
        )
        out_length = columns.shape[1]

        # The column extraction is a linear (gather) operation; we rebuild the
        # gradient w.r.t. the padded input manually in the backward closure
        # and let matmul handle the weight gradient.
        col_tensor = Tensor(columns, requires_grad=x.requires_grad)

        if x.requires_grad:
            padding = self.padding
            kernel_size = self.kernel_size
            stride = self.stride
            input_shape = x.data.shape

            def col_backward(grad: np.ndarray) -> None:
                batch, channels, length = input_shape
                padded = np.zeros((batch, channels, length + 2 * padding))
                # (batch, channels, out_length, kernel_size), like the windows
                patch_grad = grad.reshape(batch, out_length, channels, kernel_size)
                patch_grad = patch_grad.transpose(0, 2, 1, 3)
                span = (out_length - 1) * stride + 1
                for offset in reversed(range(kernel_size)):
                    padded[:, :, offset : offset + span : stride] += patch_grad[..., offset]
                if padding > 0:
                    padded = padded[:, :, padding:-padding]
                x._accumulate(padded)

            col_tensor._backward = col_backward
            col_tensor._parents = (x,)

        out = col_tensor @ self.weight + self.bias  # (batch, out_length, out_channels)
        return out.transpose(0, 2, 1)  # (batch, out_channels, out_length)


class ReferenceMaxPool1d(nn.Module):
    """Max pooling over the last dimension of ``(batch, channels, length)``.

    ``stride=None`` means ``kernel_size`` (non-overlapping windows).  The
    output is C-contiguous and owns its memory whatever the input's layout.
    Among tied maxima the gradient goes to the first, and a tie of zeros
    pools to the window's last zero (both as ``argmax`` / ``max`` over the
    window have it).
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"MaxPool1d expects (batch, channels, length), got shape {x.shape}")
        data = x.data
        kernel_size, stride = self.kernel_size, self.stride
        windows = windows_1d(data, kernel_size, stride)
        track = is_grad_enabled() and x.requires_grad
        out_data = np.array(windows[..., 0], order="C")
        argmax = np.zeros(out_data.shape, dtype=np.intp) if track else None
        for offset in range(1, kernel_size):
            candidate = windows[..., offset]
            if track:
                argmax[candidate > out_data] = offset  # strict: first maximum wins
            # running maximum first: on a tie of zeros numpy keeps the second
            # operand, which is what the reduction over the window returns
            np.maximum(out_data, candidate, out=out_data)
        if not track:
            return Tensor(out_data)
        span = (out_data.shape[2] - 1) * stride + 1

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(data)
            for offset in reversed(range(kernel_size)):
                # the zeros added off the argmax leave the sum's bits alone:
                # a sum that starts at +0.0 is never -0.0
                full[:, :, offset : offset + span : stride] += np.where(argmax == offset, grad, 0.0)
            x._accumulate(full)

        return Tensor._make(out_data, (x,), backward)


def composed_relu_pool(conv: nn.Conv1d, x: Tensor) -> Tensor:
    """``conv`` → ReLU → max-pool of two as the composed graph: the
    reference of ``Conv1d.relu_pool`` (same signature, so it patches over
    it)."""
    return ReferenceMaxPool1d(2)(ReferenceConv1d.forward(conv, x).relu())

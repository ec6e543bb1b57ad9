"""1-D convolution and pooling layers (for the Deep Fingerprinting classifier).

Convolution is implemented via the im2col trick so that the forward and
backward passes are expressed as matrix multiplications handled by the
autodiff engine.  The column matrix comes from the active backend's
``im2col_1d`` hook: the transposed window view of a zero-padded copy under
``reference``, one compiled copy that writes the padding in place under
``blocked`` -- the same values either way, so the product sees the same
operand.  DF's array scoring calls the same hook.

No kernel here reduces over a ``kernel_size``-wide axis or loops over output
positions; each makes ``kernel_size`` whole-array passes over strided slices
of one window view:

* ``MaxPool1d.forward`` folds ``np.maximum`` over the window's offsets.  The
  left fold equals ``max`` over the window bit for bit, including the sign of
  a zero maximum (``np.maximum`` returns its second operand on a tie of
  zeros, as the reduction does) — an assumption about numpy pinned by
  ``tests/test_nn_recurrent_conv.py::test_maximum_fold_equals_window_reduce``.
* Both backward scatters add offset ``kernel_size - 1`` first and offset 0
  last.  Input element ``i`` sits at offset ``j = i - p * stride`` of window
  ``p``, so descending ``j`` is ascending ``p``: every element accumulates
  the same terms in the same order as a loop over positions would, also
  where windows overlap.

The per-position loops and the window-copy reduction these replaced are the
reference in ``tests/oracles/conv_reference.py``; outputs and gradients are
asserted ``view(uint64)``-equal to it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import backend as _backend
from . import init
from .layers import Module, Parameter
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["Conv1d", "MaxPool1d"]


def _windows_1d(x: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Read-only strided view ``(batch, channels, out_length, kernel_size)`` of
    the windows a 1-D kernel visits along the last axis (no data copied)."""
    return sliding_window_view(x, kernel_size, axis=2)[:, :, ::stride]


def _check_at_least(layer: str, name: str, value: int, minimum: int) -> None:
    if value < minimum:
        raise ValueError(f"{layer}: {name} must be >= {minimum}, got {value}")


class Conv1d(Module):
    """1-D convolution over inputs of shape ``(batch, channels, length)``."""

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


class MaxPool1d(Module):
    """Max pooling over the last dimension of ``(batch, channels, length)``.

    ``stride=None`` means ``kernel_size`` (non-overlapping windows).  The
    output is C-contiguous and owns its memory whatever the input's layout.
    Among tied maxima the gradient goes to the first, and a tie of zeros
    pools to the window's last zero (both as ``argmax`` / ``max`` over the
    window have it).
    """

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        _check_at_least("MaxPool1d", "kernel_size", kernel_size, 1)
        if stride is None:
            stride = kernel_size
        _check_at_least("MaxPool1d", "stride", stride, 1)
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"MaxPool1d expects (batch, channels, length), got shape {x.shape}")
        data = x.data
        kernel_size, stride = self.kernel_size, self.stride
        windows = _windows_1d(data, kernel_size, stride)
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

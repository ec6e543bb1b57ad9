"""Equivalence oracle: the reducing / per-position Conv1d and MaxPool1d, verbatim.

These are the ``forward`` bodies of ``Conv1d`` and ``MaxPool1d`` from
``src/repro/nn/conv.py`` as they stood before the kernels became
reduction-free and loop-free: ``MaxPool1d`` copies its windows into one
contiguous array and reduces it with ``max`` / ``argmax(axis=-1)``, its
backward visits the output positions one by one with a ``meshgrid`` each,
and ``Conv1d``'s ``col_backward`` adds one patch per output position.  They
are kept only as the reference the bitwise tests
(``tests/test_nn_recurrent_conv.py``, ``tests/test_properties.py``,
``tests/test_censors.py``) compare the production kernels against -- do not
optimise or "fix" them.  Each class inherits the production constructor and
replaces ``forward``; the window view, which the rewrite did not touch, is
the production helper.  The im2col gather is kept here verbatim
(:func:`_im2col_1d`): production now runs the backend's ``im2col_1d`` hook.

To run a whole network on the oracle, patch the production classes::

    monkeypatch.setattr(nn.Conv1d, "forward", ReferenceConv1d.forward)
    monkeypatch.setattr(nn.MaxPool1d, "forward", ReferenceMaxPool1d.forward)
"""

from __future__ import annotations

import numpy as np

from repro import nn
from repro.nn.conv import _windows_1d
from repro.nn.tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["ReferenceConv1d", "ReferenceMaxPool1d"]


def _im2col_1d(x: np.ndarray, kernel_size: int, stride: int):
    """Convert (batch, channels, length) to column matrix for 1-D convolution.

    Returns an array of shape (batch, out_length, channels * kernel_size) and
    the output length.  Column ``c * kernel_size + j`` of position ``p`` holds
    ``x[:, c, p * stride + j]``; the one copy is the reshape of the
    transposed window view.
    """
    batch, channels, _ = x.shape
    windows = _windows_1d(x, kernel_size, stride)
    out_length = windows.shape[2]
    columns = windows.transpose(0, 2, 1, 3).reshape(batch, out_length, channels * kernel_size)
    return columns, out_length


class ReferenceConv1d(nn.Conv1d):
    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 3:
            raise ValueError(f"Conv1d expects (batch, channels, length), got shape {x.shape}")
        data = x.data
        if self.padding > 0:
            padded = np.zeros(data.shape[:2] + (data.shape[2] + 2 * self.padding,), data.dtype)
            padded[:, :, self.padding : -self.padding] = data
            data = padded
        columns, out_length = _im2col_1d(data, self.kernel_size, self.stride)

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
                padded = np.zeros(
                    (input_shape[0], input_shape[1], input_shape[2] + 2 * padding)
                )
                batch = input_shape[0]
                for position in range(grad.shape[1]):
                    start = position * stride
                    patch_grad = grad[:, position, :].reshape(batch, input_shape[1], kernel_size)
                    padded[:, :, start : start + kernel_size] += patch_grad
                if padding > 0:
                    padded = padded[:, :, padding:-padding]
                x._accumulate(padded)

            col_tensor._backward = col_backward
            col_tensor._parents = (x,)

        out = col_tensor @ self.weight + self.bias  # (batch, out_length, out_channels)
        return out.transpose(0, 2, 1)  # (batch, out_channels, out_length)


class ReferenceMaxPool1d(nn.MaxPool1d):
    def forward(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        data = x.data
        # A contiguous copy, so the reductions see the same operand layout
        # whatever the layout of ``data`` (the sign of a zero maximum depends
        # on the reduction loop numpy picks).
        windows = np.ascontiguousarray(_windows_1d(data, self.kernel_size, self.stride))
        out_data = windows.max(axis=-1)
        if not (is_grad_enabled() and x.requires_grad):
            return Tensor(out_data)
        argmax = windows.argmax(axis=-1)
        batch, channels, out_length = out_data.shape

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(data)
            for position in range(out_length):
                start = position * self.stride
                idx = argmax[:, :, position]
                b_idx, c_idx = np.meshgrid(
                    np.arange(batch), np.arange(channels), indexing="ij"
                )
                full[b_idx, c_idx, start + idx] += grad[:, :, position]
            x._accumulate(full)

        return Tensor._make(out_data, (x,), backward)

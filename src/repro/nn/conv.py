"""1-D convolution and pooling layers (for the Deep Fingerprinting classifier).

Convolution is implemented via the im2col trick so that the forward and
backward passes are expressed as matrix multiplications handled by the
autodiff engine.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import init
from .layers import Module, Parameter
from .tensor import Tensor, as_tensor, is_grad_enabled

__all__ = ["Conv1d", "MaxPool1d", "GlobalAveragePool1d"]


def _windows_1d(x: np.ndarray, kernel_size: int, stride: int) -> np.ndarray:
    """Read-only strided view ``(batch, channels, out_length, kernel_size)`` of
    the windows a 1-D kernel visits along the last axis (no data copied)."""
    return sliding_window_view(x, kernel_size, axis=2)[:, :, ::stride]


def _im2col_1d(x: np.ndarray, kernel_size: int, stride: int) -> Tuple[np.ndarray, int]:
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


class MaxPool1d(Module):
    """Max pooling over the last dimension of ``(batch, channels, length)``."""

    def __init__(self, kernel_size: int, stride: Optional[int] = None) -> None:
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

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


class GlobalAveragePool1d(Module):
    """Average pooling over the temporal dimension, producing (batch, channels)."""

    def forward(self, x: Tensor) -> Tensor:
        return as_tensor(x).mean(axis=-1)

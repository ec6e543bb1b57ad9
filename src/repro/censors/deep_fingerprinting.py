"""Deep Fingerprinting (DF) censoring classifier.

Sirinam et al. (CCS'18) introduced DF as a 1-D CNN over packet-direction
sequences for website fingerprinting.  Following the paper, the classifier is
tailored to consume the (signed size, delay) flow representation of Section 3
instead of raw directions: the input is a two-channel sequence of length
``max_length`` processed by stacked Conv1d + ReLU + MaxPool blocks and a
dense head with a sigmoid output.

Training and the white-box attacks run the network on ``Tensor`` s, one
autograd node per conv block (``nn.Conv1d.relu_pool``: convolution, ReLU
and max-pool, with a closed-form backward), bit-identical to the composed
Conv1d → ReLU → MaxPool1d graph kept in ``tests/oracles/conv_reference.py``;
scoring runs the same forward on plain arrays (:func:`_conv_relu_pool`),
reading the parameters at call time.  Both give the same bits: the same
three BLAS products on the same operands, and elementwise steps that round
alike (``tests/oracles/df_tensor_scoring.py`` keeps the ``Tensor`` scoring
body the test suite compares against).  Around each conv product both call
two backend hooks, one compiled call each: ``im2col_1d``
(the column matrix) and ``bias_relu_pool`` (bias, ReLU and pool, written
channel-first so fc1's flatten is a free reshape); the block's backward
adds ``bias_relu_pool_backward`` and ``col2im_1d``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from .. import nn
from ..nn import functional as F
from ..features.representation import SequenceRepresentation
from ..flows.flow import Flow
from ..utils.rng import ensure_rng
from ..utils.validation import check_integer, check_positive
from .base import CensorClassifier
from .training import train_binary_classifier

__all__ = ["DeepFingerprintingClassifier"]


class _DFNetwork(nn.Module):
    """Two convolutional blocks followed by a dense classification head."""

    def __init__(self, max_length: int, channels: Sequence[int] = (16, 32), hidden: int = 64, rng=None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.conv1 = nn.Conv1d(2, channels[0], kernel_size=5, padding=2, rng=rng)
        self.conv2 = nn.Conv1d(channels[0], channels[1], kernel_size=5, padding=2, rng=rng)
        flattened = channels[1] * (max_length // 4)
        self.fc1 = nn.Linear(flattened, hidden, rng=rng, initializer="kaiming")
        self.fc2 = nn.Linear(hidden, 1, rng=rng)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        x = self.conv2.relu_pool(self.conv1.relu_pool(x))
        x = x.flatten()
        x = self.fc1(x).relu()
        return self.fc2(x)


def _conv_relu_pool(x: np.ndarray, conv: nn.Conv1d) -> np.ndarray:
    """One DF block on plain arrays: ``conv`` (stride 1), ReLU and a
    max-pool of two, ``(n, channels, length)`` in (any layout),
    ``(n, out_channels, length // 2)`` out (C-contiguous).

    The forward of ``conv.relu_pool`` without the node: the backend's
    ``im2col_1d``, numpy's ``@`` on the columns, and the backend's
    ``bias_relu_pool`` (``Tensor.relu``'s multiply by the mask, so negative
    inputs become ``-0.0``, and ``np.maximum`` of the even and odd
    positions).
    """
    backend = nn.active_backend()
    columns = backend.im2col_1d(x, conv.kernel_size, conv.stride, conv.padding)
    return backend.bias_relu_pool(columns @ conv.weight.data, conv.bias.data)


class DeepFingerprintingClassifier(CensorClassifier):
    """CNN-based censor operating on the two-channel sequence representation."""

    name = "DF"
    differentiable = True

    def __init__(
        self,
        representation: SequenceRepresentation,
        epochs: int = 8,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        hidden: int = 64,
        rng=None,
    ) -> None:
        super().__init__()
        self.representation = representation
        self.epochs = check_integer(epochs, "epochs", minimum=1)
        self.batch_size = check_integer(batch_size, "batch_size", minimum=1)
        self.learning_rate = check_positive(learning_rate, "learning_rate", finite=True)
        self._rng = ensure_rng(rng)
        # Conv/pool stack needs a length divisible by 4; round the
        # representation length down accordingly when building the network.
        self._effective_length = (representation.max_length // 4) * 4
        if self._effective_length < 4:
            raise ValueError("max_length must be at least 4 for the DF classifier")
        self.network = _DFNetwork(self._effective_length, hidden=hidden, rng=self._rng)

    # ------------------------------------------------------------------ #
    def _to_batch(self, flows: Sequence[Flow]) -> np.ndarray:
        """(n, max_length, 2) -> (n, 2, effective_length) channel-first array."""
        sequences = self.representation.transform_many(flows)
        sequences = sequences[:, : self._effective_length, :]
        return np.transpose(sequences, (0, 2, 1))

    def forward_tensor(self, batch: nn.Tensor) -> nn.Tensor:
        """Differentiable forward pass on an already-built input tensor.

        Exposed for the white-box baseline attacks (CW / NIDSGAN / BAP),
        which need gradients with respect to the classifier input.  The input
        layout is ``(batch, 2, effective_length)``.
        """
        return self.network(batch).sigmoid()

    def prepare_input(self, flows: Sequence[Flow]) -> np.ndarray:
        """Public helper returning the network input layout for ``flows``."""
        return self._to_batch(flows)

    # ------------------------------------------------------------------ #
    def fit(self, flows: Sequence[Flow], labels: Optional[Sequence[int]] = None) -> "DeepFingerprintingClassifier":
        flows = list(flows)
        labels = self._resolve_labels(flows, labels)
        inputs = self._to_batch(flows)
        train_binary_classifier(
            self.network,
            inputs,
            labels,
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            rng=self._rng,
        )
        self._fitted = True
        return self

    @property
    def packet_window(self) -> int:
        return self._effective_length

    def _score_flows(self, flows: Sequence[Flow]) -> np.ndarray:
        network = self.network
        h = self.representation.transform_many(flows)[:, : self._effective_length]
        h = _conv_relu_pool(h.transpose(0, 2, 1), network.conv1)
        h = _conv_relu_pool(h, network.conv2)
        # fc1 reads the channel-first flatten of the Tensor network.
        h = h.reshape(len(h), -1)
        h = h @ network.fc1.weight.data
        h += network.fc1.bias.data
        h *= h > 0
        logits = h @ network.fc2.weight.data + network.fc2.bias.data
        return F.stable_sigmoid(logits.reshape(-1))

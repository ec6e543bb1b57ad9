"""LSTM censoring classifier (Rimmer et al., NDSS'18 variant).

A multi-layer LSTM reads the (signed size, delay) sequence packet by packet;
the final hidden state feeds a sigmoid head.  Unlike the CNN/MLP censors this
model consumes flows of arbitrary length directly — no padding is required at
inference time — matching the paper's description of the LSTM censor.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .. import nn
from ..features.representation import FlowNormalizer
from ..flows.flow import Flow
from ..utils.rng import ensure_rng
from ..utils.validation import check_integer, check_positive
from ..nn import functional as F
from .base import CensorClassifier
from .training import train_binary_classifier

__all__ = ["LSTMClassifier"]


class _LSTMNetwork(nn.Module):
    def __init__(self, hidden_size: int = 32, num_layers: int = 2, rng=None) -> None:
        super().__init__()
        self.lstm = nn.LSTM(2, hidden_size, num_layers=num_layers, rng=rng)
        self.head = nn.Linear(hidden_size, 1, rng=rng)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        outputs, _ = self.lstm(x)
        final = outputs[:, -1, :]
        return self.head(final)


class LSTMClassifier(CensorClassifier):
    """Recurrent censor over variable-length flows."""

    name = "LSTM"
    differentiable = True

    def __init__(
        self,
        normalizer: FlowNormalizer,
        hidden_size: int = 32,
        num_layers: int = 2,
        epochs: int = 6,
        batch_size: int = 16,
        learning_rate: float = 1e-3,
        max_train_length: int = 60,
        rng=None,
    ) -> None:
        super().__init__()
        self.normalizer = normalizer
        self.epochs = check_integer(epochs, "epochs", minimum=1)
        self.batch_size = check_integer(batch_size, "batch_size", minimum=1)
        self.learning_rate = check_positive(learning_rate, "learning_rate", finite=True)
        self.max_train_length = max_train_length
        self._rng = ensure_rng(rng)
        self.network = _LSTMNetwork(hidden_size=hidden_size, num_layers=num_layers, rng=self._rng)

    # ------------------------------------------------------------------ #
    def _to_padded_batch(self, flows: Sequence[Flow], max_length: Optional[int] = None) -> np.ndarray:
        """Normalise flows and zero-pad them to a fixed width.

        Padding always extends to ``max_train_length`` (or ``max_length``)
        so that batches built from different flow sets share the same shape —
        the white-box attacks rely on a stable input layout.
        """
        pairs = [self.normalizer.normalise_flow(flow) for flow in flows]
        width = max_length or self.max_train_length
        batch = np.zeros((len(flows), width, 2))
        for row, pair in enumerate(pairs):
            length = min(len(pair), width)
            batch[row, :length] = pair[:length]
        return batch

    def forward_tensor(self, batch: nn.Tensor) -> nn.Tensor:
        """Differentiable benign-probability forward pass on (batch, time, 2) input."""
        return self.network(batch).sigmoid()

    def prepare_input(self, flows: Sequence[Flow]) -> np.ndarray:
        return self._to_padded_batch(flows)

    # ------------------------------------------------------------------ #
    def fit(self, flows: Sequence[Flow], labels: Optional[Sequence[int]] = None) -> "LSTMClassifier":
        flows = list(flows)
        labels = self._resolve_labels(flows, labels)
        # Every flow is normalised and padded once; minibatches are row
        # selections of the padded array.
        train_binary_classifier(
            self.network,
            self._to_padded_batch(flows),
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
        # Scoring pads and truncates every flow to max_train_length packets.
        return self.max_train_length

    def _score_flows(self, flows: Sequence[Flow]) -> np.ndarray:
        # One padded (n_flows, max_train_length, 2) forward for the whole
        # batch — no per-flow model calls.
        with nn.no_grad():
            batch = self._to_padded_batch(flows, max_length=self.max_train_length)
            logits = self.network(nn.Tensor(batch)).data.reshape(-1)
        return F.stable_sigmoid(logits)

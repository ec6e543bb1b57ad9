"""Stacked Denoising Autoencoder (SDAE) censoring classifier.

Rimmer et al. (NDSS'18) use an MLP encoder-decoder pre-trained to reconstruct
noisy traffic sequences, then fine-tune the encoder with a classification
head.  This implementation follows the same two-phase recipe on the flattened
(size, delay) sequence representation:

1. **Denoising pre-training** — Gaussian noise is added to the inputs and the
   autoencoder minimises MSE reconstruction of the clean sequence.
2. **Fine-tuning** — a sigmoid head on the encoder output is trained with BCE
   (encoder weights are updated as well).
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

__all__ = ["SDAEClassifier"]


class _Encoder(nn.Module):
    def __init__(self, input_dim: int, hidden_dims: Sequence[int], rng=None) -> None:
        super().__init__()
        layers = []
        previous = input_dim
        for width in hidden_dims:
            layers.append(nn.Linear(previous, width, rng=rng))
            layers.append(nn.ReLU())
            previous = width
        self.body = nn.Sequential(*layers)
        self.output_dim = previous

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.body(x)


class _Decoder(nn.Module):
    def __init__(self, latent_dim: int, hidden_dims: Sequence[int], output_dim: int, rng=None) -> None:
        super().__init__()
        layers = []
        previous = latent_dim
        for width in reversed(hidden_dims[:-1]):
            layers.append(nn.Linear(previous, width, rng=rng))
            layers.append(nn.ReLU())
            previous = width
        layers.append(nn.Linear(previous, output_dim, rng=rng))
        self.body = nn.Sequential(*layers)

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.body(x)


class _SDAENetwork(nn.Module):
    def __init__(self, input_dim: int, hidden_dims: Sequence[int], rng=None) -> None:
        super().__init__()
        self.encoder = _Encoder(input_dim, hidden_dims, rng=rng)
        self.decoder = _Decoder(self.encoder.output_dim, list(hidden_dims), input_dim, rng=rng)
        self.head = nn.Linear(self.encoder.output_dim, 1, rng=rng)

    def reconstruct(self, x: nn.Tensor) -> nn.Tensor:
        return self.decoder(self.encoder(x))

    def forward(self, x: nn.Tensor) -> nn.Tensor:
        return self.head(self.encoder(x))


class SDAEClassifier(CensorClassifier):
    """MLP encoder-decoder censor on the flattened sequence representation."""

    name = "SDAE"
    differentiable = True

    def __init__(
        self,
        representation: SequenceRepresentation,
        hidden_dims: Sequence[int] = (128, 64),
        pretrain_epochs: int = 5,
        epochs: int = 8,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        noise_std: float = 0.05,
        rng=None,
    ) -> None:
        super().__init__()
        self.representation = representation
        self.pretrain_epochs = check_integer(pretrain_epochs, "pretrain_epochs", minimum=0)
        self.epochs = check_integer(epochs, "epochs", minimum=1)
        self.batch_size = check_integer(batch_size, "batch_size", minimum=1)
        self.learning_rate = check_positive(learning_rate, "learning_rate", finite=True)
        self.noise_std = noise_std
        self._rng = ensure_rng(rng)
        self.network = _SDAENetwork(representation.n_features, hidden_dims, rng=self._rng)

    # ------------------------------------------------------------------ #
    def _to_batch(self, flows: Sequence[Flow]) -> np.ndarray:
        return self.representation.transform_flat(flows)

    def forward_tensor(self, batch: nn.Tensor) -> nn.Tensor:
        """Differentiable benign-probability forward pass on flat inputs."""
        return self.network(batch).sigmoid()

    def prepare_input(self, flows: Sequence[Flow]) -> np.ndarray:
        return self._to_batch(flows)

    def _pretrain(self, inputs: np.ndarray) -> None:
        optimizer = nn.Adam(self.network.parameters(), lr=self.learning_rate)
        n_samples = len(inputs)
        for _ in range(self.pretrain_epochs):
            order = self._rng.permutation(n_samples)
            for start in range(0, n_samples, self.batch_size):
                batch = inputs[order[start : start + self.batch_size]]
                noisy = batch + self._rng.normal(0.0, self.noise_std, size=batch.shape)
                reconstruction = self.network.reconstruct(nn.Tensor(noisy))
                loss = F.mse_loss(reconstruction, nn.Tensor(batch))
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()

    # ------------------------------------------------------------------ #
    def fit(self, flows: Sequence[Flow], labels: Optional[Sequence[int]] = None) -> "SDAEClassifier":
        flows = list(flows)
        labels = self._resolve_labels(flows, labels)
        inputs = self._to_batch(flows)
        self._pretrain(inputs)
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
        return self.representation.max_length

    def _score_flows(self, flows: Sequence[Flow]) -> np.ndarray:
        batch = self._to_batch(flows)
        with nn.no_grad():
            logits = self.network(nn.Tensor(batch))
        return F.stable_sigmoid(logits.data.reshape(-1))

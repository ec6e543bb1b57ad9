"""Shared training loop for the neural censoring classifiers.

DF, SDAE and the LSTM classifier are all trained as binary classifiers with a
sigmoid output and binary cross-entropy on the (size, delay) sequence
representation.  The loop here does shuffled mini-batch Adam; it is
intentionally free of model-specific logic: each classifier's network maps a
batch ``Tensor`` to logits.
"""

from __future__ import annotations

import math

import numpy as np

from .. import nn
from ..nn import functional as F
from ..utils.rng import ensure_rng
from ..utils.validation import check_integer, check_positive

__all__ = ["train_binary_classifier"]


def train_binary_classifier(
    model: nn.Module,
    inputs: np.ndarray,
    labels: np.ndarray,
    epochs: int = 10,
    batch_size: int = 32,
    learning_rate: float = 1e-3,
    rng=None,
    max_grad_norm: float = 5.0,
) -> None:
    """Train ``model`` so that ``model(nn.Tensor(batch))`` produces benign logits.

    Parameters
    ----------
    model:
        The module whose parameters are optimised; it maps a batch to logits
        of shape ``(batch,)`` or ``(batch, 1)``.
    inputs:
        Training inputs, first axis is the sample axis.
    labels:
        Binary labels (1 = benign).

    A non-finite gradient norm (say, from an infinite input) raises
    ``FloatingPointError`` before the optimizer steps, leaving the weights
    of the last finite step.
    """
    epochs = check_integer(epochs, "epochs", minimum=1)
    batch_size = check_integer(batch_size, "batch_size", minimum=1)
    learning_rate = check_positive(learning_rate, "learning_rate", finite=True)
    max_grad_norm = check_positive(max_grad_norm, "max_grad_norm", finite=True)
    labels = np.asarray(labels, dtype=np.float64).reshape(-1)
    if len(inputs) != len(labels):
        raise ValueError("inputs and labels must have the same length")
    if len(inputs) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = ensure_rng(rng)
    optimizer = nn.Adam(model.parameters(), lr=learning_rate)

    n_samples = len(inputs)
    model.train()
    for _ in range(epochs):
        order = rng.permutation(n_samples)
        for start in range(0, n_samples, batch_size):
            batch_idx = order[start : start + batch_size]
            logits = model(nn.Tensor(inputs[batch_idx])).reshape(-1)
            loss = F.binary_cross_entropy_with_logits(logits, nn.Tensor(labels[batch_idx]))

            optimizer.zero_grad()
            loss.backward()
            norm = nn.clip_grad_norm(model.parameters(), max_grad_norm)
            if not math.isfinite(norm):  # Adam would write it into every weight
                raise FloatingPointError(
                    f"non-finite gradient norm ({norm}) in the classifier loss; optimizer step refused"
                )
            optimizer.step()
    model.eval()

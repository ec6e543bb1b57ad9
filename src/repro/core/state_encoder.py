"""StateEncoder: GRU sequence autoencoder (paper Appendix A.2 / Algorithm 2).

The RL state at timestep ``t`` is the full history of observations and
actions, whose length grows with ``t``; the MLP actor and critic need a
fixed-size input.  The StateEncoder is a two-layer GRU that maps an
arbitrarily long sequence of (size, delay) pairs to a fixed-size hidden
representation.  It is pre-trained as the encoder half of a Seq2Seq
autoencoder on synthetic flows with maximal variability
(``p ~ U(-1, 1)``, ``phi ~ U(0, 1)``), using random truncation lengths so it
can encode prefixes of any length, and evaluated by the normalised
reconstruction error (Figure 13).

All recurrent compute here runs on the fused packed-gate kernels
(:func:`repro.nn.functional.gru_sequence` inside :meth:`StateEncoder.forward`
for pre-training and full re-encodes; the active backend's array step
``gru_step`` — one compiled call under ``blocked`` — inside
:meth:`StateEncoder.step_pairs`, the incremental rollout and serving path,
which builds no autograd graph).
Both inference paths multiply on the row-consistent kernel of the active
:mod:`repro.nn.backend`, so the incremental state stays bit-identical to a
full re-encode regardless of how environments are batched or how sequence
GEMMs are hoisted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..utils.logging import TrainingLogger
from ..utils.rng import ensure_rng
from ..utils.validation import check_integer, check_positive

__all__ = [
    "EncoderState",
    "StateEncoder",
    "StateDecoder",
    "Seq2SeqAutoencoder",
    "make_synthetic_flow_dataset",
    "pretrain_state_encoder",
    "reconstruction_nmae_by_length",
]


@dataclass
class EncoderState:
    """Per-environment incremental GRU state for one history stream.

    ``hidden`` holds the per-layer hidden vectors as a ``(num_layers,
    hidden_size)`` array.  Folding one (size, delay) pair at a time through
    :meth:`StateEncoder.step_pairs` keeps this state equal to what a full
    :meth:`StateEncoder.encode_pairs` re-encode of the whole history would
    produce, turning the per-episode encoding cost from O(T²) into O(T).
    """

    hidden: np.ndarray

    @property
    def representation(self) -> np.ndarray:
        """Fixed-size encoding of everything folded in so far (top layer)."""
        return self.hidden[-1]


class StateEncoder(nn.Module):
    """Two-layer GRU mapping (time, 2) sequences to a fixed-size vector."""

    def __init__(self, hidden_size: int = 32, num_layers: int = 2, rng=None) -> None:
        super().__init__()
        self.hidden_size = hidden_size
        self.num_layers = num_layers
        self.gru = nn.GRU(2, hidden_size, num_layers=num_layers, rng=ensure_rng(rng))

    def forward(self, sequence: nn.Tensor) -> nn.Tensor:
        """Encode a (batch, time, 2) sequence into a (batch, hidden) representation."""
        outputs, hidden = self.gru(sequence)
        return hidden[-1]

    def encode_pairs(self, pairs: np.ndarray) -> np.ndarray:
        """Encode a single (time, 2) array without tracking gradients.

        An empty history encodes to the all-zeros vector, which is how the
        agent represents "no actions taken yet" at the first timestep.
        """
        pairs = np.asarray(pairs, dtype=np.float64)
        if pairs.size == 0:
            return np.zeros(self.hidden_size)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"expected (time, 2) pairs, got shape {pairs.shape}")
        with nn.no_grad(), nn.row_consistent_matmul():
            encoded = self.forward(nn.Tensor(pairs[None, :, :]))
        return encoded.data[0]

    # ------------------------------------------------------------------ #
    # Incremental (O(1) per tick) encoding
    # ------------------------------------------------------------------ #
    def initial_state(self) -> EncoderState:
        """Zero state representing an empty history (encodes to zeros)."""
        return EncoderState(hidden=np.zeros((self.num_layers, self.hidden_size)))

    def step_pairs(self, pairs: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Fold one new (size, delay) pair into each environment's state.

        ``pairs`` is an ``(n_envs, 2)`` batch — the newest observation or
        action of each environment — and ``states`` the matching hidden
        state as one ``(num_layers, n_envs, hidden_size)`` slab (rows of a
        resident table: :class:`~repro.core.vec_env.BatchedEpisodeEncoder`
        in training, :class:`~repro.serve.session.SessionTable` in serving);
        the new slab is returned, freshly allocated.  All
        environments advance through the GRU as a single batched step on
        plain arrays (:meth:`repro.nn.GRU.step_arrays` — two row-consistent
        GEMMs and the gate math per layer, one compiled call for the whole
        stack under ``blocked``, no autograd graph), so the
        result for each row is bit-identical to stepping that environment
        alone, and therefore to a full :meth:`encode_pairs` re-encode of its
        history.
        """
        pairs = np.asarray(pairs, dtype=np.float64)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"expected (n_envs, 2) pairs, got shape {pairs.shape}")
        if states.shape != (self.num_layers, pairs.shape[0], self.hidden_size):
            raise ValueError(f"one state per row of pairs is required, got a {states.shape} slab")
        return self.gru.step_arrays(pairs, np.asarray(states, dtype=np.float64))


class StateDecoder(nn.Module):
    """GRU decoder reconstructing a sequence from the hidden representation."""

    def __init__(self, hidden_size: int = 32, num_layers: int = 2, rng=None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.hidden_size = hidden_size
        self.gru = nn.GRU(hidden_size, hidden_size, num_layers=num_layers, rng=rng)
        self.head = nn.Linear(hidden_size, 2, rng=rng)

    def forward(self, representation: nn.Tensor, length: int) -> nn.Tensor:
        """Decode a (batch, hidden) representation into a (batch, length, 2) sequence."""
        batch = representation.shape[0]
        repeated = nn.Tensor.stack([representation] * length, axis=1)
        outputs, _ = self.gru(repeated)
        flat = outputs.reshape(batch * length, self.hidden_size)
        decoded = self.head(flat)
        return decoded.reshape(batch, length, 2)


class Seq2SeqAutoencoder(nn.Module):
    """Encoder + decoder trained jointly with an MAE reconstruction loss."""

    def __init__(self, hidden_size: int = 32, num_layers: int = 2, rng=None) -> None:
        super().__init__()
        rng = ensure_rng(rng)
        self.encoder = StateEncoder(hidden_size, num_layers, rng=rng)
        self.decoder = StateDecoder(hidden_size, num_layers, rng=rng)

    def forward(self, sequence: nn.Tensor) -> nn.Tensor:
        representation = self.encoder(sequence)
        return self.decoder(representation, sequence.shape[1])


def make_synthetic_flow_dataset(
    n_flows: int = 200, max_length: int = 60, rng=None
) -> np.ndarray:
    """Synthetic normalised flows with maximal variability (Appendix A.2).

    Packet sizes are drawn from U(-1, 1) (signed: both directions) and delays
    from U(0, 1); the first delay is 0 by convention.  Returns an array of
    shape (n_flows, max_length, 2).
    """
    rng = ensure_rng(rng)
    sizes = rng.uniform(-1.0, 1.0, size=(n_flows, max_length))
    delays = rng.uniform(0.0, 1.0, size=(n_flows, max_length))
    delays[:, 0] = 0.0
    return np.stack([sizes, delays], axis=-1)


def pretrain_state_encoder(
    hidden_size: int = 32,
    num_layers: int = 2,
    n_flows: int = 200,
    max_length: int = 60,
    epochs: int = 3,
    batch_size: int = 16,
    learning_rate: float = 1e-3,
    rng=None,
    logger: Optional[TrainingLogger] = None,
) -> Tuple[StateEncoder, Seq2SeqAutoencoder, TrainingLogger]:
    """Algorithm 2: train the Seq2Seq autoencoder and return its encoder.

    Mini-batch sequence lengths are sampled uniformly from [1, max_length] so
    the encoder learns to represent prefixes of any length.  A budget that
    trains nothing (no flows, no epochs, empty batches or sequences) or a
    step size that is not a finite positive number raises ``ValueError``
    before any work.
    """
    n_flows = check_integer(n_flows, "n_flows", minimum=1)
    max_length = check_integer(max_length, "max_length", minimum=1)
    epochs = check_integer(epochs, "epochs", minimum=1)
    batch_size = check_integer(batch_size, "batch_size", minimum=1)
    learning_rate = check_positive(learning_rate, "learning_rate", finite=True)
    rng = ensure_rng(rng)
    logger = logger or TrainingLogger("state-encoder")
    dataset = make_synthetic_flow_dataset(n_flows, max_length, rng=rng)
    model = Seq2SeqAutoencoder(hidden_size, num_layers, rng=rng)
    optimizer = nn.Adam(model.parameters(), lr=learning_rate)

    model.train()
    for _ in range(epochs):
        order = rng.permutation(n_flows)
        for start in range(0, n_flows, batch_size):
            indices = order[start : start + batch_size]
            length = int(rng.integers(1, max_length + 1))
            batch = dataset[indices, :length, :]
            reconstruction = model(nn.Tensor(batch))
            loss = F.mae_loss(reconstruction, nn.Tensor(batch))
            optimizer.zero_grad()
            loss.backward()
            nn.clip_grad_norm(model.parameters(), 5.0)
            optimizer.step()
            logger.log(reconstruction_mae=loss.item(), sequence_length=length)
    model.eval()
    return model.encoder, model, logger


def reconstruction_nmae_by_length(
    autoencoder: Seq2SeqAutoencoder,
    lengths: Sequence[int],
    n_flows: int = 50,
    rng=None,
) -> Dict[int, float]:
    """Normalised MAE of reconstruction per flow length (Figure 13).

    The paper normalises each element's absolute error by the element's
    value, which is numerically unstable for the near-zero entries of
    uniform(-1, 1)/uniform(0, 1) flows; we use the standard aggregate
    normalisation instead, NMAE = sum|s - s_hat| / sum|s| per flow, averaged
    over flows, which measures the same relative-information-loss quantity
    without divide-by-zero pathologies.
    """
    rng = ensure_rng(rng)
    results: Dict[int, float] = {}
    for length in lengths:
        if length < 1:
            raise ValueError("flow lengths must be >= 1")
        flows = make_synthetic_flow_dataset(n_flows, length, rng=rng)
        with nn.no_grad():
            reconstruction = autoencoder(nn.Tensor(flows)).data
        errors = np.abs(flows - reconstruction).sum(axis=(1, 2))
        magnitudes = np.maximum(np.abs(flows).sum(axis=(1, 2)), 1e-9)
        results[int(length)] = float(np.mean(errors / magnitudes))
    return results

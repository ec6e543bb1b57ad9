"""Sequence representation of flows for the deep-learning classifiers.

DF, SDAE and LSTM in the paper are "tailored to utilize the flow
representation in Sec. 3 as input", i.e. the raw sequence of (signed packet
size, inter-packet delay) pairs rather than hand-crafted features.  This
module normalises and pads/truncates flows into fixed-size arrays suitable
for those networks; :meth:`SequenceRepresentation.transform_many` does a
whole batch in one pass (one concatenation, one normalisation per channel,
one masked scatter), with no Python write per flow.  The inverse mapping,
from an adversarial action in [-1, 1] x [0, 1] to bytes and milliseconds,
is the emulator's (:meth:`repro.core.env.PacketShaper.apply`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..flows.flow import Flow

__all__ = ["SequenceRepresentation", "FlowNormalizer"]


@dataclass(frozen=True)
class FlowNormalizer:
    """Linear normalisation of packet sizes and delays.

    ``size_scale`` is the maximum absolute packet size (bytes) — 1460 for the
    TCP-layer Tor dataset, 16384 for the TLS-record V2Ray dataset.
    ``delay_scale`` is the maximum delay (``max_delay`` in the paper's action
    discretisation).
    """

    size_scale: float
    delay_scale: float

    def __post_init__(self) -> None:
        if self.size_scale <= 0 or self.delay_scale <= 0:
            raise ValueError("normalisation scales must be positive")

    def normalise_sizes(self, sizes: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(sizes, dtype=np.float64) / self.size_scale, -1.0, 1.0)

    def normalise_delays(self, delays: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(delays, dtype=np.float64) / self.delay_scale, 0.0, 1.0)

    def normalise_flow(self, flow: Flow) -> np.ndarray:
        """Return the (n_packets, 2) normalised pair representation of a flow."""
        return np.column_stack(
            [self.normalise_sizes(flow.sizes), self.normalise_delays(flow.delays)]
        )

class SequenceRepresentation:
    """Pad/truncate normalised flows into fixed-length sequence tensors."""

    def __init__(self, max_length: int, normalizer: FlowNormalizer) -> None:
        if max_length < 1:
            raise ValueError("max_length must be >= 1")
        self.max_length = max_length
        self.normalizer = normalizer

    @property
    def n_features(self) -> int:
        """Flattened dimensionality (for MLP-style models)."""
        return self.max_length * 2

    def transform_many(self, flows: Sequence[Flow]) -> np.ndarray:
        """Return a (n_flows, max_length, 2) array.

        Every flow's first ``max_length`` raw sizes and delays are packed by
        one concatenation, normalised in one pass per channel and scattered
        into the zero-padded output at the rows one length mask selects.
        The arithmetic is elementwise, so every entry equals the per-flow
        ``normalise_flow`` value bit for bit (padding stays ``+0.0``).
        """
        max_length = self.max_length
        output = np.zeros((len(flows), max_length, 2))
        if not len(flows):
            return output
        sizes = [flow.sizes for flow in flows]
        delays = [flow.delays for flow in flows]
        lengths = np.fromiter(map(len, sizes), np.intp, len(sizes))
        if lengths.max() > max_length:  # slice only when some flow is too long
            sizes = [head[:max_length] for head in sizes]
            delays = [head[:max_length] for head in delays]
            lengths = np.minimum(lengths, max_length)
        packed = np.concatenate(sizes + delays)
        total = len(packed) // 2
        rows = np.flatnonzero(np.arange(max_length) < lengths[:, None])
        pairs = output.reshape(-1, 2)
        pairs[rows, 0] = self.normalizer.normalise_sizes(packed[:total])
        pairs[rows, 1] = self.normalizer.normalise_delays(packed[total:])
        return output

    def transform_flat(self, flows: Sequence[Flow]) -> np.ndarray:
        """Return a (n_flows, max_length * 2) array for MLP/SVM-style models."""
        return self.transform_many(flows).reshape(len(flows), -1)
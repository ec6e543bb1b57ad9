"""CUMUL cumulative flow representation (Panchenko et al., NDSS'16).

CUMUL builds, for each flow, the cumulative sum of signed packet sizes and
interpolates it at ``n_interpolation`` equally spaced points; together with
four aggregate counters this forms the feature vector fed to an RBF-kernel
SVM.  The paper tailors CUMUL to the flow representation of Section 3 (signed
sizes + delays), which is what :meth:`CumulFeatureExtractor.extract` does.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..flows.flow import Flow
from ..utils.validation import check_integer

__all__ = ["CumulFeatureExtractor"]


class CumulFeatureExtractor:
    """Cumulative-trace features for the CUMUL SVM classifier.

    Parameters
    ----------
    n_interpolation:
        Number of equally spaced samples of the cumulative trace
        (the original paper uses 100).
    include_timing:
        When true, also interpolate the cumulative timing curve, reflecting
        the paper's adaptation of CUMUL to the (size, delay) representation.
    """

    def __init__(self, n_interpolation: int = 100, include_timing: bool = True) -> None:
        self.n_interpolation = check_integer(n_interpolation, "n_interpolation", minimum=2)
        self.include_timing = include_timing

    @property
    def n_features(self) -> int:
        base = 4 + self.n_interpolation
        return base + self.n_interpolation if self.include_timing else base

    def extract(self, flow: Flow) -> np.ndarray:
        sizes = np.asarray(flow.sizes, dtype=np.float64)
        up_mask = sizes > 0
        down_mask = sizes < 0

        cumulative = np.cumsum(sizes)
        positions = np.linspace(0, len(sizes) - 1, self.n_interpolation)
        interpolated = np.interp(positions, np.arange(len(sizes)), cumulative)

        features = [
            float(up_mask.sum()),
            float(down_mask.sum()),
            float(sizes[up_mask].sum()),
            float(-sizes[down_mask].sum()),
        ]
        features.extend(interpolated.tolist())

        if self.include_timing:
            cumulative_time = np.cumsum(np.asarray(flow.delays, dtype=np.float64))
            interpolated_time = np.interp(positions, np.arange(len(sizes)), cumulative_time)
            features.extend(interpolated_time.tolist())

        return np.asarray(features, dtype=np.float64)

    def extract_many(self, flows: Sequence[Flow]) -> np.ndarray:
        """Extract features for a sequence of flows -> (n_flows, n_features) matrix."""
        matrix = np.empty((len(flows), self.n_features), dtype=np.float64)
        for row, flow in zip(matrix, flows):
            row[:] = self.extract(flow)
        return matrix

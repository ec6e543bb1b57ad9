"""Empirical cumulative distribution functions (Figures 5 and 11).

Figure 5 plots the ECDF of classification scores of adversarial flows against
the NN-based censors; Figure 11 plots the distribution of same-direction
inter-packet delays that motivates the offline profile deployment mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = ["ECDF", "empirical_cdf", "fraction_below", "delay_distribution_summary"]


@dataclass(frozen=True)
class ECDF:
    """An empirical CDF: sorted values and cumulative probabilities."""

    values: np.ndarray
    probabilities: np.ndarray

    def evaluate(self, x: float) -> float:
        """P(X <= x) under the empirical distribution."""
        return float(np.searchsorted(self.values, x, side="right") / len(self.values))

    def as_dict(self) -> Dict:
        return {"values": self.values.tolist(), "probabilities": self.probabilities.tolist()}


def empirical_cdf(samples: Sequence[float]) -> ECDF:
    """Build the ECDF of a sample set."""
    values = np.sort(np.asarray(list(samples), dtype=np.float64))
    if values.size == 0:
        raise ValueError("cannot build an ECDF from an empty sample")
    probabilities = np.arange(1, len(values) + 1) / len(values)
    return ECDF(values=values, probabilities=probabilities)


def fraction_below(samples: Sequence[float], threshold: float) -> float:
    """Fraction of samples strictly below ``threshold`` (Fig. 11's 67.5 % statistic)."""
    samples = np.asarray(list(samples), dtype=np.float64)
    if samples.size == 0:
        raise ValueError("empty sample")
    return float(np.mean(samples < threshold))


def delay_distribution_summary(delays_ms: Sequence[float]) -> Dict[str, float]:
    """Summary statistics of an inter-packet delay sample (Figure 11 box plot)."""
    delays = np.asarray(list(delays_ms), dtype=np.float64)
    if delays.size == 0:
        raise ValueError("empty delay sample")
    return {
        "mean": float(delays.mean()),
        "median": float(np.median(delays)),
        "p25": float(np.percentile(delays, 25)),
        "p75": float(np.percentile(delays, 75)),
        "p95": float(np.percentile(delays, 95)),
        "max": float(delays.max()),
    }

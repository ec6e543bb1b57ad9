"""Argument validation helpers shared across subpackages."""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = ["check_probability", "check_positive", "check_non_negative", "check_fraction_sum", "check_2d"]


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")
    return value


def check_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive (NaN is not)."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate that ``value`` is >= 0 (NaN is not)."""
    value = float(value)
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def check_fraction_sum(fractions: Iterable[float], name: str = "fractions") -> None:
    """Validate that split fractions are positive and sum to 1 (within tolerance)."""
    values = [float(f) for f in fractions]
    if any(f <= 0 for f in values):
        raise ValueError(f"{name} must all be positive, got {values}")
    if abs(sum(values) - 1.0) > 1e-6:
        raise ValueError(f"{name} must sum to 1, got sum={sum(values)}")


def check_2d(array: np.ndarray, name: str) -> np.ndarray:
    """Validate that ``array`` is a 2-D numeric matrix and return it as float."""
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {array.shape}")
    return array

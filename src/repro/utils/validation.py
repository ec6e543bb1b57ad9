"""Argument validation helpers shared across subpackages."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "check_probability",
    "check_positive",
    "check_non_negative",
    "check_integer",
    "check_fraction_sum",
    "check_2d",
]


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` is a probability in [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be within [0, 1], got {value}")
    return value


def check_positive(value: float, name: str, finite: bool = False) -> float:
    """Validate that ``value`` is strictly positive (NaN is not), and below
    infinity when ``finite``."""
    value = float(value)
    if not value > 0 or (finite and value == math.inf):
        raise ValueError(f"{name} must be {'finite and ' if finite else ''}positive, got {value}")
    return value


def check_non_negative(value: float, name: str, finite: bool = False) -> float:
    """Validate that ``value`` is >= 0 (NaN is not), and below infinity when
    ``finite``."""
    value = float(value)
    if not value >= 0 or (finite and value == math.inf):
        raise ValueError(f"{name} must be {'finite and ' if finite else ''}non-negative, got {value}")
    return value


def check_integer(value, name: str, minimum: int = 0) -> int:
    """Validate that ``value`` is an integer (not a bool) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


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

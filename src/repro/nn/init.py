"""Parameter initialisation schemes.

The paper initialises the actor, critic and StateEncoder with Xavier (Glorot)
initialisation; Kaiming initialisation is provided for the ReLU-heavy
classifier networks (DF, SDAE).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

__all__ = ["xavier_uniform", "kaiming_uniform", "zeros", "orthogonal"]


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        fan_in, fan_out = shape[0], shape[1]
    else:
        receptive = int(np.prod(shape[2:]))
        fan_in = shape[1] * receptive
        fan_out = shape[0] * receptive
    return fan_in, fan_out


def xavier_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform initialisation U(-a, a) with a = gain * sqrt(6/(fan_in+fan_out))."""
    rng = rng or np.random.default_rng()
    fan_in, fan_out = _fan_in_out(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_uniform(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """He uniform initialisation for ReLU networks."""
    rng = rng or np.random.default_rng()
    fan_in, _ = _fan_in_out(shape)
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(shape: Tuple[int, ...], rng: Optional[np.random.Generator] = None, gain: float = 1.0) -> np.ndarray:
    """Orthogonal initialisation (useful for recurrent weight matrices)."""
    rng = rng or np.random.default_rng()
    if len(shape) < 2:
        raise ValueError("orthogonal initialisation requires at least 2 dimensions")
    rows, cols = shape[0], int(np.prod(shape[1:]))
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols].reshape(shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zeros initialisation (biases)."""
    return np.zeros(shape)

"""Equivalence oracle: the seed shaping-emulator helpers, verbatim.

These are ``shape_packet`` / ``make_observation`` / ``record_action`` /
``current_direction`` from ``src/repro/core/env.py`` as they stood before the
Python-float rewrite: ``np.asarray`` / ``np.clip`` / ``np.sign`` / ``np.ceil``
on scalars.  They are kept only as the reference the bitwise tests in
``tests/test_core_env.py`` and ``tests/test_properties.py`` compare the
production helpers against -- do not optimise or "fix" them; the only edit
is ``_current_direction`` becoming a free function of the packet size.
``ShapedPacket`` is the record ``shape_packet`` returned; production's
``shape_packet_core`` returns the same four fields as a plain tuple, in this
order, so ``ShapedPacket(*core)`` compares field for field.  Production has
no ``make_observation`` / ``record_action`` any more: both were one formula,
which ``normalised_pair`` returns as a pair of Python floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = ["ShapedPacket", "shape_packet", "make_observation", "record_action", "current_direction"]


@dataclass(frozen=True)
class ShapedPacket:
    """Deterministic outcome of applying one policy action to the packet
    currently being shaped."""

    emitted_bytes: int    # unsigned bytes actually put on the wire
    added_delay: float    # policy-added delay in ms (integer-discretised)
    delay_action: float   # the clipped normalised delay component (time penalty)
    is_truncation: bool   # True: the remainder is re-offered as the next observation


def shape_packet(
    action: np.ndarray,
    remaining_bytes: float,
    truncations_current_packet: int,
    steps_taken: int,
    size_scale: float,
    min_packet_bytes: int,
    max_delay_ms: float,
    max_truncations_per_packet: int,
    max_steps: Optional[int],
) -> ShapedPacket:
    action = np.asarray(action, dtype=np.float64).reshape(-1)
    if action.shape[0] != 2:
        raise ValueError(f"action must have 2 components, got {action.shape}")
    size_action = float(np.clip(action[0], -1.0, 1.0))
    delay_action = float(np.clip(action[1], 0.0, 1.0))

    requested_bytes = abs(int(size_action * size_scale))
    requested_bytes = max(min_packet_bytes, requested_bytes)
    added_delay = float(int(delay_action * max_delay_ms))

    force_close = truncations_current_packet >= max_truncations_per_packet or (
        max_steps is not None and steps_taken + 1 >= max_steps
    )
    is_truncation = requested_bytes < remaining_bytes and not force_close
    if is_truncation:
        emitted_bytes = requested_bytes
    else:
        emitted_bytes = max(requested_bytes, int(np.ceil(remaining_bytes)))
    return ShapedPacket(
        emitted_bytes=emitted_bytes,
        added_delay=added_delay,
        delay_action=delay_action,
        is_truncation=is_truncation,
    )


def make_observation(
    direction: float,
    remaining_bytes: float,
    base_delay: float,
    size_scale: float,
    max_delay_ms: float,
) -> np.ndarray:
    return np.asarray(
        [
            np.clip(direction * remaining_bytes / size_scale, -1.0, 1.0),
            np.clip(base_delay / max_delay_ms, 0.0, 1.0),
        ],
        dtype=np.float64,
    )


def record_action(
    direction: float,
    emitted_bytes: float,
    emitted_delay: float,
    size_scale: float,
    max_delay_ms: float,
) -> np.ndarray:
    return np.asarray(
        [
            np.clip(direction * emitted_bytes / size_scale, -1.0, 1.0),
            np.clip(emitted_delay / max_delay_ms, 0.0, 1.0),
        ]
    )


def current_direction(packet_size: float) -> float:
    return float(np.sign(packet_size))

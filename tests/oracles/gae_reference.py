"""Equivalence oracle: generalized advantage estimation as a per-step loop, verbatim.

This is the body of ``compute_gae`` from ``src/repro/core/rollout.py`` as it
stood before its per-step terms were hoisted out of the loop: every step
computes its own ``non_terminal``, ``delta`` and decay from scalars and
``(N,)`` rows.  It is kept only as the reference the bitwise property in
``tests/test_properties.py`` holds the production function to -- do not
optimise or "fix" it.  The only edits are the name and the docstring; the
production argument checks are not part of the arithmetic and are not
copied.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["reference_compute_gae"]


def reference_compute_gae(
    rewards: np.ndarray,
    values: np.ndarray,
    dones: np.ndarray,
    last_values: np.ndarray,
    gamma: float,
    gae_lambda: float,
) -> Tuple[np.ndarray, np.ndarray]:
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    dones = np.asarray(dones, dtype=bool)
    if rewards.shape != values.shape or rewards.shape != dones.shape:
        raise ValueError("rewards, values and dones must share the same (T, N) shape")
    steps, n_envs = rewards.shape
    advantages = np.zeros_like(rewards)
    last_advantage = np.zeros(n_envs)
    next_values = np.asarray(last_values, dtype=np.float64).reshape(n_envs)

    for t in reversed(range(steps)):
        non_terminal = 1.0 - dones[t].astype(np.float64)
        delta = rewards[t] + gamma * next_values * non_terminal - values[t]
        last_advantage = delta + gamma * gae_lambda * non_terminal * last_advantage
        advantages[t] = last_advantage
        next_values = values[t]

    returns = advantages + values
    return advantages, returns

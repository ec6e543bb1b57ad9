"""Reward-masking experiment helpers (Section 5.5.3, Figures 8 and 9).

The masking itself is implemented inside
:class:`~repro.core.env.AdversarialFlowEnv` (a masked step does not query the
censor and receives the neutral reward 0.5).  This module provides the sweep
harness that trains one Amoeba agent per mask rate and records the resulting
attack success rate and actual query count, which is what the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..censors.base import CensorClassifier
from ..features.representation import FlowNormalizer
from ..flows.flow import Flow
from ..utils.rng import ensure_rng
from .agent import Amoeba
from .config import AmoebaConfig

__all__ = ["MaskSweepPoint", "reward_mask_sweep"]


@dataclass(frozen=True)
class MaskSweepPoint:
    """Result of training Amoeba under one reward-mask rate."""

    mask_rate: float
    attack_success_rate: float
    actual_queries: int
    planned_timesteps: int
    data_overhead: float
    time_overhead: float


def reward_mask_sweep(
    censor: CensorClassifier,
    normalizer: FlowNormalizer,
    train_flows: Sequence[Flow],
    test_flows: Sequence[Flow],
    mask_rates: Sequence[float] = (0.0, 0.5, 0.9),
    total_timesteps: int = 2000,
    base_config: Optional[AmoebaConfig] = None,
    repeats: int = 1,
    rng=None,
) -> List[MaskSweepPoint]:
    """Train one agent per (mask rate, repeat) and evaluate on held-out flows."""
    rng = ensure_rng(rng)
    base_config = base_config or AmoebaConfig.for_tor()
    points: List[MaskSweepPoint] = []
    for mask_rate in mask_rates:
        asrs, data_overheads, time_overheads, query_counts = [], [], [], []
        for _ in range(repeats):
            config = base_config.with_overrides(reward_mask_rate=float(mask_rate))
            censor.reset_query_count()
            agent = Amoeba(censor, normalizer, config, rng=rng)
            agent.train(train_flows, total_timesteps=total_timesteps)
            training_queries = censor.query_count
            report = agent.evaluate(test_flows)
            asrs.append(report.attack_success_rate)
            data_overheads.append(report.data_overhead)
            time_overheads.append(report.time_overhead)
            query_counts.append(training_queries)
        points.append(
            MaskSweepPoint(
                mask_rate=float(mask_rate),
                attack_success_rate=float(np.mean(asrs)),
                actual_queries=int(np.mean(query_counts)),
                planned_timesteps=total_timesteps,
                data_overhead=float(np.mean(data_overheads)),
                time_overhead=float(np.mean(time_overheads)),
            )
        )
    return points

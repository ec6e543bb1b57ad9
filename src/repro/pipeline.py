"""High-level experiment pipeline.

The benchmarks and examples all follow the same recipe from Section 5.4 of
the paper: build a dataset, split it 40/40/10/10, train censoring classifiers
on ``clf_train``, train Amoeba on ``attack_train`` against each censor, and
evaluate on ``test``.  This module packages that recipe so each benchmark
only states its parameters and which rows/series it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from .censors import (
    CensorClassifier,
    CumulSVMClassifier,
    DecisionTreeCensor,
    DeepFingerprintingClassifier,
    LSTMClassifier,
    RandomForestCensor,
    SDAEClassifier,
)
from .core import Amoeba, AmoebaConfig, EvaluationReport
from .features import FlowNormalizer, SequenceRepresentation
from .flows import (
    DatasetSplits,
    FlowDataset,
    NetworkCondition,
    build_tor_dataset,
    build_v2ray_dataset,
)
from .utils.rng import ensure_rng, spawn_rngs
from .utils.validation import check_probability

__all__ = [
    "ExperimentData",
    "prepare_experiment_data",
    "make_censor",
    "train_censors",
    "train_amoeba",
    "CENSOR_NAMES",
    "NEURAL_CENSOR_NAMES",
]

CENSOR_NAMES = ("SDAE", "DF", "LSTM", "DT", "RF", "CUMUL")
NEURAL_CENSOR_NAMES = ("SDAE", "DF", "LSTM")


@dataclass
class ExperimentData:
    """Dataset, splits and representations shared by one experiment."""

    dataset_name: str
    dataset: FlowDataset
    splits: DatasetSplits
    normalizer: FlowNormalizer
    representation: SequenceRepresentation

def prepare_experiment_data(
    dataset_name: str = "tor",
    n_censored: int = 200,
    n_benign: int = 200,
    max_packets: int = 60,
    max_delay_ms: float = 200.0,
    drop_rate: float = 0.0,
    rng=None,
) -> ExperimentData:
    """Build a dataset ('tor' or 'v2ray'), split it and derive representations."""
    rng = ensure_rng(rng)
    drop_rate = check_probability(drop_rate, "drop_rate")
    condition = NetworkCondition(drop_rate=drop_rate) if drop_rate > 0 else None
    if dataset_name == "tor":
        dataset = build_tor_dataset(
            n_censored=n_censored, n_benign=n_benign, rng=rng, condition=condition, max_packets=max_packets
        )
        size_scale = 1460.0
    elif dataset_name == "v2ray":
        dataset = build_v2ray_dataset(
            n_censored=n_censored, n_benign=n_benign, rng=rng, condition=condition, max_packets=max_packets
        )
        size_scale = 16384.0
    else:
        raise ValueError(f"unknown dataset {dataset_name!r} (expected 'tor' or 'v2ray')")

    splits = dataset.split(rng=rng)
    normalizer = FlowNormalizer(size_scale=size_scale, delay_scale=max_delay_ms)
    representation = SequenceRepresentation(max_packets, normalizer)
    return ExperimentData(
        dataset_name=dataset_name,
        dataset=dataset,
        splits=splits,
        normalizer=normalizer,
        representation=representation,
    )


def make_censor(
    name: str,
    data: ExperimentData,
    rng=None,
    epochs: int = 8,
    forest_size: int = 20,
) -> CensorClassifier:
    """Instantiate one of the six censoring classifiers used in the paper."""
    rng = ensure_rng(rng)
    name = name.upper()
    if name == "DF":
        return DeepFingerprintingClassifier(data.representation, epochs=epochs, rng=rng)
    if name == "SDAE":
        # The SDAE needs a few more fine-tuning epochs than the CNN to converge.
        return SDAEClassifier(
            data.representation, epochs=max(12, epochs), pretrain_epochs=max(1, epochs // 2), rng=rng
        )
    if name == "LSTM":
        return LSTMClassifier(
            data.normalizer, epochs=max(2, epochs // 2), max_train_length=data.representation.max_length, rng=rng
        )
    if name == "DT":
        return DecisionTreeCensor(rng=rng)
    if name == "RF":
        return RandomForestCensor(n_estimators=forest_size, rng=rng)
    if name == "CUMUL":
        return CumulSVMClassifier(rng=rng)
    raise ValueError(f"unknown censor {name!r}; expected one of {CENSOR_NAMES}")


def train_censors(
    data: ExperimentData,
    names: Sequence[str] = CENSOR_NAMES,
    rng=None,
    epochs: int = 8,
) -> Dict[str, CensorClassifier]:
    """Train the requested censors on the ``clf_train`` split."""
    rng = ensure_rng(rng)
    censors: Dict[str, CensorClassifier] = {}
    for name, child_rng in zip(names, spawn_rngs(rng, len(names))):
        censor = make_censor(name, data, rng=child_rng, epochs=epochs)
        censor.fit(data.splits.clf_train.flows)
        censors[name] = censor
    return censors


def train_amoeba(
    censor: CensorClassifier,
    data: ExperimentData,
    total_timesteps: int = 3000,
    config: Optional[AmoebaConfig] = None,
    rng=None,
    eval_flows: Optional[Sequence] = None,
    eval_every: Optional[int] = None,
    workers: Optional[int] = None,
) -> Amoeba:
    """Train an Amoeba agent against one censor on the ``attack_train`` split.

    ``workers`` shards rollout collection across that many worker
    processes (see ``Amoeba.train``); ``None`` collects in-process.
    """
    rng = ensure_rng(rng)
    if config is None:
        config = (
            AmoebaConfig.for_v2ray() if data.dataset_name == "v2ray" else AmoebaConfig.for_tor()
        )
        config = config.with_overrides(max_episode_steps=min(120, 2 * data.representation.max_length))
    agent = Amoeba(censor, data.normalizer, config, rng=rng)
    agent.train(
        data.splits.attack_train.censored_flows,
        total_timesteps=total_timesteps,
        eval_flows=eval_flows,
        eval_every=eval_every,
        workers=workers,
    )
    return agent

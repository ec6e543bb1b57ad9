"""Flow datasets and the paper's train/attack/validation/test split.

Section 5.4: each dataset is split into ``clf_train`` (40 %, used to train the
censoring classifiers), ``attack_train`` (40 %, used to train Amoeba — the
attacker has no access to the censor's own data), ``validation`` (10 %) and
``test`` (10 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..utils.rng import ensure_rng
from ..utils.validation import check_fraction_sum
from .flow import Flow, FlowLabel
from .generators import (
    HTTPSFlowGenerator,
    HTTPSRecordFlowGenerator,
    TorFlowGenerator,
    V2RayFlowGenerator,
)
from .network import NetworkCondition

__all__ = ["FlowDataset", "DatasetSplits", "build_tor_dataset", "build_v2ray_dataset"]


class FlowDataset:
    """An in-memory collection of labelled flows."""

    def __init__(self, flows: Sequence[Flow], name: str = "dataset") -> None:
        if not flows:
            raise ValueError("a dataset must contain at least one flow")
        self.flows: List[Flow] = list(flows)
        self.name = name

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.flows)

    def __iter__(self) -> Iterator[Flow]:
        return iter(self.flows)

    def __getitem__(self, index) -> Flow:
        return self.flows[index]

    @property
    def labels(self) -> np.ndarray:
        return np.asarray([flow.label for flow in self.flows], dtype=int)

    @property
    def censored_flows(self) -> List[Flow]:
        return [flow for flow in self.flows if flow.label == FlowLabel.CENSORED]

    @property
    def max_packet_size(self) -> float:
        return float(max(np.abs(flow.sizes).max() for flow in self.flows))

    @property
    def max_delay(self) -> float:
        return float(max(flow.delays.max() for flow in self.flows))

    def subset(self, indices: Sequence[int], name: Optional[str] = None) -> "FlowDataset":
        return FlowDataset([self.flows[i] for i in indices], name=name or self.name)

    def shuffled(self, rng=None) -> "FlowDataset":
        rng = ensure_rng(rng)
        order = rng.permutation(len(self.flows))
        return self.subset(order.tolist())

    # ------------------------------------------------------------------ #
    def split(
        self,
        fractions: Tuple[float, float, float, float] = (0.4, 0.4, 0.1, 0.1),
        rng=None,
        stratify: bool = True,
    ) -> "DatasetSplits":
        """Split into (clf_train, attack_train, validation, test).

        When ``stratify`` is true the class balance is preserved within every
        split, matching standard practice for the near-balanced datasets the
        paper collects.
        """
        check_fraction_sum(fractions, "fractions")
        rng = ensure_rng(rng)
        groups: List[List[int]] = [[] for _ in fractions]

        def assign(indices: np.ndarray) -> None:
            indices = rng.permutation(indices)
            boundaries = np.cumsum(np.asarray(fractions) * len(indices)).astype(int)
            start = 0
            for slot, end in enumerate(boundaries):
                groups[slot].extend(indices[start:end].tolist())
                start = end
            # Any rounding leftovers go to the last split.
            groups[-1].extend(indices[start:].tolist())

        if stratify:
            labels = self.labels
            for label in np.unique(labels):
                assign(np.nonzero(labels == label)[0])
        else:
            assign(np.arange(len(self.flows)))

        return DatasetSplits(
            clf_train=self.subset(groups[0], name=f"{self.name}-clf_train"),
            attack_train=self.subset(groups[1], name=f"{self.name}-attack_train"),
            validation=self.subset(groups[2], name=f"{self.name}-validation"),
            test=self.subset(groups[3], name=f"{self.name}-test"),
        )

    def apply_condition(self, condition: NetworkCondition, rng=None, name: Optional[str] = None) -> "FlowDataset":
        """Return a copy of the dataset observed under a network condition."""
        flows = condition.apply_many(self.flows, rng=rng)
        return FlowDataset(flows, name=name or f"{self.name}-drop{condition.drop_rate}")

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics used by the dataset-centric benchmarks."""
        lengths = np.asarray([flow.n_packets for flow in self.flows])
        return {
            "n_flows": float(len(self.flows)),
            "mean_length": float(lengths.mean()),
            "max_length": float(lengths.max()),
            "max_packet_size": self.max_packet_size,
            "max_delay": self.max_delay,
            "censored_fraction": float(np.mean(self.labels == FlowLabel.CENSORED)),
        }


@dataclass
class DatasetSplits:
    """The four splits defined in Section 5.4 of the paper."""

    clf_train: FlowDataset
    attack_train: FlowDataset
    validation: FlowDataset
    test: FlowDataset

    def __iter__(self) -> Iterator[FlowDataset]:
        return iter((self.clf_train, self.attack_train, self.validation, self.test))

    def sizes(self) -> Dict[str, int]:
        return {
            "clf_train": len(self.clf_train),
            "attack_train": len(self.attack_train),
            "validation": len(self.validation),
            "test": len(self.test),
        }


def build_tor_dataset(
    n_censored: int = 400,
    n_benign: int = 400,
    rng=None,
    condition: Optional[NetworkCondition] = None,
    max_packets: int = 120,
) -> FlowDataset:
    """Build the synthetic equivalent of the paper's *Tor Dataset* (TCP layer)."""
    rng = ensure_rng(rng)
    tor = TorFlowGenerator(rng=rng, max_packets=max_packets)
    https = HTTPSFlowGenerator(rng=rng, max_packets=max_packets)
    flows = tor.generate_many(n_censored) + https.generate_many(n_benign)
    dataset = FlowDataset(flows, name="tor")
    if condition is not None:
        dataset = dataset.apply_condition(condition, rng=rng, name=f"tor-drop{condition.drop_rate}")
    return dataset.shuffled(rng=rng)


def build_v2ray_dataset(
    n_censored: int = 400,
    n_benign: int = 400,
    rng=None,
    condition: Optional[NetworkCondition] = None,
    max_packets: int = 80,
) -> FlowDataset:
    """Build the synthetic equivalent of the paper's *V2Ray Dataset* (TLS-record layer)."""
    rng = ensure_rng(rng)
    v2ray = V2RayFlowGenerator(rng=rng, max_packets=max_packets)
    https = HTTPSRecordFlowGenerator(rng=rng, max_packets=max_packets)
    flows = v2ray.generate_many(n_censored) + https.generate_many(n_benign)
    dataset = FlowDataset(flows, name="v2ray")
    if condition is not None:
        dataset = dataset.apply_condition(condition, rng=rng, name=f"v2ray-drop{condition.drop_rate}")
    return dataset.shuffled(rng=rng)

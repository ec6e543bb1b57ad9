"""Flow (de)serialisation: JSON-lines.

The paper publishes its captured datasets; this module provides the
equivalent persistence layer so generated datasets, adversarial flows and
profile databases can be written to disk and reloaded by other tools.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Union

from .dataset import FlowDataset
from .flow import Flow

__all__ = ["save_flows_jsonl", "load_flows_jsonl", "save_dataset"]

PathLike = Union[str, Path]


def save_flows_jsonl(flows: Iterable[Flow], path: PathLike) -> Path:
    """Write flows to a JSON-lines file (one flow per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for flow in flows:
            handle.write(json.dumps(flow.to_dict()) + "\n")
    return path


def load_flows_jsonl(path: PathLike) -> List[Flow]:
    """Load flows from a JSON-lines file written by :func:`save_flows_jsonl`."""
    path = Path(path)
    flows: List[Flow] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            flows.append(Flow.from_dict(json.loads(line)))
    return flows


def save_dataset(dataset: FlowDataset, path: PathLike) -> Path:
    """Persist a dataset (JSONL) including its name in a sidecar header line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"__dataset__": dataset.name, "n_flows": len(dataset)}) + "\n")
        for flow in dataset:
            handle.write(json.dumps(flow.to_dict()) + "\n")
    return path

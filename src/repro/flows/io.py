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
    """Load flows from a JSON-lines file written by :func:`save_flows_jsonl`
    or :func:`save_dataset` (whose header line is skipped).

    A line that is not a valid flow raises ``ValueError("<path>:<line>: <reason>")``.
    """
    path = Path(path)
    flows: List[Flow] = []
    with path.open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                if not isinstance(payload, dict):
                    raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
                if "__dataset__" in payload:
                    continue
                flows.append(Flow.from_dict(payload))
            except KeyError as error:
                raise ValueError(f"{path}:{number}: a flow needs the key {error}") from None
            except (TypeError, ValueError) as error:
                raise ValueError(f"{path}:{number}: {error}") from None
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

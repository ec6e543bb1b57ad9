"""Flow (de)serialisation: JSON-lines.

The paper publishes its captured datasets; this module provides the
equivalent persistence layer so generated datasets, adversarial flows and
profile databases can be written to disk and reloaded by other tools.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, List, Optional, Union

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

    A line that is not a valid flow raises ``ValueError("<path>:<line>: <reason>")``,
    and so does a header whose ``n_flows`` is not a count.  A file holding
    another number of flows than its headers declare (a truncated or
    appended-to dataset) raises ``ValueError`` naming the path and both
    counts.  A file without a header (or a header without ``n_flows``)
    loads whatever flows it holds.
    """
    path = Path(path)
    flows: List[Flow] = []
    declared: Optional[int] = None
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
                    if "n_flows" in payload:
                        count = payload["n_flows"]
                        if type(count) is not int or count < 0:
                            raise ValueError(f"the header's n_flows must be a count, got {count!r}")
                        # concatenated datasets declare their flows header by header
                        declared = count + (declared or 0)
                    continue
                flows.append(Flow.from_dict(payload))
            except KeyError as error:
                raise ValueError(f"{path}:{number}: a flow needs the key {error}") from None
            except (TypeError, ValueError) as error:
                raise ValueError(f"{path}:{number}: {error}") from None
    if declared is not None and len(flows) != declared:
        raise ValueError(f"{path}: the header declares {declared} flows, the file holds {len(flows)}")
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

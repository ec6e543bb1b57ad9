"""Flow (de)serialisation: JSON-lines.

The paper publishes its captured datasets; this module provides the
equivalent persistence layer so generated datasets, adversarial flows and
profile databases can be written to disk and reloaded by other tools.  Every
file written here starts with a header line declaring its flow count and
the sha256 of its flow lines, so a truncated, appended-to or bit-flipped
file is refused on load instead of read as other flows.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, List, Optional, Tuple, Union

from .dataset import FlowDataset
from .flow import Flow

__all__ = ["save_flows_jsonl", "load_flows_jsonl", "save_dataset"]

PathLike = Union[str, Path]


def _write_jsonl(flows: Iterable[Flow], path: PathLike, name: Optional[str]) -> Path:
    """One header line (``__dataset__`` name, ``n_flows``, ``sha256`` of the
    flow lines that follow), then one flow per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [json.dumps(flow.to_dict()) + "\n" for flow in flows]
    digest = hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps({"__dataset__": name, "n_flows": len(lines), "sha256": digest}) + "\n")
        handle.writelines(lines)
    return path


def save_flows_jsonl(flows: Iterable[Flow], path: PathLike) -> Path:
    """Write flows to a JSON-lines file: a header line (no dataset name),
    then one flow per line."""
    return _write_jsonl(flows, path, None)


def load_flows_jsonl(path: PathLike) -> List[Flow]:
    """Load flows from a JSON-lines file written by :func:`save_flows_jsonl`
    or :func:`save_dataset` (whose header lines are skipped).

    A line that is not a valid flow raises ``ValueError("<path>:<line>: <reason>")``,
    and so does a header whose ``n_flows`` is not a count or whose
    ``sha256`` is not a string.  A file holding another number of flows than
    its headers declare (a truncated or appended-to dataset) raises
    ``ValueError`` naming the path and both counts, and flow lines whose
    sha256 differs from their header's (a flipped bit) raise ``ValueError``
    naming the path and the header's line.  A file without a header (or a
    header without ``n_flows`` / ``sha256``) loads whatever flows it holds;
    a file with no line at all is refused.
    """
    path = Path(path)
    flows: List[Flow] = []
    declared: Optional[int] = None
    # One (line, declared sha256, running sha256) per header: the flow lines
    # up to the next header are its section.
    sections: List[Tuple[int, Optional[str], Any]] = []
    for number, line in enumerate(path.read_bytes().split(b"\n"), 1):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
            if "__dataset__" in payload:
                if "n_flows" in payload:
                    count = payload["n_flows"]
                    if type(count) is not int or count < 0:
                        raise ValueError(f"the header's n_flows must be a count, got {count!r}")
                    # concatenated datasets declare their flows header by header
                    declared = count + (declared or 0)
                digest = payload.get("sha256")
                if digest is not None and not isinstance(digest, str):
                    raise ValueError(f"the header's sha256 must be a string, got {digest!r}")
                sections.append((number, digest, hashlib.sha256()))
                continue
            flows.append(Flow.from_dict(payload))
        except KeyError as error:
            raise ValueError(f"{path}:{number}: a flow needs the key {error}") from None
        except (TypeError, ValueError) as error:
            raise ValueError(f"{path}:{number}: {error}") from None
        if sections:
            sections[-1][2].update(line + b"\n")
    if not flows and not sections:
        raise ValueError(f"{path}: the file holds no header and no flow")
    if declared is not None and len(flows) != declared:
        raise ValueError(f"{path}: the header declares {declared} flows, the file holds {len(flows)}")
    for number, digest, running in sections:
        if digest is not None and running.hexdigest() != digest:
            raise ValueError(f"{path}:{number}: the flows after this header do not match its sha256")
    return flows


def save_dataset(dataset: FlowDataset, path: PathLike) -> Path:
    """Persist a dataset (JSONL): a header line holding its name, then one flow per line."""
    return _write_jsonl(dataset, path, dataset.name)

"""Telemetry exporters: JSONL event stream and Prometheus text exposition.

Two consumption styles:

* :class:`JsonlSink` appends self-describing events — metric snapshots and
  span batches — to a JSONL file, one JSON object per line (the file
  ``repro-amoeba telemetry --trace-jsonl`` writes, and the sample trace CI
  archives).
* :func:`prometheus_text` renders a registry snapshot in the Prometheus
  text exposition format (counters as ``_total``, histograms with
  cumulative ``le`` buckets, ``_sum`` and ``_count``), the file
  ``repro-amoeba telemetry --prometheus`` writes.

Both exporters work over immutable snapshots — they never touch
instrument internals and can run at any cadence without perturbing the
recording paths.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Mapping, Optional

from .trace import SpanRecord

__all__ = [
    "JsonlSink",
    "prometheus_text",
]


# --------------------------------------------------------------------------- #
# JSONL event stream
# --------------------------------------------------------------------------- #
class JsonlSink:
    """Append-only JSONL event sink.

    Events carry a ``type`` (``"metrics"`` or ``"spans"``), a wall-clock
    ``ts`` and the payload.  The file handle opens lazily on first write
    and is flushed per event, so a crash loses at most the event being
    written.
    """

    def __init__(self, path) -> None:
        self.path = path
        self._handle = None

    def _write(self, event: Dict[str, object]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(json.dumps(event) + "\n")
        self._handle.flush()

    def write_metrics(self, snapshot: Iterable[Mapping[str, object]]) -> None:
        """Record one registry snapshot (``MetricsRegistry.snapshot()``)."""
        self._write({"type": "metrics", "ts": time.time(), "metrics": list(snapshot)})

    def write_spans(self, spans: Iterable[SpanRecord]) -> None:
        """Record a batch of finished spans (``Tracer.records()``)."""
        payload = [
            span.as_dict() if isinstance(span, SpanRecord) else dict(span)
            for span in spans
        ]
        if payload:
            self._write({"type": "spans", "ts": time.time(), "spans": payload})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------------- #
def _prom_name(name: str) -> str:
    """Dotted metric name -> Prometheus-legal identifier."""
    return "".join(c if (c.isalnum() or c == "_") else "_" for c in name)


def _prom_labels(labels: Mapping[str, str], extra: Optional[Dict[str, str]] = None) -> str:
    merged = {**dict(labels), **(extra or {})}
    if not merged:
        return ""
    inner = ",".join(
        f'{_prom_name(str(k))}="{str(v)}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def prometheus_text(snapshot: Iterable[Mapping[str, object]]) -> str:
    """Render a registry snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    typed: set = set()
    for entry in snapshot:
        kind = entry["kind"]
        name = _prom_name(str(entry["name"]))
        labels = entry.get("labels") or {}
        if kind == "counter":
            metric = f"{name}_total"
            if metric not in typed:
                lines.append(f"# TYPE {metric} counter")
                typed.add(metric)
            lines.append(f"{metric}{_prom_labels(labels)} {entry['value']:.17g}")
        elif kind == "gauge":
            if name not in typed:
                lines.append(f"# TYPE {name} gauge")
                typed.add(name)
            lines.append(f"{name}{_prom_labels(labels)} {entry['value']:.17g}")
        elif kind == "histogram":
            if name not in typed:
                lines.append(f"# TYPE {name} histogram")
                typed.add(name)
            cumulative = 0
            for edge, count in zip(entry["edges"], entry["counts"]):
                cumulative += int(count)
                lines.append(
                    f"{name}_bucket{_prom_labels(labels, {'le': f'{edge:.17g}'})} "
                    f"{cumulative}"
                )
            lines.append(
                f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})} {entry['count']}"
            )
            lines.append(f"{name}_sum{_prom_labels(labels)} {entry['sum']:.17g}")
            lines.append(f"{name}_count{_prom_labels(labels)} {entry['count']}")
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
    return "\n".join(lines) + "\n"

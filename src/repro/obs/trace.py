"""Hot-path tracing spans: monotonic-clock timing, nesting, per-span metadata.

A span is a context manager around one phase of work::

    with obs.span("serve.flush", batch=len(live)):
        ...

When telemetry is disabled, :func:`repro.obs.span` returns a shared
singleton whose ``__enter__``/``__exit__`` do nothing — the instrumented
code pays one module-attribute read and one branch, no allocation, no clock
read.  When enabled, finished spans land in a bounded ring buffer (the
trace profile) and their durations feed ``span.<name>`` histograms in the
metrics registry, so "where did this iteration's time go" is answerable
both as a tree (the profile) and as a distribution (the histogram).

Spans nest via an explicit stack: each record carries its parent id and
depth, and :func:`render_spans` reconstructs the indented tree.  The stack
is per-tracer, not per-thread — every recording path in this codebase is
single-threaded per process, which keeps the enabled-mode overhead to two
clock reads and one dataclass append per span.

Exception safety: a span whose body raises still finishes (recording the
exception type in ``error``) and re-raises — tracing never swallows or
alters control flow.

Spans stay in the process that records them: a forked worker's spans land
in its own copy of the ring and are never shipped to the driver.  Ids come
from a per-tracer counter — no RNG draw, per the observability contract.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

__all__ = ["SpanRecord", "Span", "NullSpan", "NULL_SPAN", "Tracer", "render_spans"]

# Bound once: spans open/close on sub-millisecond paths, where even the
# ``time.`` attribute lookup per clock read shows up.
_perf_counter = time.perf_counter
_monotonic = time.monotonic


@dataclass(slots=True)
class SpanRecord:
    """One finished span."""

    span_id: int
    parent_id: Optional[int]
    name: str
    depth: int
    start_s: float  # monotonic clock, process-relative
    duration_ms: float
    meta: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "depth": self.depth,
            "start_s": self.start_s,
            "duration_ms": self.duration_ms,
            "meta": dict(self.meta),
            "error": self.error,
        }


class NullSpan:
    """The disabled-mode span: a shared, allocation-free no-op."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **meta: object) -> None:
        pass


NULL_SPAN = NullSpan()


class Span:
    """A live (enabled-mode) span; created via :meth:`Tracer.start_span`."""

    __slots__ = ("_tracer", "_record", "_t0")

    def __init__(self, tracer: "Tracer", record: SpanRecord) -> None:
        self._tracer = tracer
        self._record = record
        self._t0 = 0.0

    def annotate(self, **meta: object) -> None:
        """Attach metadata discovered mid-span (e.g. a batch size)."""
        self._record.meta.update(meta)

    def __enter__(self) -> "Span":
        self._tracer._push(self._record)
        self._t0 = _perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_ms = (_perf_counter() - self._t0) * 1000.0
        if exc_type is not None:
            self._record.error = exc_type.__name__
        self._record.duration_ms = duration_ms
        self._tracer._pop(self._record)
        return False  # never swallow


class Tracer:
    """Bounded ring buffer of finished spans plus the active nesting stack.

    ``on_finish`` is invoked with every finished record — the global tracer
    uses it to feed ``span.<name>`` duration histograms in the registry.
    """

    def __init__(
        self,
        max_spans: int = 4096,
        on_finish: Optional[Callable[[SpanRecord], None]] = None,
    ) -> None:
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self._finished: Deque[SpanRecord] = deque(maxlen=max_spans)
        self._stack: List[SpanRecord] = []
        self._ids = itertools.count(1)
        self._on_finish = on_finish

    # ------------------------------------------------------------------ #
    def start_span(self, name: str, meta: Dict[str, object]) -> Span:
        """Open a span named ``name``.  Takes the metadata as a dict, so
        ``obs.span`` hands over its kwargs without a repack per span; the
        dict is owned by the record from here on, so pass a fresh one.
        """
        record = SpanRecord(
            span_id=next(self._ids),
            parent_id=None,  # resolved at __enter__ time
            name=name,
            depth=0,
            start_s=0.0,
            duration_ms=0.0,
            meta=meta,
        )
        return Span(self, record)

    def _push(self, record: SpanRecord) -> None:
        if self._stack:
            parent = self._stack[-1]
            record.parent_id = parent.span_id
            record.depth = parent.depth + 1
        record.start_s = _monotonic()
        self._stack.append(record)

    def _pop(self, record: SpanRecord) -> None:
        # The span being closed is always the innermost one: spans are
        # context managers, so exits happen in strict LIFO order.
        if self._stack and self._stack[-1] is record:
            self._stack.pop()
        self._finished.append(record)
        if self._on_finish is not None:
            self._on_finish(record)

    # ------------------------------------------------------------------ #
    def records(self) -> List[SpanRecord]:
        """Finished spans, oldest first (non-draining)."""
        return list(self._finished)

    def reset(self) -> None:
        self._finished.clear()
        self._stack.clear()


def render_spans(records: List[SpanRecord], max_spans: Optional[int] = None) -> str:
    """ASCII tree of a span profile, reconstructed from parent links.

    Records are stitched into trees by ``parent_id``.  Roots (and orphans
    whose parent fell out of the ring) sort by start time; ``max_spans``
    keeps CLI output bounded (the most recent spans win).
    """
    ordered = sorted(records, key=lambda r: (r.start_s, r.span_id))
    if max_spans is not None and len(ordered) > max_spans:
        ordered = ordered[-max_spans:]
    if not ordered:
        return "(no spans recorded)"
    children: Dict[int, List[SpanRecord]] = {}
    roots: List[SpanRecord] = []
    known = {record.span_id for record in ordered}
    for record in ordered:
        if record.parent_id is not None and record.parent_id in known:
            children.setdefault(record.parent_id, []).append(record)
        else:
            roots.append(record)

    lines: List[str] = []

    def _emit(record: SpanRecord, depth: int) -> None:
        meta = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(record.meta.items()))
            if record.meta
            else ""
        )
        error = f" !{record.error}" if record.error else ""
        lines.append(
            f"{'  ' * depth}{record.name}  {record.duration_ms:.3f} ms{meta}{error}"
        )
        for child in children.get(record.span_id, ()):
            _emit(child, depth + 1)

    for root in roots:
        _emit(root, 0)
    return "\n".join(lines)

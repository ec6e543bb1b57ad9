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

Distributed stitching: span ids embed the recording process's pid
(refreshed on fork via ``os.register_at_fork``), so ids minted by a driver
and its workers never collide.  A span opened with an explicit remote
parent (``Tracer.start_span(..., parent_id=..., trace_id=...)`` — the
worker side of trace-context propagation) keeps that parent link, and
:meth:`Tracer.ingest` folds worker span batches back into the driver's
ring, so :func:`render_spans` reconstructs one tree spanning processes.
Ids come from a counter plus the pid — no RNG draw, per the observability
contract.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["SpanRecord", "Span", "NullSpan", "NULL_SPAN", "Tracer", "render_spans"]

# Bound once: spans open/close on sub-millisecond paths, where even the
# ``time.`` attribute lookup per clock read shows up.
_perf_counter = time.perf_counter
_monotonic = time.monotonic

# Per-process id prefix: span ids are (pid << 32) | counter so ids minted
# in forked workers never collide with the driver's when batches are folded
# back.  Refreshed in the child on fork (the forked Tracer inherits the
# parent's counter state, but the pid prefix diverges immediately).
_PID_SHIFT = 32
_pid_prefix = os.getpid() << _PID_SHIFT


def _refresh_pid_prefix() -> None:
    global _pid_prefix
    _pid_prefix = os.getpid() << _PID_SHIFT


os.register_at_fork(after_in_child=_refresh_pid_prefix)


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
    trace_id: Optional[int] = None

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
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, entry: Mapping[str, object]) -> "SpanRecord":
        return cls(
            span_id=int(entry["span_id"]),
            parent_id=None if entry.get("parent_id") is None else int(entry["parent_id"]),
            name=str(entry["name"]),
            depth=int(entry.get("depth", 0)),
            start_s=float(entry.get("start_s", 0.0)),
            duration_ms=float(entry.get("duration_ms", 0.0)),
            meta=dict(entry.get("meta") or {}),
            error=entry.get("error"),
            trace_id=None if entry.get("trace_id") is None else int(entry["trace_id"]),
        )


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
    """A live (enabled-mode) span; created via :meth:`Tracer.start`."""

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
    @property
    def depth(self) -> int:
        return len(self._stack)

    def start(self, name: str, **meta: object) -> Span:
        return self.start_span(name, meta)

    def start_span(
        self,
        name: str,
        meta: Dict[str, object],
        parent_id: Optional[int] = None,
        trace_id: Optional[int] = None,
    ) -> Span:
        """Dict-taking twin of :meth:`start` — callers that already hold a
        kwargs dict (``obs.span``) skip one repack per span.  The dict is
        owned by the record from here on; pass a fresh one.

        ``parent_id``/``trace_id`` preset a *remote* parent (trace-context
        propagation: a worker opening the child span of a driver-side
        command).  A locally open span still wins — remote context only
        applies at the top of the stack.
        """
        record = SpanRecord(
            span_id=_pid_prefix | next(self._ids),
            parent_id=parent_id,  # local parents resolved at __enter__ time
            name=name,
            depth=0,
            start_s=0.0,
            duration_ms=0.0,
            meta=meta,
            trace_id=trace_id,
        )
        return Span(self, record)

    def _push(self, record: SpanRecord) -> None:
        if self._stack:
            parent = self._stack[-1]
            record.parent_id = parent.span_id
            record.depth = parent.depth + 1
            record.trace_id = parent.trace_id
        elif record.trace_id is None:
            # Root span (no local parent, no propagated context): it begins
            # its own trace.  A preset remote parent keeps the propagated
            # trace id instead.
            record.trace_id = record.span_id
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
    def current_context(self) -> Optional[Tuple[Optional[int], int]]:
        """``(trace_id, span_id)`` of the innermost open span, or ``None``.

        This is the driver side of trace-context propagation: the pair is
        stamped onto outgoing command envelopes so the worker can open its
        command span as a child of the span that sent the command.
        """
        if not self._stack:
            return None
        top = self._stack[-1]
        return (top.trace_id, top.span_id)

    # ------------------------------------------------------------------ #
    def records(self) -> List[SpanRecord]:
        """Finished spans, oldest first (non-draining)."""
        return list(self._finished)

    def take(self) -> List[SpanRecord]:
        """Drain and return the finished spans (streaming exporters)."""
        records = list(self._finished)
        self._finished.clear()
        return records

    def take_snapshot(self, max_spans: Optional[int] = None) -> List[Dict[str, object]]:
        """Drain-and-zero the finished-span ring, as JSON-able dicts.

        The span half of the fork-boundary fold protocol, mirroring
        ``MetricsRegistry.take_snapshot``: the ring is cleared *in place*
        (the tracer identity, id counter and open-span stack survive), so
        repeated folds never re-ship a span.  ``max_spans`` bounds the
        batch — the most recent spans win, older ones are dropped with the
        ring (bounded batches, never an unbounded backlog).
        """
        records = list(self._finished)
        self._finished.clear()
        if max_spans is not None and len(records) > max_spans:
            records = records[-max_spans:]
        return [record.as_dict() for record in records]

    def ingest(
        self,
        entries: Iterable[Mapping[str, object]],
        extra_meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Fold a worker span batch into this ring (driver side of the fold).

        ``extra_meta`` is added to every record — the sharded drivers tag
        worker spans ``worker=<index>``.  Ingested records bypass
        ``on_finish`` deliberately: the worker already fed its own
        ``span.<name>`` histograms, which arrive via the *metrics* fold, so
        feeding them again here would double-count durations.
        """
        extra = dict(extra_meta or {})
        for entry in entries:
            record = (
                entry if isinstance(entry, SpanRecord) else SpanRecord.from_dict(entry)
            )
            if extra:
                record.meta.update(extra)
            self._finished.append(record)

    def reset(self) -> None:
        self._finished.clear()
        self._stack.clear()


def render_spans(records: List[SpanRecord], max_spans: Optional[int] = None) -> str:
    """ASCII tree of a span profile, reconstructed from parent links.

    Records are stitched into trees by ``parent_id`` — which works across
    process boundaries once worker batches are ingested, because span ids
    are pid-prefixed and remote parents are propagated with the command
    envelope.  Roots (and orphans whose parent fell out of the ring) sort
    by start time; ``max_spans`` keeps CLI output bounded (the most recent
    spans win).
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

"""Unified telemetry tier: metrics registry, tracing spans, exporters.

The observability subsystem shared by every execution tier — PPO training
(`repro.core`), sharded collection (`repro.distrib`), the compiled
nn backends (`repro.nn.backend`) and the continuous-batching serving tier
(`repro.serve`):

* a process-wide :class:`~repro.obs.metrics.MetricsRegistry` of counters,
  gauges and fixed-bucket log-scale histograms, addressable by dotted names
  plus labels (:func:`counter` / :func:`gauge` / :func:`histogram`);
* :func:`span` context-manager tracing with monotonic-clock timing, nesting
  and per-span metadata, compiled to a shared no-op singleton when
  telemetry is disabled;
* exporters: a JSONL event sink, a Prometheus text-exposition snapshot, and
  the ``repro-amoeba telemetry`` CLI that renders the summary and span
  trace of one training iteration / serving workload.

Telemetry is read after the fact — from :func:`summary_text` or the
exported files; nothing here opens a socket or starts a thread.

**Per process.**  Instruments and spans stay in the process that records
them.  A forked worker inherits the enabled flag, and what it records stays
in its own copy of the registry and span ring: nothing crosses the worker
pipe, and command frames are the same bytes with telemetry on or off.

**Off by default.**  Enable with ``REPRO_TELEMETRY=1`` in the environment
or programmatically with :func:`enable`.  The overhead contract is enforced
by ``benchmarks/bench_obs_overhead.py``: enabled-telemetry training and
serving throughput stay within 5% of disabled.

**Observing never changes behaviour.**  Telemetry reads clocks and writes
its own state; it draws from no RNG stream and touches no numeric path, so
rollouts and served decision streams are bit-identical with telemetry on or
off (asserted in ``tests/test_obs.py``).  The telemetry tier sits
deliberately *outside* the bit-equivalence ladder: it is exempt from
nothing because it participates in nothing.
"""

from __future__ import annotations

import os
from typing import Dict, List

from . import _state
from .export import JsonlSink, prometheus_text
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, log_bucket_edges
from .trace import NULL_SPAN, NullSpan, Span, SpanRecord, Tracer, render_spans

__all__ = [
    "enable",
    "disable",
    "enabled",
    "reset",
    "registry",
    "tracer",
    "counter",
    "gauge",
    "histogram",
    "span",
    "summary_text",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "log_bucket_edges",
    "Tracer",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "SpanRecord",
    "render_spans",
    "JsonlSink",
    "prometheus_text",
]


# Span-name -> duration histogram cache: a registry lookup per finished span
# (label-key build + dict probe) is measurable on sub-millisecond serve
# flushes, while the cached reference is a plain dict hit.  Invalidated by
# generation when reset() drops the instruments.
_SPAN_HISTS: Dict[str, Histogram] = {}
_SPAN_HISTS_GENERATION = [-1]


def _record_span_duration(record: SpanRecord) -> None:
    """Feed every finished span's duration into a ``span.<name>`` histogram."""
    generation = _REGISTRY.generation
    if _SPAN_HISTS_GENERATION[0] != generation:
        _SPAN_HISTS.clear()
        _SPAN_HISTS_GENERATION[0] = generation
    hist = _SPAN_HISTS.get(record.name)
    if hist is None:
        hist = _SPAN_HISTS[record.name] = _REGISTRY.histogram("span." + record.name)
    hist.observe(record.duration_ms)


_REGISTRY = MetricsRegistry()
_TRACER = Tracer(on_finish=_record_span_duration)


# --------------------------------------------------------------------------- #
# Switch
# --------------------------------------------------------------------------- #
def enable() -> None:
    """Turn telemetry on process-wide (spans, hot-path histograms)."""
    _state.enabled = True


def disable() -> None:
    _state.enabled = False


def enabled() -> bool:
    return _state.enabled


def reset() -> None:
    """Clear the registry and the span buffer (tests, CLI runs)."""
    _REGISTRY.reset()
    _TRACER.reset()


# --------------------------------------------------------------------------- #
# Global instruments
# --------------------------------------------------------------------------- #
def registry() -> MetricsRegistry:
    return _REGISTRY


def tracer() -> Tracer:
    return _TRACER


def counter(name: str, **labels: str) -> Counter:
    return _REGISTRY.counter(name, **labels)


def gauge(name: str, **labels: str) -> Gauge:
    return _REGISTRY.gauge(name, **labels)


def histogram(name: str, edges=None, **labels: str) -> Histogram:
    return _REGISTRY.histogram(name, edges=edges, **labels)


def span(name: str, **meta: object):
    """Open a tracing span; a shared no-op when telemetry is disabled."""
    if not _state.enabled:
        return NULL_SPAN
    return _TRACER.start_span(name, meta)


# --------------------------------------------------------------------------- #
# Summary (the CLI's rendering)
# --------------------------------------------------------------------------- #
def summary_text(max_spans: int = 40) -> str:
    """Human-readable summary: every instrument plus the recent span tree."""
    lines: List[str] = [f"telemetry: {'enabled' if _state.enabled else 'disabled'}"]
    instruments = _REGISTRY.instruments()
    counters = [i for i in instruments if i.kind == "counter"]
    gauges = [i for i in instruments if i.kind == "gauge"]
    histograms = [i for i in instruments if i.kind == "histogram"]

    def _label_suffix(instrument) -> str:
        labels = instrument.labels_dict
        if not labels:
            return ""
        return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"

    if counters:
        lines.append("counters:")
        for instrument in counters:
            lines.append(
                f"  {instrument.name}{_label_suffix(instrument)} = {instrument.value:g}"
            )
    if gauges:
        lines.append("gauges:")
        for instrument in gauges:
            lines.append(
                f"  {instrument.name}{_label_suffix(instrument)} = {instrument.value:g}"
            )
    if histograms:
        lines.append("histograms:")
        for instrument in histograms:
            lines.append(
                f"  {instrument.name}{_label_suffix(instrument)}: "
                f"count={instrument.count} mean={instrument.mean:.4g} "
                f"p50={instrument.percentile(50):.4g} "
                f"p99={instrument.percentile(99):.4g} max={instrument.max if instrument.count else 0.0:.4g}"
            )
    if not instruments:
        lines.append("(no metrics recorded)")
    lines.append("spans:")
    lines.append(render_spans(_TRACER.records(), max_spans=max_spans))
    return "\n".join(lines)


# ``REPRO_TELEMETRY=1`` (or ``true``/``on``/``yes``) enables at import time.
if os.environ.get("REPRO_TELEMETRY", "").strip().lower() in ("1", "true", "on", "yes"):
    enable()

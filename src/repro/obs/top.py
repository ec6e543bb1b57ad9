"""``repro-amoeba top``: a live terminal view over a ``/metrics`` endpoint.

Polls the telemetry service's Prometheus text exposition on an interval and
renders the serving/transport vitals a driver operator watches: decision
throughput, deadline-miss rate, scheduler queue depth, transport frame
traffic and worker restarts.  Rates are derived
client-side from successive scrapes (counter deltas / elapsed wall time),
so the view needs nothing beyond the scrape endpoint — it works against
any process started with ``REPRO_TELEMETRY_PORT`` or
``obs.serve_telemetry``.

Pure functions all the way down: :func:`fetch_metrics` does the HTTP,
:func:`render_top` turns two successive samples into the text frame, and
:func:`run_top` loops them — tests drive ``run_top`` with a stub fetcher
and a capturing ``out``.
"""

from __future__ import annotations

import sys
import time
import urllib.request
from typing import Callable, Dict, Mapping, Optional, Tuple

from .export import parse_prometheus_text

__all__ = ["fetch_metrics", "series_sum", "bucket_quantile", "render_top", "run_top"]


def fetch_metrics(url: str, timeout: float = 5.0) -> Dict[str, float]:
    """Scrape ``url`` (a ``/metrics`` endpoint) into ``{series_key: value}``."""
    with urllib.request.urlopen(url, timeout=timeout) as response:
        text = response.read().decode("utf-8")
    return parse_prometheus_text(text)


def _name_of(series_key: str) -> str:
    return series_key.split("{", 1)[0]


def series_sum(series: Mapping[str, float], name: str) -> float:
    """Sum one metric across its label sets (``name`` is the exposition name)."""
    return sum(value for key, value in series.items() if _name_of(key) == name)


def series_max(series: Mapping[str, float], name: str) -> float:
    values = [value for key, value in series.items() if _name_of(key) == name]
    return max(values) if values else 0.0


def bucket_quantile(series: Mapping[str, float], name: str, q: float) -> float:
    """Quantile estimate from ``<name>_bucket`` cumulative ``le`` lines.

    Buckets fold across label sets (the fleet-wide distribution); the
    estimate is the upper edge of the first bucket whose cumulative count
    crosses the target rank — the standard Prometheus
    ``histogram_quantile`` shape, minus interpolation.
    """
    prefix = name + "_bucket"
    buckets: Dict[float, float] = {}
    for key, value in series.items():
        if _name_of(key) != prefix or "le=" not in key:
            continue
        le_raw = key.split('le="', 1)[1].split('"', 1)[0]
        le = float("inf") if le_raw == "+Inf" else float(le_raw)
        buckets[le] = buckets.get(le, 0.0) + value
    if not buckets:
        return 0.0
    edges = sorted(buckets)
    total = buckets[edges[-1]]
    if total <= 0:
        return 0.0
    target = (q / 100.0) * total
    for edge in edges:
        if buckets[edge] >= target:
            return edge
    return edges[-1]


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "inf"
    if abs(value) >= 1000 or value == int(value):
        return f"{value:,.0f}"
    return f"{value:.2f}"


def _rate(
    series: Mapping[str, float],
    previous: Optional[Mapping[str, float]],
    name: str,
    elapsed_s: float,
) -> float:
    if previous is None or elapsed_s <= 0:
        return 0.0
    delta = series_sum(series, name) - series_sum(previous, name)
    return max(delta, 0.0) / elapsed_s


def render_top(
    series: Mapping[str, float],
    previous: Optional[Mapping[str, float]] = None,
    elapsed_s: float = 0.0,
) -> str:
    """One text frame of the live view from a scrape (and the previous one)."""
    decisions = series_sum(series, "serve_decisions_total")
    misses = series_sum(series, "serve_deadline_misses_total")
    miss_rate = misses / decisions if decisions else 0.0
    rows: Tuple[Tuple[str, str], ...] = (
        ("decisions", f"{_fmt(decisions)}  ({_fmt(_rate(series, previous, 'serve_decisions_total', elapsed_s))}/s)"),
        ("deadline misses", f"{_fmt(misses)}  ({miss_rate:.1%} of decisions)"),
        ("flushes", _fmt(series_sum(series, "serve_flushes_total"))),
        ("queue depth", _fmt(series_max(series, "serve_queue_depth"))),
        ("frames sent", f"{_fmt(series_sum(series, 'transport_frames_sent_total'))}  ({_fmt(_rate(series, previous, 'transport_frames_sent_total', elapsed_s))}/s)"),
        ("frames received", _fmt(series_sum(series, "transport_frames_recv_total"))),
        ("worker restarts", _fmt(series_sum(series, "distrib_worker_restarts_total"))),
        ("collect ticks", _fmt(series_sum(series, "collect_ticks_total"))),
        ("alerts fired", _fmt(series_sum(series, "obs_alerts_total"))),
    )
    width = max(len(label) for label, _ in rows)
    lines = ["repro-amoeba top"]
    lines.extend(f"  {label.ljust(width)}  {value}" for label, value in rows)
    return "\n".join(lines)


def run_top(
    url: str,
    interval_s: float = 1.0,
    iterations: Optional[int] = None,
    fetch: Callable[[str], Dict[str, float]] = fetch_metrics,
    out: Callable[[str], None] = print,
    clear: Optional[bool] = None,
) -> int:
    """Poll ``url`` and render frames until ``iterations`` runs out (or ^C).

    Returns the number of successful scrapes.  A failed scrape renders an
    error frame and keeps polling — the endpoint may simply not be up yet.
    ``clear=None`` auto-detects a tty (ANSI home+clear between frames).
    """
    if clear is None:
        clear = sys.stdout.isatty()
    previous: Optional[Dict[str, float]] = None
    previous_at = 0.0
    rendered = 0
    remaining = iterations
    try:
        while remaining is None or remaining > 0:
            if remaining is not None:
                remaining -= 1
            now = time.monotonic()
            try:
                series = fetch(url)
            except OSError as exc:
                out(f"repro-amoeba top: scrape of {url} failed: {exc}")
            else:
                frame = render_top(
                    series, previous, elapsed_s=(now - previous_at) if previous else 0.0
                )
                out(("\x1b[H\x1b[2J" + frame) if clear else frame)
                previous, previous_at = series, now
                rendered += 1
            if remaining is None or remaining > 0:
                time.sleep(interval_s)
    except KeyboardInterrupt:
        pass
    return rendered

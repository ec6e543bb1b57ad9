"""Metrics registry: counters, gauges and fixed-bucket log-scale histograms.

The registry is the numeric half of the telemetry tier: every instrument is
addressable by a dotted name plus a small label set and holds O(1) state (a
float, or a fixed bucket array — never an unbounded list).  A registry is
per process: a forked worker records into its own copy.

Instruments are created on first use and returned by identity afterwards,
so hot paths can capture the instrument once and call ``inc``/``observe``
without a registry lookup per event.  Creation is guarded by a lock; the
record operations themselves are single bytecode-level float updates, which
is sufficient for this codebase's one-recording-thread-per-process model
(the compiled GEMM worker threads never touch the registry).

Naming scheme (documented in the README "Telemetry" section): dotted
``tier.component.metric`` names — ``serve.flush_size``,
``train.ppo.actor_ms``, ``nn.gemm_ms`` — with labels reserved for bounded
cardinality dimensions (``worker``, ``server``, ``kernel``, ``logger``).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "log_bucket_edges"]

LabelsKey = Tuple[Tuple[str, str], ...]

# Default histogram geometry: first finite upper edge 1e-3, doubling per
# bucket, 36 finite buckets (+1 overflow) -> upper edges 1e-3 .. ~3.4e7.
# In milliseconds that spans 1 microsecond to ~9.5 hours; as a dimensionless
# scale it covers every batch size / thread count this repo produces.
DEFAULT_LO = 1e-3
DEFAULT_GROWTH = 2.0
DEFAULT_N_BUCKETS = 36


def log_bucket_edges(
    lo: float = DEFAULT_LO,
    growth: float = DEFAULT_GROWTH,
    n_buckets: int = DEFAULT_N_BUCKETS,
) -> Tuple[float, ...]:
    """Fixed log-scale bucket upper edges ``lo * growth**i``."""
    if lo <= 0:
        raise ValueError("lo must be positive")
    if growth <= 1.0:
        raise ValueError("growth must be > 1")
    if n_buckets < 1:
        raise ValueError("n_buckets must be >= 1")
    return tuple(lo * growth**i for i in range(n_buckets))


def _labels_key(labels: Mapping[str, str]) -> LabelsKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared identity (name + labels) of every metric kind."""

    kind = "abstract"
    __slots__ = ("name", "labels")

    def __init__(self, name: str, labels: LabelsKey) -> None:
        self.name = name
        self.labels = labels

    @property
    def labels_dict(self) -> Dict[str, str]:
        return dict(self.labels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, labels={dict(self.labels)!r})"


class Counter(_Instrument):
    """Monotonically increasing sum."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelsKey) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for signed values")
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels_dict,
            "value": self._value,
        }


class Gauge(_Instrument):
    """Last-write-wins scalar."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(self, name: str, labels: LabelsKey) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels_dict,
            "value": self._value,
        }


class Histogram(_Instrument):
    """Fixed log-scale-bucket histogram: O(n_buckets) memory forever.

    ``edges`` are *inclusive upper bounds* of the finite buckets (Prometheus
    ``le`` semantics); one extra overflow bucket catches everything above
    the last edge.  Non-positive observations land in the first bucket —
    the log scale has no room for them, and the exact minimum is tracked
    separately anyway.
    """

    kind = "histogram"
    __slots__ = ("edges", "_counts", "count", "sum", "min", "max")

    def __init__(
        self, name: str, labels: LabelsKey, edges: Optional[Iterable[float]] = None
    ) -> None:
        super().__init__(name, labels)
        self.edges: Tuple[float, ...] = (
            log_bucket_edges() if edges is None else tuple(float(e) for e in edges)
        )
        if not self.edges or any(
            b <= a for a, b in zip(self.edges, self.edges[1:])
        ):
            raise ValueError("histogram edges must be a strictly increasing sequence")
        self._counts = [0] * (len(self.edges) + 1)  # + overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        value = float(value)
        # bisect_left returns the first edge >= value: exact edge values are
        # inclusive (le semantics), values beyond the last edge overflow.
        self._counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def percentile(self, q: float) -> float:
        """Upper-edge estimate of the ``q``-th percentile (0..100)."""
        if self.count == 0:
            return 0.0
        target = max(1, int(round(q / 100.0 * self.count)))
        cumulative = 0
        for index, bucket_count in enumerate(self._counts):
            cumulative += bucket_count
            if cumulative >= target:
                if index >= len(self.edges):
                    return self.max  # overflow bucket: best bound we have
                return min(self.edges[index], self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "name": self.name,
            "labels": self.labels_dict,
            "edges": list(self.edges),
            "counts": list(self._counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
        }


class MetricsRegistry:
    """Process-wide instrument store keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelsKey], _Instrument] = {}
        self._lock = threading.Lock()
        # Bumped by reset(): hot paths that cache instrument references
        # compare generations to know when a cached reference went stale.
        # A plain attribute, not a property: the per-event cache checks
        # read it.
        self.generation = 0

    # ------------------------------------------------------------------ #
    # Get-or-create
    # ------------------------------------------------------------------ #
    def _get_or_create(self, cls, name: str, labels: Mapping[str, str], **kwargs):
        key = (name, _labels_key(labels))
        instrument = self._metrics.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._metrics.get(key)
                if instrument is None:
                    instrument = cls(name, key[1], **kwargs)
                    self._metrics[key] = instrument
        if not isinstance(instrument, cls):
            raise TypeError(
                f"metric {name!r}{dict(key[1])} is a {instrument.kind}, "
                f"not a {cls.kind}"
            )
        return instrument

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self, name: str, edges: Optional[Iterable[float]] = None, **labels: str
    ) -> Histogram:
        histogram = self._get_or_create(Histogram, name, labels, edges=edges)
        if edges is not None and histogram.edges != tuple(float(e) for e in edges):
            raise ValueError(
                f"histogram {name!r} already exists with different bucket edges"
            )
        return histogram

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def instruments(self) -> List[_Instrument]:
        """All instruments, sorted by (name, labels) for stable rendering."""
        return [self._metrics[key] for key in sorted(self._metrics)]

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-able dump of every instrument (stable order)."""
        return [instrument.snapshot() for instrument in self.instruments()]

    def reset(self) -> None:
        """Drop every instrument (tests and CLI runs)."""
        with self._lock:
            self._metrics.clear()
            self.generation += 1

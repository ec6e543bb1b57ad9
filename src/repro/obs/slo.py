"""SLO watchdog: declarative rules evaluated against the metrics registry.

A rule names a registry series and a threshold; the watchdog evaluates the
rule set against live instrument state on a cadence (a daemon thread, or
explicit :meth:`SloWatchdog.evaluate` calls) and turns violations into
:class:`SloAlert` events.  Alerts are surfaced three ways:

* the ``obs.alerts`` counter (labelled ``rule=<name>``) counts ok→firing
  transitions, so alert churn is visible in any metrics scrape;
* sinks (:class:`~repro.obs.export.JsonlSink`) receive an ``alert`` event
  per transition — the durable audit trail;
* :meth:`active_alerts` exposes the currently-firing set, which the
  telemetry service's ``/healthz`` endpoint reports (HTTP 503 while any
  rule fires).

Rule kinds cover the shapes this codebase's SLOs take:

``ratio``
    numerator counter sum / denominator counter sum (deadline-miss rate);
``percentile``
    worst per-series histogram percentile (e.g. decision latency p99);
``counter``
    summed counter value (worker restarts);
``gauge``
    worst per-series gauge value (scheduler queue depth).

Series sums/maxima fold across label sets, so per-worker/per-server series
are judged as one fleet-wide signal.  Evaluation reads instrument state
only — clocks, no RNG, no numeric-path writes — keeping the observability
contract intact.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

__all__ = ["SloRule", "SloAlert", "SloWatchdog", "default_slo_rules"]

_RULE_KINDS = ("ratio", "percentile", "counter", "gauge")


@dataclass(frozen=True)
class SloRule:
    """One declarative SLO rule over registry series.

    ``metric`` is the dotted registry name (all label sets fold together);
    ``denominator`` is required for ``kind="ratio"``; ``min_events``
    suppresses the rule until the denominator (ratio) or observation count
    (percentile) has enough data to be meaningful.
    """

    name: str
    kind: str
    metric: str
    threshold: float
    denominator: Optional[str] = None
    percentile: float = 99.0
    min_events: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _RULE_KINDS:
            raise ValueError(f"unknown SLO rule kind {self.kind!r}; one of {_RULE_KINDS}")
        if self.kind == "ratio" and not self.denominator:
            raise ValueError(f"ratio rule {self.name!r} needs a denominator metric")


@dataclass
class SloAlert:
    """One firing rule: the observed value against its threshold."""

    rule: str
    kind: str
    metric: str
    value: float
    threshold: float
    description: str = ""
    fired_at: float = field(default_factory=time.time)

    @property
    def message(self) -> str:
        return (
            f"SLO {self.rule}: {self.metric} = {self.value:.4g} "
            f"exceeds {self.threshold:.4g}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "kind": self.kind,
            "metric": self.metric,
            "value": self.value,
            "threshold": self.threshold,
            "description": self.description,
            "message": self.message,
            "fired_at": self.fired_at,
        }


def _counter_sum(registry, name: str) -> float:
    return float(sum(instrument.value for instrument in registry.series(name)))


def evaluate_rule(rule: SloRule, registry) -> Optional[SloAlert]:
    """Evaluate one rule against a registry; an :class:`SloAlert` if firing."""
    if rule.kind == "ratio":
        denominator = _counter_sum(registry, rule.denominator)
        if denominator < rule.min_events or denominator == 0.0:
            return None
        value = _counter_sum(registry, rule.metric) / denominator
    elif rule.kind == "percentile":
        series = [h for h in registry.series(rule.metric) if h.kind == "histogram"]
        total = sum(h.count for h in series)
        if total < rule.min_events:
            return None
        value = max(h.percentile(rule.percentile) for h in series if h.count)
    elif rule.kind == "counter":
        series = registry.series(rule.metric)
        if not series:
            return None
        value = _counter_sum(registry, rule.metric)
    else:  # gauge
        series = registry.series(rule.metric)
        if not series:
            return None
        value = max(float(instrument.value) for instrument in series)
    if value > rule.threshold:
        return SloAlert(
            rule=rule.name,
            kind=rule.kind,
            metric=rule.metric,
            value=float(value),
            threshold=rule.threshold,
            description=rule.description,
        )
    return None


def default_slo_rules() -> List[SloRule]:
    """The stock rule set over this repo's own serving/distrib metrics."""
    return [
        SloRule(
            name="deadline-miss-rate",
            kind="ratio",
            metric="serve.deadline_misses",
            denominator="serve.decisions",
            threshold=0.2,
            min_events=20,
            description="more than 20% of decisions missed their deadline",
        ),
        SloRule(
            name="worker-restarts",
            kind="counter",
            metric="distrib.worker_restarts",
            threshold=0.0,
            description="at least one rollout worker crashed and was replayed",
        ),
        SloRule(
            name="queue-depth",
            kind="gauge",
            metric="serve.queue_depth",
            threshold=512.0,
            description="a serving scheduler queue is backing up",
        ),
    ]


class SloWatchdog:
    """Evaluates a rule set on a cadence; tracks the currently-firing alerts.

    ``sinks`` receive one ``alert`` event per ok→firing transition (not per
    evaluation — a rule that stays red does not spam the audit trail); the
    same transitions increment the ``obs.alerts`` counter.  The background
    thread is optional: :meth:`evaluate` is the whole machine, callable
    synchronously from tests or a driver loop.
    """

    def __init__(
        self,
        rules: Optional[Sequence[SloRule]] = None,
        registry=None,
        interval_s: float = 5.0,
        sinks: Sequence = (),
    ) -> None:
        self.rules: List[SloRule] = list(default_slo_rules() if rules is None else rules)
        self.interval_s = float(interval_s)
        self.sinks = list(sinks)
        self._registry = registry
        self._active: Dict[str, SloAlert] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.evaluations = 0

    def _resolve_registry(self):
        if self._registry is not None:
            return self._registry
        from . import registry

        return registry()

    # ------------------------------------------------------------------ #
    def evaluate(self) -> List[SloAlert]:
        """One evaluation pass: returns the firing alerts, updates state."""
        registry = self._resolve_registry()
        firing: List[SloAlert] = []
        for rule in self.rules:
            alert = evaluate_rule(rule, registry)
            if alert is None:
                continue
            firing.append(alert)
        with self._lock:
            previous = set(self._active)
            self._active = {alert.rule: alert for alert in firing}
            new_alerts = [alert for alert in firing if alert.rule not in previous]
            self.evaluations += 1
        for alert in new_alerts:
            self._emit(alert)
        return firing

    def _emit(self, alert: SloAlert) -> None:
        from . import counter

        counter("obs.alerts", rule=alert.rule).inc()
        for sink in self.sinks:
            try:
                sink.write_alerts([alert])
            except OSError:
                # A full disk must not take the watchdog down with it.
                continue

    def active_alerts(self) -> List[SloAlert]:
        """The alerts firing as of the last evaluation."""
        with self._lock:
            return list(self._active.values())

    def ok(self) -> bool:
        with self._lock:
            return not self._active

    # ------------------------------------------------------------------ #
    def start(self) -> "SloWatchdog":
        """Start the cadence thread (idempotent); daemon, never blocks exit."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-slo-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.evaluate()
            except Exception:
                # The watchdog observes; it must never crash the process.
                pass
            self._stop.wait(self.interval_s)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

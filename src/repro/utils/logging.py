"""Lightweight structured logging helpers for training loops and benchmarks."""

from __future__ import annotations

import logging
import sys
import time
from collections import deque
from typing import Deque, Dict, Optional

__all__ = ["get_logger", "TrainingLogger"]

_FORMAT = "%(asctime)s %(name)s %(levelname)s %(message)s"


def get_logger(name: str, level: Optional[int] = None) -> logging.Logger:
    """Return a configured logger that writes to stderr exactly once.

    The level is applied only when the logger is first configured (handler
    attached); later calls return the shared logger unchanged, so a caller
    asking for a different ``level`` cannot silently mutate the logger other
    modules already hold.  ``level=None`` means "INFO on first configuration,
    whatever it already is afterwards".
    """
    logger = logging.getLogger(name)
    if not logger.handlers:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(_FORMAT))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO if level is None else level)
        logger.propagate = False
    return logger


class TrainingLogger:
    """Accumulates scalar metrics per step and reports periodic summaries.

    Each logger keeps its own ``history`` per key and answers
    :meth:`latest` / :meth:`series` from it; nothing is shared between
    loggers, whatever their names.  ``max_history`` bounds ``history`` to a
    sliding window per key (``None`` — the default — keeps everything, for
    convergence plots).
    """

    def __init__(
        self,
        name: str = "training",
        report_every: int = 0,
        logger: Optional[logging.Logger] = None,
        max_history: Optional[int] = None,
    ) -> None:
        if max_history is not None and max_history < 1:
            raise ValueError("max_history must be >= 1 (or None for unbounded)")
        self.history: Dict[str, Deque[float]] = {}
        self.report_every = report_every
        self.max_history = max_history
        self._logger = logger or get_logger(name)
        self._start = time.monotonic()
        self._step = 0

    def log(self, **metrics: float) -> None:
        """Record one step of scalar metrics."""
        self._step += 1
        for key, value in metrics.items():
            value = float(value)
            series = self.history.get(key)
            if series is None:
                series = self.history[key] = deque(maxlen=self.max_history)
            series.append(value)
        if self.report_every and self._step % self.report_every == 0:
            # Report only the metrics logged *this* step: a key that stopped
            # being logged (e.g. a periodic test_asr) must not be repeated
            # forever with its stale last value.
            summary = ", ".join(f"{k}={float(v):.4f}" for k, v in metrics.items())
            elapsed = time.monotonic() - self._start
            self._logger.info("step %d (%.1fs): %s", self._step, elapsed, summary)

    def latest(self, key: str, default: float = float("nan")) -> float:
        """Most recent value this logger recorded for ``key``."""
        series = self.history.get(key)
        return series[-1] if series else default

    def series(self, key: str) -> list:
        return list(self.history.get(key, ()))

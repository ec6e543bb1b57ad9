"""How fast the host is running right now, against the reference host idle.

The sandbox is a few cores of a shared machine whose speed moves by tens of
per cent for a minute at a time and by a factor of two or more for seconds,
with no steal time reported.  A run therefore times, between the pieces of
the program's work, a fixed piece of work of its own: interpreter bytecode
and small numpy calls, the mix the program is made of, from this file only,
so no change to the program can move it.  The ratio of that time to what it
takes on the reference host is the host's *slowdown* while that piece ran,
and the piece's time is divided by it (``run.steady_metrics``).
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence

import numpy as np

# One unit on the reference host (2-core Xeon 2.1 GHz VM, CPython 3.11,
# numpy 2.4) at the level it idles at most of the time.
NOMINAL_UNIT_MS = 2.6

_A = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48)
_B = np.cos(_A)


def unit() -> float:
    """The fixed work: ~3 ms of bytecode, ~1 ms of small-matrix numpy."""
    total = 0
    for i in range(30000):
        total += i * i
    a = _A
    for _ in range(100):
        a = np.tanh(a @ _B) + a[::-1]
    return total + float(a[0, 0])


def slowdown_between(boundary_ms: Sequence[float]) -> np.ndarray:
    """The host's slowdown during each piece of work, from the gauge
    readings taken at the pieces' boundaries (one more than there are pieces)."""
    readings = np.asarray(boundary_ms, dtype=np.float64)
    return (readings[:-1] + readings[1:]) / 2.0 / NOMINAL_UNIT_MS


class HostGauge:
    """Times units on request and keeps every timing."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.unit_ms: List[float] = []

    def sample(self, units: int = 3) -> float:
        """Time ``units`` units now; returns their median in ms."""
        taken = []
        for _ in range(units):
            start = self.clock()
            unit()
            taken.append((self.clock() - start) * 1000.0)
        self.unit_ms.extend(taken)
        return float(np.median(taken))

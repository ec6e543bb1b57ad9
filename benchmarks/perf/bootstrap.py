"""Process set-up shared by the benchmark's entry points.

The harness measures the program a user gets from a plain checkout at
library/CLI defaults, so it refuses to run when an environment variable
would select a different one, puts the checkout's ``src`` on ``sys.path``
itself (the driver runs it from a bare checkout, without ``PYTHONPATH``)
and keeps the compiled kernel cache inside the checkout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parents[1]
OUT_DIR = PERF_DIR / "out"
FIXTURE_POLICY = PERF_DIR / "fixtures" / "policy.npz"

# A path, not a behaviour: where the runtime-compiled kernels are cached.
_KERNEL_CACHE_VAR = "REPRO_NN_KERNEL_CACHE"
_GUARDED_PREFIXES = ("REPRO_NN_", "REPRO_TRANSPORT", "REPRO_TELEMETRY")


# numpy's BLAS starts one spinning thread per core; on a shared host with a
# few cores their hand-offs measure the scheduler.  Set before numpy loads
# (importing this module is the first thing every entry point does).
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"


class BenchmarkRefused(RuntimeError):
    """The environment would make the harness measure a different program."""


def behaviour_overrides(environ=os.environ) -> list:
    """Names of set variables that change what the library executes."""
    return sorted(
        name
        for name in environ
        if name.startswith(_GUARDED_PREFIXES) and name != _KERNEL_CACHE_VAR
    )


def bootstrap() -> None:
    """Make ``import repro`` resolve to this checkout at its defaults."""
    overrides = behaviour_overrides()
    if overrides:
        raise BenchmarkRefused(
            "refusing to run with " + ", ".join(overrides) + " set: the benchmark "
            "measures the library at its defaults (blocked backend, 1 GEMM thread, "
            "fork transport, telemetry off)"
        )
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        raise BenchmarkRefused(f"no program to measure: {source / 'repro'} is missing")
    os.environ.setdefault(_KERNEL_CACHE_VAR, str(REPO_ROOT / ".bench_build" / "kernels"))
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))

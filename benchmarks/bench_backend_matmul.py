"""Execution-backend smoke benchmark: blocked and threaded GEMM.

PR 6 introduced the pluggable execution-backend tier
(:mod:`repro.nn.backend`).  This benchmark is the corresponding gate,
written to ``BENCH_backend.json`` at the repo root:

* **rc-matmul kernels** — the ``blocked`` backend (runtime-compiled
  register-blocked C kernel) against the ``reference`` einsum on
  rollout-shaped matmuls.  Both produce identical bits (asserted in
  ``tests/test_nn_backend.py``); here only the clock is compared.  Gate:
  strictly faster on every shape and ≥2× in the geometric mean.  Skipped if
  no C compiler is available (the blocked backend then *is* the einsum).
* **threaded rc-gemm** — the row-partitioned pthread pool against the
  single-thread compiled kernel on wide row blocks.  Gate: geomean ≥1.5×
  when the host has ≥2 cores; on a single core the numbers are recorded but
  informational (the pool cannot win without parallel hardware).

Timing discipline: variants are interleaved (A/B/A/B…) so clock-frequency
drift hits both equally, and comparisons use the minimum over repeats (noise
only inflates a timing, so the minimum estimates the true cost).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.nn import backend as nnb

RESULTS_PATH = Path(__file__).resolve().parents[1] / "BENCH_backend.json"

# Rollout-shaped matmuls: (n_envs, state_dim) x (state_dim, hidden) style
# blocks from the collection/serving forwards, plus a training-shaped batch.
MATMUL_SHAPES = [
    (8, 64, 64),
    (8, 64, 96),
    (16, 134, 64),
    (64, 64, 64),
    (256, 64, 32),
]


def _best_of(fn, repeats: int, inner: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_matmul_shapes():
    reference = nnb.get_backend("reference")
    blocked = nnb.get_backend("blocked")
    rows_out = []
    speedups = []
    for rows, inner_dim, cols in MATMUL_SHAPES:
        rng = np.random.default_rng(rows * 1000 + cols)
        a = rng.standard_normal((rows, inner_dim))
        b = rng.standard_normal((inner_dim, cols))
        inner = max(20, int(2e6 / (rows * inner_dim * cols)))
        # Interleave the variants so drift hits both equally.
        ref_best = blk_best = float("inf")
        for _ in range(5):
            ref_best = min(ref_best, _best_of(lambda: reference.matmul2d(a, b), 1, inner))
            blk_best = min(blk_best, _best_of(lambda: blocked.matmul2d(a, b), 1, inner))
        speedup = ref_best / blk_best
        speedups.append(speedup)
        rows_out.append(
            {
                "shape": f"{rows}x{inner_dim}x{cols}",
                "reference_us": round(ref_best / inner * 1e6, 2),
                "blocked_us": round(blk_best / inner * 1e6, 2),
                "speedup": round(speedup, 2),
            }
        )
    geomean = float(np.exp(np.mean(np.log(speedups))))
    return rows_out, geomean


# Wide serving/training-shaped blocks with enough rows for the pthread pool
# to amortise its wakeup (well above backend._THREAD_MIN_WORK).
THREADED_SHAPES = [
    (512, 64, 96),
    (1024, 134, 64),
    (2048, 64, 32),
]


def _bench_threaded_gemm(threads: int):
    """Threaded vs single-thread compiled kernel on wide row blocks.

    Calls the kernel directly so both legs run the same compiled code and
    differ only in the row partition — the comparison isolates the pool.
    """
    kernel = nnb._ensure_kernel()
    rows_out = []
    speedups = []
    for rows, inner_dim, cols in THREADED_SHAPES:
        rng = np.random.default_rng(rows + cols)
        a = rng.standard_normal((rows, inner_dim))
        b = rng.standard_normal((inner_dim, cols))
        inner = max(5, int(4e7 / (rows * inner_dim * cols)))
        single_best = threaded_best = float("inf")
        for _ in range(5):
            single_best = min(single_best, _best_of(lambda: kernel.rc_gemm(a, b), 1, inner))
            threaded_best = min(
                threaded_best, _best_of(lambda: kernel.rc_gemm(a, b, threads), 1, inner)
            )
        speedup = single_best / threaded_best
        speedups.append(speedup)
        rows_out.append(
            {
                "shape": f"{rows}x{inner_dim}x{cols}",
                "single_us": round(single_best / inner * 1e6, 2),
                "threaded_us": round(threaded_best / inner * 1e6, 2),
                "speedup": round(speedup, 2),
            }
        )
    geomean = float(np.exp(np.mean(np.log(speedups))))
    return rows_out, geomean


def test_backend_blocked_and_threaded_gemm():
    kernel_available = nnb.compiled_kernel_available()
    cpu_count = os.cpu_count() or 1
    bench_threads = min(cpu_count, 4) if cpu_count >= 2 else 2
    matmul_rows, matmul_geomean = (None, None)
    threaded_rows, threaded_geomean = (None, None)
    if kernel_available:
        matmul_rows, matmul_geomean = _bench_matmul_shapes()
        threaded_rows, threaded_geomean = _bench_threaded_gemm(bench_threads)

    results = {
        "backend": nnb.active_backend().describe(),
        "threads": nnb.num_threads(),
        "cpu_count": cpu_count,
        "rc_matmul": {
            "kernel_available": kernel_available,
            "kernel_error": nnb.compiled_kernel_error(),
            "shapes": matmul_rows,
            "geomean_speedup": round(matmul_geomean, 2) if matmul_geomean else None,
        },
        "threaded_gemm": {
            "bench_threads": bench_threads,
            # On a single-core host the pool cannot win; the numbers are
            # recorded for trend tracking but the gate below is skipped.
            "enforced": cpu_count >= 2,
            "shapes": threaded_rows,
            "geomean_speedup": round(threaded_geomean, 2) if threaded_geomean else None,
        },
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    shape_lines = "".join(
        f"    {row['shape']:>12}: {row['reference_us']:7.1f}us -> "
        f"{row['blocked_us']:7.1f}us  ({row['speedup']:.2f}x)\n"
        for row in (matmul_rows or [])
    )
    threaded_lines = "".join(
        f"    {row['shape']:>12}: {row['single_us']:7.1f}us -> "
        f"{row['threaded_us']:7.1f}us  ({row['speedup']:.2f}x)\n"
        for row in (threaded_rows or [])
    )
    print(
        f"\nexecution backend ({nnb.active_backend().name}):\n"
        f"  rc-matmul blocked vs reference"
        + (
            f" (geomean {matmul_geomean:.2f}x):\n{shape_lines}"
            if kernel_available
            else f": skipped ({nnb.compiled_kernel_error()})\n"
        )
        + (
            f"  threaded rc-gemm, {bench_threads} threads on {cpu_count} core(s)"
            f" (geomean {threaded_geomean:.2f}x"
            f"{', informational' if cpu_count < 2 else ''}):\n{threaded_lines}"
            if kernel_available
            else ""
        )
        + f"  results written to {RESULTS_PATH.name}"
    )

    if not kernel_available:
        pytest.skip(f"compiled kernel unavailable: {nnb.compiled_kernel_error()}")
    assert all(row["speedup"] > 1.0 for row in matmul_rows), matmul_rows
    assert matmul_geomean >= 2.0, (
        f"blocked rc-matmul geomean speedup {matmul_geomean:.2f}x below 2x target"
    )
    # The threaded gate only binds where the pool can physically win: on a
    # single-core host the measurement is informational (recorded above).
    if cpu_count >= 2:
        assert threaded_geomean >= 1.5, (
            f"threaded rc-gemm geomean speedup {threaded_geomean:.2f}x with "
            f"{bench_threads} threads on {cpu_count} cores — below the 1.5x gate"
        )

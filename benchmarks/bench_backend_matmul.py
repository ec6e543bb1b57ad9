"""Execution-backend smoke benchmark: blocked GEMM.

PR 6 introduced the pluggable execution-backend tier
(:mod:`repro.nn.backend`).  This benchmark is the corresponding gate,
written to ``BENCH_backend.json`` at the repo root:

* **rc-matmul kernels** — the ``blocked`` backend (runtime-compiled
  register-blocked C kernel) against the ``reference`` einsum on
  rollout-shaped matmuls.  Both produce identical bits (asserted in
  ``tests/test_nn_backend.py``); here only the clock is compared.  Gate:
  strictly faster on every shape and ≥2× in the geometric mean.  Skipped if
  no C compiler is available (the blocked backend then *is* the einsum).

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


def test_backend_blocked_gemm():
    kernel_available = nnb.compiled_kernel_available()
    matmul_rows, matmul_geomean = (None, None)
    if kernel_available:
        matmul_rows, matmul_geomean = _bench_matmul_shapes()

    results = {
        "backend": nnb.active_backend().describe(),
        "cpu_count": os.cpu_count(),
        "rc_matmul": {
            "kernel_available": kernel_available,
            "kernel_error": nnb.compiled_kernel_error(),
            "shapes": matmul_rows,
            "geomean_speedup": round(matmul_geomean, 2) if matmul_geomean else None,
        },
    }
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    shape_lines = "".join(
        f"    {row['shape']:>12}: {row['reference_us']:7.1f}us -> "
        f"{row['blocked_us']:7.1f}us  ({row['speedup']:.2f}x)\n"
        for row in (matmul_rows or [])
    )
    print(
        f"\nexecution backend ({nnb.active_backend().name}):\n"
        f"  rc-matmul blocked vs reference"
        + (
            f" (geomean {matmul_geomean:.2f}x):\n{shape_lines}"
            if kernel_available
            else f": skipped ({nnb.compiled_kernel_error()})\n"
        )
        + f"  results written to {RESULTS_PATH.name}"
    )

    if not kernel_available:
        pytest.skip(f"compiled kernel unavailable: {nnb.compiled_kernel_error()}")
    assert all(row["speedup"] > 1.0 for row in matmul_rows), matmul_rows
    assert matmul_geomean >= 2.0, (
        f"blocked rc-matmul geomean speedup {matmul_geomean:.2f}x below 2x target"
    )

"""Pluggable execution backends for the ``repro.nn`` matmul core.

Every inference-time matmul in this library funnels through
:func:`repro.nn.rc_matmul`, whose row-consistent branch used to be a hard-coded
``np.einsum`` call.  That einsum is the load-bearing numerical contract of the
whole repository — each output row of ``X @ W`` accumulates over the reduction
axis in strictly increasing ``k`` order with a separate multiply and add per
term, so the ``i``-th row of a batched forward is bit-identical to a
single-row forward.  Every equivalence tier (batched vs. sequential rollout,
sharded collection, batched serving vs. ``max_batch=1``) rests on that
property.  It is also the slowest matmul in the codebase: numpy's
einsum kernel is unblocked and unvectorised compared to what the contract
actually permits.

This module turns the kernel choice into a small registry of **execution
backends**, each owning the 2-D matmul kernel used inside a
:func:`repro.nn.row_consistent_matmul` context
(:meth:`ExecutionBackend.matmul2d`), the fused recurrent gate kernels used
by ``nn.functional``'s GRU/LSTM forwards (:meth:`ExecutionBackend.gru_gates` /
:meth:`ExecutionBackend.lstm_gates`), the two networks of the decision
tick (:meth:`ExecutionBackend.gru_step` / :meth:`ExecutionBackend.tanh_mlp`)
and the PPO update's elementwise work — the training tanh MLP's
``bias_tanh`` / ``tanh_backward``, the loss nodes'
``gaussian_log_density(_backward)`` / ``clipped_surrogate(_backward)``,
``clip_grad_norm``'s ``grad_norm`` and ``Adam.step``'s ``adam_step`` —
and DF's conv block around its BLAS products: ``im2col_1d`` (the column
matrix of ``nn.Conv1d.relu_pool`` and DF scoring), ``bias_relu_pool`` (its
bias / ReLU / pool epilogue) and, for DF training and the white-box input
gradient, ``bias_relu_pool_backward`` (the pool-select × ReLU-mask
gradient) and ``col2im_1d`` (the column-gradient scatter) — and one step
of the recurrent sequences' closed-form BPTT: ``gru_bptt_step`` /
``lstm_bptt_step`` (the step's gate gradients written into its rows of the
gate-gradient slabs, the carried gradient returned).  Two backends
ship, both ``float64``, both row-consistent, bit-identical to each other by
test:

``reference``
    The original ``np.einsum("ik,kh->ih", a, b)`` matmul (in the layout
    :func:`_einsum_matmul` gives it), the plain-numpy gate math and the
    network compositions on them, kept as the testable oracle.

``blocked`` (default)
    A C kernel pack (``kernels.c`` beside this module) compiled on first use
    that performs the *identical* floating-point operations in the identical
    per-element order as the reference — the GEMM k-loop is unrolled four
    wide with explicit sequential adds and compiled with
    ``-ffp-contract=off``, so no fused-multiply-add or reassociation can
    change a single bit.  The decision-tick networks run as one call each:
    :meth:`~ExecutionBackend.gru_step` (a whole GRU stack) and
    :meth:`~ExecutionBackend.tanh_mlp` (the actor / critic MLP), and the
    training GRU's gate math is one call per timestep; each training hook
    is one call between the update's numpy BLAS products, as is each
    conv-block hook around DF's conv products and each BPTT step between
    the recurrence's products.  Their compiled
    code performs only exact IEEE arithmetic (adds, multiplies, divides,
    negation, square roots; ``grad_norm`` reproduces numpy's pairwise sum,
    a pinned numpy assumption); the transcendental ``exp`` / ``tanh`` run
    numpy's *own* float64 inner loops, taken from the ``np.exp`` / ``np.tanh`` ufunc
    objects when the kernel loads — numpy's SIMD ``exp``/``tanh`` differ
    from C ``libm`` in the last ulp, so borrowing numpy's loops is what
    keeps every kernel bit-identical to the numpy composition by
    construction.  Everything is asserted against the reference on a
    self-check battery at load time and in the test suite; on any machine
    without a working C toolchain the backend degrades to the oracle paths
    (same bits, reference speed) with a one-time :class:`RuntimeWarning`.

Selection API::

    nn.set_default_backend("blocked")        # process-wide default
    with nn.use_backend("reference"):        # scoped override
        agent.train(...)
    nn.active_backend().name                 # introspection

The ``REPRO_NN_BACKEND`` environment variable overrides the initial default
(useful for CI A/B runs); ``REPRO_NN_KERNEL_CACHE`` relocates the compiled
kernel cache (default: a ``repro-amoeba-kernels`` directory under the user
cache dir, falling back to the system temp dir).  The cache holds one
extension per (source, flags, interpreter, numpy) and a ``.sha256`` sidecar
recording what a verified build hashed to; an entry that no longer matches
its sidecar is rebuilt, never loaded.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.machinery
import importlib.util
import math
import os
import subprocess
import sys
import sysconfig
import tempfile
import warnings
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


__all__ = [
    "ExecutionBackend",
    "ReferenceBackend",
    "BlockedBackend",
    "register_backend",
    "get_backend",
    "available_backends",
    "active_backend",
    "default_backend",
    "set_default_backend",
    "use_backend",
    "compiled_kernel_available",
    "compiled_kernel_error",
    "fused_cells_available",
    "fused_cells_error",
]


# --------------------------------------------------------------------------- #
# Runtime-compiled C kernel pack
# --------------------------------------------------------------------------- #
# The source is ``kernels.c`` beside this module (package data; its header
# states the numerical contract).  It is compiled in place into the kernel
# cache on first use and loaded as a CPython extension.

_KERNEL_MODULE_NAME = "_repro_rc_gemm"
_KERNEL_SOURCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels.c")

_BASE_CFLAGS = [
    "-O3",
    "-ffp-contract=off",
    "-fno-math-errno",
    "-shared",
    "-fPIC",
]

# Sentinel distinguishing "not attempted yet" from "attempted and failed".
_UNSET = object()
_KERNEL = _UNSET
_KERNEL_ERROR: Optional[str] = None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NN_KERNEL_CACHE")
    candidates = [override] if override else []
    candidates.append(
        os.path.join(
            os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache")),
            "repro-amoeba-kernels",
        )
    )
    candidates.append(os.path.join(tempfile.gettempdir(), "repro-amoeba-kernels"))
    for candidate in candidates:
        try:
            os.makedirs(candidate, exist_ok=True)
            return candidate
        except OSError:
            continue
    raise OSError("no writable kernel cache directory")


def _kernel_path() -> str:
    with open(_KERNEL_SOURCE_PATH, "rb") as handle:
        source = handle.read()
    build = "\n".join([" ".join(_BASE_CFLAGS), sys.implementation.cache_tag, np.__version__])
    tag = hashlib.sha256(source + b"\n" + build.encode()).hexdigest()[:16]
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return os.path.join(_cache_dir(), f"{_KERNEL_MODULE_NAME}_{tag}{suffix}")


def _compile_kernel(target: str) -> None:
    """Compile ``kernels.c`` to ``target`` (atomic via temp + rename).

    The compiler reads the packaged source where it lies: nothing but the
    finished extension ever lands in the (possibly shared) cache directory.
    """
    compiler = os.environ.get("CC") or "cc"
    includes = [
        "-I" + sysconfig.get_paths()["include"],
        "-I" + np.get_include(),
    ]
    temp_target = target + f".tmp{os.getpid()}"
    # -march=native unlocks the wide SIMD units; retry without it for
    # toolchains that reject the flag.  Neither attempt may enable FMA
    # contraction — -ffp-contract=off is in the base flags.
    for extra in (["-march=native"], []):
        command = [
            compiler, *_BASE_CFLAGS, *extra, *includes, _KERNEL_SOURCE_PATH, "-o", temp_target
        ]
        result = subprocess.run(command, capture_output=True, text=True, timeout=120)
        if result.returncode == 0:
            os.replace(temp_target, target)
            return
    raise RuntimeError(
        f"kernel compilation failed: {result.stderr.strip().splitlines()[-1:] or result.stderr}"
    )


def _file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _cached_build_intact(path: str) -> bool:
    """``True`` while the cached build hashes to the digest recorded beside it.

    Checked before every load: ``dlopen`` of a truncated or bit-rotted file
    is a SIGBUS, which no ``except`` can turn into the einsum fallback.
    """
    try:
        with open(path + ".sha256") as handle:
            return handle.read().strip() == _file_sha256(path)
    except OSError:
        return False


def _record_digest(path: str) -> None:
    """Write the sidecar of a build that passed its self-check (atomically)."""
    temp_digest = f"{path}.sha256.tmp{os.getpid()}"
    with open(temp_digest, "w") as handle:
        handle.write(_file_sha256(path))
    os.replace(temp_digest, path + ".sha256")


def _load_extension(path: str):
    loader = importlib.machinery.ExtensionFileLoader(_KERNEL_MODULE_NAME, path)
    spec = importlib.util.spec_from_file_location(_KERNEL_MODULE_NAME, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module


def _self_check(kernel) -> None:
    """Assert the compiled GEMM matches the reference einsum bit-for-bit.

    Cheap insurance against a miscompiled or mis-flagged build: a handful of
    shapes covering the unroll boundary (k % 4 ∈ {0, 1, 2, 3}), single rows,
    and empty reductions.  Raises on the first mismatch.
    """
    rng = np.random.default_rng(20260807)
    for rows, inner, cols in [(1, 5, 3), (3, 4, 7), (8, 134, 64), (5, 7, 2), (2, 0, 4)]:
        a = rng.standard_normal((rows, inner))
        b = rng.standard_normal((inner, cols))
        if not np.array_equal(kernel.rc_gemm(a, b), np.einsum("ik,kh->ih", a, b)):
            raise RuntimeError(
                f"compiled rc_gemm diverges from reference einsum at shape "
                f"({rows}, {inner}) @ ({inner}, {cols})"
            )


def _ensure_kernel():
    """Return the compiled kernel module, or ``None`` if unavailable.

    The first call loads the cached build of the extension if it is intact
    (see :func:`_cached_build_intact`) and otherwise compiles over it — a
    missing, truncated or corrupted cache entry costs one rebuild, and the
    digest is recorded only once the new build has passed its self-check.
    Failures of any kind — no compiler, unwritable cache, self-check
    mismatch — are recorded, announced once via :class:`RuntimeWarning`,
    and the blocked backend permanently degrades to the reference paths for
    this process (identical bits, reference speed).
    """
    global _KERNEL, _KERNEL_ERROR
    if _KERNEL is not _UNSET:
        return _KERNEL
    try:
        path = _kernel_path()
        rebuild = not _cached_build_intact(path)
        if rebuild:
            _compile_kernel(path)
        kernel = _load_extension(path)
        _self_check(kernel)
        if rebuild:
            _record_digest(path)
        _KERNEL = kernel
    except Exception as exc:  # noqa: BLE001 - degrade, never break callers
        _KERNEL = None
        _KERNEL_ERROR = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            "repro.nn.backend: compiled blocked kernel unavailable "
            f"({_KERNEL_ERROR}); the 'blocked' backend is falling back to "
            "the reference einsum (identical bits, reference speed). "
            "Run `repro-amoeba backends` for details.",
            RuntimeWarning,
            stacklevel=2,
        )
    return _KERNEL


def compiled_kernel_available() -> bool:
    """``True`` when the blocked backend is running its compiled GEMM."""
    return _ensure_kernel() is not None


def compiled_kernel_error() -> Optional[str]:
    """The reason the compiled kernel is unavailable (``None`` when loaded)."""
    _ensure_kernel()
    return _KERNEL_ERROR


# --------------------------------------------------------------------------- #
# Fused kernels
# --------------------------------------------------------------------------- #
# The numpy implementations below are the oracle: they are copied
# operation-for-operation from the original nn/functional.py forwards (the
# sigmoid is the exact Tensor.sigmoid expression, every add/multiply in the
# same order), and they are what the `reference` backend — and any backend
# that doesn't override the gate hooks — executes.  The compiled GRU gates,
# GRU step and tanh MLP call numpy's own exp/tanh loops (bound below); the
# compiled LSTM path interleaves its C phase kernels with np.exp / np.tanh.
# All of them are self-checked against the numpy composition at first use.

# The ufuncs whose float64 inner loops the kernel pack runs for exp / tanh.
_LOOP_UFUNCS = (np.exp, np.tanh)

# log(2π) of the Gaussian policy's density (here) and entropy (nn.functional).
_LOG_2PI = math.log(2.0 * math.pi)


def _np_gru_gates(
    gx: np.ndarray, gh: np.ndarray, b: np.ndarray, hidden: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Oracle GRU gate math; returns ``(h', reset, update, candidate, gh_n)``."""
    size = hidden.shape[-1]
    pre_rz = gx[:, : 2 * size] + gh[:, : 2 * size] + b[: 2 * size]
    reset = 1.0 / (1.0 + np.exp(-pre_rz[:, :size]))
    update = 1.0 / (1.0 + np.exp(-pre_rz[:, size:]))
    gh_n = gh[:, 2 * size :]
    candidate = np.tanh(gx[:, 2 * size :] + reset * gh_n + b[2 * size :])
    new_hidden = (1.0 - update) * candidate + update * hidden
    return new_hidden, reset, update, candidate, gh_n


def _np_adam_decrement(grad, m, v, s_a, s_b, lr, beta1, beta2, eps, bias1, bias2) -> None:
    """Oracle Adam arithmetic: advance the moments ``m`` / ``v`` by ``grad``
    and leave the amount to subtract from the parameters in ``s_b``.

    Operation for operation the textbook allocating step
    (``tests/oracles/optim_reference.py``), every intermediate written into
    one of the two scratch buffers::

        s_b = (1-b1)*g        ; m = m*b1 + s_b
        s_b = ((1-b2)*g)*g    ; v = v*b2 + s_b
        s_a = sqrt(v/bias2) + eps
        s_b = (lr*(m/bias1)) / s_a

    so the rounding, and hence the trajectory, is identical.
    """
    m *= beta1
    np.multiply(grad, 1.0 - beta1, out=s_b)
    m += s_b
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=s_b)
    s_b *= grad
    v += s_b
    np.divide(v, bias2, out=s_a)
    np.sqrt(s_a, out=s_a)
    s_a += eps
    np.divide(m, bias1, out=s_b)
    s_b *= lr
    s_b /= s_a


def _np_lstm_gates(
    gx: np.ndarray, gh: np.ndarray, b: np.ndarray, cell: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Oracle LSTM gate math.

    Returns ``(h', c', gate_i, gate_f, gate_g, gate_o, tanh_cell)``.
    """
    size = cell.shape[-1]
    pre = gx + gh + b
    gate_i = 1.0 / (1.0 + np.exp(-pre[:, :size]))
    gate_f = 1.0 / (1.0 + np.exp(-pre[:, size : 2 * size]))
    gate_g = np.tanh(pre[:, 2 * size : 3 * size])
    gate_o = 1.0 / (1.0 + np.exp(-pre[:, 3 * size :]))
    new_cell = gate_f * cell + gate_i * gate_g
    tanh_cell = np.tanh(new_cell)
    new_hidden = gate_o * tanh_cell
    return new_hidden, new_cell, gate_i, gate_f, gate_g, gate_o, tanh_cell


def _compiled_lstm_gates(
    kernel, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, cell: np.ndarray
) -> Tuple[np.ndarray, ...]:
    """Hybrid LSTM gates: C for exact IEEE arithmetic, numpy for exp/tanh."""
    neg_ifo, pre_g = kernel.lstm_phase1(gx, gh, b)
    exp_ifo = np.exp(neg_ifo)
    gate_g = np.tanh(pre_g)
    gate_i, gate_f, gate_o, new_cell = kernel.lstm_phase2(exp_ifo, gate_g, cell)
    tanh_cell = np.tanh(new_cell)
    new_hidden = gate_o * tanh_cell
    return new_hidden, new_cell, gate_i, gate_f, gate_g, gate_o, tanh_cell


_GATES_OK: Optional[bool] = None
_GATES_ERROR: Optional[str] = None


def _assert_same(op: str, want, have, where: str) -> None:
    wants, haves = (want, have) if isinstance(want, tuple) else ((want,), (have,))
    for expected, got in zip(wants, haves):
        if expected.dtype != getattr(got, "dtype", None) or expected.shape != got.shape:
            raise RuntimeError(f"compiled {op} diverges from numpy at {where}")
        if expected.dtype == np.float64:
            expected, got = expected.view(np.uint64), got.view(np.uint64)
        if not np.array_equal(expected, got):
            raise RuntimeError(f"compiled {op} diverges from numpy at {where}")


def _self_check_fused_cells(kernel) -> None:
    """Assert every fused kernel reproduces its numpy composition bitwise.

    First the bound exp / tanh loops against ``np.exp`` / ``np.tanh`` (odd
    lengths around the SIMD widths, magnitudes past overflow, and the IEEE
    specials); then the gate kernels, the GRU step and the tanh MLP against
    the ``reference`` backend's composition.  The magnitude scales include
    saturating pre-activations (|pre| ~ 50) where sigmoid/tanh clamp to the
    boundary, the regime where any op-order deviation would surface.
    Raises on the first mismatch, naming the op.
    """
    rng = np.random.default_rng(20260807)
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 709.79, -745.2, 20.0]
    )
    with np.errstate(all="ignore"):
        for name, ufunc in zip(("exp", "tanh"), (np.exp, np.tanh)):
            samples = [specials] + [
                rng.standard_normal(length) * scale
                for length in (1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33, 1000)
                for scale in (1.0, 30.0, 800.0)
            ]
            for x in samples:
                _assert_same(f"{name} loop", ufunc(x), kernel.bound_loop(name, x), f"length {len(x)}")

    reference = get_backend("reference")
    # Active too: the GRU composition takes its gates from the active backend.
    with use_backend("reference"):
        for batch, size in [(1, 3), (4, 5), (7, 16), (3, 1)]:
            for scale in (1.0, 8.0, 50.0):
                where = f"batch={batch}, size={size}, scale={scale}"
                gx3 = rng.standard_normal((batch, 3 * size)) * scale
                gh3 = rng.standard_normal((batch, 3 * size)) * scale
                b3 = rng.standard_normal(3 * size) * scale
                hidden = rng.standard_normal((batch, size))
                _assert_same(
                    "gru_gates",
                    reference.gru_gates(gx3, gh3, b3, hidden)[:4],
                    kernel.gru_gates(gx3, gh3, b3, hidden),
                    where,
                )
                gx4 = rng.standard_normal((batch, 4 * size)) * scale
                gh4 = rng.standard_normal((batch, 4 * size)) * scale
                b4 = rng.standard_normal(4 * size) * scale
                cell = rng.standard_normal((batch, size))
                _assert_same(
                    "lstm gates",
                    reference.lstm_gates(gx4, gh4, b4, cell),
                    _compiled_lstm_gates(kernel, gx4, gh4, b4, cell),
                    where,
                )
        for layers, batch, inputs, size in [(1, 1, 2, 3), (2, 16, 2, 8), (3, 5, 4, 1), (2, 0, 2, 4)]:
            for scale in (1.0, 50.0):
                widths = [inputs] + [size] * layers
                cells = [
                    (
                        rng.standard_normal((widths[layer], 3 * size)) * scale,
                        rng.standard_normal((size, 3 * size)) * scale,
                        rng.standard_normal(3 * size) * scale,
                    )
                    for layer in range(layers)
                ]
                x = rng.uniform(-1.0, 1.0, size=(batch, inputs))
                hidden = rng.uniform(-1.0, 1.0, size=(layers, batch, size))
                _assert_same(
                    "gru_step",
                    reference.gru_step(x, hidden, cells),
                    kernel.gru_step(x, hidden, cells),
                    f"layers={layers}, batch={batch}, size={size}, scale={scale}",
                )
        for widths, batch in [((5, 7, 3, 2), 7), ((1, 1), 1), ((34, 64, 32, 2), 16), ((3, 4, 1), 0)]:
            for scale in (1.0, 50.0):
                layers = [
                    (rng.standard_normal((fan_in, fan_out)) * scale, rng.standard_normal(fan_out))
                    for fan_in, fan_out in zip(widths[:-1], widths[1:])
                ]
                x = rng.standard_normal((batch, widths[0]))
                _assert_same(
                    "tanh_mlp",
                    reference.tanh_mlp(x, layers),
                    kernel.tanh_mlp(x, layers),
                    f"widths={widths}, batch={batch}, scale={scale}",
                )
    _self_check_training_kernels(kernel, reference, rng)
    _self_check_conv_kernels(kernel, reference, rng)
    _self_check_bptt_kernels(kernel, reference, rng)


def _self_check_training_kernels(kernel, reference: "ExecutionBackend", rng) -> None:
    """The PPO update's elementwise kernels against the numpy hooks.

    Ratios land inside, outside and exactly on the clip bounds, with
    advantages of both signs and zero, so every branch of the surrogate's
    masks is taken; Adam runs a few steps over parameters of several shapes.
    """
    for rows, cols in [(1, 1), (7, 2), (128, 64), (5, 33), (0, 3)]:
        for scale in (1.0, 50.0):
            where = f"rows={rows}, cols={cols}, scale={scale}"
            y = rng.standard_normal((rows, cols)) * scale
            bias = rng.standard_normal(cols) * scale
            _assert_same("bias_tanh", reference.bias_tanh(y, bias), kernel.bias_tanh(y, bias), where)
            activation = np.tanh(bias + y)
            _assert_same(
                "tanh_backward",
                reference.tanh_backward(y, activation),
                kernel.tanh_backward(y, activation),
                where,
            )
            actions = rng.standard_normal((rows, cols)) * scale
            mean = rng.standard_normal((rows, cols)) * scale
            log_std = rng.standard_normal(cols)
            density = reference.gaussian_log_density(actions, mean, log_std)
            _assert_same(
                "gaussian_log_density",
                density,
                kernel.gaussian_log_density(actions, mean, log_std, -(0.5 * _LOG_2PI)),
                where,
            )
            grad = rng.standard_normal(rows) * scale
            _assert_same(
                "gaussian_log_density_backward",
                reference.gaussian_log_density_backward(grad, *density[1:]),
                kernel.gaussian_log_density_backward(grad, *density[1:]),
                where,
            )
            for epsilon in (0.2, 0.05):
                low, high = 1.0 - epsilon, 1.0 + epsilon
                log_probs = rng.standard_normal(rows)
                shift = rng.choice([0.0, 0.1, -0.1, 0.5, -0.5, 40.0, -800.0], size=rows)
                old = log_probs - shift
                on_bound = rng.random(rows) < 0.2
                old[on_bound] = log_probs[on_bound] - np.log(rng.choice([low, high], size=rows))[on_bound]
                advantages = rng.choice([0.0, 1.0, -1.0, 2.5], size=rows) * scale
                surrogate = reference.clipped_surrogate(log_probs, old, advantages, low, high)
                _assert_same(
                    "clipped_surrogate",
                    surrogate,
                    kernel.clipped_surrogate(log_probs, old, advantages, low, high),
                    where,
                )
                masks = (surrogate[1], advantages, surrogate[2], surrogate[3])
                _assert_same(
                    "clipped_surrogate_backward",
                    reference.clipped_surrogate_backward(-1.0 / max(rows, 1), *masks),
                    kernel.clipped_surrogate_backward(-1.0 / max(rows, 1), *masks),
                    where,
                )
    # Terms of one magnitude, one gradient per call: the pairwise sum's
    # structure shows in the last bits only when no term dominates.
    gradients = [[rng.standard_normal(length)] for length in list(range(300)) + [1000, 4096, 8193]]
    gradients.append([rng.standard_normal((64, 33)), rng.standard_normal(5), np.zeros(3)])
    for grads in gradients:
        _assert_same(
            "grad_norm",
            np.float64(reference.grad_norm(grads)),
            np.float64(kernel.grad_norm(grads)),
            f"sizes={[grad.size for grad in grads]}",
        )
    shapes = [(5, 3), (3,), (1,), (17, 4), (2,)]
    total = sum(int(np.prod(shape)) for shape in shapes)
    runs = []
    for step in (reference.adam_step, kernel.adam_step):
        params = [np.random.default_rng(1).standard_normal(shape) for shape in shapes]
        state, scratch = np.zeros((3, total)), np.zeros((2, total))
        grads_rng = np.random.default_rng(2)
        for count in range(1, 4):
            grads = [grads_rng.standard_normal(shape) * 10.0 ** count for shape in shapes]
            hyper = (5e-4, 0.9, 0.999, 1e-8, 1.0 - 0.9 ** count, 1.0 - 0.999 ** count)
            if step(params, grads, state, scratch, hyper) is NotImplemented:
                raise RuntimeError("compiled adam_step declined float64 parameters")
        runs.append(tuple(params) + (state[:2].copy(), scratch[1].copy()))
    _assert_same("adam_step", *runs, f"shapes={shapes}")


def _self_check_conv_kernels(kernel, reference: "ExecutionBackend", rng) -> None:
    """The conv-block kernels against the numpy hooks.

    ``im2col_1d`` and its backward ``col2im_1d`` over empty and single-row
    batches, inputs shorter than the kernel, strides and paddings past the
    kernel width, on channel-first arrays and on the transposed views of
    channel-last ones; ``bias_relu_pool`` and its backward on products
    holding NaN, infinities, zeros of both signs and tied pairs, over even
    and odd lengths, so every branch of the ReLU mask and the pool's tie
    and NaN rules is taken.
    """
    for n, channels, length, kernel_size, stride, padding in [
        (0, 2, 8, 5, 1, 2), (1, 2, 2, 5, 1, 2), (3, 16, 20, 5, 1, 2), (2, 3, 9, 3, 2, 0),
        (2, 4, 7, 2, 3, 4), (1, 2, 4, 5, 1, 1),
    ]:
        for channel_last in (False, True):
            where = f"x=({n}, {channels}, {length}), kernel={kernel_size}, stride={stride}, padding={padding}"
            if channel_last:
                x = rng.standard_normal((n, length, channels)).transpose(0, 2, 1)
            else:
                x = rng.standard_normal((n, channels, length))
            columns = kernel.im2col_1d(x, kernel_size, stride, padding)
            if columns is NotImplemented:
                raise RuntimeError(f"compiled im2col_1d declined {where}")
            _assert_same("im2col_1d", reference.im2col_1d(x, kernel_size, stride, padding), columns, where)
        grad = rng.standard_normal(columns.shape)
        grad[rng.random(grad.shape) < 0.2] = -0.0
        scattered = kernel.col2im_1d(grad, length, kernel_size, stride, padding)
        if scattered is NotImplemented:
            raise RuntimeError(f"compiled col2im_1d declined {where}")
        _assert_same(
            "col2im_1d", reference.col2im_1d(grad, length, kernel_size, stride, padding), scattered, where
        )
    specials = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324])
    for n, length, channels in [(0, 4, 2), (1, 2, 1), (3, 8, 16), (5, 40, 3), (2, 6, 7), (2, 7, 3), (1, 3, 2)]:
        for scale in (1.0, 50.0, 0.0):
            where = f"h=({n}, {length}, {channels}), scale={scale}"
            if scale:
                h = rng.standard_normal((n, length, channels)) * scale
            else:  # small integers: tied pairs
                h = rng.integers(-2, 3, size=(n, length, channels)).astype(np.float64)
            special = rng.random(h.shape) < 0.3
            h[special] = rng.choice(specials, size=int(special.sum()))
            bias = rng.standard_normal(channels) * scale
            bias[rng.random(channels) < 0.3] = rng.choice([0.0, -0.0])
            grad = rng.standard_normal((n, channels, length // 2))
            special = rng.random(grad.shape) < 0.3
            grad[special] = rng.choice(specials, size=int(special.sum()))
            with np.errstate(invalid="ignore"):  # -inf * 0 in the ReLU
                want = reference.bias_relu_pool(h, bias)
                want_grad = reference.bias_relu_pool_backward(grad, h, bias)
                have_grad = kernel.bias_relu_pool_backward(grad, h, bias)
            _assert_same("bias_relu_pool", want, kernel.bias_relu_pool(h, bias), where)
            _assert_same("bias_relu_pool_backward", want_grad, have_grad, where)


# Cache kinds of the BPTT step hooks, in argument order: sigmoid gates
# ("s"), tanh outputs ("t") and raw values ("r").
_GRU_BPTT_CACHES = "sstrr"  # resets, updates, candidates, h_prevs, gh_ns
_LSTM_BPTT_CACHES = "sststr"  # gates i / f / g / o, tanh_cells, c_prevs


def _bptt_caches(rng, shape: Tuple[int, ...], scale: float, kinds: str) -> List[np.ndarray]:
    """Random forward caches of a BPTT step hook: activations of
    pre-activations of magnitude ``scale`` (saturated at 50), or raw values."""
    caches = []
    for kind in kinds:
        pre = rng.standard_normal(shape) * scale
        caches.append(1.0 / (1.0 + np.exp(-pre)) if kind == "s" else np.tanh(pre) if kind == "t" else pre)
    return caches


def _self_check_bptt_kernels(kernel, reference: "ExecutionBackend", rng) -> None:
    """The BPTT step kernels against the numpy hooks over single rows and
    odd sizes, the first, a middle and the last step, saturated gates, and
    LSTM steps with and without an output gradient.  The slabs start NaN, so
    a row written on one side only shows."""
    with np.errstate(all="ignore"):
        for batch, steps, size in [(1, 1, 1), (3, 4, 5), (16, 3, 32)]:
            for scale in (1.0, 50.0):
                for t in sorted({0, steps // 2, steps - 1}):
                    where = f"batch={batch}, steps={steps}, size={size}, scale={scale}, t={t}"
                    d_hidden = rng.standard_normal((batch, size)) * scale
                    d_cell = rng.standard_normal((batch, size)) * scale
                    grad = rng.standard_normal((batch, steps, size))
                    gru = _bptt_caches(rng, grad.shape, scale, _GRU_BPTT_CACHES)
                    lstm = _bptt_caches(rng, grad.shape, scale, _LSTM_BPTT_CACHES)
                    runs = []
                    for backend in (reference, kernel):
                        slabs = np.full((2, batch, steps, 3 * size), np.nan)
                        runs.append((backend.gru_bptt_step(t, d_hidden, grad, *gru, *slabs), slabs))
                    _assert_same("gru_bptt_step", *runs, where)
                    for upstream in (grad, None):
                        runs = []
                        for backend in (reference, kernel):
                            slab = np.full((batch, steps, 4 * size), np.nan)
                            carry = backend.lstm_bptt_step(t, d_hidden, d_cell, upstream, *lstm, slab)
                            runs.append((carry, slab))
                        _assert_same("lstm_bptt_step", *runs, where)


def _gates_kernel():
    """The compiled module if its fused kernels passed self-check, else ``None``.

    Binds numpy's exp / tanh loops into the module, then self-checks.  Fused
    availability is tracked separately from GEMM availability so a fused
    self-check failure degrades only the fused paths — the GEMM keeps its
    compiled speed, and vice versa.
    """
    global _GATES_OK, _GATES_ERROR
    kernel = _ensure_kernel()
    if kernel is None:
        return None
    if _GATES_OK is None:
        try:
            kernel.bind_loops(*_LOOP_UFUNCS)
            _self_check_fused_cells(kernel)
            _GATES_OK = True
        except Exception as exc:  # noqa: BLE001 - degrade, never break callers
            _GATES_OK = False
            _GATES_ERROR = f"{type(exc).__name__}: {exc}"
            warnings.warn(
                "repro.nn.backend: compiled fused-cell kernels unavailable "
                f"({_GATES_ERROR}); the GRU step, the tanh MLP, the GRU/LSTM "
                "gate math, the BPTT step hooks (gru_bptt_step / "
                "lstm_bptt_step), the PPO training hooks and the conv-block "
                "hooks (im2col_1d / bias_relu_pool and DF training's "
                "bias_relu_pool_backward / col2im_1d) are falling back to the "
                "numpy composition (identical bits, numpy speed).",
                RuntimeWarning,
                stacklevel=2,
            )
    return kernel if _GATES_OK else None


def fused_cells_available() -> bool:
    """``True`` when the blocked backend runs its compiled fused kernels."""
    return _gates_kernel() is not None


def fused_cells_error() -> Optional[str]:
    """Why the fused kernels are unavailable (``None`` when active)."""
    _gates_kernel()
    return _KERNEL_ERROR if _KERNEL is None else _GATES_ERROR


# --------------------------------------------------------------------------- #
# Backends
# --------------------------------------------------------------------------- #
class ExecutionBackend:
    """One executor of the row-consistent matmul core.

    Subclasses define the 2-D matmul kernel used inside a
    :func:`repro.nn.row_consistent_matmul` context and, optionally, the
    fused recurrent gate kernels.  Every registered backend must be
    bit-identical to ``reference`` — :meth:`matmul2d` output rows depend
    only on the corresponding input row and the reduction length, the
    property the bit-equivalence ladder rests on — and
    ``tests/test_nn_backend.py`` holds the whole registry to that.

    The gate, training, conv-block and BPTT hooks default to the numpy
    oracles and the network hooks to their composition on :meth:`matmul2d`,
    so any backend is safe for the recurrent forwards and backwards, the
    decision tick, the PPO update and DF; only ``blocked`` overrides them
    with compiled (bit-identical) kernels.
    """

    name: str = "abstract"

    def matmul2d(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two 2-D float64 arrays, returning a float64 array."""
        raise NotImplementedError

    def gru_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, hidden: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused GRU gate math on pre-projected ``gx = x@w_x``, ``gh = h@w_h``.

        Returns ``(new_hidden, reset, update, candidate, gh_n)`` — the
        outputs plus the activation caches the closed-form backward needs.
        """
        return _np_gru_gates(gx, gh, b, hidden)

    def lstm_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, cell: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Fused LSTM gate math; returns
        ``(new_hidden, new_cell, gate_i, gate_f, gate_g, gate_o, tanh_cell)``.
        """
        return _np_lstm_gates(gx, gh, b, cell)

    def gru_step(
        self, x: np.ndarray, hidden: np.ndarray, cells: Sequence[Tuple[np.ndarray, ...]]
    ) -> np.ndarray:
        """One step of a GRU stack: ``(layers, n, H)`` slab in, a fresh one out.

        ``x`` is the ``(n, input_size)`` newest input and ``cells`` one packed
        ``(w_x, w_h, b)`` per layer.  This composition —
        :func:`~repro.nn.functional.gru_cell_forward` per layer on
        :meth:`matmul2d`, each layer's output the next one's input — is the
        oracle the compiled ``gru_step`` is checked against.
        """
        from .functional import gru_cell_forward  # functional imports this module

        new_hidden = np.empty(hidden.shape)
        step_input = x
        for layer, (w_x, w_h, b) in enumerate(cells):
            step_input = gru_cell_forward(step_input, hidden[layer], w_x, w_h, b, self.matmul2d)[0]
            new_hidden[layer] = step_input
        return new_hidden

    def tanh_mlp(self, x: np.ndarray, layers: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """The Linear–tanh–…–Linear forward on ``(n, in_features)`` rows.

        :func:`~repro.nn.functional.tanh_mlp_forward` on :meth:`matmul2d`
        (its last activation): the oracle of the compiled ``tanh_mlp``.
        """
        from .functional import tanh_mlp_forward  # functional imports this module

        return tanh_mlp_forward(x, layers, self.matmul2d)[-1]

    # The PPO update's elementwise work.  The training nodes of
    # ``nn.functional`` and ``Adam.step`` call these between their BLAS
    # products and numpy reductions, which stay in the callers; the numpy
    # expressions below are the oracle of the compiled kernels.
    def bias_tanh(self, y: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """A hidden tanh layer after its product: ``tanh(y + bias)``."""
        return np.tanh(y + bias)

    def tanh_backward(self, grad: np.ndarray, activation: np.ndarray) -> np.ndarray:
        """The gradient through a tanh layer whose output is ``activation``."""
        return grad * (1.0 - activation ** 2)

    def gaussian_log_density(
        self, actions: np.ndarray, mean: np.ndarray, log_std: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-dimension diagonal-Gaussian log-density of ``actions``.

        Returns ``(per_dim, diff, scaled, variance)``: the terms the caller
        sums over the last axis, and the caches its backward needs.
        """
        variance = np.exp(log_std * 2.0)
        diff = actions + -mean
        scaled = (diff ** 2) * -0.5
        per_dim = (scaled / variance + -log_std) + -(0.5 * _LOG_2PI)
        return per_dim, diff, scaled, variance

    def gaussian_log_density_backward(
        self, grad: np.ndarray, diff: np.ndarray, scaled: np.ndarray, variance: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backward of :meth:`gaussian_log_density` for the per-sample ``grad``.

        Returns ``(d_per_dim, d_variance_terms, d_mean)``: ``grad`` spread
        over the action dimensions, the per-element variance gradient (the
        caller reduces both to the shape of ``log_std``) and the mean's.
        """
        d_per_dim = np.repeat(np.expand_dims(grad, -1), diff.shape[-1], axis=-1)
        d_variance_terms = -d_per_dim * scaled / (variance ** 2)
        return d_per_dim, d_variance_terms, -(d_per_dim / variance * -0.5 * 2 * diff)

    def clipped_surrogate(
        self,
        log_probs: np.ndarray,
        old_log_probs: np.ndarray,
        advantages: np.ndarray,
        low: float,
        high: float,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-sample ``min(I·Â, clip(I, low, high)·Â)`` with ``I`` the ratio.

        Returns ``(surrogate, ratio, take_raw, inside)``: the terms the
        caller averages, the ratio, and the two masks of the backward (ties
        take the unclipped branch; the clip bounds count as inside).
        """
        ratio = np.exp(log_probs + -old_log_probs)
        inside = (ratio >= low) & (ratio <= high)
        raw = ratio * advantages
        clipped = np.clip(ratio, low, high) * advantages
        take_raw = raw <= clipped
        return np.where(take_raw, raw, clipped), ratio, take_raw, inside

    def clipped_surrogate_backward(
        self,
        d_surrogate: float,
        ratio: np.ndarray,
        advantages: np.ndarray,
        take_raw: np.ndarray,
        inside: np.ndarray,
    ) -> np.ndarray:
        """Gradient of the log-probabilities, ``d_surrogate`` per term."""
        d_ratio = (
            d_surrogate * ~take_raw * advantages * inside + d_surrogate * take_raw * advantages
        )
        return d_ratio * ratio

    def grad_norm(self, grads: Sequence[np.ndarray]) -> float:
        """The global L2 norm of ``grads``: each one's sum of squares, summed
        in order."""
        return float(np.sqrt(sum(float((grad ** 2).sum()) for grad in grads)))

    def adam_step(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        state: np.ndarray,
        scratch: np.ndarray,
        hyper: Tuple[float, float, float, float, float, float],
    ) -> None:
        """Adam's flat update of ``params`` in place.

        ``state`` holds the flat first and second moments and a gradient
        buffer, one row each, as long as all parameters together;
        ``scratch`` two more rows; ``hyper`` is ``(lr, beta1, beta2, eps,
        bias1, bias2)``.  The gradients are gathered into ``state[2]``,
        :func:`_np_adam_decrement` runs once over all elements, leaving the
        decrement in ``scratch[1]``, and each parameter subtracts its
        segment of it.
        """
        m, v, flat_grad = state
        s_a, s_b = scratch
        bounds = np.cumsum([0] + [data.size for data in params])
        views = [
            (data, slice(start, end)) for data, start, end in zip(params, bounds, bounds[1:])
        ]
        for (data, segment), grad in zip(views, grads):
            flat_grad[segment].reshape(data.shape)[...] = grad
        _np_adam_decrement(flat_grad, m, v, s_a, s_b, *hyper)
        for data, segment in views:
            data -= s_b[segment].reshape(data.shape)

    # DF's conv block around its BLAS products, which stay in the callers
    # (``nn.Conv1d.relu_pool`` and DF scoring): the column matrix in front
    # of the forward product and the bias / ReLU / pool epilogue after it;
    # in the backward, the epilogue's gradient and the column scatter.
    def im2col_1d(self, x: np.ndarray, kernel_size: int, stride: int, padding: int) -> np.ndarray:
        """The ``(n, positions, C * kernel_size)`` column matrix of a 1-D
        convolution over ``x`` ``(n, C, L)`` zero-padded by ``padding`` at
        both ends: column ``c * kernel_size + j`` of position ``p`` holds the
        padded ``x[:, c, p * stride + j]``."""
        if padding > 0:
            padded = np.zeros(x.shape[:2] + (x.shape[2] + 2 * padding,), x.dtype)
            padded[:, :, padding:-padding] = x
            x = padded
        windows = sliding_window_view(x, kernel_size, axis=2)[:, :, ::stride]
        batch, channels, positions, _ = windows.shape
        return windows.transpose(0, 2, 1, 3).reshape(batch, positions, channels * kernel_size)

    def bias_relu_pool(self, h: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Bias, ReLU and a max-pool of two over the positions of a conv
        product ``h`` ``(n, L, C)``, out in the conv layout ``(n, C, L // 2)``
        (C-contiguous).  ReLU is ``Tensor.relu``'s multiply by the mask, the
        pool ``MaxPool1d(2)``'s ``np.maximum`` of the even and odd positions
        (an odd last position is dropped)."""
        pairs = 2 * (h.shape[1] // 2)
        h = h + bias
        h *= h > 0
        return np.ascontiguousarray(np.maximum(h[:, 0:pairs:2], h[:, 1:pairs:2]).transpose(0, 2, 1))

    def bias_relu_pool_backward(self, grad: np.ndarray, h: np.ndarray, bias: np.ndarray) -> np.ndarray:
        """Backward of :meth:`bias_relu_pool` for the pooled gradient ``grad``
        ``(n, C, L // 2)``: the gradient of ``h`` ``(n, L, C)``.  Each pooled
        gradient goes to the first maximum of its pair, added to ``+0.0`` as
        ``MaxPool1d``'s scatter did (odd offset first), and is multiplied by
        the ReLU mask as ``Tensor.relu``'s backward does; the mask and the
        pair's maximum are recomputed from ``h`` and ``bias``."""
        pairs = 2 * (h.shape[1] // 2)
        z = h + bias
        mask = z > 0
        r = z * mask
        take_odd = r[:, 1:pairs:2] > r[:, 0:pairs:2]  # strict: the first maximum wins
        g = grad.transpose(0, 2, 1)
        d_h = np.zeros(h.shape)
        d_h[:, 1:pairs:2] += np.where(take_odd, g, 0.0)
        d_h[:, 0:pairs:2] += np.where(take_odd, 0.0, g)
        return d_h * mask

    def col2im_1d(
        self, grad: np.ndarray, length: int, kernel_size: int, stride: int, padding: int
    ) -> np.ndarray:
        """Backward of :meth:`im2col_1d`: the gradient ``(n, C, length)`` of
        its input for the column gradient ``grad`` ``(n, positions, C *
        kernel_size)``.  Each input element sums the terms of the windows
        that read it from ``+0.0``, kernel offset ``kernel_size - 1`` first:
        descending offsets are ascending positions, so overlapping windows
        add in position order."""
        batch, positions, width = grad.shape
        channels = width // kernel_size
        padded = np.zeros((batch, channels, length + 2 * padding))
        patch_grad = grad.reshape(batch, positions, channels, kernel_size).transpose(0, 2, 1, 3)
        span = (positions - 1) * stride + 1
        for offset in reversed(range(kernel_size)):
            padded[:, :, offset : offset + span : stride] += patch_grad[..., offset]
        return padded[:, :, padding : padding + length]

    # One time step of the recurrent sequences' closed-form BPTT
    # (``nn.functional.gru_sequence`` / ``lstm_sequence``): the step's
    # elementwise block, written into its rows of the gate-gradient slabs.
    # The recurrent product that follows it, and the hoisted weight / input
    # products and bias sums after the loop, stay numpy calls in the caller.
    def gru_bptt_step(
        self,
        t: int,
        d_hidden: np.ndarray,
        grad: np.ndarray,
        resets: np.ndarray,
        updates: np.ndarray,
        candidates: np.ndarray,
        h_prevs: np.ndarray,
        gh_ns: np.ndarray,
        d_gx_all: np.ndarray,
        d_gh_all: np.ndarray,
    ) -> np.ndarray:
        """GRU step ``t``: fold ``grad[:, t]`` into the carried ``d_hidden``,
        write the ``[r | z | n]`` pre-activation gradients into
        ``d_gx_all[:, t]`` and their hidden-side counterparts into
        ``d_gh_all[:, t]``, and return the carry ``d_hidden * update`` to
        which the caller adds ``d_gh_all[:, t] @ w_h.T``.  The caches and
        ``grad`` are ``(B, T, H)``, the slabs ``(B, T, 3H)``."""
        size = d_hidden.shape[-1]
        d_hidden = d_hidden + grad[:, t]
        reset, update = resets[:, t], updates[:, t]
        candidate = candidates[:, t]
        d_candidate = d_hidden * (1.0 - update)
        d_update = d_hidden * (h_prevs[:, t] - candidate)
        d_pre_n = d_candidate * (1.0 - candidate ** 2)
        d_reset = d_pre_n * gh_ns[:, t]
        d_pre_r = d_reset * reset * (1.0 - reset)
        d_pre_z = d_update * update * (1.0 - update)
        d_gx_all[:, t, :size] = d_pre_r
        d_gx_all[:, t, size : 2 * size] = d_pre_z
        d_gx_all[:, t, 2 * size :] = d_pre_n
        d_gh_all[:, t, : 2 * size] = d_gx_all[:, t, : 2 * size]
        d_gh_all[:, t, 2 * size :] = d_pre_n * reset
        return d_hidden * update

    def lstm_bptt_step(
        self,
        t: int,
        d_hidden: np.ndarray,
        d_cell: np.ndarray,
        grad: Optional[np.ndarray],
        gates_i: np.ndarray,
        gates_f: np.ndarray,
        gates_g: np.ndarray,
        gates_o: np.ndarray,
        tanh_cells: np.ndarray,
        c_prevs: np.ndarray,
        d_pre_all: np.ndarray,
    ) -> np.ndarray:
        """LSTM step ``t``: fold ``grad[:, t]`` (when the outputs have a
        gradient) into ``d_hidden``, add the step's term to the carried
        ``d_cell``, write the ``[i | f | g | o]`` pre-activation gradients
        into ``d_pre_all[:, t]`` and return the carry ``d_cell * gate_f``.
        The caller's next ``d_hidden`` is ``d_pre_all[:, t] @ w_h.T``.  The
        caches and ``grad`` are ``(B, T, H)``, the slab ``(B, T, 4H)``."""
        size = d_hidden.shape[-1]
        if grad is not None:
            d_hidden = d_hidden + grad[:, t]
        gate_i, gate_f = gates_i[:, t], gates_f[:, t]
        gate_g, gate_o = gates_g[:, t], gates_o[:, t]
        tanh_cell = tanh_cells[:, t]
        d_o = d_hidden * tanh_cell
        d_cell = d_cell + d_hidden * gate_o * (1.0 - tanh_cell ** 2)
        d_pre_all[:, t, :size] = d_cell * gate_g * gate_i * (1.0 - gate_i)
        d_pre_all[:, t, size : 2 * size] = d_cell * c_prevs[:, t] * gate_f * (1.0 - gate_f)
        d_pre_all[:, t, 2 * size : 3 * size] = d_cell * gate_i * (1.0 - gate_g ** 2)
        d_pre_all[:, t, 3 * size :] = d_o * gate_o * (1.0 - gate_o)
        return d_cell * gate_f

    def describe(self) -> Dict[str, object]:
        """Introspection payload (benchmarks embed this in their results)."""
        return {"name": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def _einsum_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.einsum("ik,kh->ih", a, b)`` in the layout that makes it sequential.

    On C-ordered float64 operands with at least two output columns, einsum
    walks ``k`` in its outer loop, so each output element accumulates over
    ``k`` in strictly increasing order with separate multiply/add rounding
    steps.  A one-column product, or a Fortran-ordered operand, moves ``k``
    into einsum's innermost loop, which sums with several SIMD partial sums —
    a different rounding.  So both operands are made C-ordered float64 (as
    the compiled GEMM reads them) and a single column is computed as the
    first of two identical ones.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    if b.ndim == 2 and b.shape[1] == 1:
        return np.einsum("ik,kh->ih", a, np.repeat(b, 2, axis=1))[:, :1]
    return np.einsum("ik,kh->ih", a, b)


class ReferenceBackend(ExecutionBackend):
    """The original einsum + numpy path — the oracle every fast path is
    tested against.

    ``np.einsum("ik,kh->ih")`` (in the layout :func:`_einsum_matmul` gives
    it) accumulates each output element over ``k`` in strictly increasing
    order with separate multiply/add rounding steps, which is the numerical
    definition of the row-consistency contract.  The inherited gate hooks
    are the plain-numpy oracles, the network hooks their composition.
    """

    name = "reference"

    def matmul2d(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _einsum_matmul(a, b)


def _compiled(name: str, *constants):
    """A :class:`BlockedBackend` hook running the compiled kernel ``name``.

    The kernel gets the hook's arguments, then ``constants``.  It returns
    ``NotImplemented`` for operands outside its float64 fast path, and then
    — or when the fused kernels are unavailable — the hook runs the numpy
    expression of :class:`ExecutionBackend`.
    """
    def hook(self, *args):
        kernel = _gates_kernel()
        result = NotImplemented if kernel is None else getattr(kernel, name)(*args, *constants)
        if result is NotImplemented:
            return getattr(ExecutionBackend, name)(self, *args)
        return result

    hook.__name__ = hook.__qualname__ = name
    hook.__doc__ = getattr(ExecutionBackend, name).__doc__
    return hook


class BlockedBackend(ExecutionBackend):
    """Compiled kernel pack, bit-identical to the reference paths.

    Dispatches the matmul to the runtime-compiled extension when available
    and verified (see :func:`compiled_kernel_available`), and the GRU step,
    the tanh MLP and the recurrent gate math to the fused compiled kernels
    when they passed their own self-check (:func:`fused_cells_available`).  Because every fast path
    produces identical bits to its oracle, the dispatch points are invisible
    to all numerical contracts — only the clock changes.
    """

    name = "blocked"

    def matmul2d(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        kernel = _ensure_kernel()
        return _einsum_matmul(a, b) if kernel is None else kernel.rc_gemm(a, b)

    # The float64 guards protect the C boundary of the gate kernels: the
    # extension would widen any other dtype silently (PyArray_FROM_OTF),
    # which is not what the numpy oracle does with it.  The network kernels
    # need none: their compositions widen every operand to float64 exactly
    # as the extension does (the GEMM casts its inputs; the slab is float64).
    def gru_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, hidden: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        kernel = _gates_kernel()
        if (
            kernel is not None
            and gx.dtype == np.float64
            and gh.dtype == np.float64
            and hidden.dtype == np.float64
        ):
            return (*kernel.gru_gates(gx, gh, b, hidden), gh[:, 2 * hidden.shape[-1] :])
        return _np_gru_gates(gx, gh, b, hidden)

    def gru_step(
        self, x: np.ndarray, hidden: np.ndarray, cells: Sequence[Tuple[np.ndarray, ...]]
    ) -> np.ndarray:
        kernel = _gates_kernel()
        if kernel is None:
            return super().gru_step(x, hidden, cells)
        return kernel.gru_step(x, hidden, cells)

    def tanh_mlp(self, x: np.ndarray, layers: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        kernel = _gates_kernel()
        if kernel is None:
            return super().tanh_mlp(x, layers)
        return kernel.tanh_mlp(x, layers)

    def lstm_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, cell: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        kernel = _gates_kernel()
        if (
            kernel is not None
            and gx.dtype == np.float64
            and gh.dtype == np.float64
            and cell.dtype == np.float64
        ):
            return _compiled_lstm_gates(kernel, gx, gh, b, cell)
        return _np_lstm_gates(gx, gh, b, cell)

    bias_tanh = _compiled("bias_tanh")
    tanh_backward = _compiled("tanh_backward")
    gaussian_log_density = _compiled("gaussian_log_density", -(0.5 * _LOG_2PI))
    gaussian_log_density_backward = _compiled("gaussian_log_density_backward")
    clipped_surrogate = _compiled("clipped_surrogate")
    clipped_surrogate_backward = _compiled("clipped_surrogate_backward")
    grad_norm = _compiled("grad_norm")
    adam_step = _compiled("adam_step")
    im2col_1d = _compiled("im2col_1d")
    bias_relu_pool = _compiled("bias_relu_pool")
    bias_relu_pool_backward = _compiled("bias_relu_pool_backward")
    col2im_1d = _compiled("col2im_1d")
    gru_bptt_step = _compiled("gru_bptt_step")
    lstm_bptt_step = _compiled("lstm_bptt_step")

    def describe(self) -> Dict[str, object]:
        payload = super().describe()
        payload["kernel"] = "compiled" if compiled_kernel_available() else "einsum-fallback"
        payload["kernel_error"] = compiled_kernel_error()
        payload["fused_cells"] = (
            "compiled" if fused_cells_available() else "numpy-fallback"
        )
        payload["fused_cells_error"] = fused_cells_error()
        return payload


# --------------------------------------------------------------------------- #
# Registry and selection
# --------------------------------------------------------------------------- #
_REGISTRY: Dict[str, ExecutionBackend] = {}
_DEFAULT: Optional[ExecutionBackend] = None
_OVERRIDES: List[ExecutionBackend] = []


def register_backend(backend: ExecutionBackend) -> ExecutionBackend:
    """Add ``backend`` to the registry (replacing any same-named entry)."""
    if not backend.name or backend.name == "abstract":
        raise ValueError("backend must define a concrete name")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ExecutionBackend:
    """Look up a registered backend by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown execution backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> List[str]:
    """Names of all registered backends."""
    return sorted(_REGISTRY)


def default_backend() -> ExecutionBackend:
    """The process-wide default backend (active when no override is open)."""
    return _DEFAULT


def set_default_backend(name: str) -> ExecutionBackend:
    """Set the process-wide default backend; returns the new default."""
    global _DEFAULT
    _DEFAULT = get_backend(name)
    return _DEFAULT


def active_backend() -> ExecutionBackend:
    """The backend the next row-consistent matmul will execute on."""
    if _OVERRIDES:
        return _OVERRIDES[-1]
    return _DEFAULT


@contextlib.contextmanager
def use_backend(name: str) -> Iterator[ExecutionBackend]:
    """Scoped backend override (nestable; innermost wins)."""
    backend = get_backend(name)
    _OVERRIDES.append(backend)
    try:
        yield backend
    finally:
        _OVERRIDES.pop()


register_backend(ReferenceBackend())
register_backend(BlockedBackend())

_initial = os.environ.get("REPRO_NN_BACKEND", "blocked")
if _initial not in _REGISTRY:
    warnings.warn(
        f"REPRO_NN_BACKEND={_initial!r} is not a registered backend; "
        f"falling back to 'blocked'",
        RuntimeWarning,
        stacklevel=2,
    )
    _initial = "blocked"
set_default_backend(_initial)

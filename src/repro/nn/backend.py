"""The executor of ``repro.nn``: the row-consistent matmul and the hooks.

Every inference-time matmul in this library funnels through
:func:`repro.nn.rc_matmul`, whose row-consistent branch used to be a hard-coded
``np.einsum`` call.  That einsum is the load-bearing numerical contract of the
whole repository — each output row of ``X @ W`` accumulates over the reduction
axis in strictly increasing ``k`` order with a separate multiply and add per
term, so the ``i``-th row of a batched forward is bit-identical to a
single-row forward.  Every equivalence tier (batched vs. sequential rollout,
sharded collection, batched serving vs. ``max_batch=1``) rests on that
property.

One :class:`ExecutionBackend`, the instance :func:`active_backend` returns,
executes the 2-D matmul of a :func:`repro.nn.row_consistent_matmul` context
(:meth:`ExecutionBackend.matmul2d`) and the **hooks**: the numpy bodies on
the class that the recurrent cells, the decision tick, the PPO update, DF's
conv block and the BPTT recurrences call.  Its kernel pack (``kernels.c``
beside this module) is compiled on first use and performs the *identical*
floating-point operations in the identical per-element order as the einsum
and the bodies — the GEMM k-loop is unrolled four wide with explicit
sequential adds and compiled with ``-ffp-contract=off``, so no
fused-multiply-add or reassociation can change a single bit.  Its hooks are
the rows of ``_HOOKS``: each names a numpy body (the oracle and the
fallback), the kernel-pack functions that replace it, whether they run
numpy's own float64 ``exp`` / ``tanh`` loops (bound from the ufuncs when the
kernel loads: numpy's SIMD transcendentals differ from libm in the last ulp)
and the operands of its self-check.  At first use each row is checked
bitwise against its body on its own; a row that mismatches — or whose bound
loops do — runs its numpy body alone, announced by one
:class:`RuntimeWarning` naming it.  Without a working C toolchain the GEMM is
the einsum and every hook runs its numpy body (same bits, numpy speed).

Nothing selects another executor.  ``ExecutionBackend(compiled=False)`` is
the same class without a kernel — exactly that no-toolchain fallback — and
the oracle of the self-check.  ``REPRO_NN_KERNEL_CACHE`` relocates the
compiled kernel cache (default: a ``repro-amoeba-kernels`` directory under
the user cache dir, falling back to the system temp dir).  The cache holds
one extension per (source, flags, interpreter, numpy) and a ``.sha256``
sidecar recording what a verified build hashed to; an entry that no longer
matches its sidecar is rebuilt, never loaded.
"""

from __future__ import annotations

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
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


__all__ = ["ExecutionBackend", "active_backend", "hook_status"]


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
# Why an executor built with ``compiled=False`` runs every numpy body.
_NO_KERNEL = "built without a kernel"


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
    stderr = result.stderr.strip().splitlines()
    reason = stderr[-1] if stderr else f"{compiler} exited with status {result.returncode}"
    raise RuntimeError(f"kernel compilation failed: {reason}")


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
        a, b = rng.standard_normal((rows, inner)), rng.standard_normal((inner, cols))
        where = f"shape ({rows}, {inner}) @ ({inner}, {cols})"
        _assert_same("rc_gemm", np.einsum("ik,kh->ih", a, b), kernel.rc_gemm(a, b), where)


def _ensure_kernel():
    """Return the compiled kernel module, or ``None`` if unavailable.

    The first call loads the cached build of the extension if it is intact
    (see :func:`_cached_build_intact`) and otherwise compiles over it — a
    missing, truncated or corrupted cache entry costs one rebuild, and the
    digest is recorded only once the new build has passed its self-check.
    Failures of any kind — no compiler, unwritable cache, self-check
    mismatch — are recorded in ``_KERNEL_ERROR``, announced once via
    :class:`RuntimeWarning`, and the GEMM and every hook permanently run
    the einsum and the numpy bodies for this process (identical bits,
    numpy speed).
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
            "repro.nn.backend: compiled kernel unavailable "
            f"({_KERNEL_ERROR}); falling back to the einsum GEMM and the "
            "numpy hook bodies (identical bits, numpy speed). "
            "Run `repro-amoeba backends` for details.",
            RuntimeWarning,
            stacklevel=2,
        )
    return _KERNEL


# --------------------------------------------------------------------------- #
# The executor
# --------------------------------------------------------------------------- #
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


class ExecutionBackend:
    """The executor of the row-consistent matmul core and of the hooks.

    :meth:`matmul2d` output rows depend only on the corresponding input row
    and the reduction length — the property the bit-equivalence ladder
    rests on.  The other public methods are the hooks.  Their bodies here
    are numpy (the network hooks compose :meth:`matmul2d` and the gate
    hooks of the same executor): the oracles every compiled kernel is
    checked against and the paths it falls back to.  The numpy expressions
    are copied operation for operation from the original ``Tensor``
    forwards (the sigmoid is ``Tensor.sigmoid``'s expression, every add and
    multiply in the same order).

    The instance :func:`active_backend` returns is built ``compiled``: its
    matmul runs the compiled GEMM where the kernel pack loaded and passed
    its self-check, and each hook is a row of ``_HOOKS``.  At the first use
    of any hook every row is self-checked on its own and resolved once into
    the instance — to its compiled path, or to its numpy body if its check
    failed.  Built with ``compiled=False`` the executor has no kernel: the
    einsum and the bodies as the table bound them, which is what runs where
    no kernel pack can be built.  Every path produces identical bits, so
    the dispatch is invisible to all numerical contracts; only the clock
    changes.
    """

    def __init__(self, compiled: bool = True) -> None:
        self.compiled = compiled
        self.name = "blocked" if compiled else "numpy"
        self._failed: Optional[Dict[str, str]] = None
        for hook in _HOOKS:
            self.__dict__[hook.name] = _first_use(self, hook.name) if compiled else hook.body.__get__(self)

    def matmul2d(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two 2-D float64 arrays, returning a float64 array."""
        kernel = _ensure_kernel() if self.compiled else None
        return _einsum_matmul(a, b) if kernel is None else kernel.rc_gemm(a, b)

    def gru_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, hidden: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fused GRU gate math on pre-projected ``gx = x@w_x``, ``gh = h@w_h``.

        Returns ``(new_hidden, reset, update, candidate, gh_n)`` — the
        outputs plus the activation caches the closed-form backward needs.
        """
        size = hidden.shape[-1]
        pre_rz = gx[:, : 2 * size] + gh[:, : 2 * size] + b[: 2 * size]
        reset = 1.0 / (1.0 + np.exp(-pre_rz[:, :size]))
        update = 1.0 / (1.0 + np.exp(-pre_rz[:, size:]))
        gh_n = gh[:, 2 * size :]
        candidate = np.tanh(gx[:, 2 * size :] + reset * gh_n + b[2 * size :])
        new_hidden = (1.0 - update) * candidate + update * hidden
        return new_hidden, reset, update, candidate, gh_n

    def lstm_gates(
        self, gx: np.ndarray, gh: np.ndarray, b: np.ndarray, cell: np.ndarray
    ) -> Tuple[np.ndarray, ...]:
        """Fused LSTM gate math; returns
        ``(new_hidden, new_cell, gate_i, gate_f, gate_g, gate_o, tanh_cell)``.
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

    def gru_step(
        self, x: np.ndarray, hidden: np.ndarray, cells: Sequence[Tuple[np.ndarray, ...]]
    ) -> np.ndarray:
        """One step of a GRU stack: ``(layers, n, H)`` slab in, a fresh one out.

        ``x`` is the ``(n, input_size)`` newest input and ``cells`` one packed
        ``(w_x, w_h, b)`` per layer.  This composition —
        :func:`~repro.nn.functional.gru_cell_forward` per layer on this
        executor's :meth:`matmul2d` and ``gru_gates``, each layer's output
        the next one's input — is the oracle the compiled ``gru_step`` is
        checked against.
        """
        from .functional import gru_cell_forward  # functional imports this module

        new_hidden = np.empty(hidden.shape)
        step_input = x
        for layer, (w_x, w_h, b) in enumerate(cells):
            step_input = gru_cell_forward(step_input, hidden[layer], w_x, w_h, b, self.matmul2d, self)[0]
            new_hidden[layer] = step_input
        return new_hidden

    def tanh_mlp(self, x: np.ndarray, layers: Sequence[Tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """The Linear–tanh–…–Linear forward on ``(n, in_features)`` rows.

        :func:`~repro.nn.functional.tanh_mlp_forward` on this executor's
        :meth:`matmul2d` and ``bias_tanh`` (its last activation): the oracle
        of the compiled ``tanh_mlp``.
        """
        from .functional import tanh_mlp_forward  # functional imports this module

        return tanh_mlp_forward(x, layers, self.matmul2d, self)[-1]

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

    def _resolve(self) -> Dict[str, str]:
        """Check and install every row once; ``{name: why}`` of the hooks
        running their numpy body."""
        if self._failed is None and not self.compiled:
            self._failed = {hook.name: _NO_KERNEL for hook in _HOOKS}
        elif self._failed is None:
            self._failed = _check_hooks()
            for hook in _HOOKS:
                compiled = _declined if hook.name in self._failed else hook.compiled(_KERNEL)
                self.__dict__[hook.name] = _dispatch(self, hook.name, compiled)
        return self._failed

    def describe(self) -> Dict[str, object]:
        """What runs the GEMM and the hooks, and why not compiled where not
        (``benchmarks/perf/run.py`` embeds this in its results)."""
        failed = self._resolve()
        kernel = _ensure_kernel() if self.compiled else None
        return {
            "name": self.name,
            "kernel": "einsum-fallback" if kernel is None else "compiled",
            "kernel_error": _KERNEL_ERROR if self.compiled else _NO_KERNEL,
            "fused_cells": "numpy-fallback" if failed else "compiled",
            "fused_cells_error": _failure_text(failed),
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(compiled={self.compiled})"


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


# --------------------------------------------------------------------------- #
# The hook table
# --------------------------------------------------------------------------- #
# One row per hook of the executor.  A new hook is one C function
# in kernels.c, one numpy body on ExecutionBackend and one row here;
# tests/test_nn_backend.py::TestHookTable holds the three to each other.

# The ufuncs whose float64 inner loops the kernel pack runs for exp / tanh.
_LOOP_UFUNCS = (np.exp, np.tanh)

# log(2π) of the Gaussian policy's density (here) and entropy (core.actor_critic).
_LOG_2PI = math.log(2.0 * math.pi)

# IEEE specials the elementwise samplers plant among their operands.
_SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, -5e-324])


class _Hook(NamedTuple):
    """One row of the table.

    ``name`` is the :class:`ExecutionBackend` method whose numpy body is
    both the oracle and the fallback; ``body`` is that method as bound when
    the table was built, which the self-check runs.  The compiled path calls
    the kernel-pack function ``name`` with the hook's arguments and then
    ``constants``, or is what ``call(kernel)`` builds from the functions
    ``symbols``; it returns ``NotImplemented`` to decline operands outside
    its fast path.  ``loops`` marks a kernel that runs the bound exp / tanh
    loops.  ``samples(rng)`` yields the self-check's ``(where, args)``.  The
    results are compared bit for bit (a NaN by position only where
    ``nan_aware``) — for a hook that writes into its arguments, what
    ``outputs(result, args)`` picks, each side on its own stream of the same
    operands.
    """

    name: str
    samples: Callable[[np.random.Generator], Iterator[Tuple[str, tuple]]]
    loops: bool = False
    constants: Tuple[float, ...] = ()
    symbols: Tuple[str, ...] = ()
    call: Optional[Callable] = None
    outputs: Optional[Callable] = None
    nan_aware: bool = False
    body: Optional[Callable] = None

    @property
    def kernels(self) -> Tuple[str, ...]:
        """The kernel-pack functions this row claims."""
        return self.symbols or (self.name,)

    def compiled(self, kernel) -> Callable:
        """The compiled path of this hook on the loaded kernel pack."""
        if self.call is not None:
            return self.call(kernel)
        function, constants = getattr(kernel, self.name), self.constants
        return (lambda *args: function(*args, *constants)) if constants else function


# The float64 guards protect the C boundary of the gate kernels: the
# extension would widen any other dtype silently (PyArray_FROM_OTF), which is
# not what the numpy body does with it.
def _gru_gates_call(kernel) -> Callable:
    gates = kernel.gru_gates

    def call(gx, gh, b, hidden):
        if gx.dtype != np.float64 or gh.dtype != np.float64 or hidden.dtype != np.float64:
            return NotImplemented
        return (*gates(gx, gh, b, hidden), gh[:, 2 * hidden.shape[-1] :])

    return call


def _lstm_gates_call(kernel) -> Callable:
    """C phases for the exact IEEE arithmetic, numpy for exp / tanh."""
    phase1, phase2 = kernel.lstm_phase1, kernel.lstm_phase2

    def call(gx, gh, b, cell):
        if gx.dtype != np.float64 or gh.dtype != np.float64 or cell.dtype != np.float64:
            return NotImplemented
        neg_ifo, pre_g = phase1(gx, gh, b)
        gate_g = np.tanh(pre_g)
        gate_i, gate_f, gate_o, new_cell = phase2(np.exp(neg_ifo), gate_g, cell)
        tanh_cell = np.tanh(new_cell)
        return gate_o * tanh_cell, new_cell, gate_i, gate_f, gate_g, gate_o, tanh_cell

    return call


# Samplers.  Magnitude scales reach saturating pre-activations (|pre| ~ 50),
# where sigmoid / tanh clamp to the boundary and any op-order deviation
# would surface.
def _gate_samples(gates: int) -> Callable:
    """``(gx, gh, b, state)`` of a cell with ``gates`` gates."""

    def samples(rng):
        for batch, size in [(1, 3), (4, 5), (7, 16), (3, 1)]:
            for scale in (1.0, 8.0, 50.0):
                width = gates * size
                yield f"batch={batch}, size={size}, scale={scale}", (
                    rng.standard_normal((batch, width)) * scale,
                    rng.standard_normal((batch, width)) * scale,
                    rng.standard_normal(width) * scale,
                    rng.standard_normal((batch, size)),
                )

    return samples


def _gru_step_samples(rng):
    for layers, batch, inputs, size in [(1, 1, 2, 3), (2, 16, 2, 8), (3, 5, 4, 1), (2, 0, 2, 4)]:
        for scale in (1.0, 50.0):
            shapes = [[(fan_in, 3 * size), (size, 3 * size), 3 * size] for fan_in in [inputs] + [size] * (layers - 1)]
            cells = [tuple(rng.standard_normal(shape) * scale for shape in cell) for cell in shapes]
            x = rng.uniform(-1.0, 1.0, size=(batch, inputs))
            hidden = rng.uniform(-1.0, 1.0, size=(layers, batch, size))
            yield f"layers={layers}, batch={batch}, size={size}, scale={scale}", (x, hidden, cells)


def _tanh_mlp_samples(rng):
    for widths, batch in [((5, 7, 3, 2), 7), ((1, 1), 1), ((34, 64, 32, 2), 16), ((3, 4, 1), 0)]:
        for scale in (1.0, 50.0):
            layers = [
                (rng.standard_normal((fan_in, fan_out)) * scale, rng.standard_normal(fan_out))
                for fan_in, fan_out in zip(widths[:-1], widths[1:])
            ]
            x = rng.standard_normal((batch, widths[0]))
            yield f"widths={widths}, batch={batch}, scale={scale}", (x, layers)


def _elementwise_shapes() -> Iterator[Tuple[str, int, int, float]]:
    for rows, cols in [(1, 1), (7, 2), (128, 64), (5, 33), (0, 3), (129, 7)]:
        for scale in (1.0, 50.0):
            yield f"rows={rows}, cols={cols}, scale={scale}", rows, cols, scale


def _bias_tanh_samples(rng):
    for where, rows, cols, scale in _elementwise_shapes():
        yield where, (rng.standard_normal((rows, cols)) * scale, rng.standard_normal(cols) * scale)


def _tanh_backward_samples(rng):
    for where, args in _bias_tanh_samples(rng):
        yield where, (args[0], np.tanh(args[1] + args[0]))


def _density_samples(rng):
    for where, rows, cols, scale in _elementwise_shapes():
        actions, mean = rng.standard_normal((2, rows, cols)) * scale
        yield where, (actions, mean, rng.standard_normal(cols))


def _density_backward_samples(rng):
    """A per-sample gradient and the forward's caches on its samples."""
    oracle = ExecutionBackend(compiled=False)
    for (where, args), (_, rows, _, scale) in zip(_density_samples(rng), _elementwise_shapes()):
        yield where, (rng.standard_normal(rows) * scale, *oracle.gaussian_log_density(*args)[1:])


def _surrogate_samples(rng):
    """Ratios inside, outside and exactly on the clip bounds, advantages of
    both signs and zero: every branch of the surrogate's masks."""
    for where, rows, _, scale in _elementwise_shapes():
        for epsilon in (0.2, 0.05):
            low, high = 1.0 - epsilon, 1.0 + epsilon
            log_probs = rng.standard_normal(rows)
            old = log_probs - rng.choice([0.0, 0.1, -0.1, 0.5, -0.5, 40.0, -800.0], size=rows)
            on_bound = rng.random(rows) < 0.2
            old[on_bound] = log_probs[on_bound] - np.log(rng.choice([low, high], size=rows))[on_bound]
            advantages = rng.choice([0.0, 1.0, -1.0, 2.5], size=rows) * scale
            yield f"{where}, epsilon={epsilon}", (log_probs, old, advantages, low, high)


def _surrogate_backward_samples(rng):
    oracle = ExecutionBackend(compiled=False)
    for where, args in _surrogate_samples(rng):
        _, ratio, take_raw, inside = oracle.clipped_surrogate(*args)
        yield where, (-1.0 / max(ratio.size, 1), ratio, args[2], take_raw, inside)


def _grad_norm_samples(rng):
    """Terms of one magnitude, one gradient per call: the pairwise sum's
    structure shows in the last bits only when no term dominates."""
    for length in list(range(300)) + [1000, 4096, 8193]:
        yield f"size={length}", ([rng.standard_normal(length)],)
    yield "mixed sizes", ([rng.standard_normal((64, 33)), rng.standard_normal(5), np.zeros(3)],)
    shapes = [(9, 7), (7,), (9,), (297,)]
    yield "mixed magnitudes", ([rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 6) for shape in shapes],)


def _adam_samples(rng):
    """Steps 1-3 of parameters of several shapes, from zero moments on the first."""
    shapes = [(5, 3), (3,), (1,), (17, 4), (2,)]
    total = sum(int(np.prod(shape)) for shape in shapes)
    for count in (1, 2, 3):
        state = np.zeros((3, total))
        if count > 1:
            state[0], state[1] = rng.standard_normal(total), rng.standard_normal(total) ** 2
        params = [rng.standard_normal(shape) for shape in shapes]
        grads = [rng.standard_normal(shape) * 10.0 ** count for shape in shapes]
        hyper = (5e-4, 0.9, 0.999, 1e-8, 1.0 - 0.9 ** count, 1.0 - 0.999 ** count)
        yield f"shapes={shapes}, step={count}", (params, grads, state, np.zeros((2, total)), hyper)


def _adam_outputs(result, args):
    """The parameters, the moments and the decrement (the gradient row and
    the kernel's other scratch row are its own business)."""
    params, _, state, scratch, _ = args
    return (*params, state[:2], scratch[1])


# Empty and single-row batches, inputs shorter than the kernel, strides and
# paddings past the kernel width, DF's 41-packet convolution.
_CONV_SHAPES = [
    (0, 2, 8, 5, 1, 2), (1, 2, 2, 5, 1, 2), (3, 16, 20, 5, 1, 2), (2, 3, 9, 3, 2, 0),
    (2, 4, 7, 2, 3, 4), (1, 2, 4, 5, 1, 1), (2, 16, 41, 5, 1, 2),
]


def _im2col_samples(rng):
    """Channel-first arrays and the transposed views of channel-last ones."""
    for n, channels, length, kernel_size, stride, padding in _CONV_SHAPES:
        where = f"x=({n}, {channels}, {length}), kernel={kernel_size}, stride={stride}, padding={padding}"
        yield where, (rng.standard_normal((n, channels, length)), kernel_size, stride, padding)
        x = rng.standard_normal((n, length, channels)).transpose(0, 2, 1)
        yield f"{where}, channel-last", (x, kernel_size, stride, padding)


def _col2im_samples(rng):
    for n, channels, length, kernel_size, stride, padding in _CONV_SHAPES:
        positions = (length + 2 * padding - kernel_size) // stride + 1
        grad = rng.standard_normal((n, positions, channels * kernel_size))
        grad[rng.random(grad.shape) < 0.2] = -0.0
        yield f"grad={grad.shape}, length={length}", (grad, length, kernel_size, stride, padding)


def _pool_samples(rng):
    """``(grad, h, bias)``: products and pooled gradients holding NaN,
    infinities, zeros of both signs and tied pairs, over even and odd
    lengths, so every branch of the ReLU mask and of the pool's tie and NaN
    rules is taken."""
    shapes = [(0, 4, 2), (1, 2, 1), (3, 8, 16), (5, 40, 3), (2, 6, 7), (2, 7, 3), (1, 3, 2), (2, 41, 16)]
    for n, length, channels in shapes:
        for scale in (1.0, 50.0, 0.0):
            if scale:
                h = rng.standard_normal((n, length, channels)) * scale
            else:  # small integers: tied pairs
                h = rng.integers(-2, 3, size=(n, length, channels)).astype(np.float64)
            grad = rng.standard_normal((n, channels, length // 2))
            for array in (h, grad):
                special = rng.random(array.shape) < 0.3
                array[special] = rng.choice(_SPECIALS, size=int(special.sum()))
            bias = rng.standard_normal(channels) * scale
            bias[rng.random(channels) < 0.3] = rng.choice([0.0, -0.0])
            yield f"h=({n}, {length}, {channels}), scale={scale}", (grad, h, bias)


def _pool_forward_samples(rng):
    for where, (_, h, bias) in _pool_samples(rng):
        yield where, (h, bias)


# Cache kinds of the BPTT step hooks, in argument order: sigmoid gates ("s"),
# tanh outputs ("t") and raw values ("r").
_BPTT_CACHES = {
    "gru_bptt_step": "sstrr",  # resets, updates, candidates, h_prevs, gh_ns
    "lstm_bptt_step": "sststr",  # gates i / f / g / o, tanh_cells, c_prevs
}


def _bptt_operands(rng, hook: str, batch: int, steps: int, size: int, scale=1.0, specials=0.0):
    """``(where, args)`` of BPTT step ``hook`` at the first, a middle and the
    last step (the LSTM's with and without an output gradient): caches of
    pre-activations of magnitude ``scale``, a share ``specials`` of every
    input replaced by ±0.0 / NaN / ±inf, and NaN-filled slabs, so a row
    written on one side only shows."""

    def spiked(array):
        hit = rng.random(array.shape) < specials
        array[hit] = rng.choice(_SPECIALS[:6], size=int(hit.sum()))  # ±0.0, ±NaN, ±inf
        return array

    def cache(kind):
        pre = rng.standard_normal((batch, steps, size)) * scale
        return spiked(1.0 / (1.0 + np.exp(-pre)) if kind == "s" else np.tanh(pre) if kind == "t" else pre)

    d_hidden, d_cell = spiked(rng.standard_normal((2, batch, size)) * scale)
    grad = spiked(rng.standard_normal((batch, steps, size)))
    caches = [cache(kind) for kind in _BPTT_CACHES[hook]]
    for t in sorted({0, steps // 2, steps - 1}):
        where = f"batch={batch}, steps={steps}, size={size}, scale={scale}, specials={specials}, t={t}"
        if hook == "gru_bptt_step":
            yield where, (t, d_hidden, grad, *caches, *np.full((2, batch, steps, 3 * size), np.nan))
            continue
        for upstream in (grad, None):
            slab = np.full((batch, steps, 4 * size), np.nan)
            yield f"{where}, grad={upstream is not None}", (t, d_hidden, d_cell, upstream, *caches, slab)


def _bptt_samples(hook: str) -> Callable:
    """Single rows and odd sizes, saturated gates, and IEEE specials."""

    def samples(rng):
        for batch, steps, size in [(1, 1, 1), (3, 4, 5), (16, 3, 32)]:
            for scale, specials in ((1.0, 0.0), (50.0, 0.0), (1.0, 0.1)):
                yield from _bptt_operands(rng, hook, batch, steps, size, scale, specials)

    return samples


_HOOKS: Tuple[_Hook, ...] = (
    _Hook("gru_gates", _gate_samples(3), loops=True, call=_gru_gates_call),
    _Hook("lstm_gates", _gate_samples(4), symbols=("lstm_phase1", "lstm_phase2"), call=_lstm_gates_call),
    _Hook("gru_step", _gru_step_samples, loops=True),
    _Hook("tanh_mlp", _tanh_mlp_samples, loops=True),
    _Hook("bias_tanh", _bias_tanh_samples, loops=True),
    _Hook("tanh_backward", _tanh_backward_samples),
    _Hook("gaussian_log_density", _density_samples, loops=True, constants=(-(0.5 * _LOG_2PI),)),
    _Hook("gaussian_log_density_backward", _density_backward_samples),
    _Hook("clipped_surrogate", _surrogate_samples, loops=True),
    _Hook("clipped_surrogate_backward", _surrogate_backward_samples),
    _Hook("grad_norm", _grad_norm_samples),
    _Hook("adam_step", _adam_samples, outputs=_adam_outputs),
    _Hook("im2col_1d", _im2col_samples),
    _Hook("bias_relu_pool", _pool_forward_samples),
    _Hook("bias_relu_pool_backward", _pool_samples),
    _Hook("col2im_1d", _col2im_samples),
    # Compared: the carry and the gate-gradient slabs the step wrote.
    _Hook("gru_bptt_step", _bptt_samples("gru_bptt_step"), outputs=lambda c, args: (c, *args[-2:]), nan_aware=True),
    _Hook("lstm_bptt_step", _bptt_samples("lstm_bptt_step"), outputs=lambda c, args: (c, args[-1]), nan_aware=True),
)
# Each row's body is bound now, so a body patched later (a test's spy) is
# never the self-check's oracle nor a no-kernel executor's hook; ``_dispatch``
# still looks its fallback up when called, which is what such spies rely on.
_HOOKS = tuple(hook._replace(body=getattr(ExecutionBackend, hook.name)) for hook in _HOOKS)


# --------------------------------------------------------------------------- #
# The self-check
# --------------------------------------------------------------------------- #
def _leaves(value) -> List[np.ndarray]:
    if isinstance(value, (tuple, list)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [np.asarray(value)]


def _same(expected: np.ndarray, got: np.ndarray, nan_aware: bool) -> bool:
    if expected.dtype != got.dtype or expected.shape != got.shape:
        return False
    if expected.dtype != np.float64:
        return np.array_equal(expected, got)
    if nan_aware:
        # Where two NaNs meet, x86 returns the first operand's, and neither
        # numpy's loops nor the C compiler fix which operand of a
        # commutative add or multiply is first: a NaN must be a NaN.
        nan = np.isnan(expected)
        if not np.array_equal(nan, np.isnan(got)):
            return False
        expected, got = expected[~nan], got[~nan]
    return np.array_equal(expected.view(np.uint64), got.view(np.uint64))


def _assert_same(op: str, want, have, where: str, nan_aware: bool = False) -> None:
    wants, haves = _leaves(want), _leaves(have)
    if len(wants) != len(haves) or not all(map(_same, wants, haves, [nan_aware] * len(wants))):
        raise RuntimeError(f"compiled {op} diverges from numpy at {where}")


def _check_loops(kernel) -> None:
    """Bind numpy's exp / tanh loops into the kernel pack and check them
    against the ufuncs: odd lengths around the SIMD widths, magnitudes past
    overflow, and the IEEE specials."""
    kernel.bind_loops(*_LOOP_UFUNCS)
    rng = np.random.default_rng(20260807)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, 709.79, -745.2, 20.0])
    samples = [specials] + [
        rng.standard_normal(length) * scale
        for length in (1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 33, 1000)
        for scale in (1.0, 30.0, 800.0)
    ]
    for name, ufunc in zip(("exp", "tanh"), (np.exp, np.tanh)):
        for x in samples:
            _assert_same(f"{name} loop", ufunc(x), kernel.bound_loop(name, x), f"length {len(x)}")


def _check_hook(hook: _Hook, compiled: Callable, oracle: ExecutionBackend) -> None:
    """Run ``hook``'s samples through ``compiled`` and through its body on
    the no-kernel ``oracle``; raise on the first difference or declined
    operand."""
    body = getattr(oracle, hook.name)
    outputs = hook.outputs or (lambda result, args: result)
    # The body of a hook that writes into its arguments gets its own stream.
    twins = hook.samples(np.random.default_rng(20260807)) if hook.outputs else None
    for where, args in hook.samples(np.random.default_rng(20260807)):
        have = compiled(*args)
        if have is NotImplemented:
            raise RuntimeError(f"compiled {hook.name} declined {where}")
        want_args = next(twins)[1] if twins else args
        _assert_same(hook.name, outputs(body(*want_args), want_args), outputs(have, args), where, hook.nan_aware)


def _check_hooks() -> Dict[str, str]:
    """Self-check every row on its own; ``{name: why}`` of the rows that must
    run their numpy body.  That is every row when the kernel pack did not
    load, and a mismatch of the bound loops fails exactly the ``loops`` rows.
    Announces the failures of a loaded pack once."""
    kernel = _ensure_kernel()
    if kernel is None:
        return {hook.name: _KERNEL_ERROR for hook in _HOOKS}
    failed: Dict[str, str] = {}
    oracle = ExecutionBackend(compiled=False)
    with np.errstate(all="ignore"):
        try:
            _check_loops(kernel)
        except Exception as exc:  # noqa: BLE001 - degrade, never break callers
            failed = {hook.name: f"{type(exc).__name__}: {exc}" for hook in _HOOKS if hook.loops}
        for hook in _HOOKS:
            if hook.name in failed:
                continue
            try:
                _check_hook(hook, hook.compiled(kernel), oracle)
            except Exception as exc:  # noqa: BLE001 - degrade, never break callers
                failed[hook.name] = f"{type(exc).__name__}: {exc}"
    if failed:
        warnings.warn(
            f"repro.nn.backend: compiled hooks failed their self-check ({_failure_text(failed)}); "
            "they run their numpy bodies (identical bits, numpy speed) "
            "and every other hook stays compiled. Run `repro-amoeba backends` for details.",
            RuntimeWarning,
            stacklevel=4,
        )
    return failed


def _failure_text(failed: Dict[str, str]) -> Optional[str]:
    """``"hook, hook: reason; …"``, one entry per distinct reason."""
    hooks_by_reason: Dict[str, List[str]] = {}
    for name, reason in failed.items():
        hooks_by_reason.setdefault(reason, []).append(name)
    return "; ".join(f"{', '.join(names)}: {reason}" for reason, names in hooks_by_reason.items()) or None


def _declined(*args):
    return NotImplemented


def _first_use(backend: ExecutionBackend, name: str) -> Callable:
    """Hook ``name`` of a compiled executor until the first use of any
    hook, which installs every row in the instance over these."""

    def hook(*args):
        backend._resolve()
        return backend.__dict__[name](*args)

    hook.__name__ = hook.__qualname__ = name
    return hook


def _dispatch(backend: ExecutionBackend, name: str, compiled: Callable) -> Callable:
    """The resolved hook: ``compiled``, and wherever it declines, the numpy
    body — looked up when called, so a patched body is the one that runs."""

    def hook(*args):
        result = compiled(*args)
        if result is NotImplemented:
            return getattr(ExecutionBackend, name)(backend, *args)
        return result

    hook.__name__ = hook.__qualname__ = name
    return hook


def hook_status() -> Dict[str, Optional[str]]:
    """Each hook of the table: ``None`` when the executor runs it compiled,
    else why it runs the numpy body."""
    failed = _EXECUTOR._resolve()
    return {hook.name: failed.get(hook.name) for hook in _HOOKS}


_EXECUTOR = ExecutionBackend()


def active_backend() -> ExecutionBackend:
    """The executor every row-consistent matmul and every hook runs on."""
    return _EXECUTOR

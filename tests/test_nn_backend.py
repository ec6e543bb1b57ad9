"""Execution-backend tier tests (repro.nn.backend).

Six families of guarantees:

* **Registry mechanics** — lookup, default selection, scoped overrides.
* **The bit-equivalence contract** — both backends must be bit-identical
  to the reference einsum on every shape (including the kernel's k-unroll
  boundaries) and on every hook's self-check operands, and must satisfy
  the row-consistency property (output rows invariant to batch
  composition).
* **The hook table** — every hook is one row, every kernel-pack function
  is claimed by one, and a row that fails its self-check degrades that
  hook alone.
* **The kernel build cache** — the C source is packaged beside the module,
  nothing but the extension and its digest lands in the cache directory,
  and a corrupted cache entry is rebuilt instead of loaded.
* **Preallocated execution paths** — the in-place Adam step, in-place
  ``clip_grad_norm`` and the rollout buffer's minibatch slots must replay
  exactly the same floating-point trajectory as the allocating references
  kept in ``tests/oracles/optim_reference.py`` (and, for the gather, plain
  ``array[index]``).
* **The PPO update's training hooks** — each compiled kernel equals the
  numpy expression of ``ExecutionBackend`` bit for bit, a ``blocked``
  update takes no numpy fallback, and the numpy behaviour the kernels
  reproduce is pinned by name (``TestPinnedNumpyAssumptions``).
"""

import json
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.optim_reference import AllocatingAdam
from repro import nn
from repro.nn import backend as nnb
from repro.nn.tensor import Tensor, rc_matmul


def _pairs(rng, shapes):
    for rows, inner, cols in shapes:
        yield rng.standard_normal((rows, inner)), rng.standard_normal((inner, cols))


# Shapes straddling the kernel's 4-wide k-unroll boundary (k % 4 in
# {0, 1, 2, 3}), single rows/cols, empty reduction, and rollout-sized blocks.
SHAPES = [
    (1, 1, 1),
    (1, 4, 1),
    (2, 5, 3),
    (3, 6, 2),
    (4, 7, 5),
    (8, 8, 8),
    (1, 3, 64),
    (7, 134, 33),
    (64, 34, 64),
    (128, 64, 2),
    (128, 64, 8),
    (257, 33, 17),
    (16, 33, 1),
    (5, 64, 1),
    (2, 0, 4),
    (0, 5, 3),
]


class TestRegistry:
    def test_two_backends_registered(self):
        # Exactly the two row-consistent executors, built at import; there
        # is no registration entry point.
        assert nnb.available_backends() == ["blocked", "reference"]
        assert not hasattr(nnb, "register_backend") and not hasattr(nnb, "set_default_backend")

    def test_get_backend_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown execution backend"):
            nnb.get_backend("no-such-backend")

    def test_default_is_blocked(self):
        # CI's reference-backend job forces the default via the env var;
        # absent that, the process default must be the blocked kernel pack.
        expected = os.environ.get("REPRO_NN_BACKEND", "blocked")
        assert nnb.default_backend().name == expected

    def test_use_backend_scopes_and_nests(self):
        outer = nnb.active_backend().name
        with nnb.use_backend("reference") as ref:
            assert ref.name == "reference"
            assert nnb.active_backend().name == "reference"
            with nnb.use_backend("blocked"):
                assert nnb.active_backend().name == "blocked"
            assert nnb.active_backend().name == "reference"
        assert nnb.active_backend().name == outer

    def test_use_backend_restores_on_exception(self):
        before = nnb.active_backend().name
        with pytest.raises(RuntimeError):
            with nnb.use_backend("reference"):
                raise RuntimeError("boom")
        assert nnb.active_backend().name == before

    def test_describe_payloads(self):
        assert nnb.get_backend("reference").describe() == {"name": "reference"}
        blocked = nnb.get_backend("blocked").describe()
        # Exactly the keys benchmarks/perf/run.py::load_program reads.
        assert sorted(blocked) == [
            "fused_cells", "fused_cells_error", "kernel", "kernel_error", "name",
        ]
        assert blocked["kernel"] in ("compiled", "einsum-fallback")
        assert blocked["fused_cells"] in ("compiled", "numpy-fallback")

    def test_kernel_error_reporting_is_consistent(self):
        if nnb.compiled_kernel_available():
            assert nnb.compiled_kernel_error() is None
        else:
            assert isinstance(nnb.compiled_kernel_error(), str)


class TestBlockedEqualsReference:
    @pytest.mark.parametrize("name", nnb.available_backends())
    def test_every_registered_backend_is_bit_identical_to_reference(self, name):
        """The condition of being registered at all: same bits as the
        reference on the shape / magnitude sweep, under any split of the
        batch, and through every hook of the table on its self-check
        operands.  No backend can declare itself an exception — there is no
        flag to declare it with."""
        backend, ref = nnb.get_backend(name), nnb.get_backend("reference")
        rng = np.random.default_rng(12)
        operands = list(_pairs(rng, SHAPES))
        operands.append(
            (
                rng.standard_normal((9, 37)) * 10.0 ** rng.integers(-150, 150, size=(9, 37)),
                rng.standard_normal((37, 11)) * 10.0 ** rng.integers(-150, 150, size=(37, 11)),
            )
        )
        for a, b in operands:
            full = backend.matmul2d(a, b)
            assert full.dtype == np.float64
            assert np.array_equal(full, ref.matmul2d(a, b)), (name, a.shape, b.shape)
            for n_chunks in {1, 2, 3, max(1, a.shape[0])}:
                parts = [
                    backend.matmul2d(chunk, b) for chunk in np.array_split(a, n_chunks, axis=0)
                ]
                assert np.array_equal(np.concatenate(parts, axis=0), full), (name, n_chunks)
        for hook in nnb._HOOKS:
            for seed in range(3):
                for want, have, where in _table_runs(hook, ref, backend, seed):
                    _same_results(want, have, (name, hook.name, seed, where), hook.nan_aware)

    def test_bit_identical_across_shapes(self):
        rng = np.random.default_rng(0)
        ref = nnb.get_backend("reference")
        blocked = nnb.get_backend("blocked")
        for a, b in _pairs(rng, SHAPES):
            expected = ref.matmul2d(a, b)
            got = blocked.matmul2d(a, b)
            assert got.dtype == np.float64
            assert np.array_equal(got, expected), (a.shape, b.shape)

    def test_bit_identical_on_extreme_magnitudes(self):
        rng = np.random.default_rng(1)
        ref = nnb.get_backend("reference")
        blocked = nnb.get_backend("blocked")
        a = rng.standard_normal((9, 37)) * 10.0 ** rng.integers(-150, 150, size=(9, 37))
        b = rng.standard_normal((37, 11)) * 10.0 ** rng.integers(-150, 150, size=(37, 11))
        assert np.array_equal(blocked.matmul2d(a, b), ref.matmul2d(a, b))

    def test_row_consistency_under_batch_splits(self):
        """Any partition of the rows reproduces the full-batch result bitwise."""
        rng = np.random.default_rng(2)
        a = rng.standard_normal((17, 23))
        b = rng.standard_normal((23, 9))
        for name in ("reference", "blocked"):
            backend = nnb.get_backend(name)
            full = backend.matmul2d(a, b)
            for n_chunks in (1, 2, 3, 5, 17):
                parts = [
                    backend.matmul2d(chunk, b)
                    for chunk in np.array_split(a, n_chunks, axis=0)
                ]
                assert np.array_equal(np.concatenate(parts, axis=0), full), (name, n_chunks)

    def test_row_consistency_single_row_extraction(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((13, 31))
        b = rng.standard_normal((31, 6))
        for name in ("reference", "blocked"):
            backend = nnb.get_backend(name)
            full = backend.matmul2d(a, b)
            for row in range(13):
                assert np.array_equal(backend.matmul2d(a[row : row + 1], b)[0], full[row])

    def test_reference_accumulates_in_k_order_in_every_layout(self):
        """One-column products and Fortran-ordered operands included: left
        alone, einsum reduces ``k`` with SIMD partial sums in those layouts."""
        rng = np.random.default_rng(6)
        ref = nnb.get_backend("reference")
        for rows, inner, cols in [(5, 33, 1), (1, 64, 1), (16, 8, 1), (5, 33, 3), (1, 8, 2)]:
            a = rng.standard_normal((rows, inner))
            b = rng.standard_normal((inner, cols))
            sequential = np.zeros((rows, cols))
            for k in range(inner):
                sequential = sequential + a[:, k : k + 1] * b[k]
            for left in (a, np.asfortranarray(a)):
                for right in (b, np.asfortranarray(b)):
                    got = ref.matmul2d(left, right)
                    assert np.array_equal(got.view(np.uint64), sequential.view(np.uint64))

    def test_blocked_einsum_fallback_matches_reference(self, monkeypatch, fresh_blocked):
        """With the compiled kernel disabled, blocked degrades to identical
        bits, and every hook runs its numpy body for the kernel's reason."""
        monkeypatch.setattr(nnb, "_KERNEL", None)
        monkeypatch.setattr(nnb, "_KERNEL_ERROR", "forced by test")
        blocked = fresh_blocked()
        description = blocked.describe()
        assert description["kernel"] == "einsum-fallback"
        assert description["fused_cells"] == "numpy-fallback"
        assert description["fused_cells_error"].endswith(": forced by test")
        assert set(nnb.hook_status().values()) == {"forced by test"}
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 19))
        b = rng.standard_normal((19, 5))
        assert np.array_equal(blocked.matmul2d(a, b), np.einsum("ik,kh->ih", a, b))

    def test_compiled_kernel_rejects_bad_shapes(self):
        if not nnb.compiled_kernel_available():
            pytest.skip("compiled kernel unavailable")
        kernel = nnb._ensure_kernel()
        with pytest.raises((ValueError, TypeError)):
            kernel.rc_gemm(np.zeros((2, 3)), np.zeros((4, 5)))
        with pytest.raises((ValueError, TypeError)):
            kernel.rc_gemm(np.zeros(3), np.zeros((3, 2)))

    def test_compiled_kernel_accepts_noncontiguous_views(self):
        """Strided inputs produce the same bits as their contiguous copies."""
        if not nnb.compiled_kernel_available():
            pytest.skip("compiled kernel unavailable")
        kernel = nnb._ensure_kernel()
        rng = np.random.default_rng(5)
        a = rng.standard_normal((8, 20))[::2, ::2]  # (4, 10) strided view
        w = rng.standard_normal((10, 3))
        w_strided = np.asfortranarray(w)
        expected = np.einsum("ik,kh->ih", np.ascontiguousarray(a), w)
        assert np.array_equal(kernel.rc_gemm(a, w), expected)
        assert np.array_equal(kernel.rc_gemm(a, w_strided), expected)


class TestFusedCellKernels:
    """The compiled gate pipelines must be bitwise equal to the numpy oracle."""

    @staticmethod
    def _gru_operands(rng, batch, size, scale=1.0):
        return (
            rng.standard_normal((batch, 3 * size)) * scale,
            rng.standard_normal((batch, 3 * size)) * scale,
            rng.standard_normal(3 * size) * scale,
            rng.standard_normal((batch, size)),
        )

    @staticmethod
    def _lstm_operands(rng, batch, size, scale=1.0):
        return (
            rng.standard_normal((batch, 4 * size)) * scale,
            rng.standard_normal((batch, 4 * size)) * scale,
            rng.standard_normal(4 * size) * scale,
            rng.standard_normal((batch, size)),
        )

    @pytest.mark.parametrize("batch,size", [(1, 1), (2, 5), (9, 16), (5, 3)])
    @pytest.mark.parametrize("scale", [1.0, 50.0])
    def test_gru_gates_blocked_equals_reference(self, batch, size, scale):
        rng = np.random.default_rng(50)
        gx, gh, b, hidden = self._gru_operands(rng, batch, size, scale)
        expected = nnb.get_backend("reference").gru_gates(gx, gh, b, hidden)
        got = nnb.get_backend("blocked").gru_gates(gx, gh, b, hidden)
        assert len(expected) == len(got) == 5
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

    @pytest.mark.parametrize("batch,size", [(1, 1), (2, 5), (9, 16), (5, 3)])
    @pytest.mark.parametrize("scale", [1.0, 50.0])
    def test_lstm_gates_blocked_equals_reference(self, batch, size, scale):
        rng = np.random.default_rng(51)
        gx, gh, b, cell = self._lstm_operands(rng, batch, size, scale)
        expected = nnb.get_backend("reference").lstm_gates(gx, gh, b, cell)
        got = nnb.get_backend("blocked").lstm_gates(gx, gh, b, cell)
        assert len(expected) == len(got) == 7
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

    def test_gates_accept_noncontiguous_inputs(self):
        """Strided gx/gh views (e.g. gx_all[:, t, :] sequence slices) match."""
        rng = np.random.default_rng(52)
        size = 6
        big_gx = rng.standard_normal((5, 3, 3 * size))
        big_gh = rng.standard_normal((5, 3, 3 * size))
        b = rng.standard_normal(3 * size)
        hidden = rng.standard_normal((5, size))
        gx, gh = big_gx[:, 1, :], big_gh[:, 1, :]
        assert not gx.flags["C_CONTIGUOUS"]
        expected = nnb.get_backend("reference").gru_gates(gx, gh, b, hidden)
        got = nnb.get_backend("blocked").gru_gates(gx, gh, b, hidden)
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

        big4 = rng.standard_normal((4, 2, 4 * size))
        gx4, gh4 = big4[:, 0, :], rng.standard_normal((4, 2, 4 * size))[:, 1, :]
        b4 = rng.standard_normal(4 * size)
        cell = rng.standard_normal((4, size))
        expected = nnb.get_backend("reference").lstm_gates(gx4, gh4, b4, cell)
        got = nnb.get_backend("blocked").lstm_gates(gx4, gh4, b4, cell)
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

    def test_float32_operands_fall_back_to_numpy_oracle(self):
        """Non-float64 gate operands skip the compiled path and stay f32."""
        rng = np.random.default_rng(53)
        gx, gh, b, hidden = (
            arr.astype(np.float32) for arr in self._gru_operands(rng, 4, 5)
        )
        got = nnb.get_backend("blocked").gru_gates(gx, gh, b, hidden)
        assert got[0].dtype == np.float32
        expected = nnb.get_backend("reference").gru_gates(gx, gh, b, hidden)
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

    def test_numpy_fallback_when_gates_fail_their_self_check(self, fresh_blocked, flip_first_bit):
        blocked = fresh_blocked(gru_gates=flip_first_bit)
        with pytest.warns(RuntimeWarning, match="gru_gates: RuntimeError: compiled gru_gates diverges"):
            assert blocked.describe()["fused_cells"] == "numpy-fallback"
        assert nnb.fused_cells_error().startswith("gru_gates: ")
        rng = np.random.default_rng(54)
        gx, gh, b, hidden = self._gru_operands(rng, 3, 4)
        expected = nnb.get_backend("reference").gru_gates(gx, gh, b, hidden)
        got = blocked.gru_gates(gx, gh, b, hidden)
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)

    @pytest.mark.parametrize("family", ["gru", "lstm"])
    def test_functional_cells_identical_across_backends(self, family):
        """gru/lstm cell+sequence forwards and backwards are backend-invariant."""
        rng = np.random.default_rng(55)
        size, batch, steps = 5, 4, 3
        mult = 3 if family == "gru" else 4
        w_x = Tensor(rng.standard_normal((2, mult * size)), requires_grad=True)
        w_h = Tensor(rng.standard_normal((size, mult * size)), requires_grad=True)
        b = Tensor(rng.standard_normal(mult * size), requires_grad=True)
        x_seq = rng.standard_normal((batch, steps, 2))
        h0 = rng.standard_normal((batch, size))
        c0 = rng.standard_normal((batch, size))

        from repro.nn import functional as F

        def run(backend_name):
            for p in (w_x, w_h, b):
                p.grad = None
            with nn.row_consistent_matmul(), nnb.use_backend(backend_name):
                if family == "gru":
                    out = F.gru_sequence(Tensor(x_seq), w_x, w_h, b, Tensor(h0))
                else:
                    out, _ = F.lstm_sequence(
                        Tensor(x_seq), w_x, w_h, b, Tensor(h0), Tensor(c0)
                    )
                loss = (out * out).sum()
                loss.backward()
            return out.data.copy(), [p.grad.copy() for p in (w_x, w_h, b)]

        out_ref, grads_ref = run("reference")
        out_blk, grads_blk = run("blocked")
        assert np.array_equal(out_ref, out_blk)
        for g_ref, g_blk in zip(grads_ref, grads_blk):
            assert np.array_equal(g_ref, g_blk)


def _same_bits(want, have):
    assert want.shape == have.shape and want.dtype == have.dtype == np.float64
    assert np.array_equal(want.view(np.uint64), have.view(np.uint64))


def _same_results(want, have, what, nan_aware=False):
    """Equal bits for float64 arrays, equal values for masks and floats.

    Where ``nan_aware``, a NaN must be NaN on both sides but may carry
    another sign or payload: where two NaNs meet, x86 returns the first
    operand's, and neither numpy's loops nor the C compiler fix which
    operand of a commutative add or multiply is first."""
    wants, haves = (want, have) if isinstance(want, tuple) else ((want,), (have,))
    assert len(wants) == len(haves), what
    for expected, got in zip(wants, haves):
        expected, got = np.asarray(expected), np.asarray(got)
        assert expected.dtype == got.dtype and expected.shape == got.shape, what
        if expected.dtype == np.float64:
            if nan_aware:
                nan = np.isnan(expected)
                assert np.array_equal(nan, np.isnan(got)), what
                expected, got = expected[~nan], got[~nan]
            expected, got = expected.view(np.uint64), got.view(np.uint64)
        assert np.array_equal(expected, got), what


def _table_runs(hook, want_backend, have_backend, seed):
    """``(want, have, where)`` per sample of the table row ``hook`` for
    ``seed``: its outputs on two backends, each on its own stream of the
    same operands (a hook may write into its arguments)."""
    outputs = hook.outputs or (lambda result, args: result)
    streams = [hook.samples(np.random.default_rng(seed)) for _ in range(2)]
    for (where, want_args), (_, have_args) in zip(*streams):
        with np.errstate(all="ignore"):
            want = outputs(getattr(want_backend, hook.name)(*want_args), want_args)
            have = outputs(getattr(have_backend, hook.name)(*have_args), have_args)
        yield want, have, where


def _kernel_pack():
    """The loaded kernel pack with its exp / tanh loops bound (skips the
    test where no C toolchain built it)."""
    if not nnb.compiled_kernel_available():
        pytest.skip(f"compiled kernel unavailable: {nnb.compiled_kernel_error()}")
    nnb.hook_status()  # binds the loops
    return nnb._ensure_kernel()


def _forbid_numpy_bodies(monkeypatch, hooks):
    """Make the numpy body of each of ``hooks`` raise: a ``blocked`` run
    that reaches one has fallen back.  The table is resolved first, since
    its self-check runs the bodies."""
    nnb.hook_status()
    for hook in hooks:

        def forbidden(*args, _hook=hook, **kwargs):
            raise AssertionError(f"{_hook} fell back to the numpy body")

        monkeypatch.setattr(nnb.ExecutionBackend, hook, forbidden)


class TestHookTable:
    """A hook of ``blocked`` is one C function in ``kernels.c``, one numpy
    body on ``ExecutionBackend`` and one row of ``nnb._HOOKS``; a row that
    fails its self-check degrades that hook alone."""

    # Kernel-pack functions that are no hook: the GEMM and the loop binding.
    NOT_HOOKS = {"rc_gemm", "bind_loops", "bound_loop"}

    def test_every_hook_method_has_exactly_one_row(self):
        methods = {
            name for name, value in vars(nnb.ExecutionBackend).items()
            if callable(value) and not name.startswith("_")
        } - {"matmul2d", "describe"}
        names = [hook.name for hook in nnb._HOOKS]
        assert len(names) == len(set(names))
        assert sorted(names) == sorted(methods)

    def test_every_kernel_function_is_claimed_by_exactly_one_row(self):
        kernel = nnb._ensure_kernel()
        if kernel is None:
            pytest.skip(f"compiled kernel unavailable: {nnb.compiled_kernel_error()}")
        functions = {name for name, value in vars(kernel).items() if isinstance(value, types.BuiltinFunctionType)}
        claimed = [symbol for hook in nnb._HOOKS for symbol in hook.kernels]
        assert sorted(claimed) == sorted(functions - self.NOT_HOOKS)
        lstm = next(hook for hook in nnb._HOOKS if hook.name == "lstm_gates")
        assert lstm.kernels == ("lstm_phase1", "lstm_phase2")

    def test_loops_marks_exactly_the_kernels_that_run_the_bound_loops(self):
        """The rows a loop mismatch disables are the entry points of
        ``kernels.c`` that require the loops bound (``rc_loops_bound``)."""
        source = Path(nnb._KERNEL_SOURCE_PATH).read_text()
        entry_points = re.split(r"^static PyObject \*py_", source, flags=re.M)[1:]
        calling = {body.split("(", 1)[0] for body in entry_points if "rc_loops_bound()" in body}
        loops = {symbol for hook in nnb._HOOKS if hook.loops for symbol in hook.kernels}
        assert calling - {"bound_loop"} == loops
        assert sorted(hook.name for hook in nnb._HOOKS if hook.loops) == sorted(
            ["gru_gates", "gru_step", "tanh_mlp", "bias_tanh", "gaussian_log_density", "clipped_surrogate"]
        )

    def test_one_mismatching_row_degrades_that_hook_alone(self, monkeypatch, capsys, fresh_blocked, flip_first_bit):
        if not nnb.compiled_kernel_available():
            pytest.skip(f"compiled kernel unavailable: {nnb.compiled_kernel_error()}")
        blocked = fresh_blocked(bias_tanh=flip_first_bit)
        with pytest.warns(RuntimeWarning, match="failed their self-check") as caught:
            status = nnb.hook_status()
        assert len(caught) == 1 and "bias_tanh: RuntimeError" in str(caught[0].message)
        assert [name for name, reason in status.items() if reason] == ["bias_tanh"]
        assert status["bias_tanh"].startswith("RuntimeError: compiled bias_tanh diverges from numpy")
        description = blocked.describe()
        assert description["kernel"] == "compiled" and description["fused_cells"] == "numpy-fallback"
        assert description["fused_cells_error"] == f"bias_tanh: {status['bias_tanh']}"

        # Exactly that hook runs its numpy body, and blocked keeps reference's bits.
        bodies = []
        for hook in nnb._HOOKS:

            def spy(backend, *args, _name=hook.name, _body=getattr(nnb.ExecutionBackend, hook.name)):
                if backend is blocked:
                    bodies.append(_name)
                return _body(backend, *args)

            monkeypatch.setattr(nnb.ExecutionBackend, hook.name, spy)
        reference = nnb.get_backend("reference")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the warning fired once
            for hook in nnb._HOOKS:
                for want, have, where in _table_runs(hook, reference, blocked, seed=0):
                    _same_results(want, have, (hook.name, where), hook.nan_aware)
            assert not nnb.fused_cells_available()
        assert set(bodies) == {"bias_tanh"}

        from repro.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert f"fused-cell kernels:  numpy fallback for 1 of {len(nnb._HOOKS)} hooks" in out
        assert re.findall(r"hook (\w+): +numpy fallback", out) == ["bias_tanh"]
        assert len(re.findall(r"hook \w+: +compiled", out)) == len(nnb._HOOKS) - 1

    def test_a_body_patched_before_first_use_is_not_the_oracle(self, monkeypatch, fresh_blocked):
        """The self-check runs the bodies bound when the table was built: a
        raising spy patched over ``gru_gates`` before the first use fails no
        row (``gru_step``'s body takes its gates from the active backend),
        and sees exactly the calls that fall back."""
        if not nnb.compiled_kernel_available():
            pytest.skip(f"compiled kernel unavailable: {nnb.compiled_kernel_error()}")
        blocked = fresh_blocked()
        calls = []

        def spy(backend, *args):
            calls.append(backend)
            raise AssertionError("gru_gates fell back to the numpy body")

        monkeypatch.setattr(nnb.ExecutionBackend, "gru_gates", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no row failed its self-check
            status = nnb.hook_status()
        assert status == dict.fromkeys(status) and calls == []

        rng = np.random.default_rng(3)
        gx, gh, b, hidden = (rng.standard_normal(shape) for shape in [(2, 6), (2, 6), 6, (2, 2)])
        blocked.gru_gates(gx, gh, b, hidden)  # float64: compiled
        assert calls == []
        with pytest.raises(AssertionError, match="fell back"):
            blocked.gru_gates(gx.astype(np.float32), gh, b, hidden)  # declined: the body
        assert calls == [blocked]


class TestTrainingHooks:
    """The PPO update's elementwise hooks.  Their table rows feed the
    registry-wide bitwise test above; here a ``blocked`` update must take
    no numpy fallback, and operands outside the float64 fast path take the
    numpy expression itself."""

    HOOKS = (
        "bias_tanh", "tanh_backward", "gaussian_log_density", "gaussian_log_density_backward",
        "clipped_surrogate", "clipped_surrogate_backward", "grad_norm", "adam_step",
    )

    def test_blocked_update_runs_the_compiled_kernels(self, monkeypatch):
        """Under ``blocked`` no training hook falls back to numpy on the PPO
        update's own operands."""
        _kernel_pack()
        from repro.core.actor_critic import Critic, GaussianActor
        from repro.core.config import AmoebaConfig
        from repro.core.ppo import PPOUpdater

        _forbid_numpy_bodies(monkeypatch, self.HOOKS)
        config = AmoebaConfig(rollout_length=8, n_envs=3, n_minibatches=2, update_epochs=1)
        actor = GaussianActor(6, 2, hidden_dims=(12, 5), rng=np.random.default_rng(1))
        critic = Critic(6, hidden_dims=(12, 5), rng=np.random.default_rng(2))
        with nnb.use_backend("blocked"):
            PPOUpdater(actor, critic, config, rng=3).update(TestMinibatchSlots._filled_buffer())

    def test_update_identical_on_both_backends(self):
        from repro.core.actor_critic import Critic, GaussianActor
        from repro.core.config import AmoebaConfig
        from repro.core.ppo import PPOUpdater

        def run(name):
            config = AmoebaConfig(rollout_length=8, n_envs=3, n_minibatches=3, update_epochs=2)
            actor = GaussianActor(6, 2, hidden_dims=(12, 5), rng=np.random.default_rng(1))
            critic = Critic(6, hidden_dims=(12, 5), rng=np.random.default_rng(2))
            with nnb.use_backend(name):
                updater = PPOUpdater(actor, critic, config, rng=3)
                stats = [updater.update(TestMinibatchSlots._filled_buffer()) for _ in range(3)]
            return stats, [p.data.copy() for p in actor.parameters() + critic.parameters()]

        (want_stats, want), (got_stats, got) = run("reference"), run("blocked")
        assert got_stats == want_stats
        for expected, value in zip(want, got):
            _same_bits(expected, value)

    def test_operands_outside_the_fast_path_take_the_numpy_expression(self):
        blocked, reference = nnb.get_backend("blocked"), nnb.get_backend("reference")
        rng = np.random.default_rng(71)
        y32 = rng.standard_normal((4, 3)).astype(np.float32)
        bias = rng.standard_normal(3)
        assert blocked.bias_tanh(y32, bias.astype(np.float32)).dtype == np.float32
        # Broadcasting the kernels do not take: a (1, d) log_std, a scalar
        # advantage, gradients of mixed layouts and a Fortran-ordered one.
        actions, mean = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        log_std = rng.standard_normal((1, 2))
        _same_results(
            reference.gaussian_log_density(actions, mean, log_std),
            blocked.gaussian_log_density(actions, mean, log_std),
            "gaussian_log_density",
        )
        log_probs, old = rng.standard_normal(6), rng.standard_normal(6)
        _same_results(
            reference.clipped_surrogate(log_probs, old, 0.5, 0.9, 1.1),
            blocked.clipped_surrogate(log_probs, old, 0.5, 0.9, 1.1),
            "clipped_surrogate",
        )
        grads = [np.asfortranarray(rng.standard_normal((5, 4))), rng.standard_normal(3)]
        assert blocked.grad_norm(grads) == reference.grad_norm(grads)
        params = [np.asfortranarray(rng.standard_normal((3, 2))), rng.standard_normal(2)]
        grads = [rng.standard_normal((3, 2)), rng.standard_normal(2)]
        runs = []
        for backend in (reference, blocked):
            copies = [param.copy(order="A") for param in params]
            state, scratch = np.zeros((3, 8)), np.zeros((2, 8))
            backend.adam_step(copies, grads, state, scratch, (0.1, 0.9, 0.999, 1e-8, 0.1, 0.001))
            runs.append(tuple(copies) + (state[0].copy(), state[1].copy()))
        _same_results(*runs, "adam_step")

    def test_strided_views_take_the_compiled_path(self):
        """Strided (non-contiguous) float64 views take the compiled path and
        still match."""
        kernel = _kernel_pack()
        rng = np.random.default_rng(72)
        y = rng.standard_normal((6, 8))[:, ::2]
        activation = np.tanh(rng.standard_normal((6, 8)))[:, 1::2]
        bias = rng.standard_normal(8)[::2]
        reference = nnb.get_backend("reference")
        _same_results(reference.bias_tanh(y, bias), kernel.bias_tanh(y, bias), "bias_tanh")
        _same_results(
            reference.tanh_backward(y, activation), kernel.tanh_backward(y, activation), "tanh_backward"
        )


class TestConvHooks:
    """The conv-block hooks of DF's fused block and of DF scoring.  Their
    table rows feed the registry-wide bitwise test above; here the compiled
    kernels take every DF operand, and operands outside their fast path take
    the numpy expression itself (or raise as it does)."""

    HOOKS = ("im2col_1d", "bias_relu_pool", "bias_relu_pool_backward", "col2im_1d")

    def test_blocked_takes_every_df_operand(self, monkeypatch):
        """The compiled kernels decline none of their rows' operands: DF's
        convolutions (kernel 5, padding 2) on inputs shorter than the kernel
        and past DF's 40-packet window, channel-first and channel-last, and
        products holding NaN, infinities, signed zeros and tied pairs."""
        _kernel_pack()
        # With the GEMM compiled, a kernel failing its self-check is a bug.
        assert nnb.fused_cells_available(), nnb.fused_cells_error()
        _forbid_numpy_bodies(monkeypatch, self.HOOKS)
        blocked = nnb.get_backend("blocked")
        for hook in nnb._HOOKS:
            if hook.name in self.HOOKS:
                for seed in range(2):
                    for _, args in hook.samples(np.random.default_rng(seed)):
                        with np.errstate(invalid="ignore"):
                            getattr(blocked, hook.name)(*args)

    @pytest.mark.parametrize(
        "x,kernel_size,stride,padding",
        [
            (np.ones((2, 1, 9)), 3, 1, 1),  # one channel: numpy returns a strided view
            (np.ones((2, 3, 9)), 1, 2, 0),  # a kernel of one: a strided view again
            (np.ones((2, 3, 1)), 5, 1, 2),  # the padded input is one window long
            (np.ones((2, 3, 9), dtype=np.float32), 3, 1, 1),
            (np.arange(54.0).reshape(2, 3, 9)[:, :, ::-1], 3, 1, 1),  # compiled: negative strides
        ],
    )
    def test_im2col_layouts_are_the_numpy_expressions(self, x, kernel_size, stride, padding):
        """Outside the kernel's fast path numpy's result -- a strided view or
        another dtype -- is the hook's, so ``Conv1d``'s products and gradients
        see the same operand; inside it, the same C-contiguous copy."""
        want = nnb.get_backend("reference").im2col_1d(x, kernel_size, stride, padding)
        have = nnb.get_backend("blocked").im2col_1d(x, kernel_size, stride, padding)
        assert want.dtype == have.dtype and want.shape == have.shape
        assert want.strides == have.strides
        assert np.array_equal(want, have)

    def test_windows_longer_than_the_padded_input_raise_on_both_backends(self):
        for name in nnb.available_backends():
            with pytest.raises(ValueError):
                nnb.get_backend(name).im2col_1d(np.ones((2, 3, 3)), 5, 1, 0)

    def test_bias_relu_pool_outside_the_fast_path(self):
        rng = np.random.default_rng(91)
        blocked, reference = nnb.get_backend("blocked"), nnb.get_backend("reference")
        h32 = rng.standard_normal((2, 4, 3)).astype(np.float32)
        assert blocked.bias_relu_pool(h32, np.zeros(3, np.float32)).dtype == np.float32
        strided = rng.standard_normal((2, 8, 6))[:, ::2, ::2]
        bias = rng.standard_normal(3)
        _same_results(reference.bias_relu_pool(strided, bias), blocked.bias_relu_pool(strided, bias), "strided")
        grad = rng.standard_normal((2, 3, 2))[:, :, ::-1]
        _same_results(
            reference.bias_relu_pool_backward(grad, strided, bias),
            blocked.bias_relu_pool_backward(grad, strided, bias),
            "strided",
        )
        grad32 = rng.standard_normal((2, 3, 2)).astype(np.float32)
        assert blocked.bias_relu_pool_backward(grad32, h32, np.zeros(3)).dtype == np.float64
        odd = rng.standard_normal((2, 5, 3))  # an odd last position is dropped, as MaxPool1d(2) does
        for name in nnb.available_backends():
            pooled = nnb.get_backend(name).bias_relu_pool(odd, bias)
            _same_results(reference.bias_relu_pool(odd[:, :4], bias), pooled, name)
            d_odd = nnb.get_backend(name).bias_relu_pool_backward(np.ones((2, 3, 2)), odd, bias)
            assert np.array_equal(d_odd[:, 4].view(np.uint64), np.zeros((2, 3)).view(np.uint64))

    def test_col2im_outside_the_fast_path(self):
        rng = np.random.default_rng(93)
        blocked, reference = nnb.get_backend("blocked"), nnb.get_backend("reference")
        strided = rng.standard_normal((2, 8, 12))[:, ::2, ::2]  # (2, 4, 6): 2 channels, kernel 3
        _same_results(
            reference.col2im_1d(strided, 6, 3, 1, 0), blocked.col2im_1d(strided, 6, 3, 1, 0), "strided"
        )
        grad32 = rng.standard_normal((2, 4, 6)).astype(np.float32)
        _same_results(reference.col2im_1d(grad32, 6, 3, 1, 0), blocked.col2im_1d(grad32, 6, 3, 1, 0), "f32")
        for name in nnb.available_backends():  # windows past the padded input
            with pytest.raises(ValueError):
                nnb.get_backend(name).col2im_1d(rng.standard_normal((2, 5, 6)), 3, 3, 1, 0)

    def test_outputs_are_fresh_c_contiguous_arrays(self):
        rng = np.random.default_rng(92)
        x = rng.standard_normal((3, 4, 10))
        for name in nnb.available_backends():
            backend = nnb.get_backend(name)
            columns = backend.im2col_1d(x, 5, 1, 2)
            h = columns @ rng.standard_normal((20, 6))
            pooled = backend.bias_relu_pool(h, np.zeros(6))
            d_h = backend.bias_relu_pool_backward(np.ones(pooled.shape), h, np.zeros(6))
            for out in (columns, pooled, d_h):
                assert out.flags.c_contiguous and out.flags.writeable and not np.shares_memory(out, x)
            assert pooled.shape == (3, 6, 5) and d_h.shape == h.shape
            assert backend.col2im_1d(columns, 10, 5, 1, 2).shape == x.shape


class TestBPTTHooks:
    """The BPTT step hooks of ``gru_sequence`` / ``lstm_sequence``.  Their
    operands feed the registry-wide bitwise test above; here the compiled
    kernels equal the numpy bodies on every bit over sizes, saturated gates
    and IEEE specials, pre-training and LSTM fit never take the numpy body
    under ``blocked``, and operands outside the kernels' fast path take it."""

    HOOKS = ("gru_bptt_step", "lstm_bptt_step")

    @staticmethod
    def operands(rng, batch, steps, size, scale=1.0, specials=0.0):
        """``(hook, args)`` of both hooks: their table rows' operands at the
        first, a middle and the last step."""
        return [
            (hook, args)
            for hook in TestBPTTHooks.HOOKS
            for _, args in nnb._bptt_operands(rng, hook, batch, steps, size, scale, specials)
        ]

    @staticmethod
    def run(backend, hook, operands):
        """``hook`` on copies of the slabs it writes: ``(carry, *slabs)``."""
        count = 2 if hook == "gru_bptt_step" else 1
        slabs = [slab.copy() for slab in operands[-count:]]
        with np.errstate(all="ignore"):
            return (getattr(backend, hook)(*operands[:-count], *slabs), *slabs)

    @given(
        batch=st.sampled_from([1, 2, 33]),
        size=st.sampled_from([1, 3, 32]),
        steps=st.integers(1, 3),
        scale=st.sampled_from([1.0, 50.0]),
        specials=st.sampled_from([0.0, 0.25]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_compiled_kernels_equal_the_numpy_bodies(self, batch, size, steps, scale, specials, seed):
        kernel = _kernel_pack()
        reference = nnb.get_backend("reference")
        for hook, operands in self.operands(np.random.default_rng(seed), batch, steps, size, scale, specials):
            have = self.run(kernel, hook, operands)
            assert have[0] is not NotImplemented, hook
            _same_results(self.run(reference, hook, operands), have, (hook, operands[0]), nan_aware=True)

    def test_blocked_pretraining_and_lstm_fit_never_fall_back(self, monkeypatch):
        """Under ``blocked`` every BPTT step of the StateEncoder's pre-training
        and of the LSTM censor's fit is one compiled call."""
        _kernel_pack()
        from repro.core import pretrain_state_encoder
        from repro.pipeline import make_censor, prepare_experiment_data

        blocked, calls = nnb.get_backend("blocked"), {hook: 0 for hook in self.HOOKS}
        for hook in self.HOOKS:

            def counted(*args, _hook=hook, _resolved=getattr(blocked, hook)):
                calls[_hook] += 1
                return _resolved(*args)

            monkeypatch.setattr(blocked, hook, counted)
        _forbid_numpy_bodies(monkeypatch, self.HOOKS)
        with nnb.use_backend("blocked"):
            pretrain_state_encoder(hidden_size=8, num_layers=2, n_flows=20, max_length=6, epochs=1, rng=0)
            assert calls["gru_bptt_step"] > 0
            data = prepare_experiment_data("tor", n_censored=10, n_benign=10, max_packets=8, rng=0)
            make_censor("LSTM", data, rng=1, epochs=4).fit(data.splits.clf_train.flows)
            assert calls["lstm_bptt_step"] > 0

    def test_operands_outside_the_fast_path_take_the_numpy_body(self):
        """Strided operands stay on the compiled path; float32, a read-only
        slab or a step outside ``[0, T)`` take the numpy body (which raises
        for the step, as it always did)."""
        blocked, reference = nnb.get_backend("blocked"), nnb.get_backend("reference")
        kernel = nnb._ensure_kernel()
        rng = np.random.default_rng(95)
        hook, operands = self.operands(rng, 4, 3, 5)[0]
        t, d_hidden, grad, *rest = operands
        strided = np.ascontiguousarray(grad.transpose(2, 1, 0)).transpose(2, 1, 0)
        args = (t, d_hidden[:, ::-1].copy()[:, ::-1], strided, *rest)
        if kernel is not None:
            assert self.run(kernel, hook, args)[0] is not NotImplemented
        _same_results(self.run(reference, hook, args), self.run(blocked, hook, args), "strided")
        narrow = (t, d_hidden.astype(np.float32), grad, *rest)
        if kernel is not None:
            assert self.run(kernel, hook, narrow)[0] is NotImplemented
        _same_results(self.run(reference, hook, narrow), self.run(blocked, hook, narrow), "float32")
        frozen = [slab.copy() for slab in rest[-2:]]
        for slab in frozen:
            slab.flags.writeable = False
        if kernel is not None:
            assert kernel.gru_bptt_step(t, d_hidden, grad, *rest[:-2], *frozen) is NotImplemented
        for name in nnb.available_backends():
            with pytest.raises(IndexError):
                self.run(nnb.get_backend(name), hook, (3, d_hidden, grad, *rest))


class TestPinnedNumpyAssumptions:
    """numpy behaviour the training and conv-block kernels reproduce rather
    than call.

    Pinned on numpy 2.4.6 (CI's numpy-floor job runs them on 1.24).  If one
    fails, the kernel that mirrors it fails its load-time self-check, the
    ``blocked`` backend degrades to the numpy expressions (same bits, numpy
    speed) with ``fused_cells_error`` naming it, and the perf harness refuses
    to measure.
    """

    @staticmethod
    def _values(rng):
        tiny = np.finfo(np.float64).tiny
        specials = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, tiny, 1e154, 1e-160, 1.5])
        return [specials] + [
            rng.standard_normal(length) * 10.0 ** rng.integers(-150, 150, length)
            for length in list(range(1, 40)) + [127, 128, 129, 1000, 4096, 16385]
        ]

    def test_square_power_equals_self_product(self):
        """``x ** 2`` (numpy's ``square`` fast path) is ``x * x``: the kernels
        ``tanh_backward`` and ``gaussian_log_density`` square by multiplying."""
        for x in self._values(np.random.default_rng(80)):
            with np.errstate(all="ignore"):
                _same_bits(x ** 2, x * x)

    def test_square_power_of_a_step_view_equals_self_product(self):
        """``x ** 2`` of the strided ``(B, H)`` view ``caches[:, t]`` of a
        ``(B, T, H)`` cache is ``x * x`` too: ``gru_bptt_step`` and
        ``lstm_bptt_step`` square the candidate, tanh-cell and g-gate views
        by multiplying."""
        rng = np.random.default_rng(81)
        for x in self._values(rng)[:40]:
            cache = np.stack([x, -x[::-1], x * 3.0], axis=1).reshape(len(x), 3, 1) * np.ones(4)
            for t in range(3):
                with np.errstate(all="ignore"):
                    _same_bits(cache[:, t] ** 2, cache[:, t] * cache[:, t])

    def test_ndarray_sum_is_the_pairwise_sum_from_zero(self):
        """``ndarray.sum()`` of a C-contiguous float64 array, any shape, is
        numpy's pairwise sum over its elements in memory order starting from
        0.0 -- the reduction ``grad_norm``'s kernel reproduces -- so the
        kernel equals ``(g ** 2).sum()`` per gradient."""
        kernel = _kernel_pack()
        rng = np.random.default_rng(81)
        # Terms of one magnitude too: a dominating term would hide the sum's
        # structure in rounding.
        arrays = self._values(rng)[1:] + [
            rng.standard_normal(shape)
            for shape in [(64, 64), (64, 32), (256, 64), (3, 5, 7)] + list(range(1, 300))
        ]
        with np.errstate(all="ignore"):
            for x in arrays:
                want = np.float64(np.sqrt(float((x ** 2).sum())))
                _same_bits(np.asarray(want), np.asarray(np.float64(kernel.grad_norm([x]))))
        assert np.array([-0.0]).sum() == 0.0 and not np.signbit(np.array([-0.0]).sum())

    def test_relu_mask_multiply_signs_negatives_and_passes_nan(self):
        """``h *= h > 0`` (``Tensor.relu``, DF's scoring epilogue) multiplies
        each element by the mask as a float64 ``1.0`` / ``0.0``: a negative
        becomes ``-0.0``, ``-0.0`` and ``+0.0`` keep their signs, a NaN passes
        with its sign and ``-inf`` becomes NaN -- the multiply
        ``bias_relu_pool``'s kernel performs, over SIMD bodies and tails."""
        rng = np.random.default_rng(82)
        samples = [self._values(rng)[0], np.array([np.nan, -np.nan, -0.0, -2.5, -5e-324])]
        for length in list(range(1, 40)) + [127, 128, 129, 1000]:
            x = rng.standard_normal(length) * 10.0
            special = rng.random(length) < 0.3
            x[special] = rng.choice([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf], size=int(special.sum()))
            samples.append(x)
        with np.errstate(invalid="ignore"):
            for x in samples:
                h = x.copy()
                h *= h > 0
                product = x * np.where(x > 0, 1.0, 0.0)
                nan = np.isnan(x)
                assert np.array_equal(np.isnan(h), nan | (x == -np.inf))
                _same_bits(h[nan], x[nan])
                finite = ~np.isnan(h)
                _same_bits(h[finite], product[finite])
                assert np.signbit(h[(x < 0) & (x > -np.inf)]).all()

    def test_zero_plus_selected_gradient_is_the_scalar_add(self):
        """``d = zeros; d += np.where(take, g, 0.0)`` (``MaxPool1d``'s scatter,
        ``bias_relu_pool_backward``'s oracle) is, element by element, the
        scalar ``0.0 + g`` -- a ``-0.0`` becomes ``+0.0``, a NaN keeps its
        sign -- then ``* mask`` the scalar multiply by ``1.0`` / ``0.0``:
        what ``bias_relu_pool_backward``'s kernel computes, over SIMD bodies
        and tails."""
        rng = np.random.default_rng(83)
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.5]
        for length in list(range(1, 40)) + [127, 128, 129, 1000]:
            g = rng.standard_normal(length)
            special = rng.random(length) < 0.4
            g[special] = rng.choice(specials, size=int(special.sum()))
            take = rng.random(length) < 0.5
            mask = rng.random(length) < 0.7
            d = np.zeros(length)
            d += np.where(take, g, 0.0)
            with np.errstate(invalid="ignore"):
                d = d * mask
            scalar = [
                (0.0 + (value if chosen else 0.0)) * (1.0 if kept else 0.0)
                for value, chosen, kept in zip(g.tolist(), take.tolist(), mask.tolist())
            ]
            _same_bits(d, np.array(scalar))

    def test_clip_passes_nan_and_keeps_the_bound_on_a_tie(self):
        """``np.clip`` of a float64 returns a NaN input itself and a bound as
        is; ``clipped_surrogate``'s kernel clips the same way."""
        x = np.array([np.nan, -np.nan, 0.8, 1.2, 0.0, np.inf, -np.inf, 1.0])
        got = np.clip(x, 0.8, 1.2)
        want = np.array([np.nan, -np.nan, 0.8, 1.2, 0.8, 1.2, 0.8, 1.0])
        _same_bits(got, want)


def test_bound_ufunc_loops_equal_ufunc():
    """numpy's float64 exp / tanh inner loops, called the way the kernel pack
    calls them (bound from the ufunc's first exact ``d->d`` loop-table entry,
    run over a contiguous, non-overlapping copy), equal ``np.exp`` /
    ``np.tanh`` bit for bit.

    Pinned assumption, measured on numpy 2.4.6 (CI's numpy-floor job runs it
    on 1.24): the loop numpy's type resolver runs for a contiguous float64
    array is that table entry, and its values do not depend on the array's
    length or on where an element falls in the SIMD tail.  If this fails, every fused
    kernel (``gru_gates``, ``gru_step``, ``tanh_mlp``) would drift from the
    numpy composition in the last ulp; the load-time self-check would then
    degrade every hook whose kernel runs the loops to its numpy body
    (``fused_cells_error`` names the loop), and the perf harness would
    refuse to measure.
    """
    kernel = _kernel_pack()
    rng = np.random.default_rng(60)
    tiny = np.finfo(np.float64).tiny
    specials = np.array(
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, tiny, -tiny,
         tiny / 3, 709.78, 709.79, -708.4, -745.1, -745.2, 19.06, -19.06, 1e-300]
    )  # fmt: skip
    samples = [specials]
    for length in list(range(1, 68)) + [1000]:
        for scale in (1e-310, 1e-3, 1.0, 30.0, 300.0, 800.0):
            samples.append(rng.standard_normal(length) * scale)
    with np.errstate(all="ignore"):
        for x in samples:
            for name, ufunc in (("exp", np.exp), ("tanh", np.tanh)):
                _same_bits(ufunc(x), kernel.bound_loop(name, x))


class TestFusedNetworkKernels:
    """``step_pairs`` / ``act_batch`` / ``value_batch`` run one compiled call
    each under ``blocked`` and equal the ``reference`` composition bitwise."""

    ROWS = [0, 1, 7, 15, 16, 17]

    @pytest.fixture(scope="class")
    def nets(self):
        from repro.core.actor_critic import Critic, GaussianActor
        from repro.core.state_encoder import StateEncoder

        encoder = StateEncoder(hidden_size=16, num_layers=2, rng=3)
        return encoder, GaussianActor(32, rng=4), Critic(32, rng=5)

    @staticmethod
    def _tick(nets, pairs, slab, states, noise):
        encoder, actor, critic = nets
        return (
            encoder.step_pairs(pairs, slab),
            *actor.act_batch(states, noise=noise),
            *actor.act_batch(states),
            critic.value_batch(states),
        )

    def _assert_backends_agree(self, nets, pairs, slab, states, noise=None):
        if noise is None:
            noise = np.random.default_rng(7).standard_normal((len(states), 2))
        with nnb.use_backend("reference"):
            want = self._tick(nets, pairs, slab, states, noise)
        with nnb.use_backend("blocked"):
            got = self._tick(nets, pairs, slab, states, noise)
        for expected, actual in zip(want, got):
            _same_bits(expected, actual)

    @staticmethod
    def _inputs(rng, rows, scale=1.0):
        return (
            rng.uniform(-1.0, 1.0, size=(rows, 2)) * scale,
            rng.uniform(-1.0, 1.0, size=(2, rows, 16)) * scale,
            rng.standard_normal((rows, 32)) * scale,
        )

    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("scale", [1.0, 50.0])
    def test_tick_matches_reference(self, nets, rows, scale):
        self._assert_backends_agree(nets, *self._inputs(np.random.default_rng(rows), rows, scale))

    def test_saturating_pre_activations(self, nets):
        """|pre| ~ 50: every sigmoid / tanh clamps to its boundary."""
        rng = np.random.default_rng(61)
        pairs, slab, states = self._inputs(rng, 16)
        encoder, actor, critic = nets
        first_gru = encoder.gru._cells[0].w_x.data
        first_mlp = actor.body[0].weight.data
        assert np.abs(pairs @ first_gru).max() < 50 < np.abs(pairs * 50 @ first_gru).max()
        assert np.abs(states * 50 @ first_mlp).max() > 50
        self._assert_backends_agree(nets, pairs * 50, slab, states * 50)

    def test_noncontiguous_gathers_and_layouts(self, nets):
        rng = np.random.default_rng(62)
        pairs, _, states = self._inputs(rng, 7)
        table = rng.uniform(-1.0, 1.0, size=(2, 2, 12, 16))
        slots = np.array([9, 0, 4, 11, 2, 7, 5])
        gathered = table[:, 0, slots]  # the server's session-table gather
        self._assert_backends_agree(nets, pairs, gathered, states)
        strided_pairs = np.repeat(pairs, 2, axis=0)[::2]
        strided_states = np.repeat(states, 2, axis=1)[:, ::2]
        assert not strided_pairs.flags.c_contiguous and not strided_states.flags.c_contiguous
        self._assert_backends_agree(nets, strided_pairs, table[:, 1, slots], strided_states)
        self._assert_backends_agree(
            nets,
            np.asfortranarray(pairs),
            np.asfortranarray(gathered),
            np.asfortranarray(states),
        )

    def test_float32_and_integer_inputs(self, nets):
        rng = np.random.default_rng(63)
        pairs, slab, states = self._inputs(rng, 15)
        self._assert_backends_agree(
            nets, pairs.astype(np.float32), slab.astype(np.float32), states.astype(np.float32)
        )
        self._assert_backends_agree(
            nets,
            rng.integers(-3, 4, size=(15, 2)),
            rng.integers(-1, 2, size=(2, 15, 16)),
            rng.integers(-5, 6, size=(15, 32)),
        )

    def test_non_finite_rows(self, nets):
        rng = np.random.default_rng(64)
        pairs, slab, states = self._inputs(rng, 17)
        for row, value in ((1, np.nan), (4, np.inf), (9, -np.inf)):
            pairs[row, row % 2] = value
            slab[row % 2, row + 2, 3] = value
            states[row, 5] = value
        states[12] = np.nan
        with np.errstate(invalid="ignore"):
            self._assert_backends_agree(nets, pairs, slab, states)

    def test_blocked_tick_calls_no_python_matmul_or_gates(self, nets, monkeypatch):
        _kernel_pack()
        # With the GEMM compiled, a fused kernel failing its self-check is a bug.
        assert nnb.fused_cells_available(), nnb.fused_cells_error()
        from repro.nn import functional as F

        def forbidden(*args, **kwargs):
            raise AssertionError("the blocked decision tick left the compiled kernels")

        for owner, name in (
            (nnb.BlockedBackend, "matmul2d"),
            (nnb.get_backend("blocked"), "gru_gates"),
            (nnb.ExecutionBackend, "gru_step"),
            (nnb.ExecutionBackend, "tanh_mlp"),
            (F, "gru_cell_forward"),
            (F, "tanh_mlp_forward"),
        ):
            monkeypatch.setattr(owner, name, forbidden)
        pairs, slab, states = self._inputs(np.random.default_rng(65), 16)
        with nnb.use_backend("blocked"):
            self._tick(nets, pairs, slab, states, np.zeros((16, 2)))

    def test_loop_mismatch_degrades_once_to_the_composition(self, nets, monkeypatch, fresh_blocked):
        """A bound loop that differs from its ufunc fails exactly the rows
        whose kernels run the loops; the conv and BPTT hooks stay compiled."""
        kernel = _kernel_pack()
        fresh_blocked()
        monkeypatch.setattr(nnb, "_LOOP_UFUNCS", (np.exp, np.sinh))
        try:
            with pytest.warns(RuntimeWarning, match="failed their self-check") as record:
                status = nnb.hook_status()
            assert len(record) == 1
            failed = [name for name, reason in status.items() if reason]
            assert failed == [hook.name for hook in nnb._HOOKS if hook.loops]
            assert all("tanh loop" in status[name] for name in failed)
            assert "tanh loop" in nnb.fused_cells_error()
            compiled = TestConvHooks.HOOKS + TestBPTTHooks.HOOKS + ("lstm_gates", "tanh_backward")
            assert all(status[name] is None for name in compiled)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert nnb.get_backend("blocked").describe()["fused_cells"] == "numpy-fallback"
                # blocked now runs the composition, which still matches.
                self._assert_backends_agree(
                    nets, *self._inputs(np.random.default_rng(66), 7)
                )
        finally:
            kernel.bind_loops(np.exp, np.tanh)


class TestKernelFallbackWarning:
    def test_compile_failure_warns_once_and_reports(self, monkeypatch, fresh_blocked):
        fresh_blocked()
        monkeypatch.setattr(nnb, "_KERNEL", nnb._UNSET)
        monkeypatch.setattr(nnb, "_KERNEL_ERROR", None)
        monkeypatch.setattr(
            nnb, "_kernel_path", lambda: "/nonexistent/repro-kernel-test.so"
        )

        def boom(path):
            raise RuntimeError("compiler forced to fail")

        monkeypatch.setattr(nnb, "_compile_kernel", boom)
        with pytest.warns(RuntimeWarning, match="falling back"):
            assert not nnb.compiled_kernel_available()
        assert "forced to fail" in nnb.compiled_kernel_error()
        payload = nnb.get_backend("blocked").describe()
        assert payload["kernel"] == "einsum-fallback"
        assert "forced to fail" in payload["kernel_error"]
        # The degraded backend still produces reference bits...
        rng = np.random.default_rng(60)
        a, bb = rng.standard_normal((5, 9)), rng.standard_normal((9, 4))
        assert np.array_equal(
            nnb.get_backend("blocked").matmul2d(a, bb),
            np.einsum("ik,kh->ih", a, bb),
        )
        # ...and repeated availability checks stay silent.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not nnb.compiled_kernel_available()

    @pytest.mark.parametrize(
        "script,reason",
        [
            ('echo "cc1: note: first" >&2\necho "cc1: fatal error: boom" >&2\nexit 1\n', "cc1: fatal error: boom"),
            ("exit 3\n", "{compiler} exited with status 3"),
        ],
    )
    def test_compile_failure_names_the_last_stderr_line_or_the_status(
        self, tmp_path, monkeypatch, script, reason
    ):
        compiler = tmp_path / "cc"
        compiler.write_text("#!/bin/sh\n" + script)
        compiler.chmod(0o755)
        monkeypatch.setenv("CC", str(compiler))
        with pytest.raises(RuntimeError) as excinfo:
            nnb._compile_kernel(str(tmp_path / "kernel.so"))
        assert str(excinfo.value) == "kernel compilation failed: " + reason.format(compiler=compiler)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["cc"]


class TestTensorRouting:
    def test_rc_matmul_routes_through_active_backend(self, monkeypatch):
        calls = []

        class Probe(nnb.ExecutionBackend):
            name = "probe-test"

            def matmul2d(self, a, b):
                calls.append((a.shape, b.shape))
                return np.einsum("ik,kh->ih", a, b)

        monkeypatch.setitem(nnb._REGISTRY, "probe-test", Probe())
        with nn.row_consistent_matmul(), nnb.use_backend("probe-test"):
            rc_matmul(np.ones((2, 3)), np.ones((3, 4)))
        assert calls == [((2, 3), (3, 4))]

    def test_tensor_matmul_uses_backend_inside_rc_context(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        with nn.row_consistent_matmul():
            with nnb.use_backend("reference"):
                ref = (x @ w).data.copy()
            with nnb.use_backend("blocked"):
                blk = (x @ w).data.copy()
        assert np.array_equal(ref, blk)

    def test_gradients_flow_under_blocked_backend(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 2)), requires_grad=True)
        with nn.row_consistent_matmul(), nnb.use_backend("blocked"):
            loss = (x @ w).sum()
            loss.backward()
        assert x.grad is not None and w.grad is not None
        np.testing.assert_allclose(w.grad, x.data.sum(axis=0, keepdims=True).T @ np.ones((1, 2)))

    def test_outside_rc_context_backend_not_consulted(self, monkeypatch):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))

        class Tripwire(nnb.ExecutionBackend):
            name = "tripwire-test"

            def matmul2d(self, a, b):
                raise AssertionError("backend consulted outside the rc context")

        monkeypatch.setitem(nnb._REGISTRY, "tripwire-test", Tripwire())
        with nnb.use_backend("tripwire-test"):
            out = rc_matmul(a, b)  # no rc context: plain float64 BLAS
        assert np.array_equal(out, a @ b)

    def test_linear_layer_batch_invariance_under_blocked(self):
        layer = nn.Linear(10, 4, rng=np.random.default_rng(10))
        x = np.random.default_rng(11).standard_normal((9, 10))
        with nn.no_grad(), nn.row_consistent_matmul(), nnb.use_backend("blocked"):
            full = layer(Tensor(x)).data
            rows = np.concatenate(
                [layer(Tensor(x[i : i + 1])).data for i in range(9)], axis=0
            )
        assert np.array_equal(full, rows)


class TestPreallocatedOptimizers:
    @staticmethod
    def _train(optimizer_cls, steps=40, seed=12, **kwargs):
        rng = np.random.default_rng(seed)
        layer = nn.Linear(7, 3, rng=np.random.default_rng(0))
        opt = optimizer_cls(layer.parameters(), **kwargs)
        for _ in range(steps):
            x = Tensor(rng.standard_normal((5, 7)))
            target = rng.standard_normal((5, 3))
            opt.zero_grad()
            loss = ((layer(x) - Tensor(target)) ** 2).mean()
            loss.backward()
            nn.clip_grad_norm(layer.parameters(), 0.5)
            opt.step()
        return [p.data.copy() for p in layer.parameters()]

    def test_in_place_step_bitwise_equals_allocating_oracle(self):
        baseline = self._train(AllocatingAdam, lr=1e-3)
        fast = self._train(nn.Adam, lr=1e-3)
        for p_base, p_fast in zip(baseline, fast):
            assert np.array_equal(p_base, p_fast)

    def test_step_mutates_in_place(self):
        layer = nn.Linear(4, 2, rng=np.random.default_rng(1))
        opt = nn.Adam(layer.parameters(), lr=1e-3)
        buffers = [p.data for p in layer.parameters()]
        x = Tensor(np.random.default_rng(2).standard_normal((3, 4)))
        loss = layer(x).sum()
        opt.zero_grad()
        loss.backward()
        opt.step()
        for param, buf in zip(layer.parameters(), buffers):
            assert param.data is buf

    def test_clip_grad_norm_scales_in_place(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(3))
        x = Tensor(np.full((4, 3), 100.0))
        (layer(x) ** 2).sum().backward()
        grads_before = [p.grad for p in layer.parameters()]
        norm = nn.clip_grad_norm(layer.parameters(), 1e-3)
        assert norm > 1e-3
        for p, g in zip(layer.parameters(), grads_before):
            assert p.grad is g  # same buffer, scaled in place
        total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in layer.parameters())))
        assert total == pytest.approx(1e-3, rel=1e-9)

    def test_clip_grad_norm_noop_below_threshold(self):
        layer = nn.Linear(3, 2, rng=np.random.default_rng(4))
        x = Tensor(np.full((1, 3), 1e-6))
        layer(x).sum().backward()
        snapshot = [p.grad.copy() for p in layer.parameters()]
        nn.clip_grad_norm(layer.parameters(), 1e9)
        for p, snap in zip(layer.parameters(), snapshot):
            assert np.array_equal(p.grad, snap)


class TestMinibatchSlots:
    FIELDS = ("states", "actions", "log_probs", "advantages", "returns")

    @staticmethod
    def _filled_buffer(seed=20, length=8, n_envs=3, state_dim=6, action_dim=2):
        from repro.core.rollout import RolloutBuffer

        buf = RolloutBuffer(length, n_envs, state_dim, action_dim)
        r = np.random.default_rng(seed)
        ticks = [
            (
                r.normal(size=(n_envs, state_dim)),
                r.normal(size=(n_envs, action_dim)),
                r.normal(size=n_envs),
                r.normal(size=n_envs),
                r.normal(size=n_envs),
                r.random(n_envs) < 0.1,
            )
            for _ in range(length)
        ]
        buf.load(*(np.stack(column) for column in zip(*ticks)))
        buf.finalize(r.normal(size=n_envs), 0.99, 0.95)
        return buf

    @classmethod
    def _fancy_index_batches(cls, buf, n_minibatches, rng):
        """The allocating gather the slots replaced: ``array[index]``."""
        total = buf.rollout_length * buf.n_envs
        flat = {
            "states": buf.states.reshape(total, buf.state_dim),
            "actions": buf.actions.reshape(total, buf.action_dim),
            "log_probs": buf.log_probs.reshape(total),
            "returns": buf.returns.reshape(total),
        }
        advantages = buf.advantages.reshape(total)
        flat["advantages"] = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        order = rng.permutation(total)
        return [
            {field: flat[field][index] for field in cls.FIELDS}
            for index in np.array_split(order, min(n_minibatches, total))
        ]

    @pytest.mark.parametrize("n_minibatches", [1, 3, 4, 7, 24, 100])
    def test_slot_batches_bitwise_equal_fancy_index(self, n_minibatches):
        buf = self._filled_buffer()
        base = self._fancy_index_batches(buf, n_minibatches, np.random.default_rng(0))
        # Two epochs: the second gathers into slots the first already filled.
        for _ in range(2):
            fast = list(buf.minibatches(n_minibatches, rng=np.random.default_rng(0)))
            assert len(base) == len(fast)
            for b, f in zip(base, fast):
                for field in self.FIELDS:
                    assert np.array_equal(b[field], getattr(f, field)), field

    def test_slots_are_reused_across_epochs(self):
        buf = self._filled_buffer()
        first = [b.states for b in buf.minibatches(4, rng=np.random.default_rng(0))]
        second = [b.states for b in buf.minibatches(4, rng=np.random.default_rng(1))]
        for a, b in zip(first, second):
            assert a is b

    def test_slots_rebuild_when_the_partition_changes(self):
        buf = self._filled_buffer()
        four = list(buf.minibatches(4, rng=np.random.default_rng(0)))
        assert [len(b.states) for b in four] == [6, 6, 6, 6]
        three = list(buf.minibatches(3, rng=np.random.default_rng(0)))
        assert [len(b.states) for b in three] == [8, 8, 8]
        base = self._fancy_index_batches(buf, 3, np.random.default_rng(0))
        for b, f in zip(base, three):
            for field in self.FIELDS:
                assert np.array_equal(b[field], getattr(f, field)), field

    def test_ppo_updater_equals_updater_with_allocating_oracle_optimizers(self):
        from repro.core.actor_critic import Critic, GaussianActor
        from repro.core.config import AmoebaConfig
        from repro.core.ppo import PPOUpdater

        def run(oracle):
            cfg = AmoebaConfig(rollout_length=8, n_envs=3, n_minibatches=3, update_epochs=2)
            actor = GaussianActor(6, 2, hidden_dims=(12,), rng=np.random.default_rng(1))
            critic = Critic(6, hidden_dims=(12,), rng=np.random.default_rng(2))
            updater = PPOUpdater(actor, critic, cfg, rng=np.random.default_rng(3))
            if oracle:
                updater.actor_optimizer = AllocatingAdam(
                    actor.parameters(), lr=cfg.learning_rate
                )
                updater.critic_optimizer = AllocatingAdam(
                    critic.parameters(), lr=cfg.learning_rate
                )
            buf = self._filled_buffer(seed=30, length=8, n_envs=3)
            stats = [updater.update(buf), updater.update(buf)]
            params = [
                p.data.copy()
                for p in list(actor.parameters()) + list(critic.parameters())
            ]
            return stats, params

        stats_base, params_base = run(True)
        stats_fast, params_fast = run(False)
        assert stats_base == stats_fast
        for a, b in zip(params_base, params_fast):
            assert np.array_equal(a, b)


class TestServingBackendSelection:
    def test_server_decisions_identical_across_rc_backends(self):
        from repro.core.actor_critic import GaussianActor
        from repro.core.state_encoder import StateEncoder
        from repro.serve import PolicyServer, ServeConfig

        encoder = StateEncoder(hidden_size=8, num_layers=1, rng=np.random.default_rng(0))
        encoder.eval()
        actor = GaussianActor(16, 2, hidden_dims=(8,), rng=np.random.default_rng(1))

        def run():
            server = PolicyServer(
                actor, encoder, config=ServeConfig(max_batch=4), clock=lambda: 0.0
            )
            for i in range(4):
                server.open_session(f"s{i}")
                server.submit(f"s{i}", 500.0 + 10 * i, 1.0)
            return [
                (d.session_id, np.array(d.recorded_action).tobytes()) for d in server.drain()
            ]

        default = run()
        assert default
        for name in nnb.available_backends():
            with nnb.use_backend(name):
                assert run() == default, name


# Runs in a fresh interpreter against the cache directory named by
# REPRO_NN_KERNEL_CACHE: loads the blocked backend, counting compilations.
_LOAD_KERNEL_SCRIPT = """
import json
from repro.nn import backend as nnb

compiled = []
compile_kernel = nnb._compile_kernel


def counting_compile(target):
    compiled.append(target)
    compile_kernel(target)


nnb._compile_kernel = counting_compile
description = nnb.get_backend("blocked").describe()
print(json.dumps({"kernel": description["kernel"], "error": description["kernel_error"],
                  "compilations": len(compiled)}))
"""


class TestKernelBuildCache:
    def test_kernel_source_is_packaged(self, tmp_path, monkeypatch):
        source = Path(nnb.__file__).with_name("kernels.c")
        assert source.is_file() and Path(nnb._KERNEL_SOURCE_PATH) == source
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert re.search(
            r'^\[tool\.setuptools\.package-data\]\nrepro = \[[^\]]*"nn/kernels\.c"', pyproject, re.M
        )

        # The cache key follows the text of the file, not its location.
        monkeypatch.setenv("REPRO_NN_KERNEL_CACHE", str(tmp_path / "cache"))
        packaged = nnb._kernel_path()
        copy = tmp_path / "kernels.c"
        copy.write_bytes(source.read_bytes())
        monkeypatch.setattr(nnb, "_KERNEL_SOURCE_PATH", str(copy))
        assert nnb._kernel_path() == packaged
        copy.write_text(copy.read_text() + "/* edited */\n")
        assert nnb._kernel_path() != packaged

    def test_corrupt_cached_build_is_rebuilt_not_loaded(self, tmp_path):
        """A truncated or bit-flipped cached extension must cost one rebuild:
        ``dlopen`` of such a file kills the interpreter (SIGBUS) before any
        fallback can run, and would do so in every later process."""
        if not nnb.compiled_kernel_available():
            pytest.skip("compiled kernel unavailable")
        env = dict(
            os.environ,
            REPRO_NN_KERNEL_CACHE=str(tmp_path),
            PYTHONPATH=str(Path(nnb.__file__).resolve().parents[2]),
        )

        def load():
            result = subprocess.run(
                [sys.executable, "-c", _LOAD_KERNEL_SCRIPT],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, (result.returncode, result.stderr)
            report = json.loads(result.stdout)
            assert report["kernel"] == "compiled", report["error"]
            return report["compilations"]

        assert load() == 1  # cold build
        (extension,) = [path for path in tmp_path.iterdir() if path.suffix != ".sha256"]
        sidecar = Path(str(extension) + ".sha256")
        # Nothing else lands in the (shareable) cache: no source copy, no temp.
        assert sorted(tmp_path.iterdir()) == sorted([extension, sidecar])
        assert load() == 0  # intact cache: loaded, not rebuilt

        intact = extension.read_bytes()
        flipped = bytearray(intact)
        flipped[len(flipped) // 2] ^= 0xFF
        for corrupt in (intact[:1000], bytes(flipped)):
            extension.write_bytes(corrupt)
            assert load() == 1
            assert sorted(tmp_path.iterdir()) == sorted([extension, sidecar])
        assert load() == 0  # the rebuild recorded its own digest

        sidecar.unlink()  # an unverified build is not trusted either
        assert load() == 1

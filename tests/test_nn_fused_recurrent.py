"""Fused recurrent kernels: gradchecks, composed-graph equivalence, legacy checkpoints.

Three layers of guarantees for the packed-gate fused primitives:

1. **Gradcheck** — the hand-written closed-form backwards of
   ``gru_sequence`` / ``lstm_sequence`` agree with central finite
   differences on every input and parameter.
2. **Equivalence** — fused forward and gradients match the historical
   composed-graph formulation (kept in ``tests/oracles/composed_recurrent.py``) under the
   same seed, on both the full-sequence path and the array step
   (``gru_cell_forward`` / ``GRU.step_arrays``); the forward is
   bit-identical inside ``row_consistent_matmul()``.
3. **Serialization** — legacy per-gate checkpoints load into the packed
   layout through the :func:`repro.nn.serialization.pack_legacy_recurrent`
   shim and reproduce the same forward.
"""

import numpy as np
import pytest

from oracles.composed_recurrent import (
    ComposedGRU,
    ComposedGRUCell,
    ComposedLSTM,
    ComposedLSTMCell,
)
from oracles.executors import EXECUTORS, executing
from repro import nn
from repro.nn import functional as F
from repro.nn.serialization import pack_legacy_recurrent
from repro.nn.tensor import rc_matmul

GRU_GATES = ("r", "z", "n")
LSTM_GATES = ("i", "f", "g", "o")


def numeric_grad(param_data, forward_fn, eps=1e-6):
    """Central-difference gradient of scalar ``forward_fn()`` w.r.t. ``param_data``."""
    grad = np.zeros_like(param_data)
    flat = param_data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = forward_fn()
        flat[i] = original - eps
        minus = forward_fn()
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def assert_grads_close(analytic, numeric, rtol=1e-6, atol=1e-8):
    assert analytic is not None
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


class TestFusedGradcheck:
    def test_gru_sequence_backward(self):
        rng = np.random.default_rng(2)
        cell = nn.GRUCell(2, 3, rng=rng)
        x = nn.Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        h0 = nn.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        proj = rng.normal(size=(2, 4, 3))

        outputs = F.gru_sequence(x, cell.w_x, cell.w_h, cell.b, h0)
        (outputs * nn.Tensor(proj)).sum().backward()

        def loss():
            with nn.no_grad():
                return float(
                    (F.gru_sequence(x, cell.w_x, cell.w_h, cell.b, h0).data * proj).sum()
                )

        for tensor in (x, h0, cell.w_x, cell.w_h, cell.b):
            assert_grads_close(tensor.grad, numeric_grad(tensor.data, loss))

    def test_lstm_sequence_backward_through_outputs_and_final_cell(self):
        rng = np.random.default_rng(3)
        cell = nn.LSTMCell(2, 3, rng=rng)
        x = nn.Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
        h0 = nn.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        c0 = nn.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        proj_out = rng.normal(size=(2, 4, 3))
        proj_cell = rng.normal(size=(2, 3))

        outputs, final_cell = F.lstm_sequence(x, cell.w_x, cell.w_h, cell.b, h0, c0)
        (
            (outputs * nn.Tensor(proj_out)).sum()
            + (final_cell * nn.Tensor(proj_cell)).sum()
        ).backward()

        def loss():
            with nn.no_grad():
                out, fin = F.lstm_sequence(x, cell.w_x, cell.w_h, cell.b, h0, c0)
                return float((out.data * proj_out).sum() + (fin.data * proj_cell).sum())

        for tensor in (x, h0, c0, cell.w_x, cell.w_h, cell.b):
            assert_grads_close(tensor.grad, numeric_grad(tensor.data, loss))


class TestComposedEquivalence:
    """Fused kernels reproduce the legacy composed formulation."""

    def test_same_seed_same_parameters(self):
        packed = nn.GRUCell(2, 4, rng=np.random.default_rng(5))
        composed = ComposedGRUCell(2, 4, rng=np.random.default_rng(5))
        for index, gate in enumerate(GRU_GATES):
            block = slice(index * 4, (index + 1) * 4)
            assert np.array_equal(packed.w_x.data[:, block], getattr(composed, f"w_x{gate}").data)
            assert np.array_equal(packed.w_h.data[:, block], getattr(composed, f"w_h{gate}").data)
            assert np.array_equal(packed.b.data[block], getattr(composed, f"b_{gate}").data)

    def test_gru_cell_forward_identical(self):
        rng = np.random.default_rng(6)
        packed = nn.GRUCell(3, 4, rng=np.random.default_rng(6))
        composed = ComposedGRUCell(3, 4, rng=np.random.default_rng(6))
        x, h = rng.normal(size=(5, 3)), rng.normal(size=(5, 4))

        def fused():
            weights = (packed.w_x.data, packed.w_h.data, packed.b.data)
            return F.gru_cell_forward(x, h, *weights, rc_matmul)[0]

        with nn.row_consistent_matmul():
            reference = composed(nn.Tensor(x), nn.Tensor(h))
            assert np.array_equal(fused(), reference.data)
        reference = composed(nn.Tensor(x), nn.Tensor(h))
        np.testing.assert_allclose(fused(), reference.data, rtol=0, atol=1e-14)

    def test_lstm_cell_forward_identical(self):
        """One LSTM step is a one-step fused sequence."""
        rng = np.random.default_rng(7)
        packed = nn.LSTMCell(3, 4, rng=np.random.default_rng(7))
        composed = ComposedLSTMCell(3, 4, rng=np.random.default_rng(7))
        x = rng.normal(size=(5, 3))
        h, c = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        with nn.row_consistent_matmul():
            outputs, fc = F.lstm_sequence(
                nn.Tensor(x[:, None, :]), packed.w_x, packed.w_h, packed.b,
                nn.Tensor(h), nn.Tensor(c),
            )
            rh, rc = composed(nn.Tensor(x), (nn.Tensor(h), nn.Tensor(c)))
            assert np.array_equal(outputs.data[:, 0], rh.data)
            assert np.array_equal(fc.data, rc.data)

    @pytest.mark.parametrize("batch,steps", [(3, 6), (2, 1)])
    def test_gru_sequence_forward_matches_composed(self, batch, steps):
        rng = np.random.default_rng(8)
        packed = nn.GRU(2, 4, num_layers=2, rng=np.random.default_rng(8))
        composed = ComposedGRU(2, 4, num_layers=2, rng=np.random.default_rng(8))
        x = rng.normal(size=(batch, steps, 2))
        with nn.row_consistent_matmul():
            fused_out, fused_hidden = packed(nn.Tensor(x))
            ref_out, ref_hidden = composed(nn.Tensor(x))
            assert np.array_equal(fused_out.data, ref_out.data)
            for fused_h, ref_h in zip(fused_hidden, ref_hidden):
                assert np.array_equal(fused_h.data, ref_h.data)

    def test_lstm_sequence_forward_matches_composed(self):
        rng = np.random.default_rng(9)
        packed = nn.LSTM(2, 3, num_layers=2, rng=np.random.default_rng(9))
        composed = ComposedLSTM(2, 3, num_layers=2, rng=np.random.default_rng(9))
        x = rng.normal(size=(3, 5, 2))
        with nn.row_consistent_matmul():
            fused_out, fused_state = packed(nn.Tensor(x))
            ref_out, ref_state = composed(nn.Tensor(x))
            assert np.array_equal(fused_out.data, ref_out.data)
            for (fh, fc), (rh, rc) in zip(fused_state, ref_state):
                assert np.array_equal(fh.data, rh.data)
                assert np.array_equal(fc.data, rc.data)

    def test_step_path_matches_composed_step(self):
        rng = np.random.default_rng(10)
        packed = nn.GRU(2, 4, num_layers=2, rng=np.random.default_rng(10))
        composed = ComposedGRU(2, 4, num_layers=2, rng=np.random.default_rng(10))
        x = rng.normal(size=(4, 7, 2))
        hidden_packed = np.zeros((2, 4, 4))
        hidden_composed = None
        with nn.row_consistent_matmul():
            for t in range(7):
                hidden_packed = packed.step_arrays(x[:, t, :], hidden_packed)
                hidden_composed = composed.step(nn.Tensor(x[:, t, :]), hidden_composed)
            for fused_h, ref_h in zip(hidden_packed, hidden_composed):
                assert np.array_equal(fused_h, ref_h.data)

    def test_gru_gradients_match_composed(self):
        rng = np.random.default_rng(11)
        packed = nn.GRU(2, 3, num_layers=2, rng=np.random.default_rng(11))
        composed = ComposedGRU(2, 3, num_layers=2, rng=np.random.default_rng(11))
        x = rng.normal(size=(3, 5, 2))
        proj = rng.normal(size=(3, 5, 3))

        out_p, _ = packed(nn.Tensor(x))
        (out_p * nn.Tensor(proj)).sum().backward()
        out_c, _ = composed(nn.Tensor(x))
        (out_c * nn.Tensor(proj)).sum().backward()

        for layer in range(2):
            packed_cell = packed._cells[layer]
            composed_cell = composed._cells[layer]
            size = packed_cell.hidden_size
            for index, gate in enumerate(GRU_GATES):
                block = slice(index * size, (index + 1) * size)
                np.testing.assert_allclose(
                    packed_cell.w_x.grad[:, block],
                    getattr(composed_cell, f"w_x{gate}").grad,
                    rtol=1e-6, atol=1e-10,
                )
                np.testing.assert_allclose(
                    packed_cell.w_h.grad[:, block],
                    getattr(composed_cell, f"w_h{gate}").grad,
                    rtol=1e-6, atol=1e-10,
                )
                np.testing.assert_allclose(
                    packed_cell.b.grad[block],
                    getattr(composed_cell, f"b_{gate}").grad,
                    rtol=1e-6, atol=1e-10,
                )

    def test_lstm_gradients_match_composed(self):
        rng = np.random.default_rng(12)
        packed = nn.LSTM(2, 3, num_layers=2, rng=np.random.default_rng(12))
        composed = ComposedLSTM(2, 3, num_layers=2, rng=np.random.default_rng(12))
        x = rng.normal(size=(2, 6, 2))
        proj = rng.normal(size=(2, 6, 3))

        out_p, _ = packed(nn.Tensor(x))
        (out_p * nn.Tensor(proj)).sum().backward()
        out_c, _ = composed(nn.Tensor(x))
        (out_c * nn.Tensor(proj)).sum().backward()

        for layer in range(2):
            packed_cell = packed._cells[layer]
            composed_cell = composed._cells[layer]
            size = packed_cell.hidden_size
            for index, gate in enumerate(LSTM_GATES):
                block = slice(index * size, (index + 1) * size)
                np.testing.assert_allclose(
                    packed_cell.w_x.grad[:, block],
                    getattr(composed_cell, f"w_x{gate}").grad,
                    rtol=1e-6, atol=1e-10,
                )
                np.testing.assert_allclose(
                    packed_cell.w_h.grad[:, block],
                    getattr(composed_cell, f"w_h{gate}").grad,
                    rtol=1e-6, atol=1e-10,
                )
                np.testing.assert_allclose(
                    packed_cell.b.grad[block],
                    getattr(composed_cell, f"b_{gate}").grad,
                    rtol=1e-6, atol=1e-10,
                )


class TestLegacyCheckpointPacking:
    def test_pack_legacy_recurrent_folds_complete_gate_sets(self):
        rng = np.random.default_rng(14)
        legacy = {
            "gru.cell0.w_xr": rng.normal(size=(2, 3)),
            "gru.cell0.w_xz": rng.normal(size=(2, 3)),
            "gru.cell0.w_xn": rng.normal(size=(2, 3)),
            "head.weight": rng.normal(size=(3, 1)),
        }
        packed = pack_legacy_recurrent(legacy)
        assert set(packed) == {"gru.cell0.w_x", "head.weight"}
        assert packed["gru.cell0.w_x"].shape == (2, 9)
        assert np.array_equal(packed["gru.cell0.w_x"][:, :3], legacy["gru.cell0.w_xr"])
        assert np.array_equal(packed["head.weight"], legacy["head.weight"])

    def test_pack_legacy_recurrent_ignores_incomplete_sets(self):
        state = {"cell0.w_xr": np.zeros((2, 3)), "cell0.w_xz": np.zeros((2, 3))}
        assert set(pack_legacy_recurrent(state)) == set(state)

    def test_legacy_gru_checkpoint_roundtrip(self, tmp_path):
        composed = ComposedGRU(2, 4, num_layers=2, rng=np.random.default_rng(15))
        path = tmp_path / "legacy_gru.npz"
        nn.save_state_dict(composed.state_dict(), path)

        packed = nn.GRU(2, 4, num_layers=2, rng=np.random.default_rng(99))
        packed.load_state_dict(nn.load_state_dict(path))

        x = np.random.default_rng(16).normal(size=(3, 6, 2))
        with nn.row_consistent_matmul():
            fused_out, _ = packed(nn.Tensor(x))
            ref_out, _ = composed(nn.Tensor(x))
            assert np.array_equal(fused_out.data, ref_out.data)

    def test_legacy_lstm_checkpoint_roundtrip(self, tmp_path):
        composed = ComposedLSTM(2, 3, num_layers=2, rng=np.random.default_rng(17))
        path = tmp_path / "legacy_lstm.npz"
        nn.save_state_dict(composed.state_dict(), path)

        packed = nn.LSTM(2, 3, num_layers=2, rng=np.random.default_rng(98))
        packed.load_state_dict(nn.load_state_dict(path))

        x = np.random.default_rng(18).normal(size=(2, 5, 2))
        with nn.row_consistent_matmul():
            fused_out, _ = packed(nn.Tensor(x))
            ref_out, _ = composed(nn.Tensor(x))
            assert np.array_equal(fused_out.data, ref_out.data)

    def test_packed_checkpoint_roundtrip_unchanged(self, tmp_path):
        model = nn.GRU(2, 4, rng=np.random.default_rng(19))
        path = tmp_path / "packed.npz"
        nn.save_state_dict(model.state_dict(), path)
        clone = nn.GRU(2, 4, rng=np.random.default_rng(97))
        clone.load_state_dict(nn.load_state_dict(path))
        for original, loaded in zip(model.parameters(), clone.parameters()):
            assert np.array_equal(original.data, loaded.data)


class TestStableSigmoid:
    def test_matches_naive_in_safe_range(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(F.stable_sigmoid(x), 1.0 / (1.0 + np.exp(-x)), rtol=1e-15)

    def test_no_warning_and_sane_values_for_extreme_logits(self):
        x = np.array([-1e4, -750.0, 0.0, 750.0, 1e4])
        with np.errstate(over="raise"):
            out = F.stable_sigmoid(x)
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert out[0] == 0.0 and out[-1] == 1.0

    def test_preserves_shape(self):
        assert F.stable_sigmoid(np.zeros((3, 4))).shape == (3, 4)
        assert np.all(F.stable_sigmoid(np.zeros((3, 4))) == 0.5)


class TestSequenceShapes:
    """``x`` must be ``(B, T >= 1, in)`` and each initial state ``(B, H)``.
    Anything else -- a ``(1, H)`` state the reference numpy would broadcast,
    a state of another width, a sequence with no steps -- raises one
    ``ValueError`` naming the shapes, on every backend, before any
    projection."""

    CASES = [
        ((4, 3, 2), (1, 5), (4, 5)),  # h0 of one row for a batch of four
        ((4, 3, 2), (4, 5), (1, 5)),  # c0 of one row (LSTM)
        ((4, 3, 2), (4, 6), (4, 5)),  # h0 of another width
        ((4, 0, 2), (4, 5), (4, 5)),  # no time steps
        ((4, 3, 3), (4, 5), (4, 5)),  # inputs of another width
        ((4, 3), (4, 5), (4, 5)),  # not a sequence
    ]

    @staticmethod
    def _run(family, backend, x_shape, h_shape, c_shape, monkeypatch):
        def no_projection(*args):
            raise AssertionError("projected before checking the shapes")

        monkeypatch.setattr(F, "rc_matmul", no_projection)
        cell = (nn.GRUCell if family == "gru" else nn.LSTMCell)(2, 5, rng=np.random.default_rng(0))
        x, h0, c0 = nn.Tensor(np.ones(x_shape)), nn.Tensor(np.zeros(h_shape)), nn.Tensor(np.zeros(c_shape))
        with executing(backend), pytest.raises(ValueError) as excinfo:
            if family == "gru":
                F.gru_sequence(x, cell.w_x, cell.w_h, cell.b, h0)
            else:
                F.lstm_sequence(x, cell.w_x, cell.w_h, cell.b, h0, c0)
        return str(excinfo.value)

    @pytest.mark.parametrize(
        "family, x_shape, h_shape, c_shape",
        [("lstm", *case) for case in CASES] + [("gru", *case) for case in CASES if case[2] == (4, 5)],
    )
    def test_both_executors_raise_the_same_error(self, family, x_shape, h_shape, c_shape, monkeypatch):
        messages = {
            self._run(family, backend, x_shape, h_shape, c_shape, monkeypatch)
            for backend in EXECUTORS
        }
        assert len(messages) == 1
        (message,) = messages
        assert message.startswith(f"{family}_sequence expects x (")
        assert f"got x {x_shape}, h0 {h_shape}" in message

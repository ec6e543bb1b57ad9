"""Unit tests for recurrent (GRU/LSTM) and convolutional layers."""

import numpy as np
import pytest

from oracles.conv_reference import ReferenceConv1d, ReferenceMaxPool1d
from repro import nn
from repro.nn.conv import _windows_1d


class TestGRU:
    def test_cell_output_shape(self):
        gru = nn.GRU(3, 5, rng=np.random.default_rng(0))
        assert gru.step_arrays(np.zeros((2, 3)), np.zeros((1, 2, 5))).shape == (1, 2, 5)

    def test_sequence_output_shapes(self):
        gru = nn.GRU(2, 4, num_layers=2, rng=np.random.default_rng(0))
        out, hidden = gru(nn.Tensor(np.zeros((3, 7, 2))))
        assert out.shape == (3, 7, 4)
        assert len(hidden) == 2
        assert hidden[0].shape == (3, 4)

    def test_zero_input_zero_initial_state_stays_bounded(self):
        gru = nn.GRU(2, 4, rng=np.random.default_rng(0))
        out, _ = gru(nn.Tensor(np.zeros((1, 10, 2))))
        assert np.all(np.abs(out.data) <= 1.0)

    def test_hidden_state_carries_information(self):
        gru = nn.GRU(1, 3, rng=np.random.default_rng(0))
        seq_a = nn.Tensor(np.ones((1, 5, 1)))
        seq_b = nn.Tensor(-np.ones((1, 5, 1)))
        _, ha = gru(seq_a)
        _, hb = gru(seq_b)
        assert not np.allclose(ha[-1].data, hb[-1].data)

    def test_gradients_flow_through_time(self):
        gru = nn.GRU(2, 3, num_layers=2, rng=np.random.default_rng(0))
        x = nn.Tensor(np.random.default_rng(1).normal(size=(2, 6, 2)), requires_grad=True)
        out, _ = gru(x)
        (out ** 2).mean().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in gru.parameters())

    def test_variable_length_sequences_accepted(self):
        gru = nn.GRU(2, 4, rng=np.random.default_rng(0))
        for length in (1, 3, 9):
            out, _ = gru(nn.Tensor(np.zeros((1, length, 2))))
            assert out.shape == (1, length, 4)

    def test_step_matches_forward(self):
        gru = nn.GRU(2, 4, num_layers=2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(3, 6, 2))
        with nn.row_consistent_matmul():
            _, expected = gru(nn.Tensor(x))
        hidden = np.zeros((2, 3, 4))
        for t in range(6):
            hidden = gru.step_arrays(x[:, t, :], hidden)
        for stepped, full in zip(hidden, expected):
            assert np.array_equal(stepped, full.data)

    def test_initial_state_is_zero(self):
        gru = nn.GRU(2, 4, num_layers=2, rng=np.random.default_rng(0))
        hidden = gru.initial_state(3)
        assert len(hidden) == 2
        assert all(np.all(h.data == 0.0) and h.shape == (3, 4) for h in hidden)


class TestLSTM:
    def test_cell_returns_hidden_and_cell(self):
        lstm = nn.LSTM(3, 4, rng=np.random.default_rng(0))
        _, [(h, c)] = lstm(nn.Tensor(np.zeros((2, 1, 3))))
        assert h.shape == (2, 4)
        assert c.shape == (2, 4)

    def test_forget_gate_bias_initialised_to_one(self):
        cell = nn.LSTMCell(3, 4)
        assert np.allclose(cell.b.data[4:8], 1.0)
        assert np.all(np.delete(cell.b.data, np.s_[4:8]) == 0.0)

    def test_sequence_shapes(self):
        lstm = nn.LSTM(2, 5, num_layers=2, rng=np.random.default_rng(0))
        out, state = lstm(nn.Tensor(np.zeros((4, 6, 2))))
        assert out.shape == (4, 6, 5)
        assert len(state) == 2

    def test_gradients_exist(self):
        lstm = nn.LSTM(2, 3, rng=np.random.default_rng(0))
        out, _ = lstm(nn.Tensor(np.random.default_rng(1).normal(size=(2, 4, 2))))
        (out ** 2).mean().backward()
        assert all(p.grad is not None for p in lstm.parameters())


class TestConv1d:
    def test_output_shape_with_padding(self):
        conv = nn.Conv1d(2, 6, kernel_size=3, padding=1, rng=np.random.default_rng(0))
        out = conv(nn.Tensor(np.zeros((4, 2, 20))))
        assert out.shape == (4, 6, 20)

    def test_output_shape_with_stride(self):
        conv = nn.Conv1d(1, 3, kernel_size=3, stride=2, rng=np.random.default_rng(0))
        out = conv(nn.Tensor(np.zeros((1, 1, 11))))
        assert out.shape == (1, 3, 5)

    def test_rejects_wrong_rank(self):
        conv = nn.Conv1d(1, 1, kernel_size=3)
        with pytest.raises(ValueError):
            conv(nn.Tensor(np.zeros((3, 5))))

    def test_known_convolution_value(self):
        conv = nn.Conv1d(1, 1, kernel_size=2)
        conv.weight.data = np.array([[1.0], [1.0]])  # sum of the window
        conv.bias.data = np.zeros(1)
        out = conv(nn.Tensor(np.array([[[1.0, 2.0, 3.0]]])))
        assert np.allclose(out.data, [[[3.0, 5.0]]])

    def test_weight_gradient_numerically(self):
        rng = np.random.default_rng(0)
        conv = nn.Conv1d(2, 3, kernel_size=3, padding=1, rng=rng)
        x = np.random.default_rng(1).normal(size=(2, 2, 8))
        out = conv(nn.Tensor(x))
        (out ** 2).mean().backward()
        analytic = conv.weight.grad[0, 0]
        eps = 1e-6
        original = conv.weight.data[0, 0]
        conv.weight.data[0, 0] = original + eps
        plus = (conv(nn.Tensor(x)) ** 2).mean().item()
        conv.weight.data[0, 0] = original - eps
        minus = (conv(nn.Tensor(x)) ** 2).mean().item()
        conv.weight.data[0, 0] = original
        assert analytic == pytest.approx((plus - minus) / (2 * eps), abs=1e-6)


def _loop_im2col(x, kernel_size, stride):
    """The seed per-position gather (reference for the strided-view version)."""
    batch, channels, length = x.shape
    out_length = (length - kernel_size) // stride + 1
    columns = np.empty((batch, out_length, channels * kernel_size), dtype=x.dtype)
    for position in range(out_length):
        start = position * stride
        columns[:, position, :] = x[:, :, start : start + kernel_size].reshape(batch, -1)
    return columns


def _loop_pool_windows(data, kernel_size, stride):
    batch, channels, length = data.shape
    out_length = (length - kernel_size) // stride + 1
    windows = np.empty((batch, channels, out_length, kernel_size))
    for position in range(out_length):
        start = position * stride
        windows[:, :, position, :] = data[:, :, start : start + kernel_size]
    return windows


class TestLoopFreeWindows:
    """Conv1d / MaxPool1d build their windows from one strided view; the
    values, their order and the signs of zeros equal the seed loops'."""

    @pytest.mark.parametrize("kernel_size,stride", [(5, 1), (3, 2), (2, 2), (4, 3), (7, 7)])
    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("padding", [0, 2])
    @pytest.mark.parametrize("backend", nn.available_backends())
    def test_im2col_matches_loop(self, kernel_size, stride, contiguous, padding, backend):
        """Every backend's ``im2col_1d`` hook (the one ``Conv1d`` and DF
        scoring call) equals the seed loop over the zero-padded input."""
        x = np.random.default_rng(kernel_size * 10 + stride).normal(size=(3, 4, 23))
        if not contiguous:
            x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        columns = nn.get_backend(backend).im2col_1d(x, kernel_size, stride, padding)
        expected = _loop_im2col(np.pad(x, ((0, 0), (0, 0), (padding, padding))), kernel_size, stride)
        assert columns.flags.c_contiguous and columns.flags.writeable
        assert np.array_equal(columns.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("kernel_size,stride", [(2, None), (3, 2), (2, 1), (5, 5)])
    def test_maxpool_matches_loop_including_zero_signs(self, kernel_size, stride):
        rng = np.random.default_rng(kernel_size)
        data = rng.normal(size=(3, 4, 21))
        data *= data > 0  # relu the way Tensor.relu does it: negatives become -0.0
        data = np.ascontiguousarray(data.transpose(0, 2, 1)).transpose(0, 2, 1)
        pool = nn.MaxPool1d(kernel_size, stride)
        expected = _loop_pool_windows(data, pool.kernel_size, pool.stride).max(axis=-1)
        with nn.no_grad():
            out = pool(nn.Tensor(data))
        assert np.array_equal(out.data.view(np.uint64), expected.view(np.uint64))
        tracked = pool(nn.Tensor(data, requires_grad=True))
        assert np.array_equal(tracked.data.view(np.uint64), expected.view(np.uint64))
        assert not out.requires_grad and tracked.requires_grad

    def test_padded_convolution_matches_np_pad(self):
        conv = nn.Conv1d(2, 3, kernel_size=5, padding=2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 2, 16))
        padded = np.pad(x, ((0, 0), (0, 0), (2, 2)))
        expected = (
            nn.Tensor(_loop_im2col(padded, 5, 1)) @ conv.weight + conv.bias
        ).data.transpose(0, 2, 1)
        assert np.array_equal(conv(nn.Tensor(x)).data.view(np.uint64), expected.view(np.uint64))


def _bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def _channel_last(data):
    """Same values, laid out the way ``Conv1d`` hands its output on."""
    return np.ascontiguousarray(data.transpose(0, 2, 1)).transpose(0, 2, 1)


def _activations(rng, shape, channel_last):
    """Relu output as the DF network produces it: ``-0.0`` where the input was
    negative, some ``+0.0``, and one-decimal values so that maxima tie."""
    data = rng.normal(size=shape).round(1)
    data *= data > 0
    data[rng.random(shape) < 0.2] = 0.0
    return _channel_last(data) if channel_last else data


def _upstream(rng, shape):
    grad = rng.normal(size=shape)
    grad[rng.random(shape) < 0.2] = -0.0
    return grad


def test_maximum_fold_equals_window_reduce():
    """A numpy upgrade that changes which zero ``maximum`` returns must fail here.

    ``MaxPool1d.forward`` folds ``np.maximum(running, candidate)`` over the
    strided slices of its window view and relies on that being, bit for bit,
    ``max(axis=-1)`` of the contiguous window copy the oracle reduces.
    """
    rng = np.random.default_rng(23)
    special = np.array([-0.0, 0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])
    for length in range(1, 71):  # SIMD bodies and scalar tails
        for kernel_size in (2, 3, 5):
            if length < kernel_size:
                continue
            for stride in (kernel_size, 1):
                for channel_last in (False, True):
                    for draw in ("special", "normal"):
                        shape = (2, 3, length)
                        data = rng.choice(special, shape) if draw == "special" else rng.normal(size=shape)
                        if channel_last:
                            data = _channel_last(data)
                        windows = _windows_1d(data, kernel_size, stride)
                        reduced = np.ascontiguousarray(windows).max(axis=-1)
                        folded = np.array(windows[..., 0], order="C")
                        for offset in range(1, kernel_size):
                            np.maximum(folded, windows[..., offset], out=folded)
                        nan = np.isnan(reduced)
                        assert np.array_equal(nan, np.isnan(folded)) and np.array_equal(
                            folded[~nan].view(np.uint64), reduced[~nan].view(np.uint64)
                        ), (
                            f"the left fold of np.maximum no longer equals max(axis=-1) of the window "
                            f"copy (length={length} kernel_size={kernel_size} stride={stride} "
                            f"channel_last={channel_last} values={draw}, numpy {np.__version__}): the "
                            f"sign of a zero maximum in DF activations changes -- no digest can move, "
                            f"but MaxPool1d is not bit-identical to tests/oracles/conv_reference.py"
                        )


_POOL_SWEEP = sorted(
    {(2, 2), (2, 1), (3, 2), (3, 1), (5, 5), (4, 3), (1, 1), (2, 3), (5, 1)}
    | {(k, s) for k in range(1, 6) for s in (None, 1, 2, 3, k + 2)},
    key=str,  # None (the default stride) does not order against ints
)
_CONV_SWEEP = [
    # in, out, kernel, stride, padding
    (2, 16, 5, 1, 2),
    (16, 32, 5, 1, 2),
    (3, 4, 3, 2, 1),
    (2, 3, 4, 3, 0),
    (1, 2, 2, 1, 0),
    (2, 2, 3, 1, 3),
    (2, 3, 1, 1, 0),
    (2, 3, 3, 5, 1),
]


class TestKernelOracle:
    """The fold / offset-scatter kernels equal the window-copy reduction and
    the per-position loops of ``tests/oracles/conv_reference.py`` in every bit."""

    @pytest.mark.parametrize("kernel_size,stride", _POOL_SWEEP)
    @pytest.mark.parametrize("channel_last", [False, True])
    def test_maxpool_forward_and_gradient(self, kernel_size, stride, channel_last):
        rng = np.random.default_rng(kernel_size * 31 + (stride or 0))
        pools = nn.MaxPool1d(kernel_size, stride), ReferenceMaxPool1d(kernel_size, stride)
        for length in (9, 20, 21, 40):  # 9 and 21 leave a remainder at most strides
            data = _activations(rng, (3, 4, length), channel_last)
            grad = _upstream(rng, pools[1](nn.Tensor(data)).shape)
            outputs, gradients = [], []
            for pool in pools:
                x = nn.Tensor(data.copy(order="K"), requires_grad=True)
                out = pool(x)
                assert out.requires_grad and out.data.flags.c_contiguous
                out.backward(grad)
                outputs.append(out.data)
                gradients.append(x.grad)
            assert np.array_equal(_bits(outputs[0]), _bits(outputs[1]))
            assert np.array_equal(_bits(gradients[0]), _bits(gradients[1]))
            # no gradient wanted: same bits, nothing recorded
            plain = pools[0](nn.Tensor(data))
            with nn.no_grad():
                silenced = pools[0](nn.Tensor(data, requires_grad=True))
            for out in (plain, silenced):
                assert not out.requires_grad and out._backward is None
                assert np.array_equal(_bits(out.data), _bits(outputs[1]))

    @pytest.mark.parametrize("in_channels,out_channels,kernel_size,stride,padding", _CONV_SWEEP)
    @pytest.mark.parametrize("channel_last", [False, True])
    def test_conv_forward_and_gradients(
        self, in_channels, out_channels, kernel_size, stride, padding, channel_last
    ):
        rng = np.random.default_rng(kernel_size * 31 + stride)
        for length in (8, 20, 41):
            data = rng.normal(size=(3, in_channels, length))
            if channel_last:
                data = _channel_last(data)
            results = []
            for layer in (nn.Conv1d, ReferenceConv1d):
                conv = layer(
                    in_channels, out_channels, kernel_size, stride=stride, padding=padding,
                    rng=np.random.default_rng(5),
                )
                x = nn.Tensor(data.copy(order="K"), requires_grad=True)
                out = conv(x)
                out.backward(_upstream(np.random.default_rng(length), out.shape))
                results.append((out.data, x.grad, conv.weight.grad, conv.bias.grad))
            for ours, reference in zip(*results):
                assert np.array_equal(_bits(ours), _bits(reference))

    def test_conv_without_input_gradient(self):
        data = np.random.default_rng(0).normal(size=(3, 2, 20))
        results = []
        for layer in (nn.Conv1d, ReferenceConv1d):
            conv = layer(2, 4, 5, padding=2, rng=np.random.default_rng(5))
            out = conv(nn.Tensor(data))
            out.sum().backward()
            results.append((out.data, conv.weight.grad, conv.bias.grad))
        for ours, reference in zip(*results):
            assert np.array_equal(_bits(ours), _bits(reference))

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_tied_maxima_send_the_gradient_to_the_first(self, stride):
        data = np.full((2, 3, 11), 2.0)  # every window is one long tie
        grads = []
        for pool in (nn.MaxPool1d(3, stride), ReferenceMaxPool1d(3, stride)):
            x = nn.Tensor(data, requires_grad=True)
            pool(x).sum().backward()
            grads.append(x.grad)
        assert np.array_equal(_bits(grads[0]), _bits(grads[1]))
        assert np.all(grads[0][:, :, 0] == 1.0)  # the first of window 0, not its last
        if stride == 1:  # overlapping windows, each won by its own first cell
            assert np.all(grads[0][:, :, : 11 - 2] == 1.0) and np.all(grads[0][:, :, -2:] == 0.0)

    def test_non_finite_upstream_gradient_reaches_only_the_argmax(self):
        data = _activations(np.random.default_rng(3), (2, 3, 12), channel_last=False)
        grad = np.ones((2, 3, 6))
        grad[0, 0, 0], grad[1, 2, 3], grad[0, 1, 5] = np.inf, -np.inf, np.nan
        grads = []
        for pool in (nn.MaxPool1d(2), ReferenceMaxPool1d(2)):
            x = nn.Tensor(data, requires_grad=True)
            pool(x).backward(grad)
            grads.append(x.grad)
        assert np.array_equal(_bits(grads[0]), _bits(grads[1]))
        assert np.count_nonzero(~np.isfinite(grads[0])) == 3

    def test_kernel_size_one_copies(self):
        data = np.random.default_rng(0).normal(size=(2, 3, 8))
        for stride in (None, 2):
            out = nn.MaxPool1d(1, stride)(nn.Tensor(data))
            assert not np.shares_memory(out.data, data)
            assert out.data.flags.writeable and out.data.flags.owndata
            assert np.array_equal(_bits(out.data), _bits(data[:, :, :: stride or 1]))


class TestLayerArguments:
    """Constructor and rank checks name the layer and the offending value."""

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(kernel_size=2, stride=0), r"MaxPool1d: stride must be >= 1, got 0"),
            (dict(kernel_size=2, stride=-1), r"MaxPool1d: stride must be >= 1, got -1"),
            (dict(kernel_size=0), r"MaxPool1d: kernel_size must be >= 1, got 0"),
            (dict(kernel_size=-3, stride=1), r"MaxPool1d: kernel_size must be >= 1, got -3"),
        ],
    )
    def test_maxpool_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            nn.MaxPool1d(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(kernel_size=3, padding=-2), r"Conv1d: padding must be >= 0, got -2"),
            (dict(kernel_size=3, stride=0), r"Conv1d: stride must be >= 1, got 0"),
            (dict(kernel_size=3, stride=-1), r"Conv1d: stride must be >= 1, got -1"),
            (dict(kernel_size=0), r"Conv1d: kernel_size must be >= 1, got 0"),
        ],
    )
    def test_conv_rejects(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            nn.Conv1d(1, 1, **kwargs)

    def test_default_stride_is_the_kernel_size(self):
        assert nn.MaxPool1d(3).stride == 3
        assert nn.MaxPool1d(3, stride=None).stride == 3
        assert nn.MaxPool1d(3, stride=1).stride == 1

    @pytest.mark.parametrize("shape", [(3, 5), (5,), (1, 2, 3, 4)])
    def test_maxpool_rejects_wrong_rank(self, shape):
        with pytest.raises(ValueError, match=r"MaxPool1d expects \(batch, channels, length\)"):
            nn.MaxPool1d(2)(nn.Tensor(np.zeros(shape)))


class TestPooling:
    def test_maxpool_shape_and_values(self):
        pool = nn.MaxPool1d(2)
        out = pool(nn.Tensor(np.array([[[1.0, 3.0, 2.0, 5.0]]])))
        assert np.allclose(out.data, [[[3.0, 5.0]]])

    def test_maxpool_gradient_goes_to_max(self):
        pool = nn.MaxPool1d(2)
        x = nn.Tensor(np.array([[[1.0, 3.0, 2.0, 5.0]]]), requires_grad=True)
        pool(x).sum().backward()
        assert np.allclose(x.grad, [[[0.0, 1.0, 0.0, 1.0]]])

    def test_maxpool_rejects_oversized_window(self):
        pool = nn.MaxPool1d(10)
        with pytest.raises(ValueError):
            pool(nn.Tensor(np.zeros((1, 1, 4))))

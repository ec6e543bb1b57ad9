"""Unit tests for recurrent (GRU/LSTM) and convolutional layers."""

import numpy as np
import pytest

from oracles.conv_reference import composed_relu_pool, windows_1d
from repro import nn


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
    """``Conv1d`` holds the parameters; ``relu_pool`` is the conv block."""

    def test_output_shape_with_padding(self):
        conv = nn.Conv1d(2, 6, kernel_size=3, padding=1, rng=np.random.default_rng(0))
        out = conv.relu_pool(nn.Tensor(np.zeros((4, 2, 20))))
        assert out.shape == (4, 6, 10)

    def test_output_shape_with_stride(self):
        conv = nn.Conv1d(1, 3, kernel_size=3, stride=2, rng=np.random.default_rng(0))
        out = conv.relu_pool(nn.Tensor(np.zeros((1, 1, 11))))
        assert out.shape == (1, 3, 2)  # 5 positions pool to 2; the odd last one is dropped

    def test_has_no_forward(self):
        assert "forward" not in vars(nn.Conv1d)
        with pytest.raises(NotImplementedError):
            nn.Conv1d(1, 1, kernel_size=3)(nn.Tensor(np.zeros((1, 1, 5))))

    def test_known_convolution_value(self):
        conv = nn.Conv1d(1, 1, kernel_size=2)
        conv.weight.data = np.array([[1.0], [1.0]])  # sum of the window
        conv.bias.data = np.zeros(1)
        out = conv.relu_pool(nn.Tensor(np.array([[[1.0, 2.0, 3.0, 4.0, -9.0]]])))
        # conv [3, 5, 7, -5] -> relu [3, 5, 7, -0] -> pairs (3, 5), (7, -0)
        assert np.array_equal(out.data, [[[5.0, 7.0]]])

    def test_weight_gradient_numerically(self):
        rng = np.random.default_rng(0)
        conv = nn.Conv1d(2, 3, kernel_size=3, padding=1, rng=rng)
        x = np.random.default_rng(1).normal(size=(2, 2, 8))
        out = conv.relu_pool(nn.Tensor(x))
        (out ** 2).mean().backward()
        analytic = conv.weight.grad[0, 0]
        eps = 1e-6
        original = conv.weight.data[0, 0]
        conv.weight.data[0, 0] = original + eps
        plus = (conv.relu_pool(nn.Tensor(x)) ** 2).mean().item()
        conv.weight.data[0, 0] = original - eps
        minus = (conv.relu_pool(nn.Tensor(x)) ** 2).mean().item()
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
    """The ``im2col_1d`` hook and the conv block build their windows from one
    strided view; the values, their order and the signs of zeros equal the
    seed loops'."""

    @pytest.mark.parametrize("kernel_size,stride", [(5, 1), (3, 2), (2, 2), (4, 3), (7, 7)])
    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("padding", [0, 2])
    @pytest.mark.parametrize("backend", nn.available_backends())
    def test_im2col_matches_loop(self, kernel_size, stride, contiguous, padding, backend):
        """Every backend's ``im2col_1d`` hook (the one the conv block and DF
        scoring call) equals the seed loop over the zero-padded input."""
        x = np.random.default_rng(kernel_size * 10 + stride).normal(size=(3, 4, 23))
        if not contiguous:
            x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
        columns = nn.get_backend(backend).im2col_1d(x, kernel_size, stride, padding)
        expected = _loop_im2col(np.pad(x, ((0, 0), (0, 0), (padding, padding))), kernel_size, stride)
        assert columns.flags.c_contiguous and columns.flags.writeable
        assert np.array_equal(columns.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("length", [20, 21])  # an odd last position is dropped
    @pytest.mark.parametrize("channel_last", [False, True])
    @pytest.mark.parametrize("backend", nn.available_backends())
    def test_bias_relu_pool_matches_loop_including_zero_signs(self, length, channel_last, backend):
        """Every backend's ``bias_relu_pool`` equals the seed loop's window
        ``max`` over the ReLU of the biased product, signs of zeros included."""
        rng = np.random.default_rng(length)
        h = rng.normal(size=(3, length, 4)).round(1)  # one decimal: pairs tie
        h[rng.random(h.shape) < 0.2] = rng.choice([0.0, -0.0])
        if channel_last:  # the product's layout seen from the other side
            h = np.ascontiguousarray(h.transpose(0, 2, 1)).transpose(0, 2, 1)
        bias = np.array([0.0, -0.0, 0.5, -0.5])
        activations = h + bias
        activations *= activations > 0
        expected = _loop_pool_windows(activations.transpose(0, 2, 1), 2, 2).max(axis=-1)
        pooled = nn.get_backend(backend).bias_relu_pool(h, bias)
        assert np.array_equal(pooled.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("backend", nn.available_backends())
    def test_padded_block_matches_np_pad_and_loops(self, backend):
        conv = nn.Conv1d(2, 3, kernel_size=5, padding=2, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 2, 17))
        padded = np.pad(x, ((0, 0), (0, 0), (2, 2)))
        product = (nn.Tensor(_loop_im2col(padded, 5, 1)) @ conv.weight + conv.bias).data
        activations = product.transpose(0, 2, 1) * (product.transpose(0, 2, 1) > 0)
        expected = _loop_pool_windows(activations, 2, 2).max(axis=-1)
        with nn.use_backend(backend):
            out = conv.relu_pool(nn.Tensor(x))
        assert np.array_equal(out.data.view(np.uint64), expected.view(np.uint64))


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

    The conv block pools with ``np.maximum(even, odd)`` (``bias_relu_pool``,
    whose compiled kernel mirrors it) and relies on that being, bit for bit,
    ``max(axis=-1)`` of the contiguous window copy the oracle's
    ``MaxPool1d`` reduces.
    """
    rng = np.random.default_rng(23)
    special = np.array([-0.0, 0.0, 1.0, -1.0, np.nan, np.inf, -np.inf])
    for length in range(2, 71):  # SIMD bodies and scalar tails
        for stride in (2, 1):
            for channel_last in (False, True):
                for draw in ("special", "normal"):
                    shape = (2, 3, length)
                    data = rng.choice(special, shape) if draw == "special" else rng.normal(size=shape)
                    if channel_last:
                        data = _channel_last(data)
                    windows = windows_1d(data, 2, stride)
                    reduced = np.ascontiguousarray(windows).max(axis=-1)
                    folded = np.maximum(windows[..., 0], windows[..., 1])
                    nan = np.isnan(reduced)
                    assert np.array_equal(nan, np.isnan(folded)) and np.array_equal(
                        folded[~nan].view(np.uint64), reduced[~nan].view(np.uint64)
                    ), (
                        f"np.maximum of a pair no longer equals max(axis=-1) of the window copy "
                        f"(length={length} stride={stride} channel_last={channel_last} "
                        f"values={draw}, numpy {np.__version__}): the sign of a zero maximum in DF "
                        f"activations changes -- no digest can move, but the conv block is not "
                        f"bit-identical to tests/oracles/conv_reference.py"
                    )


# conv kernel / stride of the tied-activation sweep
_BLOCK_SWEEP = sorted(
    {(2, 2), (2, 1), (3, 2), (3, 1), (5, 5), (4, 3), (1, 1), (2, 3), (5, 1)}
    | {(k, s) for k in range(1, 6) for s in (1, 2, 3, k + 2)}
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


def _block_runs(layer, data, upstream, input_grad=True, parameters=None):
    """``(out, input grad, weight grad, bias grad)`` of the fused block and of
    the composed graph, on one ``Conv1d(**layer)`` (seeded; ``parameters``
    overrides its weight and bias) and one input."""
    runs = []
    for block in (nn.Conv1d.relu_pool, composed_relu_pool):
        conv = nn.Conv1d(**layer, rng=np.random.default_rng(5))
        if parameters is not None:
            conv.weight.data, conv.bias.data = (array.copy() for array in parameters)
        x = nn.Tensor(data.copy(order="K"), requires_grad=input_grad)
        out = block(conv, x)
        assert out.requires_grad and out.data.flags.c_contiguous
        out.backward(upstream(out.shape))
        runs.append((out.data, x.grad, conv.weight.grad, conv.bias.grad))
    return runs


def _assert_runs_equal(runs):
    for fused, composed in zip(*runs):
        assert (fused is None) == (composed is None)
        if fused is not None:
            assert fused.shape == composed.shape
            assert np.array_equal(_bits(fused), _bits(composed))


class TestKernelOracle:
    """``Conv1d.relu_pool`` -- one node, the backend's conv-block hooks --
    equals the composed Conv1d → ReLU → MaxPool1d graph of the per-position
    seed layers (``tests/oracles/conv_reference.py``) in every bit: output,
    input, weight and bias gradients."""

    @pytest.mark.parametrize("kernel_size,stride", _BLOCK_SWEEP)
    @pytest.mark.parametrize("channel_last", [False, True])
    def test_block_on_tied_activations(self, kernel_size, stride, channel_last):
        """Weights and inputs of one decimal, biases with zeros of both signs:
        pooled pairs tie, products cancel to zeros of either sign."""
        rng = np.random.default_rng(kernel_size * 31 + stride)
        layer = dict(in_channels=3, out_channels=4, kernel_size=kernel_size, stride=stride, padding=1)
        weight = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(3 * kernel_size, 4))
        bias = np.array([0.0, -0.0, 0.5, -0.5])
        for length in (kernel_size + stride, 20, 21, 40):
            data = _activations(rng, (3, 3, length), channel_last)
            upstream = lambda shape: _upstream(np.random.default_rng(length), shape)  # noqa: E731
            _assert_runs_equal(_block_runs(layer, data, upstream, parameters=(weight, bias)))

    @pytest.mark.parametrize("in_channels,out_channels,kernel_size,stride,padding", _CONV_SWEEP)
    @pytest.mark.parametrize("channel_last", [False, True])
    def test_conv_forward_and_gradients(
        self, in_channels, out_channels, kernel_size, stride, padding, channel_last
    ):
        rng = np.random.default_rng(kernel_size * 31 + stride)
        layer = dict(
            in_channels=in_channels, out_channels=out_channels, kernel_size=kernel_size,
            stride=stride, padding=padding,
        )
        for length in (8, 20, 41):
            data = rng.normal(size=(3, in_channels, length))
            if channel_last:
                data = _channel_last(data)
            upstream = lambda shape: _upstream(np.random.default_rng(length), shape)  # noqa: E731
            _assert_runs_equal(_block_runs(layer, data, upstream))

    def test_untracked_block_records_nothing(self):
        conv = nn.Conv1d(2, 4, kernel_size=5, padding=2, rng=np.random.default_rng(5))
        data = np.random.default_rng(0).normal(size=(3, 2, 20))
        tracked = conv.relu_pool(nn.Tensor(data, requires_grad=True))
        with nn.no_grad():
            silenced = conv.relu_pool(nn.Tensor(data, requires_grad=True))
        assert tracked.requires_grad and tracked._backward is not None
        assert not silenced.requires_grad and silenced._backward is None
        assert np.array_equal(_bits(silenced.data), _bits(tracked.data))

    def test_conv_without_input_gradient(self):
        data = np.random.default_rng(0).normal(size=(3, 2, 20))
        layer = dict(in_channels=2, out_channels=4, kernel_size=5, padding=2)
        runs = _block_runs(layer, data, np.ones, input_grad=False)
        assert runs[0][1] is None
        _assert_runs_equal(runs)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_tied_maxima_send_the_gradient_to_the_first(self, stride):
        layer = dict(in_channels=2, out_channels=3, kernel_size=1, stride=stride)
        ones = (np.ones((2, 3)), np.zeros(3))
        runs = _block_runs(layer, np.full((2, 2, 11), 2.0), np.ones, parameters=ones)
        _assert_runs_equal(runs)
        grad = runs[0][1]  # every product is 4.0: every pair is one tie
        assert np.all(grad[:, :, 0] == 3.0)  # the first of pair 0 ...
        assert np.all(grad[:, :, stride] == 0.0)  # ... not its second

    def test_non_finite_upstream_gradient_reaches_only_the_argmax(self):
        rng = np.random.default_rng(3)
        grad = np.ones((2, 3, 6))
        grad[0, 0, 0], grad[1, 2, 3], grad[0, 1, 5] = np.inf, -np.inf, np.nan
        h = rng.uniform(0.5, 1.5, size=(2, 12, 3))  # positive: the ReLU passes everything
        for name in nn.available_backends():
            d_h = nn.get_backend(name).bias_relu_pool_backward(grad, h, np.zeros(3))
            assert np.count_nonzero(~np.isfinite(d_h)) == 3
        layer = dict(in_channels=3, out_channels=3, kernel_size=3, padding=1)
        data = _activations(rng, (2, 3, 12), channel_last=False)
        with np.errstate(invalid="ignore"):
            _assert_runs_equal(_block_runs(layer, data, lambda shape: grad))


class TestLayerArguments:
    """Constructor and rank checks name the layer and the offending value."""

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

    @pytest.mark.parametrize("shape", [(3, 5), (5,), (1, 2, 3, 4)])
    def test_relu_pool_rejects_wrong_rank(self, shape):
        with pytest.raises(ValueError, match=r"Conv1d expects \(batch, channels, length\)"):
            nn.Conv1d(1, 1, kernel_size=2).relu_pool(nn.Tensor(np.zeros(shape)))


def _pass_through():
    """A one-channel kernel-1 convolution that copies its input."""
    conv = nn.Conv1d(1, 1, kernel_size=1)
    conv.weight.data = np.ones((1, 1))
    return conv


class TestPooling:
    def test_maxpool_shape_and_values(self):
        out = _pass_through().relu_pool(nn.Tensor(np.array([[[1.0, 3.0, 2.0, 5.0]]])))
        assert np.array_equal(out.data, [[[3.0, 5.0]]])

    def test_maxpool_gradient_goes_to_max(self):
        x = nn.Tensor(np.array([[[1.0, 3.0, 2.0, 5.0]]]), requires_grad=True)
        _pass_through().relu_pool(x).sum().backward()
        assert np.array_equal(x.grad, [[[0.0, 1.0, 0.0, 1.0]]])

    def test_maxpool_rejects_oversized_window(self):
        conv = nn.Conv1d(1, 1, kernel_size=10)
        with pytest.raises(ValueError):
            conv.relu_pool(nn.Tensor(np.zeros((1, 1, 4))))

"""Unit tests for the autodiff tensor core."""

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor, as_tensor, no_grad


def numerical_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar-valued fn at array x."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        plus = fn(x)
        flat[i] = old - eps
        minus = fn(x)
        flat[i] = old
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_construction_from_tensor_shares_data(self):
        base = Tensor([1.0, 2.0])
        wrapped = Tensor(base)
        assert np.array_equal(wrapped.data, base.data)

    def test_requires_grad_flag(self):
        t = Tensor([1.0], requires_grad=True)
        assert t.requires_grad

    def test_item_returns_scalar(self):
        assert Tensor([[3.5]]).item() == pytest.approx(3.5)

    def test_detach_breaks_graph(self):
        t = Tensor([1.0], requires_grad=True)
        d = t.detach()
        assert not d.requires_grad

    def test_len_and_ndim(self):
        t = Tensor(np.zeros((4, 2)))
        assert len(t) == 4
        assert t.ndim == 2
        assert t.shape == (4, 2)

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_needs_grad_for_nonscalar(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (t * 2).backward()


class TestArithmeticGradients:
    def test_add_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_mul_gradient(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5.0, 7.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_sub_and_neg(self):
        a = Tensor([4.0], requires_grad=True)
        (1.0 - a).backward()
        assert np.allclose(a.grad, [-1.0])

    def test_div_gradient(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward()
        assert np.allclose(a.grad, [1.0 / 3.0])
        assert np.allclose(b.grad, [-6.0 / 9.0])

    def test_pow_gradient(self):
        a = Tensor([3.0], requires_grad=True)
        (a ** 2).backward()
        assert np.allclose(a.grad, [6.0])

    def test_broadcast_add_unbroadcasts_gradient(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        assert a.grad.shape == (3, 2)
        assert b.grad.shape == (2,)
        assert np.allclose(b.grad, [3.0, 3.0])

    def test_scalar_broadcast(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (a * 2.0).sum().backward()
        assert np.allclose(a.grad, [2.0, 2.0, 2.0])

    def test_gradient_accumulates_over_reuse(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a).backward()
        assert np.allclose(a.grad, [4.0])


class TestUnaryGradients:
    @pytest.mark.parametrize(
        "op",
        ["exp", "log", "tanh", "sigmoid", "relu", "abs"],
    )
    def test_matches_numerical(self, op):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.2, 1.5, size=(3, 2))
        t = Tensor(x.copy(), requires_grad=True)
        getattr(t, op)().sum().backward()
        numeric = numerical_gradient(lambda arr: getattr(Tensor(arr), op)().sum().item(), x.copy())
        assert np.allclose(t.grad, numeric, atol=1e-5)

    def test_clip_gradient_masks_out_of_range(self):
        t = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0, 0.0])

    def test_relu_zero_below(self):
        t = Tensor([-1.0, 2.0], requires_grad=True)
        t.relu().sum().backward()
        assert np.allclose(t.grad, [0.0, 1.0])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        out = t.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(t.grad, np.ones((2, 3)))

    def test_mean_gradient(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        t.mean().backward()
        assert np.allclose(t.grad, 0.25 * np.ones((2, 2)))

    def test_matmul_gradcheck(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        (ta @ tb).sum().backward()
        na = numerical_gradient(lambda arr: (Tensor(arr) @ Tensor(b)).sum().item(), a.copy())
        nb = numerical_gradient(lambda arr: (Tensor(a) @ Tensor(arr)).sum().item(), b.copy())
        assert np.allclose(ta.grad, na, atol=1e-5)
        assert np.allclose(tb.grad, nb, atol=1e-5)

    def test_transpose_roundtrip_gradient(self):
        t = Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)
        t.transpose().sum().backward()
        assert t.grad.shape == (2, 3)

    def test_reshape_gradient(self):
        t = Tensor(np.arange(6, dtype=float), requires_grad=True)
        t.reshape(2, 3).sum().backward()
        assert t.grad.shape == (6,)

    def test_getitem_gradient(self):
        t = Tensor(np.arange(5, dtype=float), requires_grad=True)
        t[1:3].sum().backward()
        assert np.allclose(t.grad, [0, 1, 1, 0, 0])

    def test_stack_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        Tensor.stack([a, b], axis=0).sum().backward()
        assert np.allclose(a.grad, np.ones(3))
        assert np.allclose(b.grad, np.ones(3))

    def test_where_selects_gradient_paths(self):
        a = Tensor([1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0], requires_grad=True)
        Tensor.where(np.array([True, False]), a, b).sum().backward()
        assert np.allclose(a.grad, [1.0, 0.0])
        assert np.allclose(b.grad, [0.0, 1.0])


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        with no_grad():
            a = Tensor([1.0], requires_grad=True)
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert nn.is_grad_enabled()
        with no_grad():
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()


class TestRowConsistentMatmul:
    def test_context_restores_state(self):
        from repro.nn import tensor as tensor_module

        assert not tensor_module._ROW_CONSISTENT_MATMUL
        with nn.row_consistent_matmul():
            assert tensor_module._ROW_CONSISTENT_MATMUL
        assert not tensor_module._ROW_CONSISTENT_MATMUL

    def test_rows_invariant_to_batch_size(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 16))
        w = rng.normal(size=(16, 4))
        with nn.row_consistent_matmul():
            full = (Tensor(x) @ Tensor(w)).data
            rows = np.vstack([(Tensor(x[i : i + 1]) @ Tensor(w)).data for i in range(8)])
        assert np.array_equal(full, rows)

    def test_matches_plain_matmul_values(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 7))
        w = rng.normal(size=(7, 3))
        with nn.row_consistent_matmul():
            consistent = (Tensor(x) @ Tensor(w)).data
        assert np.allclose(consistent, x @ w)

    def test_gradients_unaffected(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with nn.row_consistent_matmul():
            (x @ w).sum().backward()
        assert x.grad is not None and w.grad is not None


class TestGraphLifetime:
    def test_backward_leaves_the_graph_to_reference_counting(self):
        """``backward`` must not leave a reference cycle around the graph:
        activations would then live until the cyclic collector runs, and
        peak memory would depend on how often that happens."""
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            x = Tensor(np.ones((4, 3)), requires_grad=True)
            hidden = (x * 2.0).relu()
            alive = weakref.ref(hidden.data)  # the activation the graph holds
            loss = hidden.sum()
            loss.backward()
            del hidden, loss
            assert alive() is None
            assert np.array_equal(x.grad, np.full((4, 3), 2.0))
        finally:
            gc.enable()


class TestGraphWalk:
    """``backward`` orders the graph with an explicit stack, in the order
    the recursive walk (``tests/oracles/composed_ppo.py``) produced."""

    def test_backward_through_a_graph_deeper_than_the_recursion_limit(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        y = x
        for _ in range(1500):
            y = y + 1.0
        y.sum().backward()
        assert np.array_equal(x.grad, np.ones(3))

    def test_visit_order_on_a_diamond_matches_the_recursive_walk(self):
        from oracles.composed_ppo import recursive_topological_order
        from repro.nn.tensor import _topological_order

        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        w = Tensor(np.array([1.5, 0.25, -3.0]), requires_grad=True)
        left = (x * w).tanh()
        right = (x + 2.0) * x  # x three times over, one constant leaf
        top = (left * right + right / w).sum()
        order = _topological_order(top)
        assert [id(node) for node in order] == [id(node) for node in recursive_topological_order(top)]
        assert order[-1] is top and len({id(node) for node in order}) == len(order)
        position = {id(node): index for index, node in enumerate(order)}
        assert all(position[id(parent)] < position[id(node)] for node in order for parent in node._parents)

    def test_shared_input_gradient_matches_the_recursive_walk_bitwise(self):
        from oracles.composed_ppo import recursive_backward

        data = np.random.default_rng(0).normal(size=(7, 3))
        grads = []
        for backward in (Tensor.backward, recursive_backward):
            x = Tensor(data, requires_grad=True)
            loss = ((x * 0.1).exp() + x.tanh() * x - x / 3.0).sum()
            backward(loss)
            grads.append(x.grad)
        assert np.array_equal(grads[0].view(np.uint64), grads[1].view(np.uint64))


def _cached_arrays(nodes):
    """Every array a recorded graph holds besides gradients: each node's
    ``data`` and whatever its backward closure captured (caches, parents'
    data, nested closures such as the LSTM's shared BPTT runner)."""
    arrays, seen = [], set()
    stack = [node.data for node in nodes] + [node._backward for node in nodes if node._backward]
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif isinstance(value, Tensor):
            stack.append(value.data)
        elif isinstance(value, (list, tuple)):
            stack.extend(value)
        elif callable(value) and getattr(value, "__closure__", None):
            for cell in value.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # an empty cell
                    continue
    return arrays


class TestGradientOwnership:
    """After ``backward`` no ``.grad`` shares memory with another ``.grad``,
    a forward cache or the upstream gradient: a node hands over only the
    arrays it has just allocated, and ``clip_grad_norm`` scales ``.grad`` in
    place, so a shared buffer would scale twice or corrupt a cache."""

    @pytest.fixture
    def backwards(self, monkeypatch):
        """Checks ownership after every ``backward`` of the test; returns the
        number of graphs checked."""
        from repro.nn.tensor import _topological_order

        checked = []
        original = Tensor.backward

        def checking(root, grad=None):
            original(root, grad)
            nodes = _topological_order(root)
            grads = [node.grad for node in nodes if node.grad is not None]
            borrowed = _cached_arrays(nodes) + ([grad] if isinstance(grad, np.ndarray) else [])
            for index, owned in enumerate(grads):
                for other in grads[index + 1 :] + borrowed:
                    assert not np.shares_memory(owned, other)
            checked.append(len(grads))

        monkeypatch.setattr(Tensor, "backward", checking)
        return checked

    def test_df_fit_steps(self, backwards):
        from repro.pipeline import make_censor, prepare_experiment_data

        data = prepare_experiment_data("v2ray", n_censored=12, n_benign=12, max_packets=16, rng=0)
        make_censor("DF", data, rng=1, epochs=1).fit(data.splits.clf_train.flows)
        assert backwards and min(backwards) > 8

    def test_ppo_minibatches(self, backwards):
        from repro.core.actor_critic import Critic, GaussianActor
        from repro.core.config import AmoebaConfig
        from repro.core.ppo import PPOUpdater
        from repro.core.rollout import RolloutBuffer

        rng = np.random.default_rng(4)
        buffer = RolloutBuffer(8, 3, 6, 2)
        buffer.load(
            rng.normal(size=(8, 3, 6)),
            rng.normal(size=(8, 3, 2)),
            rng.normal(size=(8, 3)),
            rng.normal(size=(8, 3)),
            rng.normal(size=(8, 3)),
            rng.random((8, 3)) < 0.1,
        )
        buffer.finalize(rng.normal(size=3), 0.99, 0.95)
        config = AmoebaConfig(rollout_length=8, n_envs=3, n_minibatches=2, update_epochs=2)
        actor = GaussianActor(6, 2, hidden_dims=(12, 5), rng=np.random.default_rng(1))
        critic = Critic(6, hidden_dims=(12, 5), rng=np.random.default_rng(2))
        PPOUpdater(actor, critic, config, rng=3).update(buffer)
        assert backwards and min(backwards) > 4

    @pytest.mark.parametrize("family", ["gru", "lstm"])
    def test_recurrent_sequences(self, backwards, family):
        rng = np.random.default_rng(5)
        layers = (nn.GRU if family == "gru" else nn.LSTM)(3, 4, num_layers=2, rng=rng)
        x = Tensor(rng.standard_normal((5, 6, 3)), requires_grad=True)
        if family == "gru":
            state = [Tensor(rng.standard_normal((5, 4)), requires_grad=True) for _ in range(2)]
        else:
            state = [
                tuple(Tensor(rng.standard_normal((5, 4)), requires_grad=True) for _ in range(2))
                for _ in range(2)
            ]
        outputs, final = layers(x, state)
        outputs.backward(rng.standard_normal(outputs.shape))
        if family == "lstm":  # the final cell state's own node
            final[-1][1].backward(rng.standard_normal((5, 4)))
        assert backwards and min(backwards) >= 8

"""Unit tests for modules, dense layers, containers and initialisers."""

import numpy as np
import pytest

from repro import nn


class TestModuleProtocol:
    def test_parameters_collects_children(self):
        net = nn.Sequential(nn.Linear(3, 4), nn.ReLU(), nn.Linear(4, 2))
        # two weight + two bias parameters
        assert len(net.parameters()) == 4

    def test_named_parameters_unique_names(self):
        net = nn.Sequential(nn.Linear(3, 4), nn.Linear(4, 2))
        names = [name for name, _ in net.named_parameters()]
        assert len(names) == len(set(names)) == 4

    def test_train_eval_propagates(self):
        net = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        net.eval()
        assert all(not m.training for m in net.modules())
        net.train()
        assert all(m.training for m in net.modules())

    def test_zero_grad_clears(self):
        layer = nn.Linear(2, 1)
        out = layer(nn.Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        nn.Adam(layer.parameters(), lr=0.1).zero_grad()
        assert layer.weight.grad is None and layer.bias.grad is None

    def test_state_dict_roundtrip(self):
        a = nn.Linear(3, 2, rng=np.random.default_rng(0))
        b = nn.Linear(3, 2, rng=np.random.default_rng(1))
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_rejects_missing_keys(self):
        layer = nn.Linear(3, 2)
        with pytest.raises(KeyError):
            layer.load_state_dict({"weight": np.zeros((3, 2))})

    def test_load_state_dict_rejects_bad_shapes(self):
        layer = nn.Linear(3, 2)
        state = layer.state_dict()
        state["weight"] = np.zeros((2, 3))
        with pytest.raises(ValueError):
            layer.load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            nn.Module()(1)


class TestLinear:
    def test_output_shape(self):
        layer = nn.Linear(5, 3)
        out = layer(nn.Tensor(np.zeros((7, 5))))
        assert out.shape == (7, 3)

    def test_no_bias_option(self):
        layer = nn.Linear(4, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_deterministic_with_seeded_rng(self):
        a = nn.Linear(3, 3, rng=np.random.default_rng(42))
        b = nn.Linear(3, 3, rng=np.random.default_rng(42))
        assert np.allclose(a.weight.data, b.weight.data)

    def test_unknown_initializer_raises(self):
        with pytest.raises(ValueError):
            nn.Linear(2, 2, initializer="bogus")

    def test_gradient_flows_through_mlp(self):
        net = nn.Sequential(nn.Linear(4, 8), nn.Tanh(), nn.Linear(8, 1))
        x = nn.Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        loss = (net(x) ** 2).mean()
        loss.backward()
        assert all(p.grad is not None for p in net.parameters())

    def test_repr(self):
        assert "Linear" in repr(nn.Linear(2, 3))


class TestSequential:
    def test_len_and_indexing(self):
        net = nn.Sequential(nn.Linear(2, 2), nn.ReLU())
        assert len(net) == 2
        assert isinstance(net[1], nn.ReLU)

    def test_empty_sequential_is_identity(self):
        net = nn.Sequential()
        x = nn.Tensor([1.0, 2.0])
        assert np.allclose(net(x).data, x.data)


class TestInitializers:
    def test_xavier_uniform_bound(self):
        w = nn.xavier_uniform((100, 100), rng=np.random.default_rng(0))
        bound = np.sqrt(6.0 / 200)
        assert np.abs(w).max() <= bound + 1e-12

    def test_kaiming_uniform_shape(self):
        assert nn.kaiming_uniform((10, 20), rng=np.random.default_rng(0)).shape == (10, 20)

    def test_orthogonal_is_orthogonal(self):
        w = nn.orthogonal((8, 8), rng=np.random.default_rng(0))
        assert np.allclose(w @ w.T, np.eye(8), atol=1e-8)

    def test_orthogonal_rectangular_shapes(self):
        tall = nn.orthogonal((10, 4), rng=np.random.default_rng(0))
        wide = nn.orthogonal((4, 10), rng=np.random.default_rng(0))
        assert tall.shape == (10, 4)
        assert wide.shape == (4, 10)

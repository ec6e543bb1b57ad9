"""Unit tests for optimizers, gradient clipping and model persistence."""

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.serialization import load_metadata


def make_regression_problem(seed=0, n=64, d=4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    true_w = rng.normal(size=(d, 1))
    y = X @ true_w + 0.01 * rng.normal(size=(n, 1))
    return X, y


def train_linear(optimizer_cls, steps=200, **kwargs):
    X, y = make_regression_problem()
    model = nn.Linear(4, 1, rng=np.random.default_rng(1))
    optimizer = optimizer_cls(model.parameters(), **kwargs)
    for _ in range(steps):
        loss = F.mse_loss(model(nn.Tensor(X)), nn.Tensor(y))
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return F.mse_loss(model(nn.Tensor(X)), nn.Tensor(y)).item()


class TestOptimizers:
    def test_adam_reduces_loss(self):
        assert train_linear(nn.Adam, lr=0.05) < 0.05

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam(nn.Linear(2, 2).parameters(), lr=-1.0)

    def test_nan_lr_rejected(self):
        """A NaN step size used to pass the ``lr <= 0`` check and write NaN
        into every weight on the first step."""
        with pytest.raises(ValueError, match="learning rate must be finite and positive"):
            nn.Adam(nn.Linear(2, 2).parameters(), lr=float("nan"))

    @pytest.mark.parametrize("lr", [float("inf"), float("-inf")])
    def test_infinite_lr_rejected(self, lr):
        """An infinite step size used to be accepted, and the first step
        wrote inf / NaN into every weight."""
        with pytest.raises(ValueError, match="learning rate must be finite and positive"):
            nn.Adam(nn.Linear(2, 2).parameters(), lr=lr)

    def test_step_skips_parameters_without_grad(self):
        layer = nn.Linear(2, 2)
        optimizer = nn.Adam(layer.parameters(), lr=0.1)
        before = layer.weight.data.copy()
        optimizer.step()  # no backward yet
        assert np.allclose(before, layer.weight.data)


class TestGradClipping:
    @pytest.mark.parametrize("max_norm", [-1.0, 0.0, float("nan"), float("inf")])
    def test_bound_that_would_corrupt_the_gradients_is_refused(self, max_norm):
        """A negative bound used to flip every gradient's sign, and a NaN one
        to skip clipping silently; neither may touch a gradient."""
        param = nn.Parameter(np.zeros(3))
        param.grad = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="max_norm must be finite and positive"):
            nn.clip_grad_norm([param], max_norm)
        assert np.array_equal(param.grad, [1.0, 2.0, 3.0])

    def test_clip_reduces_norm(self):
        layer = nn.Linear(2, 2)
        (layer(nn.Tensor(np.full((8, 2), 100.0))) ** 2).sum().backward()
        pre_norm = nn.clip_grad_norm(layer.parameters(), max_norm=1.0)
        post = np.sqrt(sum(float((p.grad ** 2).sum()) for p in layer.parameters() if p.grad is not None))
        assert pre_norm > 1.0
        assert post == pytest.approx(1.0, rel=1e-6)

    def test_clip_noop_when_below_threshold(self):
        layer = nn.Linear(2, 2)
        (layer(nn.Tensor(np.full((1, 2), 1e-4))) ** 2).sum().backward()
        grads_before = [p.grad.copy() for p in layer.parameters()]
        nn.clip_grad_norm(layer.parameters(), max_norm=100.0)
        for before, param in zip(grads_before, layer.parameters()):
            assert np.allclose(before, param.grad)

    def test_clip_with_no_grads_returns_zero(self):
        assert nn.clip_grad_norm(nn.Linear(2, 2).parameters(), 1.0) == 0.0


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        model = nn.Sequential(nn.Linear(3, 4, rng=np.random.default_rng(0)), nn.Tanh(), nn.Linear(4, 1))
        path = tmp_path / "model.npz"
        nn.save_state_dict(model.state_dict(), path, metadata={"note": "test"})
        clone = nn.Sequential(nn.Linear(3, 4, rng=np.random.default_rng(9)), nn.Tanh(), nn.Linear(4, 1))
        clone.load_state_dict(nn.load_state_dict(path))
        x = nn.Tensor(np.random.default_rng(2).normal(size=(5, 3)))
        assert np.allclose(model(x).data, clone(x).data)

    def test_metadata_roundtrip(self, tmp_path):
        model = nn.Linear(2, 2)
        path = tmp_path / "meta.npz"
        nn.save_state_dict(model.state_dict(), path, metadata={"epoch": 3})
        assert load_metadata(path)["epoch"] == 3

    def test_save_creates_parent_directories(self, tmp_path):
        model = nn.Linear(2, 2)
        path = tmp_path / "nested" / "dir" / "model.npz"
        nn.save_state_dict(model.state_dict(), path)
        assert path.exists()

    def test_state_dict_save_without_suffix(self, tmp_path):
        model = nn.Linear(2, 2)
        path = tmp_path / "weights"
        nn.save_state_dict(model.state_dict(), path)
        loaded = nn.load_state_dict(path)
        assert "weight" in loaded


class TestInMemorySerialization:
    """In-memory byte round-trips used by the checkpoint broadcast path."""

    def test_bytes_roundtrip(self):
        state = {
            "actor.weight": np.random.default_rng(0).normal(size=(4, 3)),
            "actor.bias": np.zeros(3),
            "critic.weight": np.random.default_rng(1).normal(size=(4, 1)),
        }
        payload = nn.state_dict_to_bytes(state, metadata={"iteration": 5})
        assert isinstance(payload, bytes)
        restored = nn.state_dict_from_bytes(payload)
        assert set(restored) == set(state)
        for key, value in state.items():
            assert np.array_equal(restored[key], value)

    def test_bytes_metadata(self):
        from repro.nn.serialization import metadata_from_bytes

        payload = nn.state_dict_to_bytes({"w": np.ones(2)}, metadata={"step": 7})
        assert metadata_from_bytes(payload) == {"step": 7}

    def test_bytes_roundtrip_packs_legacy_recurrent(self):
        """A legacy per-gate GRU payload comes back in the packed layout —
        the same folding ``load_state_dict`` applies to on-disk archives."""
        rng = np.random.default_rng(3)
        legacy = {}
        for gate in ("r", "z", "n"):
            legacy[f"gru.cell0.w_x{gate}"] = rng.normal(size=(2, 5))
            legacy[f"gru.cell0.w_h{gate}"] = rng.normal(size=(5, 5))
            legacy[f"gru.cell0.b_{gate}"] = rng.normal(size=5)
        restored = nn.state_dict_from_bytes(nn.state_dict_to_bytes(legacy))
        assert set(restored) == {"gru.cell0.w_x", "gru.cell0.w_h", "gru.cell0.b"}
        assert restored["gru.cell0.w_x"].shape == (2, 15)
        assert np.array_equal(restored["gru.cell0.w_x"][:, :5], legacy["gru.cell0.w_xr"])
        assert np.array_equal(restored["gru.cell0.b"][5:10], legacy["gru.cell0.b_z"])

    def test_bytes_match_on_disk_archive(self, tmp_path):
        """The byte payload and the on-disk .npz are interchangeable."""
        model = nn.GRU(2, 4, num_layers=2, rng=np.random.default_rng(4))
        payload = nn.state_dict_to_bytes(model.state_dict())
        path = tmp_path / "model.npz"
        nn.save_state_dict(model.state_dict(), path)
        from_disk = nn.load_state_dict(path)
        from_bytes = nn.state_dict_from_bytes(payload)
        assert set(from_disk) == set(from_bytes)
        for key in from_disk:
            assert np.array_equal(from_disk[key], from_bytes[key])

    def test_module_reload_from_bytes(self):
        model = nn.Linear(3, 2, rng=np.random.default_rng(5))
        clone = nn.Linear(3, 2, rng=np.random.default_rng(6))
        clone.load_state_dict(nn.state_dict_from_bytes(nn.state_dict_to_bytes(model.state_dict())))
        x = nn.Tensor(np.random.default_rng(7).normal(size=(4, 3)))
        assert np.array_equal(model(x).data, clone(x).data)

    def test_unreadable_payloads_raise_one_named_error(self, tmp_path):
        """Truncation at any point, any flipped bit that breaks the archive,
        an empty payload, a bare ``.npy`` and metadata that is not a JSON
        object: each is a ``CheckpointError`` (a ``ValueError``) naming the
        source, never a zip, EOF or JSON exception of its own."""
        from repro.nn.serialization import (
            CheckpointError,
            load_metadata,
            metadata_from_bytes,
        )

        state = {"actor.weight": np.arange(12.0).reshape(4, 3), "encoder.b": np.ones(5)}
        payload = nn.state_dict_to_bytes(state, metadata={"step": 7})
        damaged = [payload[:cut] for cut in range(0, len(payload), 37)]
        damaged += [
            payload[:position] + bytes([payload[position] ^ 0x40]) + payload[position + 1 :]
            for position in range(0, len(payload), 11)
        ]
        damaged += [np.lib.format.magic(1, 0) + b"\x00" * 8, b"PK\x03\x04"]
        refused = 0
        for data in damaged:
            for reader in (nn.state_dict_from_bytes, metadata_from_bytes):
                try:
                    loaded = reader(data)
                except CheckpointError as error:
                    assert isinstance(error, ValueError)
                    assert str(error).startswith("checkpoint payload is not a readable checkpoint")
                    refused += 1
                    continue
                # A flip the archive does not notice (a timestamp, say)
                # still reads back the same content.
                if reader is metadata_from_bytes:
                    assert loaded == {"step": 7}
                else:
                    assert set(loaded) == set(state)
                    assert all(np.array_equal(loaded[key], state[key]) for key in state)
        assert refused > len(damaged)

        path = tmp_path / "policy.npz"
        path.write_bytes(nn.state_dict_to_bytes(state, metadata=[1, 2]))  # not an object
        with pytest.raises(CheckpointError, match=f"{path} is not a readable checkpoint"):
            load_metadata(path)
        assert set(nn.load_state_dict(path)) == set(state)
        path.write_bytes(payload[: len(payload) // 2])
        for reader in (nn.load_state_dict, load_metadata):
            with pytest.raises(CheckpointError, match=f"{path} is not a readable checkpoint"):
                reader(path)

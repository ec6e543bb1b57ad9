"""Unit tests for functional ops and losses."""

import numpy as np
import pytest

from repro.core import GaussianActor
from repro.nn import functional as F
from repro.nn.tensor import Tensor


class TestActivations:
    def test_relu_sigmoid_tanh_wrappers(self):
        x = Tensor([-1.0, 0.5])
        assert np.allclose(F.relu(x).data, [0.0, 0.5])
        assert np.allclose(F.tanh(x).data, np.tanh([-1.0, 0.5]))
        assert np.allclose(x.sigmoid().data, 1 / (1 + np.exp([1.0, -0.5])))


class TestLosses:
    def test_mse_zero_for_identical(self):
        x = Tensor([1.0, 2.0])
        assert F.mse_loss(x, x).item() == pytest.approx(0.0)

    def test_mse_known_value(self):
        assert F.mse_loss(Tensor([1.0, 3.0]), Tensor([0.0, 0.0])).item() == pytest.approx(5.0)

    def test_mae_known_value(self):
        assert F.mae_loss(Tensor([1.0, -3.0]), Tensor([0.0, 0.0])).item() == pytest.approx(2.0)

    def test_bce_matches_manual(self):
        logits = Tensor([np.log(4.0), -np.log(4.0)])  # probabilities 0.8 and 0.2
        t = Tensor([1.0, 0.0])
        expected = -np.mean([np.log(0.8), np.log(0.8)])
        assert F.binary_cross_entropy_with_logits(logits, t).item() == pytest.approx(expected, rel=1e-6)

    def test_bce_with_logits_matches_probability_version(self):
        logits = np.array([0.3, -1.2, 2.0])
        targets = np.array([1.0, 0.0, 1.0])
        probs = 1.0 / (1.0 + np.exp(-logits))
        expected = -np.mean(targets * np.log(probs) + (1.0 - targets) * np.log(1.0 - probs))
        loss = F.binary_cross_entropy_with_logits(Tensor(logits), Tensor(targets))
        assert loss.item() == pytest.approx(expected, rel=1e-6)

    def test_bce_with_logits_stable_for_extreme_logits(self):
        loss = F.binary_cross_entropy_with_logits(Tensor([1000.0]), Tensor([1.0]))
        assert np.isfinite(loss.item())


def _zero_mean_actor(log_std):
    """An actor whose mean is exactly 0 on every state (its output layer is
    zeroed), with ``log_std`` on both action dimensions."""
    actor = GaussianActor(3, hidden_dims=(4,), rng=0)
    output = actor.body[len(actor.body) - 1]
    output.weight.data = np.zeros_like(output.weight.data)
    output.bias.data = np.zeros_like(output.bias.data)
    actor.log_std.data = np.full(2, float(log_std))
    return actor


class TestGaussianPolicy:
    """The actor's log-density and entropy, through ``log_prob_and_entropy``."""

    def test_log_prob_matches_scipy_formula(self):
        actor = _zero_mean_actor(0.0)
        log_probs, _ = actor.log_prob_and_entropy(Tensor(np.ones((1, 3))), np.zeros((1, 2)))
        expected = 2 * (-0.5 * np.log(2 * np.pi))
        assert log_probs.item() == pytest.approx(expected)

    def test_log_prob_decreases_away_from_mean(self):
        actor, states = _zero_mean_actor(0.0), Tensor(np.ones((2, 3)))
        log_probs, _ = actor.log_prob_and_entropy(states, np.array([[0.0, 0.0], [3.0, 3.0]]))
        near, far = log_probs.data
        assert near > far

    def test_entropy_increases_with_std(self):
        states = Tensor(np.ones((1, 3)))
        small = _zero_mean_actor(-1.0).log_prob_and_entropy(states, np.zeros((1, 2)))[1].item()
        large = _zero_mean_actor(1.0).log_prob_and_entropy(states, np.zeros((1, 2)))[1].item()
        assert large > small
        assert large == pytest.approx(2 * (1.0 + 0.5 * (np.log(2 * np.pi) + 1.0)))

    def test_log_prob_gradient_flows_to_mean(self):
        actor = _zero_mean_actor(0.0)
        actions = np.random.default_rng(0).normal(size=(4, 2))
        log_probs, _ = actor.log_prob_and_entropy(Tensor(np.ones((4, 3))), actions)
        log_probs.mean().backward()
        assert all(p.grad is not None for p in actor.parameters())

"""Unit tests for functional ops and losses."""

import numpy as np
import pytest

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


class TestGaussianPolicy:
    def test_log_prob_matches_scipy_formula(self):
        mean = Tensor(np.zeros((1, 2)))
        log_std = Tensor(np.zeros(2))
        actions = Tensor(np.zeros((1, 2)))
        lp = F.gaussian_log_prob(actions, mean, log_std).item()
        expected = 2 * (-0.5 * np.log(2 * np.pi))
        assert lp == pytest.approx(expected)

    def test_log_prob_decreases_away_from_mean(self):
        mean = Tensor(np.zeros((1, 2)))
        log_std = Tensor(np.zeros(2))
        near = F.gaussian_log_prob(Tensor(np.zeros((1, 2))), mean, log_std).item()
        far = F.gaussian_log_prob(Tensor(np.full((1, 2), 3.0)), mean, log_std).item()
        assert near > far

    def test_entropy_increases_with_std(self):
        small = F.gaussian_entropy(Tensor(np.full(2, -1.0))).item()
        large = F.gaussian_entropy(Tensor(np.full(2, 1.0))).item()
        assert large > small

    def test_log_prob_gradient_flows_to_mean(self):
        mean = Tensor(np.zeros((4, 2)), requires_grad=True)
        log_std = Tensor(np.zeros(2), requires_grad=True)
        actions = Tensor(np.random.default_rng(0).normal(size=(4, 2)))
        F.gaussian_log_prob(actions, mean, log_std).mean().backward()
        assert mean.grad is not None and log_std.grad is not None

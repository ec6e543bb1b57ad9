"""Additional regression tests for the nn substrate covering edge cases
discovered while building the higher layers."""

import numpy as np
import pytest

from repro import nn
from repro.core.actor_critic import GaussianActor


class TestTensorEdgeCases:
    def test_three_dimensional_matmul_batched(self):
        a = nn.Tensor(np.random.default_rng(0).normal(size=(4, 3, 5)), requires_grad=True)
        b = nn.Tensor(np.random.default_rng(1).normal(size=(5, 2)), requires_grad=True)
        out = a @ b
        assert out.shape == (4, 3, 2)
        out.sum().backward()
        assert a.grad.shape == (4, 3, 5)
        assert b.grad.shape == (5, 2)

    def test_chained_graph_reuses_intermediate(self):
        x = nn.Tensor([2.0], requires_grad=True)
        y = x * 3.0
        z = y + y  # y used twice
        z.backward()
        assert np.allclose(x.grad, [6.0])

    def test_long_chain_stays_finite(self):
        x = nn.Tensor(np.full(4, 0.1), requires_grad=True)
        out = x
        for _ in range(30):
            out = (out * 1.01).tanh()
        out.sum().backward()
        assert np.all(np.isfinite(x.grad))

    def test_mean_over_axis_with_keepdims(self):
        t = nn.Tensor(np.arange(12, dtype=float).reshape(3, 4), requires_grad=True)
        out = t.mean(axis=0, keepdims=True)
        assert out.shape == (1, 4)
        out.sum().backward()
        assert np.allclose(t.grad, np.full((3, 4), 1 / 3))

    def test_clip_preserves_shape(self):
        t = nn.Tensor(np.linspace(-2, 2, 10))
        assert t.clip(-1, 1).shape == (10,)


class TestActorBias:
    def test_initial_action_bias_applied(self):
        actor = GaussianActor(
            state_dim=6, hidden_dims=(8,), initial_action_bias=(0.0, -1.0), rng=0
        )
        mean, _ = actor.act_batch(np.zeros((1, 6)))
        # With zero input and tanh activations, the output equals the bias.
        assert mean[0, 1] == pytest.approx(-1.0)

    def test_invalid_bias_shape_rejected(self):
        with pytest.raises(ValueError):
            GaussianActor(state_dim=4, initial_action_bias=(1.0, 2.0, 3.0), rng=0)

    def test_delay_bias_suppresses_initial_delay_actions(self):
        actor = GaussianActor(
            state_dim=6, hidden_dims=(8,), initial_action_bias=(0.0, -1.0), rng=0
        )
        delays = []
        rng = np.random.default_rng(0)
        for _ in range(100):
            actions, _ = actor.act_batch(np.zeros((1, 6)), noise=rng.normal(size=(1, 2)))
            delays.append(max(0.0, min(1.0, actions[0, 1])))
        # Most sampled delay actions clip to (near) zero.
        assert np.mean(delays) < 0.2

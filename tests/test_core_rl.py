"""Unit tests for actor-critic, rollout buffer / GAE and PPO updates."""

import importlib.util
import inspect

import numpy as np
import pytest

from repro import nn
from repro.core import (
    Amoeba,
    AmoebaConfig,
    Critic,
    GaussianActor,
    PPOUpdater,
    RolloutBuffer,
    compute_gae,
)
from repro.core.actor_critic import _training_forward, build_mlp

from oracles.tensor_inference import reference_act_batch, reference_value_batch

BACKENDS = ("blocked", "reference")


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
    )


class TestActorCritic:
    def test_build_mlp_shapes(self):
        mlp = build_mlp(6, (8, 4), 2, rng=0)
        out = mlp(nn.Tensor(np.zeros((3, 6))))
        assert out.shape == (3, 2)

    def test_actor_forward_shapes(self):
        actor = GaussianActor(state_dim=6, action_dim=2, hidden_dims=(8,), rng=0)
        mean, _ = actor.act_batch(np.zeros((5, 6)))
        log_probs, entropy = actor.log_prob_and_entropy(nn.Tensor(np.zeros((5, 6))), mean)
        assert mean.shape == (5, 2)
        assert log_probs.shape == (5,) and entropy.shape == ()
        assert actor.log_std.shape == (2,)

    def test_actor_act_returns_action_and_logprob(self):
        actor = GaussianActor(state_dim=4, rng=0)
        actions, log_probs = actor.act_batch(np.zeros((1, 4)))
        assert actions.shape == (1, 2) and log_probs.shape == (1,)
        assert np.isfinite(log_probs[0])

    def test_deterministic_act_returns_mean(self):
        actor = GaussianActor(state_dim=4, rng=0)
        a1, _ = actor.act_batch(np.zeros((1, 4)))
        a2, _ = actor.act_batch(np.zeros((1, 4)))
        assert np.array_equal(a1, a2)
        # The mean the training node differentiates, bit for bit.
        assert np.array_equal(a1, _training_forward(actor.body, nn.Tensor(np.zeros((1, 4))))[2][-1])

    def test_sampled_act_is_mean_plus_scaled_noise(self):
        actor = GaussianActor(state_dim=4, rng=0)
        states = np.random.default_rng(1).normal(size=(3, 4))
        noise = np.random.default_rng(2).normal(size=(3, 2))
        mean, _ = actor.act_batch(states)
        actions, _ = actor.act_batch(states, noise=noise)
        assert not np.array_equal(actions, mean)
        assert np.array_equal(actions, mean + noise * np.exp(actor.log_std.data))
        with pytest.raises(ValueError, match="noise must have shape"):
            actor.act_batch(states, noise=noise[:2])

    def test_log_prob_and_entropy_differentiable(self):
        actor = GaussianActor(state_dim=4, rng=0)
        states = nn.Tensor(np.random.default_rng(0).normal(size=(6, 4)))
        actions = np.random.default_rng(1).normal(size=(6, 2))
        log_probs, entropy = actor.log_prob_and_entropy(states, actions)
        (log_probs.mean() + entropy).backward()
        assert all(p.grad is not None for p in actor.parameters())

    def test_critic_batch_shape(self):
        critic = Critic(state_dim=4, hidden_dims=(8,), rng=0)
        out = critic(nn.Tensor(np.zeros((7, 4))))
        assert out.shape == (7,)


@pytest.mark.parametrize("backend", BACKENDS)
class TestArrayForwardsMatchTensorOracle:
    """``act_batch`` / ``value_batch`` run on plain arrays; the ``Tensor``
    forwards they replaced (``tests/oracles/tensor_inference.py``) are the
    bitwise reference, on every registered backend."""

    @staticmethod
    def _actors():
        production, oracle = (
            GaussianActor(64, initial_action_bias=(0.4, -0.2), rng=5) for _ in range(2)
        )
        for actor in (production, oracle):
            actor.log_std.data = np.array([-0.5, 0.3])
        return production, oracle

    def test_act_batch_every_batch_size_and_draw(self, backend):
        production, oracle = self._actors()
        rng = np.random.default_rng(1)
        with nn.use_backend(backend):
            for n in range(1, 34):
                states = rng.normal(size=(n, 64))
                noise = rng.normal(size=(n, 2))
                for kwargs in ({"noise": noise}, {}):
                    got = production.act_batch(states, **kwargs)
                    want = reference_act_batch(oracle, states, **kwargs)
                    for got_part, want_part in zip(got, want):
                        assert_same_bits(got_part, want_part)

    def test_value_batch_every_batch_size(self, backend):
        critic = Critic(64, rng=6)
        rng = np.random.default_rng(2)
        with nn.use_backend(backend):
            for n in range(1, 34):
                states = rng.normal(size=(n, 64))
                assert_same_bits(critic.value_batch(states), reference_value_batch(critic, states))

    def test_float32_fortran_and_empty_states(self, backend):
        production, oracle = self._actors()
        critic = Critic(64, rng=6)
        states = np.random.default_rng(3).normal(size=(5, 64))
        with nn.use_backend(backend):
            for variant in (states.astype(np.float32), np.asfortranarray(states), states[:0]):
                for kwargs in ({}, {"noise": np.ones((len(variant), 2))}):
                    got = production.act_batch(variant, **kwargs)
                    want = reference_act_batch(oracle, variant, **kwargs)
                    for got_part, want_part in zip(got, want):
                        assert_same_bits(got_part, want_part)
                assert_same_bits(
                    critic.value_batch(variant), reference_value_batch(critic, variant)
                )

    def test_weights_are_read_at_call_time(self, backend):
        """Nothing is cached: a replaced ``param.data`` (``load_state_dict``,
        a broadcast checkpoint) and an in-place update (an optimizer step)
        both show in the very next forward."""
        production, oracle = self._actors()
        critic = Critic(64, rng=6)
        donor_actor, donor_critic = GaussianActor(64, rng=9), Critic(64, rng=10)
        states = np.random.default_rng(4).normal(size=(8, 64))
        with nn.use_backend(backend):
            before = production.act_batch(states)[0]
            for actor in (production, oracle):
                actor.load_state_dict(donor_actor.state_dict())
            critic.load_state_dict(donor_critic.state_dict())
            for module in (production, oracle, critic):
                for parameter in module.parameters():
                    parameter.data *= 1.25
            after = production.act_batch(states)
            assert not np.array_equal(before, after[0])
            for got_part, want_part in zip(
                after, reference_act_batch(oracle, states)
            ):
                assert_same_bits(got_part, want_part)
            assert_same_bits(critic.value_batch(states), reference_value_batch(critic, states))

    def test_returned_arrays_are_not_the_callers(self, backend):
        production, _ = self._actors()
        critic = Critic(64, rng=6)
        states = np.random.default_rng(5).normal(size=(4, 64))
        kept = states.copy()
        with nn.use_backend(backend):
            first = production.act_batch(states)[0]
            pinned = first.copy()
            first[:] = 7.0
            critic.value_batch(states)[:] = 7.0
            assert np.array_equal(states, kept)
            assert np.array_equal(production.act_batch(states)[0], pinned)

    def test_wrong_state_width_is_a_named_error(self, backend):
        """A mis-sized state used to reach the kernel: ``rc_gemm expects
        (m, k) @ (k, n) arrays`` under ``blocked``, an einsum subscript
        error under ``reference``."""
        actor, critic = GaussianActor(64, rng=0), Critic(64, rng=0)
        with nn.use_backend(backend):
            for call in (actor.act_batch, critic.value_batch):
                with pytest.raises(ValueError, match=r"states must be \(n, 64\), got \(3, 10\)"):
                    call(np.zeros((3, 10)))
                with pytest.raises(ValueError, match=r"states must be \(n, 64\), got \(64,\)"):
                    call(np.zeros(64))


class TestGAE:
    def test_single_step_advantage(self):
        rewards = np.array([[1.0]])
        values = np.array([[0.5]])
        dones = np.array([[True]])
        advantages, returns = compute_gae(rewards, values, dones, np.array([10.0]), gamma=0.9, gae_lambda=0.95)
        # Terminal step: advantage = r - V(s) (bootstrap removed by done flag).
        assert advantages[0, 0] == pytest.approx(0.5)
        assert returns[0, 0] == pytest.approx(1.0)

    def test_bootstrap_used_when_not_done(self):
        rewards = np.array([[1.0]])
        values = np.array([[0.5]])
        dones = np.array([[False]])
        advantages, _ = compute_gae(rewards, values, dones, np.array([2.0]), gamma=0.9, gae_lambda=0.95)
        assert advantages[0, 0] == pytest.approx(1.0 + 0.9 * 2.0 - 0.5)

    def test_discounting_over_two_steps(self):
        rewards = np.array([[0.0], [1.0]])
        values = np.array([[0.0], [0.0]])
        dones = np.array([[False], [True]])
        advantages, _ = compute_gae(rewards, values, dones, np.array([0.0]), gamma=0.5, gae_lambda=1.0)
        assert advantages[1, 0] == pytest.approx(1.0)
        assert advantages[0, 0] == pytest.approx(0.5)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compute_gae(np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((2, 1), dtype=bool), np.zeros(1), 0.9, 0.95)

    @pytest.mark.parametrize(
        "last_values", [np.zeros(1), np.zeros(3), np.zeros((2, 2)), np.zeros(0)], ids=str
    )
    def test_last_values_must_hold_n_elements(self, last_values):
        with pytest.raises(ValueError, match=r"last_values must hold N = 2 values"):
            compute_gae(np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 2), dtype=bool), last_values, 0.9, 0.95)

    def test_last_values_of_any_shape_with_n_elements(self):
        args = np.ones((3, 2)), np.zeros((3, 2)), np.zeros((3, 2), dtype=bool)
        flat = compute_gae(*args, np.array([1.0, 2.0]), 0.9, 0.95)
        column = compute_gae(*args, np.array([[1.0], [2.0]]), 0.9, 0.95)
        assert all(np.array_equal(a, b) for a, b in zip(flat, column))

    @pytest.mark.parametrize("gamma", [np.nan, np.inf, -np.inf, -1.0, 0.0, -0.0, 1.0 + 1e-12, 2.0])
    def test_gamma_outside_zero_one_is_refused(self, gamma):
        with pytest.raises(ValueError, match=r"gamma must be within \(0, 1\]"):
            compute_gae(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1), dtype=bool), np.zeros(1), gamma, 0.95)

    @pytest.mark.parametrize("gae_lambda", [np.nan, np.inf, -np.inf, -1e-12, 1.0 + 1e-12, 2.0])
    def test_gae_lambda_outside_zero_one_is_refused(self, gae_lambda):
        with pytest.raises(ValueError, match=r"gae_lambda must be within \[0, 1\]"):
            compute_gae(np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1), dtype=bool), np.zeros(1), 0.9, gae_lambda)

    @pytest.mark.parametrize("gamma,gae_lambda", [(1.0, 0.0), (1.0, 1.0), (1e-300, 0.5)])
    def test_closed_bounds_are_accepted(self, gamma, gae_lambda):
        rewards = np.ones((2, 1))
        advantages, _ = compute_gae(rewards, np.zeros((2, 1)), np.zeros((2, 1), dtype=bool), np.zeros(1), gamma, gae_lambda)
        assert np.all(np.isfinite(advantages))

    @pytest.mark.parametrize(
        "last_values,gamma,gae_lambda",
        [(np.zeros(3), 0.9, 0.95), (np.zeros(2), np.nan, 0.95), (np.zeros(2), 0.9, 2.0)],
        ids=["last_values", "gamma", "gae_lambda"],
    )
    def test_finalize_refuses_and_keeps_the_buffer(self, last_values, gamma, gae_lambda):
        buffer = RolloutBuffer(3, 2, 1, 2)
        shape = (3, 2)
        buffer.load(np.zeros(shape + (1,)), np.zeros(shape + (2,)), *([np.ones(shape)] * 3), np.zeros(shape, dtype=bool))
        with pytest.raises(ValueError, match="last_values|gamma|gae_lambda"):
            buffer.finalize(last_values, gamma, gae_lambda)
        with pytest.raises(RuntimeError, match="finalize"):
            next(buffer.minibatches(1, rng=0))
        buffer.finalize(np.zeros(2), 0.9, 0.95)
        advantages = buffer.advantages.copy()
        with pytest.raises(ValueError):
            buffer.finalize(last_values, gamma, gae_lambda)
        assert np.array_equal(buffer.advantages, advantages)

    def test_multi_env_independence(self):
        rewards = np.array([[1.0, 0.0]])
        values = np.zeros((1, 2))
        dones = np.array([[True, True]])
        advantages, _ = compute_gae(rewards, values, dones, np.zeros(2), 0.9, 0.95)
        assert advantages[0, 0] != advantages[0, 1]


class TestRolloutBuffer:
    def make_full_buffer(self, length=4, n_envs=2, state_dim=3):
        buffer = RolloutBuffer(length, n_envs, state_dim, 2)
        rng = np.random.default_rng(0)
        shape = (length, n_envs)
        buffer.load(
            states=rng.normal(size=shape + (state_dim,)),
            actions=rng.normal(size=shape + (2,)),
            log_probs=rng.normal(size=shape),
            rewards=rng.normal(size=shape),
            values=rng.normal(size=shape),
            dones=rng.random(shape) < 0.3,
        )
        buffer.finalize(np.zeros(n_envs), gamma=0.99, gae_lambda=0.95)
        return buffer

    def test_finalize_requires_full(self):
        buffer = RolloutBuffer(3, 1, 2, 2)
        with pytest.raises(RuntimeError, match="nothing was loaded"):
            buffer.finalize(np.zeros(1), 0.99, 0.95)

    def test_minibatches_cover_all_samples(self):
        buffer = self.make_full_buffer()
        total = sum(len(batch.states) for batch in buffer.minibatches(2, rng=0))
        assert total == 4 * 2

    def test_minibatches_partition_into_exactly_n_near_equal_batches(self):
        # 5 ticks x 2 envs = 10 samples over 3 minibatches: near-equal
        # (4, 3, 3), never a runt tail like (3, 3, 3, 1).
        buffer = self.make_full_buffer(length=5)
        sizes = [len(batch.states) for batch in buffer.minibatches(3, rng=0)]
        assert len(sizes) == 3
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_minibatches_never_yield_empty_batches(self):
        # 2 samples over 4 requested minibatches: one sample per batch.
        buffer = self.make_full_buffer(length=1)
        sizes = [len(batch.states) for batch in buffer.minibatches(4, rng=0)]
        assert sizes == [1, 1]

    def test_minibatches_are_disjoint_and_exhaustive(self):
        buffer = self.make_full_buffer(length=5)
        batches = list(buffer.minibatches(3, rng=1))
        seen = np.concatenate([batch.returns for batch in batches])
        assert seen.shape == (10,)
        assert np.allclose(np.sort(seen), np.sort(buffer.returns.reshape(-1)))

    def test_minibatches_reject_nonpositive_count(self):
        buffer = self.make_full_buffer()
        with pytest.raises(ValueError):
            list(buffer.minibatches(0, rng=0))

    def test_minibatch_advantage_normalisation(self):
        buffer = self.make_full_buffer()
        advantages = np.concatenate([b.advantages for b in buffer.minibatches(1, rng=0)])
        assert advantages.mean() == pytest.approx(0.0, abs=1e-6)
        assert advantages.std() == pytest.approx(1.0, abs=1e-2)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            RolloutBuffer(0, 1, 2, 2)

    def test_load_refuses_every_broadcastable_wrong_shape(self):
        """``load`` checks each array's exact shape: a ``(N, D)`` states
        slab, an ``(A,)`` action or an ``(N,)`` row would otherwise be
        broadcast over all ``T`` ticks without a word."""
        length, n_envs, state_dim = 3, 2, 4
        buffer = RolloutBuffer(length, n_envs, state_dim, 2)
        shape = (length, n_envs)
        good = dict(
            states=np.ones(shape + (state_dim,)),
            actions=np.ones(shape + (2,)),
            log_probs=np.ones(shape),
            rewards=np.ones(shape),
            values=np.ones(shape),
            dones=np.ones(shape, dtype=bool),
        )
        wrong = dict(
            states=np.zeros((n_envs, state_dim)),
            actions=np.zeros(2),
            log_probs=np.zeros(n_envs),
            rewards=np.zeros(n_envs),
            values=np.zeros(n_envs),
            dones=np.zeros(n_envs, dtype=bool),
        )
        for name, array in wrong.items():
            with pytest.raises(ValueError, match=f"^{name} must have shape"):
                buffer.load(**dict(good, **{name: array}))
            # Refused before anything was written.
            assert not buffer.states.any() and not buffer.dones.any()
            with pytest.raises(RuntimeError, match="nothing was loaded"):
                buffer.finalize(np.zeros(n_envs), 0.99, 0.95)
        buffer.load(**good)
        for name, array in good.items():
            assert np.array_equal(getattr(buffer, name), array)
        buffer.finalize(np.zeros(n_envs), 0.99, 0.95)


class TestPPOUpdater:
    def test_update_returns_finite_stats_and_changes_actor(self):
        config = AmoebaConfig(
            n_envs=2, rollout_length=8, actor_hidden=(8,), critic_hidden=(8,), encoder_hidden=4
        )
        actor = GaussianActor(state_dim=config.state_dim, hidden_dims=config.actor_hidden, rng=0)
        critic = Critic(config.state_dim, hidden_dims=config.critic_hidden, rng=1)
        updater = PPOUpdater(actor, critic, config, rng=2)

        buffer = RolloutBuffer(config.rollout_length, config.n_envs, config.state_dim, 2)
        rng = np.random.default_rng(3)
        shape = (config.rollout_length, config.n_envs)
        states = rng.normal(size=shape + (config.state_dim,))
        actions, log_probs = actor.act_batch(
            states.reshape(-1, config.state_dim), noise=rng.normal(size=(states[..., 0].size, 2))
        )
        buffer.load(
            states=states,
            actions=actions.reshape(shape + (2,)),
            log_probs=log_probs.reshape(shape),
            rewards=rng.normal(size=shape),
            values=rng.normal(size=shape),
            dones=rng.random(shape) < 0.2,
        )
        buffer.finalize(np.zeros(config.n_envs), config.gamma, config.gae_lambda)

        weights_before = [p.data.copy() for p in actor.parameters()]
        stats = updater.update(buffer)
        assert np.isfinite(stats.policy_loss)
        assert np.isfinite(stats.value_loss)
        assert np.isfinite(stats.entropy)
        assert 0.0 <= stats.clip_fraction <= 1.0
        changed = any(
            not np.allclose(before, after.data)
            for before, after in zip(weights_before, actor.parameters())
        )
        assert changed


class TestOneTrainingPath:
    """The training tier has one body per level; its reference twins live in
    ``tests/oracles/``.  A flag that selects a second body must not return."""

    @pytest.mark.parametrize(
        "target,removed",
        [
            (Amoeba.train, {"vectorized"}),
            (nn.Adam, {"preallocate"}),
            (PPOUpdater, {"preallocate"}),
            (RolloutBuffer.minibatches, {"scratch", "normalise_advantages"}),
        ],
    )
    def test_path_selecting_parameters_stay_removed(self, target, removed):
        assert not removed & set(inspect.signature(target).parameters)

    def test_minibatches_takes_only_the_partition_and_the_rng(self):
        parameters = list(inspect.signature(RolloutBuffer.minibatches).parameters)
        assert parameters == ["self", "n_minibatches", "rng"]

    def test_composed_recurrent_reference_is_not_shipped(self):
        assert importlib.util.find_spec("repro.nn._composed") is None

"""The PPO update's fat autograd nodes and the flat Adam step.

The contract under test: ``GaussianActor.log_prob_and_entropy`` folded into
``F.ppo_policy_loss``, the critic's values node, ``F.mse_loss`` and
``Adam.step`` are **bit-identical** (``view(uint64)``) — values, every
gradient, whole parameter trajectories, a whole ``Amoeba.train`` — to the
composed ``Tensor``-op bodies and the per-parameter step they replaced, kept
verbatim in ``tests/oracles/composed_ppo.py``.
"""

import re

import numpy as np
import pytest

from oracles import composed_ppo as oracle
from repro import nn
from repro.core import Amoeba, Critic, GaussianActor
from repro.core.ppo import PPOUpdater
from repro.core.rollout import RolloutBuffer
from repro.nn import functional as F
from repro.nn import state_dict_to_bytes
from repro.nn.tensor import _topological_order

CLIP_EPSILON = 0.2
ENTROPY_COEF = 0.01


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
    )


def make_batch(rng, n, state_dim=64):
    return {
        "states": rng.normal(size=(n, state_dim)),
        "actions": rng.normal(size=(n, 2)),
        "old_log_probs": rng.normal(size=n) * 0.1 - 2.0,
        "advantages": rng.normal(size=n),
        "returns": rng.normal(size=n),
    }


def make_networks(seed, hidden, state_dim=64):
    actor = GaussianActor(state_dim, hidden_dims=hidden, rng=np.random.default_rng(seed))
    critic = Critic(state_dim, hidden_dims=hidden, rng=np.random.default_rng(seed + 1))
    actor.log_std.data = np.random.default_rng(seed + 2).normal(size=2) * 0.3
    return actor, critic


def weights_bytes(actor, critic):
    critic_state = {"critic." + name: value for name, value in critic.state_dict().items()}
    return state_dict_to_bytes({**actor.state_dict(), **critic_state})


def production_step(actor, critic, states, batch):
    log_probs, entropy = actor.log_prob_and_entropy(states, batch["actions"])
    policy_loss, ratio = F.ppo_policy_loss(
        log_probs, entropy, batch["old_log_probs"], batch["advantages"], CLIP_EPSILON, ENTROPY_COEF
    )
    policy_loss.backward()
    value_loss = F.mse_loss(critic(states), batch["returns"])
    value_loss.backward()
    return policy_loss, value_loss, log_probs, entropy, ratio


def composed_step(actor, critic, states, batch):
    log_probs, entropy = oracle.composed_log_prob_and_entropy(actor, states, batch["actions"])
    policy_loss, ratio = oracle.composed_ppo_policy_loss(
        log_probs, entropy, batch["old_log_probs"], batch["advantages"], CLIP_EPSILON, ENTROPY_COEF
    )
    oracle.recursive_backward(policy_loss)
    values = oracle.composed_critic_forward(critic, states)
    value_loss = oracle.composed_mse_loss(values, nn.Tensor(batch["returns"]))
    oracle.recursive_backward(value_loss)
    return policy_loss, value_loss, log_probs, entropy, ratio


class TestNodesMatchComposedOracle:
    @pytest.mark.parametrize("input_grad", [False, True], ids=["data-input", "differentiated-input"])
    @pytest.mark.parametrize("hidden", [(), (64, 32), (256, 64, 32)], ids=str)
    @pytest.mark.parametrize("n", [1, 2, 37, 128, 129])
    def test_losses_ratio_and_every_gradient(self, n, hidden, input_grad):
        batch = make_batch(np.random.default_rng(n), n)
        outcomes = []
        for step in (production_step, composed_step):
            actor, critic = make_networks(7, hidden)
            states = nn.Tensor(batch["states"], requires_grad=input_grad)
            results = step(actor, critic, states, batch)
            outcomes.append((results, actor, critic, states))
        (got, got_actor, got_critic, got_states), (want, want_actor, want_critic, want_states) = outcomes
        for got_value, want_value in zip(got[:4], want[:4]):
            assert_same_bits(got_value.data, want_value.data)
        assert_same_bits(got[4], want[4])
        for got_module, want_module in ((got_actor, want_actor), (got_critic, want_critic)):
            for (name, got_param), (_, want_param) in zip(
                got_module.named_parameters(), want_module.named_parameters()
            ):
                assert got_param.grad is not None, name
                assert_same_bits(got_param.grad, want_param.grad)
        if input_grad:
            assert_same_bits(got_states.grad, want_states.grad)
        else:
            assert got_states.grad is None and want_states.grad is None

    @pytest.mark.parametrize("frozen", ["log_std", "body"])
    def test_frozen_log_std_or_frozen_body(self, frozen):
        batch = make_batch(np.random.default_rng(4), 9)
        outcomes = []
        for step in (production_step, composed_step):
            actor, critic = make_networks(2, (8,))
            parameters = [actor.log_std] if frozen == "log_std" else actor.body.parameters()
            for parameter in parameters:
                parameter.requires_grad = False
            step(actor, critic, nn.Tensor(batch["states"]), batch)
            outcomes.append([p.grad for p in actor.parameters()])
        for got, want in zip(*outcomes):
            if want is None:
                assert got is None
            else:
                assert_same_bits(got, want)
        assert sum(grad is None for grad in outcomes[0]) == (1 if frozen == "log_std" else 4)

    def test_nothing_recorded_without_a_differentiable_input(self):
        with nn.no_grad():
            actor, critic = make_networks(0, (8,), state_dim=4)
            states = nn.Tensor(np.zeros((3, 4)))
            log_probs, entropy = actor.log_prob_and_entropy(states, np.zeros((3, 2)))
            values = critic(states)
        for tensor in (log_probs, entropy, values, F.mse_loss(np.ones(3), np.zeros(3))):
            assert not tensor.requires_grad and tensor._parents == ()

    def test_mse_loss_broadcast_prediction(self):
        target = np.random.default_rng(1).normal(size=(5, 3))
        grads = []
        for loss in (F.mse_loss, oracle.composed_mse_loss):
            prediction = nn.Tensor(np.array([[0.25, -1.5, 3.0]]), requires_grad=True)
            out = loss(prediction, nn.Tensor(target))
            (out * 3.0).backward()
            grads.append((out.data, prediction.grad))
        assert_same_bits(grads[0][0], grads[1][0])
        assert_same_bits(grads[0][1], grads[1][1])

    def test_surrogate_ties_take_the_unclipped_branch(self):
        # Ratio exactly on a clip bound (both products equal) and exactly 1.
        old = np.zeros(4)
        new = np.log(np.array([1.0 + CLIP_EPSILON, 1.0 - CLIP_EPSILON, 1.0, 3.0]))
        advantages = np.array([1.0, -1.0, 0.0, 2.0])
        grads = []
        for policy_loss in (F.ppo_policy_loss, oracle.composed_ppo_policy_loss):
            log_probs = nn.Tensor(new, requires_grad=True)
            entropy = nn.Tensor(np.array(1.25), requires_grad=True)
            loss, ratio = policy_loss(log_probs, entropy, old, advantages, CLIP_EPSILON, ENTROPY_COEF)
            loss.backward()
            grads.append((loss.data, ratio, log_probs.grad, entropy.grad))
        for got, want in zip(*grads):
            assert_same_bits(got, want)
        assert grads[0][2][3] == 0.0  # clipped away: no gradient

    def test_policy_loss_is_one_node_over_log_probs_and_entropy(self):
        log_probs = nn.Tensor(np.log([0.5, 1.1, 1.5]), requires_grad=True)
        entropy = nn.Tensor(np.array(0.75), requires_grad=True)
        loss, _ = F.ppo_policy_loss(
            log_probs, entropy, np.zeros(3), np.ones(3), CLIP_EPSILON, ENTROPY_COEF
        )
        assert loss._parents == (log_probs, entropy)
        # Only the entropy bonus differentiates: the log-probabilities are data.
        loss, _ = F.ppo_policy_loss(
            nn.Tensor(log_probs.data), entropy, np.zeros(3), np.ones(3), CLIP_EPSILON, ENTROPY_COEF
        )
        entropy.grad = None
        loss.backward()
        assert entropy.grad == -ENTROPY_COEF

    def test_actor_loss_is_one_node_over_the_actor_parameters(self):
        batch = make_batch(np.random.default_rng(5), 6)
        actor, _ = make_networks(0, (8, 4))
        states = nn.Tensor(batch["states"])
        log_probs, entropy = actor.log_prob_and_entropy(states, batch["actions"])
        loss, _ = F.ppo_policy_loss(
            log_probs, entropy, batch["old_log_probs"], batch["advantages"], CLIP_EPSILON, ENTROPY_COEF
        )
        parameters = actor.parameters()
        assert len(parameters) == 7
        assert {id(p) for p in loss._parents} == {id(p) for p in parameters} | {id(states)}
        walked = [node for node in _topological_order(loss) if node._backward is not None]
        assert walked == [loss]

    def test_critic_values_are_one_node(self):
        _, critic = make_networks(0, (8, 4))
        states = nn.Tensor(np.zeros((5, 64)))
        values = critic(states)
        assert values.shape == (5,)
        assert values._parents == (states,) + tuple(critic.parameters())

    @pytest.mark.parametrize("shape", [(4,), (3, 63), (3, 64, 1)], ids=str)
    def test_training_forwards_reject_misshaped_states(self, shape):
        actor, critic = make_networks(0, (8,))
        message = r"states must be \(n, 64\), got " + re.escape(str(shape))
        with pytest.raises(ValueError, match=message):
            actor.log_prob_and_entropy(nn.Tensor(np.zeros(shape)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match=message):
            critic(nn.Tensor(np.zeros(shape)))


def numerical_gradient(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat, grad_flat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        plus = fn()
        flat[i] = old - eps
        minus = fn()
        flat[i] = old
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestNodeGradients:
    """Finite differences: the closed-form backwards are gradients at all."""

    def test_critic_values(self):
        rng = np.random.default_rng(0)
        critic = Critic(4, hidden_dims=(6, 3), rng=rng)
        x = nn.Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        weights = rng.normal(size=5)

        def value():
            return float((critic(x).data * weights).sum())

        critic(x).backward(weights)
        for tensor in [x] + critic.parameters():
            assert np.allclose(tensor.grad, numerical_gradient(value, tensor.data), atol=1e-6)

    def test_actor_log_probs_and_entropy(self):
        rng = np.random.default_rng(1)
        actor = GaussianActor(4, hidden_dims=(5,), rng=rng)
        actor.log_std.data = rng.normal(size=2) * 0.3
        x = nn.Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        actions = rng.normal(size=(6, 2))
        weights = rng.normal(size=6)

        def objective():
            log_probs, entropy = actor.log_prob_and_entropy(x, actions)
            return (log_probs * nn.Tensor(weights)).sum() + entropy * 0.7

        objective().backward()
        for tensor in [x] + actor.parameters():
            numeric = numerical_gradient(lambda: objective().item(), tensor.data)
            assert np.allclose(tensor.grad, numeric, atol=1e-6)

    def test_mse_loss(self):
        rng = np.random.default_rng(2)
        prediction = nn.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        target = rng.normal(size=(4, 3))
        F.mse_loss(prediction, target).backward()
        numeric = numerical_gradient(lambda: F.mse_loss(prediction, target).item(), prediction.data)
        assert np.allclose(prediction.grad, numeric, atol=1e-6)

    def test_ppo_policy_loss(self):
        rng = np.random.default_rng(3)
        # Ratios well inside, well outside and on both sides of the range,
        # none within the finite-difference step of a kink.
        log_probs = nn.Tensor(np.log([0.5, 0.9, 1.1, 1.5, 0.7, 1.3]), requires_grad=True)
        entropy = nn.Tensor(np.array(0.4), requires_grad=True)
        old, advantages = np.zeros(6), rng.normal(size=6)

        def loss():
            return F.ppo_policy_loss(log_probs, entropy, old, advantages, CLIP_EPSILON, 0.3)[0]

        loss().backward()
        for tensor in (log_probs, entropy):
            numeric = numerical_gradient(lambda: loss().item(), tensor.data)
            assert np.allclose(tensor.grad, numeric, atol=1e-6)


class TestLogProbValidation:
    @pytest.mark.parametrize("shape", [(2,), (1, 2), (5, 1), (5, 2, 1)], ids=str)
    def test_misshaped_actions_do_not_broadcast(self, shape):
        actor, _ = make_networks(0, (8,), state_dim=4)
        message = r"actions must be \(n, 2\), got " + re.escape(str(shape))
        with pytest.raises(ValueError, match=message):
            actor.log_prob_and_entropy(nn.Tensor(np.zeros((5, 4))), np.zeros(shape))


def _trajectory(adam_step, steps, freeze_log_std=False):
    """``steps`` policy + value updates on fresh minibatches; returns every
    parameter after every update, as bytes."""
    rng = np.random.default_rng(11)
    actor, critic = make_networks(3, (16, 8), state_dim=12)
    actor_parameters = actor.parameters()
    optimizers = [
        nn.Adam(actor_parameters, lr=5e-3),
        nn.Adam(critic.parameters(), lr=5e-3),
    ]
    step_fn = production_step if adam_step is nn.Adam.step else composed_step
    snapshots = []
    for _ in range(steps):
        batch = make_batch(rng, 19, state_dim=12)
        for optimizer in optimizers:
            optimizer.zero_grad()
        step_fn(actor, critic, nn.Tensor(batch["states"]), batch)
        if freeze_log_std:
            actor.log_std.grad = None
        for module, optimizer in zip((actor, critic), optimizers):
            nn.clip_grad_norm(module.parameters(), 0.5)
            adam_step(optimizer)
        snapshots.append(weights_bytes(actor, critic))
    return snapshots, optimizers


class TestFlatAdamMatchesPerParameterStep:
    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"freeze_log_std": True}],
        ids=["all-gradients", "a-parameter-without-gradient"],
    )
    def test_200_update_trajectories(self, kwargs):
        got, got_optimizers = _trajectory(nn.Adam.step, 200, **kwargs)
        want, want_optimizers = _trajectory(oracle.per_parameter_adam_step, 200, **kwargs)
        assert got == want
        for got_optimizer, want_optimizer in zip(got_optimizers, want_optimizers):
            for name in ("_m", "_v"):
                moments = zip(getattr(got_optimizer, name), getattr(want_optimizer, name))
                for got_moment, want_moment in moments:
                    assert_same_bits(got_moment, want_moment)

    def test_parameter_without_gradient_keeps_its_moments(self):
        a, b = nn.Parameter(np.ones(3)), nn.Parameter(np.ones((2, 2)))
        optimizer = nn.Adam([a, b], lr=0.1)
        a.grad, b.grad = np.ones(3), np.ones((2, 2))
        optimizer.step()
        moments, a_data, b_data = optimizer._m[1].copy(), a.data.copy(), b.data.copy()
        a.grad, b.grad = np.ones(3), None
        optimizer.step()
        assert np.array_equal(optimizer._m[1], moments) and np.array_equal(b.data, b_data)
        assert not np.array_equal(a.data, a_data)

    def test_state_is_one_flat_buffer_with_parameter_shaped_views(self):
        a, b = nn.Parameter(np.ones((2, 3))), nn.Parameter(np.ones(4))
        optimizer = nn.Adam([a, b])
        assert optimizer._flat_state.shape == (3, 10) and optimizer._flat_scratch.shape == (2, 10)
        for views, flat in (
            (optimizer._m, optimizer._flat_state),
            (optimizer._v, optimizer._flat_state),
            (optimizer._scratch_a, optimizer._flat_scratch),
        ):
            assert [view.shape for view in views] == [(2, 3), (4,)]
            assert all(np.shares_memory(view, flat) for view in views)

    def test_step_rebinds_no_parameter_array(self):
        actor, _ = make_networks(0, (8,), state_dim=4)
        optimizer = nn.Adam(actor.parameters())
        arrays = [p.data for p in actor.parameters()]
        for p in actor.parameters():
            p.grad = np.ones_like(p.data)
        optimizer.step()
        assert all(p.data is array for p, array in zip(actor.parameters(), arrays))


def _filled_buffer(config, actor, rng, state_dim):
    shape = (config.rollout_length, config.n_envs)
    states = rng.normal(size=shape + (state_dim,))
    flat = states.reshape(-1, state_dim)
    actions, log_probs = actor.act_batch(flat, noise=rng.normal(size=(len(flat), 2)))
    buffer = RolloutBuffer(config.rollout_length, config.n_envs, state_dim, 2)
    buffer.load(
        states,
        actions.reshape(shape + (2,)),
        log_probs.reshape(shape),
        rng.normal(size=shape),
        rng.normal(size=shape),
        np.zeros(shape, dtype=bool),
    )
    buffer.finalize(np.zeros(config.n_envs), config.gamma, config.gae_lambda)
    return buffer


class TestPPOUpdater:
    @pytest.fixture
    def setup(self, fast_config):
        config = fast_config.with_overrides(n_minibatches=1, update_epochs=1)
        actor, critic = make_networks(5, (16,), state_dim=6)
        buffer = _filled_buffer(config, actor, np.random.default_rng(0), 6)
        return PPOUpdater(actor, critic, config, rng=0), buffer

    def test_one_minibatch_records_a_handful_of_nodes(self, setup, monkeypatch):
        updater, buffer = setup
        calls = []
        make = nn.Tensor._make

        def counting_make(*args):
            calls.append(1)
            return make(*args)

        monkeypatch.setattr(nn.Tensor, "_make", staticmethod(counting_make))
        walked = []
        walk = nn.tensor._topological_order

        def counting_walk(root):
            order = walk(root)
            walked.extend(node for node in order if node._backward is not None)
            return order

        monkeypatch.setattr(nn.tensor, "_topological_order", counting_walk)
        updater.update(buffer)
        # Three nodes in the graphs the two backwards walk (55 on the composed
        # graph, 7 before the actor's forward was folded into its loss): the
        # policy loss; the critic's values and the MSE.  Two more are made
        # and folded: the actor's log-probabilities and entropy.
        assert len(walked) == 3
        assert len(calls) == 5

    def test_update_reaches_the_networks_through_the_wrapped_entry_points(self, setup, monkeypatch):
        # benchmarks/perf/layers.py attributes the update by wrapping exactly
        # these; an update routed around them would read as a speed-up.
        updater, buffer = setup
        seen = {}

        def spy(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                seen[name] = seen.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        spy(GaussianActor, "log_prob_and_entropy")
        spy(Critic, "__call__")
        spy(nn.Tensor, "backward")
        spy(nn.Adam, "step")
        spy(nn, "clip_grad_norm")
        updater.update(buffer)
        assert seen == {
            "log_prob_and_entropy": 1,
            "__call__": 1,
            "backward": 2,
            "step": 2,
            "clip_grad_norm": 2,
        }

    def test_unfinalized_buffer_is_refused_before_the_generator_draws(self, setup):
        updater, _ = setup
        config = updater.config
        shape = (config.rollout_length, config.n_envs)
        buffer = RolloutBuffer(config.rollout_length, config.n_envs, 6, 2)
        arrays = (np.zeros(shape + (6,)), np.zeros(shape + (2,))) + (np.zeros(shape),) * 3
        buffer.load(*arrays, np.zeros(shape, dtype=bool))
        state = updater._rng.bit_generator.state
        before = weights_bytes(updater.actor, updater.critic)
        with pytest.raises(RuntimeError, match="finalize"):
            updater.update(buffer)
        assert updater._rng.bit_generator.state == state
        assert weights_bytes(updater.actor, updater.critic) == before

    def test_reloaded_buffer_needs_a_new_finalize(self, setup):
        updater, buffer = setup
        buffer.load(
            buffer.states, buffer.actions, buffer.log_probs, buffer.rewards, buffer.values, buffer.dones
        )
        with pytest.raises(RuntimeError, match="finalize"):
            next(buffer.minibatches(1, rng=0))
        buffer.finalize(np.zeros(buffer.n_envs), 0.99, 0.95)
        assert len(next(buffer.minibatches(1, rng=0)).states) == buffer.rollout_length * buffer.n_envs

    @pytest.mark.parametrize("loss_name", ["policy", "value"])
    def test_non_finite_gradient_raises_before_the_step(self, setup, loss_name):
        updater, buffer = setup
        if loss_name == "policy":
            buffer.advantages[0, 0] = np.nan
        else:
            buffer.returns[0, 0] = np.nan
        before = weights_bytes(updater.actor, updater.critic)
        module = updater.actor if loss_name == "policy" else updater.critic
        with pytest.raises(FloatingPointError, match=f"{loss_name} loss"):
            updater.update(buffer)
        assert all(np.isfinite(p.data).all() for p in module.parameters())
        if loss_name == "policy":
            assert weights_bytes(updater.actor, updater.critic) == before

    def test_update_matches_composed_update(self, setup, monkeypatch):
        def run():
            updater, buffer = setup
            actor, critic = make_networks(5, (16,), state_dim=6)
            config = updater.config.with_overrides(n_minibatches=3, update_epochs=2)
            stats = PPOUpdater(actor, critic, config, rng=0).update(buffer)
            return stats, weights_bytes(actor, critic)

        production = run()
        _patch_in_oracles(monkeypatch)
        assert run() == production


def _patch_in_oracles(monkeypatch):
    monkeypatch.setattr(GaussianActor, "log_prob_and_entropy", oracle.composed_log_prob_and_entropy)
    monkeypatch.setattr(Critic, "forward", oracle.composed_critic_forward)
    monkeypatch.setattr(F, "mse_loss", oracle.composed_mse_loss)
    monkeypatch.setattr(F, "ppo_policy_loss", oracle.composed_ppo_policy_loss)
    monkeypatch.setattr(nn.Adam, "step", oracle.per_parameter_adam_step)
    monkeypatch.setattr(nn.Tensor, "backward", oracle.recursive_backward)


class TestFatNodeTrainingSemantics:
    """A tiny golden run, as ``TestArrayTickTrainingSemantics``: the fat
    nodes, the flat Adam step and the iterative graph walk may not move a
    single training bit — encoder pre-training included, which runs through
    the same ``backward`` / ``Adam``."""

    @staticmethod
    def _run(trained_dt_censor, normalizer, fast_config, tor_splits):
        censor = trained_dt_censor
        censor.reset_query_count()
        agent = Amoeba(
            censor,
            normalizer,
            fast_config,
            rng=0,
            encoder_pretrain_kwargs={"n_flows": 30, "epochs": 1, "max_length": 15},
        )
        rewards = []
        update = agent.updater.update

        def recording_update(buffer):
            rewards.append(buffer.rewards.copy())
            return update(buffer)

        agent.updater.update = recording_update
        # Two PPO iterations, so the second collects with an updated policy.
        agent.train(
            tor_splits.attack_train.censored_flows[:20],
            total_timesteps=2 * fast_config.rollout_length * fast_config.n_envs,
        )
        return {
            "rewards": np.stack(rewards).tobytes(),
            "query_count": censor.query_count,
            "log": {key: list(series) for key, series in agent.training_log.history.items()},
            "policy": state_dict_to_bytes(agent._policy_state()),
        }

    def test_fat_nodes_and_composed_oracle_train_identically(
        self, trained_dt_censor, normalizer, fast_config, tor_splits, monkeypatch
    ):
        production = self._run(trained_dt_censor, normalizer, fast_config, tor_splits)
        _patch_in_oracles(monkeypatch)
        composed = self._run(trained_dt_censor, normalizer, fast_config, tor_splits)
        assert production["query_count"] == composed["query_count"] > 0
        assert len(production["log"]["policy_loss"]) == 2
        for key in ("rewards", "log", "policy"):
            assert production[key] == composed[key], key

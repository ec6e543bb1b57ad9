"""Batched rollout engine: VectorFlowEnv, incremental encoding, equivalence.

The contract under test: with identical seeds, the batched collection
path (one actor/critic forward per tick, incremental O(1) state encoding,
the censor settled once per rollout) is **bit-equivalent** to the seed
per-environment loop kept in ``tests/oracles/sequential_collection.py`` —
same rewards, same episode summaries, same censor ``query_count`` —
including under reward masking, where masked steps must not query the
censor.
"""

import numpy as np
import pytest

from oracles.sequential_collection import SequentialCollector
from repro import nn
from repro.core import (
    AdversarialFlowEnv,
    Amoeba,
    AmoebaConfig,
    BatchedEpisodeEncoder,
    Critic,
    GaussianActor,
    StateEncoder,
    VectorFlowEnv,
)
from repro.flows import Flow, FlowLabel


@pytest.fixture
def mask_config(fast_config):
    return fast_config.with_overrides(reward_mask_rate=0.4)


def make_envs(censor, normalizer, config, flows, seeds):
    return [
        AdversarialFlowEnv(censor, normalizer, config, flows, rng=seed) for seed in seeds
    ]


class TestRowConsistentForwards:
    def test_act_batch_matches_sequential_act(self):
        states = np.random.default_rng(0).normal(size=(6, 4))
        batched = GaussianActor(state_dim=4, rng=7)
        sequential = GaussianActor(state_dim=4, rng=7)
        actions, log_probs = batched.act_batch(states)
        for index, state in enumerate(states):
            action, log_prob = sequential.act(state)
            assert np.array_equal(actions[index], action)
            assert log_probs[index] == log_prob

    def test_act_batch_deterministic_matches(self):
        states = np.random.default_rng(1).normal(size=(5, 4))
        actor = GaussianActor(state_dim=4, rng=3)
        actions, _ = actor.act_batch(states, deterministic=True)
        for index, state in enumerate(states):
            action, _ = actor.act(state, deterministic=True)
            assert np.array_equal(actions[index], action)

    def test_value_batch_matches_sequential_value(self):
        states = np.random.default_rng(2).normal(size=(6, 4))
        critic = Critic(state_dim=4, hidden_dims=(8,), rng=0)
        values = critic.value_batch(states)
        assert values.shape == (6,)
        for index, state in enumerate(states):
            assert values[index] == critic.value(state)

    def test_batch_shape_validation(self):
        actor = GaussianActor(state_dim=4, rng=0)
        critic = Critic(state_dim=4, rng=0)
        with pytest.raises(ValueError):
            actor.act_batch(np.zeros(4))
        with pytest.raises(ValueError):
            critic.value_batch(np.zeros((2, 2, 2)))


class TestIncrementalEncoding:
    def test_step_pairs_matches_full_reencode(self):
        encoder = StateEncoder(hidden_size=6, num_layers=2, rng=0)
        pairs = np.random.default_rng(3).uniform(-1, 1, size=(9, 2))
        state = encoder.initial_state()
        assert np.array_equal(state.representation, encoder.encode_pairs(np.zeros((0, 2))))
        for length in range(1, len(pairs) + 1):
            state = encoder.step_pair(pairs[length - 1], state)
            assert np.array_equal(state.representation, encoder.encode_pairs(pairs[:length]))

    def test_batched_step_matches_single_steps(self):
        encoder = StateEncoder(hidden_size=5, num_layers=2, rng=1)
        rng = np.random.default_rng(4)
        histories = [rng.uniform(-1, 1, size=(7, 2)) for _ in range(4)]
        states = [encoder.initial_state() for _ in histories]
        for t in range(7):
            batch = np.stack([history[t] for history in histories])
            states = encoder.step_pairs(batch, states)
        for state, history in zip(states, histories):
            assert np.array_equal(state.representation, encoder.encode_pairs(history))

    def test_step_pairs_validation(self):
        encoder = StateEncoder(hidden_size=4, num_layers=1, rng=0)
        with pytest.raises(ValueError):
            encoder.step_pairs(np.zeros((2, 3)), [encoder.initial_state()] * 2)
        with pytest.raises(ValueError):
            encoder.step_pairs(np.zeros((2, 2)), [encoder.initial_state()])


class TestVectorFlowEnv:
    def test_requires_shared_censor(self, trained_dt_censor, normalizer, fast_config, tor_splits, simple_flow):
        from repro.censors import DecisionTreeCensor

        other = DecisionTreeCensor(rng=4).fit(tor_splits.clf_train.flows)
        envs = [
            AdversarialFlowEnv(trained_dt_censor, normalizer, fast_config, [simple_flow], rng=0),
            AdversarialFlowEnv(other, normalizer, fast_config, [simple_flow], rng=1),
        ]
        with pytest.raises(ValueError):
            VectorFlowEnv(envs)
        with pytest.raises(ValueError):
            VectorFlowEnv([])

    def test_step_matches_individual_envs(self, trained_dt_censor, normalizer, mask_config, tor_splits):
        flows = tor_splits.attack_train.censored_flows[:6]
        seeds = [11, 12, 13]
        reference = make_envs(trained_dt_censor, normalizer, mask_config, flows, seeds)
        vectorized = make_envs(trained_dt_censor, normalizer, mask_config, flows, seeds)
        vec_env = VectorFlowEnv(vectorized, auto_reset=True)

        for env in reference:
            env.reset()
        vec_env.reset()

        action_rng = np.random.default_rng(0)
        trained_dt_censor.reset_query_count()
        for _ in range(40):
            actions = np.column_stack(
                [action_rng.uniform(-1, 1, size=3), action_rng.uniform(0, 1, size=3)]
            )
            # Reference: the seed one-env-at-a-time path (auto-reset inline).
            expected = []
            for index, env in enumerate(reference):
                observation, reward, done, info = env.step(actions[index])
                if done:
                    observation = env.reset()
                expected.append((observation, reward, done, info))
            sequential_queries = trained_dt_censor.query_count

            trained_dt_censor.reset_query_count()
            observations, rewards, dones, infos = vec_env.step(actions)
            assert trained_dt_censor.query_count == sequential_queries
            trained_dt_censor.reset_query_count()

            for index in range(3):
                exp_obs, exp_reward, exp_done, exp_info = expected[index]
                assert np.array_equal(observations[index], exp_obs)
                assert rewards[index] == exp_reward
                assert dones[index] == exp_done
                assert infos[index]["masked"] == exp_info["masked"]
                assert infos[index]["action_kind"] == exp_info["action_kind"]
                if exp_done:
                    exp_summary = exp_info["episode"]
                    summary = infos[index]["episode"]
                    assert summary.episode_reward == exp_summary.episode_reward
                    assert summary.final_score == pytest.approx(exp_summary.final_score)
                    assert summary.success == exp_summary.success
                    assert np.array_equal(
                        summary.adversarial_flow.sizes, exp_summary.adversarial_flow.sizes
                    )

    def test_masked_steps_do_not_query_censor(self, trained_dt_censor, normalizer, fast_config, simple_flow):
        config = fast_config.with_overrides(reward_mask_rate=1.0)
        envs = make_envs(trained_dt_censor, normalizer, config, [simple_flow], [0, 1])
        vec_env = VectorFlowEnv(envs, auto_reset=False)
        vec_env.reset()
        trained_dt_censor.reset_query_count()
        finished = 0
        active = [0, 1]
        while active:
            actions = np.tile([1.0, 0.0], (len(active), 1))
            _, _, dones, _ = vec_env.step_subset(active, actions)
            finished += int(dones.sum())
            active = [index for row, index in enumerate(active) if not dones[row]]
        # Fully masked rewards: the only queries are the final per-episode
        # classification of each adversarial flow.
        assert trained_dt_censor.query_count == finished == 2

    def test_action_shape_validation(self, trained_dt_censor, normalizer, fast_config, simple_flow):
        envs = make_envs(trained_dt_censor, normalizer, fast_config, [simple_flow], [0])
        vec_env = VectorFlowEnv(envs)
        vec_env.reset()
        with pytest.raises(ValueError):
            vec_env.step(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            vec_env.step_subset([0], np.zeros((2, 2)))


class TestBatchedEpisodeEncoder:
    def test_validation(self):
        encoder = StateEncoder(hidden_size=4, num_layers=1, rng=0)
        with pytest.raises(ValueError):
            BatchedEpisodeEncoder(encoder, 0)
        tracker = BatchedEpisodeEncoder(encoder, 2)
        with pytest.raises(ValueError):
            tracker.step(np.zeros((1, 2)), np.zeros((2, 2)), np.zeros(2, dtype=bool))

    def test_states_shape_and_reset(self):
        encoder = StateEncoder(hidden_size=4, num_layers=2, rng=0)
        tracker = BatchedEpisodeEncoder(encoder, 3)
        states = tracker.reset_all(np.zeros((3, 2)))
        assert states.shape == (3, 8)
        assert tracker.states([1]).shape == (1, 8)


class TestEncoderSlab:
    """``step_pairs`` on a ``(num_layers, n, hidden)`` slab, and the tracker's
    two resident slabs, against one-environment-at-a-time ``step_pair``."""

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_slab_step_bit_identical_to_per_row_steps(self, n):
        encoder = StateEncoder(hidden_size=6, num_layers=2, rng=2)
        rng = np.random.default_rng(n)
        slab = np.zeros((2, n, 6))
        states = [encoder.initial_state() for _ in range(n)]
        for _ in range(5):
            pairs = rng.uniform(-1, 1, size=(n, 2))
            slab = encoder.step_pairs(pairs, slab)
            states = [encoder.step_pair(pairs[row], states[row]) for row in range(n)]
            assert slab.shape == (2, n, 6)
            for row in range(n):
                assert np.array_equal(
                    slab[:, row].view(np.uint64), states[row].hidden.view(np.uint64)
                )

    def test_slab_shape_is_validated(self):
        encoder = StateEncoder(hidden_size=4, num_layers=2, rng=0)
        for wrong in ((2, 2, 4), (3, 3, 4), (2, 3, 5), (3, 4)):
            with pytest.raises(ValueError, match="one state per row"):
                encoder.step_pairs(np.zeros((3, 2)), np.zeros(wrong))

    def _reference(self, encoder, n):
        """Per-environment EncoderState bookkeeping, as the tracker kept it
        before the slabs: the independent implementation to compare with."""
        return {
            "observation": [encoder.initial_state() for _ in range(n)],
            "action": [encoder.initial_state() for _ in range(n)],
        }

    def _reference_step(self, encoder, reference, actions, observations, dones, indices):
        for row, index in enumerate(indices):
            if dones[row]:
                reference["action"][index] = encoder.initial_state()
                reference["observation"][index] = encoder.initial_state()
            else:
                reference["action"][index] = encoder.step_pair(
                    actions[row], reference["action"][index]
                )
            reference["observation"][index] = encoder.step_pair(
                observations[row], reference["observation"][index]
            )
        return np.stack(
            [
                np.concatenate(
                    [
                        reference["observation"][i].representation,
                        reference["action"][i].representation,
                    ]
                )
                for i in indices
            ]
        )

    def test_tracker_matches_per_environment_reference(self):
        """Whole ticks, ``indices`` subsets, done-resets, and a
        ``snapshot()``/``restore()`` into a fresh tracker mid-episode."""
        n = 5
        encoder = StateEncoder(hidden_size=6, num_layers=2, rng=3)
        rng = np.random.default_rng(17)
        tracker = BatchedEpisodeEncoder(encoder, n)
        reference = self._reference(encoder, n)

        first = rng.uniform(-1, 1, size=(n, 2))
        got = tracker.reset_all(first)
        expected = self._reference_step(
            encoder, reference, np.zeros((n, 2)), first, np.ones(n, dtype=bool), range(n)
        )
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

        for tick in range(12):
            if tick % 3 == 2:
                indices = sorted(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
            else:
                indices = None
            rows = list(range(n)) if indices is None else indices
            actions = rng.uniform(-1, 1, size=(len(rows), 2))
            observations = rng.uniform(-1, 1, size=(len(rows), 2))
            dones = rng.uniform(size=len(rows)) < 0.3
            got = tracker.step(actions, observations, dones, indices=indices)
            expected = self._reference_step(
                encoder, reference, actions, observations, dones, rows
            )
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
            assert np.array_equal(tracker.states(), tracker.states(range(n)))
            if tick == 6:
                resumed = BatchedEpisodeEncoder(encoder, n)
                resumed.restore(tracker.snapshot())
                tracker = resumed

    def test_restore_rejects_wrong_shapes(self):
        encoder = StateEncoder(hidden_size=4, num_layers=2, rng=0)
        tracker = BatchedEpisodeEncoder(encoder, 3)
        good = tracker.snapshot()
        assert good["observation"].shape == good["action"].shape == (2, 3, 4)
        for stream in ("observation", "action"):
            for wrong in ((2, 2, 4), (2, 3, 5), (1, 3, 4), (3, 2, 4)):
                bad = dict(good, **{stream: np.zeros(wrong)})
                with pytest.raises(ValueError, match="num_layers, n_envs, hidden_size"):
                    tracker.restore(bad)
        # A rejected snapshot leaves the tracker as it was.
        assert np.array_equal(tracker.snapshot()["action"], good["action"])

    def test_states_own_their_storage(self):
        """Rows are copied out of the slab: a returned state neither pins
        the batch it was computed in nor aliases the tracker or a sibling."""
        encoder = StateEncoder(hidden_size=4, num_layers=2, rng=0)
        pairs = np.random.default_rng(0).uniform(-1, 1, size=(3, 2))
        states = encoder.step_pairs(pairs, [encoder.initial_state() for _ in range(3)])
        for state in states:
            assert state.hidden.base is None and state.hidden.flags.owndata
            assert state.hidden.flags.c_contiguous
        untouched = states[1].hidden.copy()
        states[0].hidden[:] = 7.0
        assert np.array_equal(states[1].hidden, untouched)

        tracker = BatchedEpisodeEncoder(encoder, 3)
        tracker.reset_all(pairs)
        before = tracker.states().copy()
        snapshot = tracker.snapshot()
        snapshot["observation"][:] = 9.0
        tracker.states()[:] = 5.0
        assert np.array_equal(tracker.states(), before)
        tracker.restore(snapshot)
        snapshot["observation"][:] = -9.0
        assert np.all(tracker.snapshot()["observation"] == 9.0)


class TestTrainEquivalence:
    @pytest.fixture(scope="class")
    def equivalence_setup(self, trained_dt_censor, normalizer, tor_splits):
        config = AmoebaConfig.for_tor(
            n_envs=3,
            rollout_length=12,
            max_episode_steps=20,
            encoder_hidden=8,
            actor_hidden=(16,),
            critic_hidden=(16,),
            reward_mask_rate=0.35,
        )
        flows = tor_splits.attack_train.censored_flows
        return trained_dt_censor, normalizer, config, flows

    @staticmethod
    def _agent(setup):
        censor, normalizer, config, _ = setup
        return Amoeba(
            censor,
            normalizer,
            config,
            rng=42,
            encoder_pretrain_kwargs=dict(n_flows=20, max_length=10, epochs=1),
        )

    def _run(self, setup):
        censor, _, _, flows = setup
        censor.reset_query_count()
        agent = self._agent(setup)
        records = []
        agent.train(flows, total_timesteps=72, callback=records.append)
        params = [p.data.copy() for p in agent.actor.parameters()]
        return records, censor.query_count, params, agent

    def test_batched_training_bit_equivalent_to_sequential(
        self, equivalence_setup, monkeypatch
    ):
        bat_records, bat_queries, bat_params, _ = self._run(equivalence_setup)
        # train() imports its collection kernel lazily, so the oracle swaps
        # in for it and the rest of the loop (GAE, PPO, logging) is shared.
        monkeypatch.setattr("repro.distrib.shard.ShardRunner", SequentialCollector)
        seq_records, seq_queries, seq_params, _ = self._run(equivalence_setup)

        assert seq_queries == bat_queries
        assert len(seq_records) == len(bat_records) > 0
        for seq_record, bat_record in zip(seq_records, bat_records):
            assert seq_record["mean_reward"] == bat_record["mean_reward"]
            assert seq_record["train_asr"] == bat_record["train_asr"]
            assert seq_record["policy_loss"] == bat_record["policy_loss"]
        for seq_param, bat_param in zip(seq_params, bat_params):
            assert np.array_equal(seq_param, bat_param)

    def test_batched_rollout_segments_bit_equivalent_to_sequential(self, equivalence_setup):
        """Segment level, across collects so in-flight episodes carry over."""
        from repro.distrib import ShardRunner
        from repro.utils.rng import collection_seed_tree

        censor, normalizer, config, flows = equivalence_setup
        censor.reset_query_count()
        collectors = []
        for kernel in (SequentialCollector, ShardRunner):
            agent = self._agent(equivalence_setup)
            collectors.append(
                kernel(
                    agent.actor,
                    agent.critic,
                    agent.state_encoder,
                    censor,
                    normalizer,
                    config,
                    flows,
                    collection_seed_tree(agent._rng, config.n_envs),
                )
            )
        sequential, batched = collectors
        episodes = 0
        for _ in range(3):
            seq = sequential.collect(config.rollout_length)
            bat = batched.collect(config.rollout_length)
            for name in (
                "states", "actions", "log_probs", "values", "rewards", "dones",
                "final_states", "final_values",
            ):  # fmt: skip
                assert np.array_equal(getattr(seq, name), getattr(bat, name)), name
            assert seq.query_delta == bat.query_delta > 0
            assert len(seq.summaries) == len(bat.summaries)
            for left, right in zip(seq.summaries, bat.summaries):
                assert left[:2] == right[:2]
                assert left[2].success == right[2].success
                assert left[2].final_score == right[2].final_score
            episodes += len(bat.summaries)
        assert episodes > 0

    def test_batched_evaluation_matches_one_by_one(self, equivalence_setup):
        censor, _, _, _ = equivalence_setup
        _, _, _, agent = self._run(equivalence_setup)
        flows = equivalence_setup[3][:5]

        censor.reset_query_count()
        one_by_one = agent.evaluate(flows, batch_size=1)
        queries_one = censor.query_count
        censor.reset_query_count()
        batched = agent.evaluate(flows, batch_size=4)
        queries_batched = censor.query_count

        assert queries_one == queries_batched == len(flows)
        assert one_by_one.attack_success_rate == batched.attack_success_rate
        assert one_by_one.data_overhead == batched.data_overhead
        for left, right in zip(one_by_one.results, batched.results):
            assert left.success == right.success
            assert left.final_score == pytest.approx(right.final_score)
            assert left.n_steps == right.n_steps
            assert np.array_equal(
                left.adversarial_flow.sizes, right.adversarial_flow.sizes
            )
            assert np.array_equal(
                left.adversarial_flow.delays, right.adversarial_flow.delays
            )

    def test_attack_many_invalid_batch_size(self, equivalence_setup):
        _, _, _, agent = self._run(equivalence_setup)
        with pytest.raises(ValueError):
            agent.attack_many(equivalence_setup[3][:2], batch_size=0)


class TestTwoPhaseStep:
    def test_propose_apply_equals_step(self, trained_dt_censor, normalizer, fast_config, simple_flow):
        left = AdversarialFlowEnv(trained_dt_censor, normalizer, fast_config, [simple_flow], rng=5)
        right = AdversarialFlowEnv(trained_dt_censor, normalizer, fast_config, [simple_flow], rng=5)
        left.reset()
        right.reset()
        done = False
        while not done:
            action = np.array([0.4, 0.1])
            observation, reward, done, info = left.step(action)

            pending = right.propose(action)
            flows = pending.flows_to_score
            scores = trained_dt_censor.predict_scores(flows) if flows else np.empty(0)
            observation2, reward2, done2, info2 = right.apply(pending, scores)

            assert np.array_equal(observation, observation2)
            assert reward == reward2
            assert done == done2
            assert info["action_kind"] == info2["action_kind"]

    def test_apply_rejects_wrong_score_count(self, trained_dt_censor, normalizer, fast_config, simple_flow):
        env = AdversarialFlowEnv(trained_dt_censor, normalizer, fast_config, [simple_flow], rng=0)
        env.reset()
        pending = env.propose(np.array([0.9, 0.0]))
        with pytest.raises(ValueError):
            env.apply(pending, np.zeros(len(pending.flows_to_score) + 1))

    def test_propose_on_finished_episode_raises(self, trained_dt_censor, normalizer, fast_config, simple_flow):
        env = AdversarialFlowEnv(trained_dt_censor, normalizer, fast_config, [simple_flow], rng=0)
        env.reset()
        done = False
        while not done:
            _, _, done, _ = env.step(np.array([1.0, 0.0]))
        with pytest.raises(RuntimeError):
            env.propose(np.array([1.0, 0.0]))

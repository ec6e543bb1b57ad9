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

from oracles.encoder_states import step_pair, step_state_list
from oracles.sequential_collection import SequentialCollector
from oracles.tensor_inference import (
    TwoSlabEpisodeEncoder,
    reference_act_batch,
    reference_step_pairs,
    reference_value_batch,
)
from repro import nn
from repro.censors.base import CensorClassifier
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
from repro.nn import state_dict_to_bytes

BACKENDS = ("blocked", "reference")


def assert_same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(
        np.ascontiguousarray(got).view(np.uint64), np.ascontiguousarray(want).view(np.uint64)
    )


@pytest.fixture
def mask_config(fast_config):
    return fast_config.with_overrides(reward_mask_rate=0.4)


def make_envs(censor, normalizer, config, flows, seeds):
    return [
        AdversarialFlowEnv(censor, normalizer, config, flows, rng=seed) for seed in seeds
    ]


class TestRowConsistentForwards:
    """A batch equals its rows forwarded one at a time (one-row batches)."""

    def test_act_batch_matches_sequential_act(self):
        states = np.random.default_rng(0).normal(size=(6, 4))
        noise = np.random.default_rng(1).normal(size=(6, 2))
        actor = GaussianActor(state_dim=4, rng=7)
        actions, log_probs = actor.act_batch(states, noise=noise)
        for index, state in enumerate(states):
            action, log_prob = actor.act_batch(state[None], noise=noise[index : index + 1])
            assert np.array_equal(actions[index], action[0])
            assert log_probs[index] == log_prob[0]

    def test_act_batch_deterministic_matches(self):
        states = np.random.default_rng(1).normal(size=(5, 4))
        actor = GaussianActor(state_dim=4, rng=3)
        actions, _ = actor.act_batch(states)
        for index, state in enumerate(states):
            action, _ = actor.act_batch(state[None])
            assert np.array_equal(actions[index], action[0])

    def test_value_batch_matches_sequential_value(self):
        states = np.random.default_rng(2).normal(size=(6, 4))
        critic = Critic(state_dim=4, hidden_dims=(8,), rng=0)
        values = critic.value_batch(states)
        assert values.shape == (6,)
        for index, state in enumerate(states):
            assert values[index] == critic.value_batch(state[None])[0]

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
            state = step_pair(encoder, pairs[length - 1], state)
            assert np.array_equal(state.representation, encoder.encode_pairs(pairs[:length]))

    def test_batched_step_matches_single_steps(self):
        encoder = StateEncoder(hidden_size=5, num_layers=2, rng=1)
        rng = np.random.default_rng(4)
        histories = [rng.uniform(-1, 1, size=(7, 2)) for _ in range(4)]
        states = [encoder.initial_state() for _ in histories]
        for t in range(7):
            batch = np.stack([history[t] for history in histories])
            states = step_state_list(encoder, batch, states)
        for state, history in zip(states, histories):
            assert np.array_equal(state.representation, encoder.encode_pairs(history))

    def test_step_pairs_validation(self):
        encoder = StateEncoder(hidden_size=4, num_layers=1, rng=0)
        with pytest.raises(ValueError):
            encoder.step_pairs(np.zeros((2, 3)), np.zeros((1, 2, 4)))
        with pytest.raises(ValueError):
            encoder.step_pairs(np.zeros((2, 2)), np.zeros((1, 1, 4)))


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
        vec_env = VectorFlowEnv(vectorized)

        for env in reference:
            env.reset()
        vec_env.reset()

        action_rng = np.random.default_rng(0)
        trained_dt_censor.reset_query_count()
        for _ in range(40):
            actions = np.column_stack(
                [action_rng.uniform(-1, 1, size=3), action_rng.uniform(0, 1, size=3)]
            )
            # Reference: one environment at a time, each step scored at once
            # (a one-slot step_subset), the reset inline.
            expected = []
            for index, env in enumerate(reference):
                [observation], [reward], [done], [info] = VectorFlowEnv([env]).step_subset(
                    [0], actions[index : index + 1]
                )
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
        vec_env = VectorFlowEnv(envs)
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

    def test_step_resets_finished_slots_and_step_subset_never_does(
        self, trained_dt_censor, normalizer, fast_config, simple_flow
    ):
        """The all-slots tick resets a finished environment onto its next
        flow; the indexed tick leaves it finished.  No argument changes
        either."""
        with pytest.raises(TypeError):
            VectorFlowEnv([], auto_reset=True)
        finish = np.array([[1.0, 0.0]])
        for stepper in ("step", "step_subset"):
            [env] = make_envs(trained_dt_censor, normalizer, fast_config, [simple_flow], [0])
            vec_env = VectorFlowEnv([env])
            first = vec_env.reset()[0]
            done = False
            while not done:
                if stepper == "step":
                    observations, _, dones, infos = vec_env.step(finish)
                else:
                    observations, _, dones, infos = vec_env.step_subset([0], finish)
                done = dones[0]
            assert infos[0]["episode"].n_steps == simple_flow.n_packets
            if stepper == "step":
                assert not env._done and env._steps == 0
                assert np.array_equal(observations[0], first)
                assert np.array_equal(infos[0]["terminal_observation"], np.zeros(2))
            else:
                assert env._done
                assert np.array_equal(observations[0], np.zeros(2))
                assert "terminal_observation" not in infos[0]
                with pytest.raises(RuntimeError, match="finished episode"):
                    vec_env.step_subset([0], finish)


class TestBatchedEpisodeEncoder:
    def test_validation(self):
        encoder = StateEncoder(hidden_size=4, num_layers=1, rng=0)
        with pytest.raises(ValueError):
            BatchedEpisodeEncoder(encoder, 0)
        tracker = BatchedEpisodeEncoder(encoder, 2)
        with pytest.raises(ValueError):
            tracker.step(np.zeros((3, 2)), np.zeros(2, dtype=bool))

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
            states = [step_pair(encoder, pairs[row], states[row]) for row in range(n)]
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
                reference["action"][index] = step_pair(
                    encoder, actions[row], reference["action"][index]
                )
            reference["observation"][index] = step_pair(
                encoder, observations[row], reference["observation"][index]
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
            got = tracker.step(np.concatenate([observations, actions]), dones, indices=indices)
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
        states = step_state_list(encoder, pairs, [encoder.initial_state() for _ in range(3)])
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


@pytest.mark.parametrize("backend", BACKENDS)
class TestArrayEncoderStepMatchesTensorOracle:
    """``step_pairs`` runs the GRU on plain arrays and the tracker steps both
    streams as one slab; ``tests/oracles/tensor_inference.py`` keeps the
    ``Tensor`` step and the two-slab tracker as the bitwise reference."""

    def test_step_pairs_every_batch_size(self, backend):
        encoder = StateEncoder(hidden_size=32, num_layers=2, rng=4)
        rng = np.random.default_rng(7)
        with nn.use_backend(backend):
            for n in range(1, 34):
                pairs = rng.uniform(-1, 1, size=(n, 2))
                slab = rng.normal(size=(2, n, 32))
                assert_same_bits(
                    encoder.step_pairs(pairs, slab), reference_step_pairs(encoder, pairs, slab)
                )

    @pytest.mark.parametrize("hidden,layers,n", [(16, 2, 1), (32, 2, 7), (8, 1, 33), (64, 2, 5)])
    def test_five_chained_steps(self, backend, hidden, layers, n):
        encoder = StateEncoder(hidden_size=hidden, num_layers=layers, rng=hidden + n)
        rng = np.random.default_rng(n)
        got = want = np.zeros((layers, n, hidden))
        with nn.use_backend(backend):
            for _ in range(5):
                pairs = rng.uniform(-1, 1, size=(n, 2))
                got = encoder.step_pairs(pairs, got)
                want = reference_step_pairs(encoder, pairs, want)
                assert_same_bits(got, want)

    def test_reference_runs_no_production_recurrent_step(self, backend, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle reached the production GRU step")

        encoder = StateEncoder(hidden_size=8, num_layers=2, rng=3)
        monkeypatch.setattr(nn.GRU, "step_arrays", forbidden)
        monkeypatch.setattr(nn.functional, "gru_cell_forward", forbidden)
        monkeypatch.setattr(nn.functional, "gru_sequence", forbidden)
        with nn.use_backend(backend):
            reference_step_pairs(encoder, np.zeros((2, 2)), np.zeros((2, 2, 8)))

    def test_float32_fortran_and_empty_slabs(self, backend):
        encoder = StateEncoder(hidden_size=6, num_layers=3, rng=5)
        rng = np.random.default_rng(8)
        pairs, slab = rng.uniform(-1, 1, size=(4, 2)), rng.normal(size=(3, 4, 6))
        variants = [
            (pairs.astype(np.float32), slab.astype(np.float32)),
            (np.asfortranarray(pairs), np.asfortranarray(slab)),
            (pairs[:0], slab[:, :0]),
        ]
        with nn.use_backend(backend):
            for some_pairs, some_slab in variants:
                got = encoder.step_pairs(some_pairs, some_slab)
                assert got.flags.c_contiguous
                assert_same_bits(got, reference_step_pairs(encoder, some_pairs, some_slab))
            states = [encoder.initial_state() for _ in range(4)]
            for got, want in zip(
                step_state_list(encoder, pairs, states),
                reference_step_pairs(encoder, pairs, states),
            ):
                assert_same_bits(got.hidden, want.hidden)

    def test_step_output_owns_its_memory(self, backend):
        encoder = StateEncoder(hidden_size=6, num_layers=2, rng=5)
        rng = np.random.default_rng(9)
        pairs, slab = rng.uniform(-1, 1, size=(3, 2)), rng.normal(size=(2, 3, 6))
        kept = slab.copy()
        with nn.use_backend(backend):
            stepped = encoder.step_pairs(pairs, slab)
            assert stepped.base is None and stepped.flags.owndata
            pinned = stepped.copy()
            stepped[:] = 7.0
            assert np.array_equal(slab, kept)
            assert np.array_equal(encoder.step_pairs(pairs, slab), pinned)

    def test_weights_are_read_at_call_time(self, backend):
        encoder = StateEncoder(hidden_size=6, num_layers=2, rng=5)
        donor = StateEncoder(hidden_size=6, num_layers=2, rng=6)
        rng = np.random.default_rng(10)
        pairs, slab = rng.uniform(-1, 1, size=(3, 2)), rng.normal(size=(2, 3, 6))
        with nn.use_backend(backend):
            before = encoder.step_pairs(pairs, slab)
            encoder.load_state_dict(donor.state_dict())
            for parameter in encoder.parameters():
                parameter.data *= 1.25
            after = encoder.step_pairs(pairs, slab)
            assert not np.array_equal(before, after)
            assert_same_bits(after, reference_step_pairs(encoder, pairs, slab))

    @staticmethod
    def _assert_trackers_agree(tracker, oracle):
        assert_same_bits(tracker.states(), oracle.states())
        got, want = tracker.snapshot(), oracle.snapshot()
        assert sorted(got) == sorted(want) == ["action", "observation"]
        for stream in want:
            assert_same_bits(got[stream], want[stream])

    def test_merged_tracker_matches_two_slab_oracle(self, backend):
        """60 ticks with random ``dones``, all-environment ticks and
        ``indices`` subsets, and a ``snapshot()`` -> fresh tracker ->
        ``restore()`` in the middle."""
        n = 6
        encoder = StateEncoder(hidden_size=8, num_layers=2, rng=3)
        rng = np.random.default_rng(21)
        with nn.use_backend(backend):
            tracker, oracle = BatchedEpisodeEncoder(encoder, n), TwoSlabEpisodeEncoder(encoder, n)
            first = rng.uniform(-1, 1, size=(n, 2))
            assert_same_bits(tracker.reset_all(first), oracle.reset_all(first))
            for tick in range(60):
                indices = None
                if tick % 4 == 3:
                    size = int(rng.integers(1, n + 1))
                    indices = sorted(rng.choice(n, size=size, replace=False).tolist())
                count = n if indices is None else len(indices)
                actions = rng.uniform(-1, 1, size=(count, 2))
                observations = rng.uniform(-1, 1, size=(count, 2))
                dones = rng.uniform(size=count) < 0.25
                assert_same_bits(
                    tracker.step(np.concatenate([observations, actions]), dones, indices=indices),
                    oracle.step(np.concatenate([observations, actions]), dones, indices=indices),
                )
                self._assert_trackers_agree(tracker, oracle)
                if tick == 30:
                    resumed = BatchedEpisodeEncoder(encoder, n)
                    resumed.restore(oracle.snapshot())
                    oracle.restore(tracker.snapshot())
                    tracker = resumed

    def test_shrinking_subsets_match_two_slab_oracle(self, backend):
        """The ``_attack_batch`` pattern: finished environments drop out and
        the survivors keep stepping as an ever smaller ``indices`` subset."""
        n = 7
        encoder = StateEncoder(hidden_size=8, num_layers=2, rng=3)
        rng = np.random.default_rng(22)
        with nn.use_backend(backend):
            tracker, oracle = BatchedEpisodeEncoder(encoder, n), TwoSlabEpisodeEncoder(encoder, n)
            first = rng.uniform(-1, 1, size=(n, 2))
            tracker.reset_all(first), oracle.reset_all(first)
            active = list(range(n))
            while active:
                assert_same_bits(tracker.states(active), oracle.states(active))
                actions = rng.uniform(-1, 1, size=(len(active), 2))
                observations = rng.uniform(-1, 1, size=(len(active), 2))
                dones = rng.uniform(size=len(active)) < 0.2
                assert_same_bits(
                    tracker.step(np.concatenate([observations, actions]), dones, indices=active),
                    oracle.step(np.concatenate([observations, actions]), dones, indices=active),
                )
                self._assert_trackers_agree(tracker, oracle)
                active = [index for row, index in enumerate(active) if not dones[row]]

    def test_tracker_outputs_cannot_reach_the_tracker(self, backend):
        encoder = StateEncoder(hidden_size=4, num_layers=2, rng=0)
        rng = np.random.default_rng(23)
        with nn.use_backend(backend):
            tracker = BatchedEpisodeEncoder(encoder, 3)
            tracker.reset_all(rng.uniform(-1, 1, size=(3, 2)))
            stepped = tracker.step(rng.uniform(-1, 1, size=(6, 2)), np.zeros(3, bool))
            pinned = stepped.copy()
            stepped[:] = 5.0
            tracker.states()[:] = 5.0
            tracker.states([0, 2])[:] = 5.0
            assert np.array_equal(tracker.states(), pinned)

    def test_failed_step_leaves_the_tracker_unchanged(self, backend):
        encoder = StateEncoder(hidden_size=4, num_layers=2, rng=0)
        with nn.use_backend(backend):
            tracker = BatchedEpisodeEncoder(encoder, 3)
            before = tracker.reset_all(np.full((3, 2), 0.5))
            with pytest.raises(ValueError):
                tracker.step(np.zeros((6, 3)), np.ones(3, dtype=bool))
            with pytest.raises(IndexError):
                tracker.step(np.zeros((2, 2)), np.ones(1, dtype=bool), indices=[3])
            assert np.array_equal(tracker.states(), before)


class TestDecisionTickEntryPoints:
    """Collection, evaluation and serving reach the policy only through
    ``step_pairs`` / ``act_batch`` / ``value_batch`` — the three methods the
    benchmark attributes the tick to — and never through the ``Tensor``
    forwards those used to wrap."""

    @pytest.fixture
    def spied(self, monkeypatch):
        calls = {"step_pairs": 0, "act_batch": 0, "value_batch": 0}

        def spy(owner, name):
            production = getattr(owner, name)

            def counted(self, *args, **kwargs):
                calls[name] += 1
                return production(self, *args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        spy(StateEncoder, "step_pairs")
        spy(GaussianActor, "act_batch")
        spy(Critic, "value_batch")
        return calls

    @pytest.fixture
    def no_tensor_forwards(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} ran a Tensor forward on the decision tick")

        for owner in (GaussianActor, Critic, StateEncoder):
            monkeypatch.setattr(owner, "forward", refuse)
        monkeypatch.setattr(nn.GRU, "forward", refuse)
        monkeypatch.setattr(nn.Sequential, "forward", refuse)

    @pytest.fixture
    def agent(self, trained_dt_censor, normalizer, fast_config):
        return Amoeba(
            trained_dt_censor,
            normalizer,
            fast_config,
            rng=0,
            encoder_pretrain_kwargs={"n_flows": 20, "epochs": 1, "max_length": 10},
        )

    def test_tracker_step_is_one_encoder_step(self, spied):
        encoder = StateEncoder(hidden_size=4, num_layers=2, rng=0)
        tracker = BatchedEpisodeEncoder(encoder, 3)
        tracker.reset_all(np.zeros((3, 2)))
        assert spied["step_pairs"] == 1
        tracker.step(np.zeros((6, 2)), np.array([False, True, False]))
        tracker.step(np.zeros((4, 2)), np.zeros(2, dtype=bool), indices=[0, 2])
        assert spied["step_pairs"] == 3

    def test_shard_runner_collect(self, agent, tor_splits, spied, no_tensor_forwards):
        from repro.distrib import ShardRunner
        from repro.utils.rng import collection_seed_tree

        config = agent.config
        runner = ShardRunner(
            agent.actor,
            agent.critic,
            agent.state_encoder,
            agent.censor,
            agent.normalizer,
            config,
            tor_splits.attack_train.censored_flows[:10],
            collection_seed_tree(np.random.default_rng(0), config.n_envs),
        )
        runner.collect(config.rollout_length)
        # One act per tick, one value call over the whole rollout, one
        # bootstrap value, and one encoder step per tick after the reset's.
        assert spied == {
            "step_pairs": config.rollout_length + 1,
            "act_batch": config.rollout_length,
            "value_batch": 2,
        }

    def test_attack_batch(self, agent, tor_splits, spied, no_tensor_forwards):
        """One call is one lockstep batch: nine flows (more than ``n_envs``
        and more than eight) share one actor forward per tick until the
        longest episode ends."""
        flows = tor_splits.attack_train.censored_flows[:9]
        assert len(flows) == 9 > agent.config.n_envs
        results = agent.attack_many(flows)
        ticks = max(result.n_steps for result in results)
        assert spied == {"step_pairs": ticks + 1, "act_batch": ticks, "value_batch": 0}

    def test_policy_server_flush(self, agent, simple_flow, spied, no_tensor_forwards):
        from repro.serve import PolicyServer, ServeConfig

        config = ServeConfig.from_amoeba(
            agent.config, agent.normalizer.size_scale, max_batch=2, flush_timeout_ms=0.0
        )
        server = PolicyServer(agent.actor, agent.state_encoder, config=config)
        session = server.open_session("s")
        server.submit(session, simple_flow.sizes[0], simple_flow.delays[0])
        decisions = server.flush()
        assert len(decisions) == 1
        # Fold the observation, act, fold the emitted action.
        assert spied == {"step_pairs": 2, "act_batch": 1, "value_batch": 0}


class TestArrayTickTrainingSemantics:
    """A tiny golden run, as ``TestTreeCensorTrainingSemantics``: the array
    tick may not move a single training or evaluation bit."""

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
        results = agent.attack_many(tor_splits.test.censored_flows[:5])
        return {
            "rewards": np.stack(rewards).tobytes(),
            "query_count": censor.query_count,
            "log": {key: list(series) for key, series in agent.training_log.history.items()},
            "policy": state_dict_to_bytes(agent._policy_state()),
            "scores": [result.final_score for result in results],
            "flows": [
                result.adversarial_flow.sizes.tobytes() + result.adversarial_flow.delays.tobytes()
                for result in results
            ],
        }

    def test_array_tick_and_tensor_oracle_train_identically(
        self, trained_dt_censor, normalizer, fast_config, tor_splits, monkeypatch
    ):
        production = self._run(trained_dt_censor, normalizer, fast_config, tor_splits)
        monkeypatch.setattr(StateEncoder, "step_pairs", reference_step_pairs)
        monkeypatch.setattr(GaussianActor, "act_batch", reference_act_batch)
        monkeypatch.setattr(Critic, "value_batch", reference_value_batch)
        for module in ("repro.distrib.shard", "repro.core.agent"):
            monkeypatch.setattr(f"{module}.BatchedEpisodeEncoder", TwoSlabEpisodeEncoder)
        oracle = self._run(trained_dt_censor, normalizer, fast_config, tor_splits)
        assert production["query_count"] == oracle["query_count"] > 0
        for key in ("rewards", "log", "policy", "scores", "flows"):
            assert production[key] == oracle[key], key


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
                "final_values",
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
        """Det mode: one lockstep batch attacks each flow as attacking it
        alone does, with the same queries; a DT censor scores
        batch-invariantly, so the final scores agree bit for bit too."""
        censor, _, _, flows = equivalence_setup
        _, _, _, agent = self._run(equivalence_setup)
        flows = flows[:5]

        censor.reset_query_count()
        one_by_one = [agent.attack(flow) for flow in flows]
        queries_one = censor.query_count
        censor.reset_query_count()
        batched = agent.attack_many(flows)
        queries_batched = censor.query_count

        assert queries_one == queries_batched == len(flows)
        assert [result_key(r) for r in one_by_one] == [result_key(r) for r in batched]
        report = agent.evaluate(flows)
        assert [result_key(r) for r in report.results] == [result_key(r) for r in batched]

    def test_batched_evaluation_matches_one_by_one_with_a_neural_censor(
        self, equivalence_setup, representation, tor_splits
    ):
        """A DF censor's BLAS forward may move the final score's last bits
        with the batch shape; the adversarial flows may not move at all."""
        from repro.censors import DeepFingerprintingClassifier

        _, normalizer, config, flows = equivalence_setup
        censor = DeepFingerprintingClassifier(representation, epochs=1, rng=0).fit(
            tor_splits.clf_train.flows
        )
        agent = Amoeba(
            censor,
            normalizer,
            config,
            rng=42,
            encoder_pretrain_kwargs=dict(n_flows=20, max_length=10, epochs=1),
        )
        flows = flows[:5]
        one_by_one = [agent.attack(flow) for flow in flows]
        queries_one = censor.query_count
        censor.reset_query_count()
        batched = agent.attack_many(flows)
        assert censor.query_count == queries_one == len(flows)
        for left, right in zip(one_by_one, batched):
            assert result_key(left)[:2] == result_key(right)[:2]
            assert left.n_steps == right.n_steps
            assert left.success == right.success
            assert left.final_score == pytest.approx(right.final_score)

    def test_sampled_evaluation_is_batch_invariant(self, equivalence_setup):
        """Sampled mode: flow ``i``'s noise is child ``i`` of the call's one
        spawn from the eval stream, so its result is the same in the full
        call, in a call cut after it and in a call whose other flows are
        all replaced."""
        _, _, _, flows = equivalence_setup
        _, _, _, agent = self._run(equivalence_setup)
        own, others = list(flows[:6]), list(flows[6:11])
        index = 2
        start = agent._eval_rng.bit_generator.state

        def sampled(call_flows):
            agent._eval_rng.bit_generator.state = start
            result = agent.attack_many(call_flows, deterministic=False)[index]
            assert np.array_equal(result.original_flow.sizes, own[index].sizes)
            return result_key(result)

        full = sampled(own)
        assert sampled(own[: index + 1]) == full
        assert sampled(others[:index] + [own[index]] + others[index:]) == full
        # The noise reached the policy: sampling moved the flow off the mean.
        assert result_key(agent.attack(own[index]))[:2] != full[:2]

    def test_same_seed_agents_repeat_a_sampled_evaluation(self, equivalence_setup):
        flows = equivalence_setup[3][:4]
        first, second = (
            self._agent(equivalence_setup).evaluate(flows, deterministic=False)
            for _ in range(2)
        )
        assert [result_key(r) for r in first.results] == [result_key(r) for r in second.results]

    def test_deterministic_evaluation_draws_nothing(self, equivalence_setup):
        """Evaluation masks every step (rate 1), which fixes the outcome: a
        det ``attack_many`` leaves the eval stream untouched, so a sampled
        evaluation after it equals the same-seed sampled evaluation alone."""
        flows = equivalence_setup[3][:4]
        alone, after_det = self._agent(equivalence_setup), self._agent(equivalence_setup)
        start = after_det._eval_rng.bit_generator.state
        after_det.attack_many(flows)
        assert after_det._eval_rng.bit_generator.state == start
        first, second = (
            [result_key(r) for r in agent.evaluate(flows, deterministic=False).results]
            for agent in (alone, after_det)
        )
        assert first == second

    def test_attack_many_over_flows_of_different_lengths_equals_each_alone(
        self, equivalence_setup
    ):
        """Lanes leave the lockstep batch at different ticks.  Deterministic:
        each result is ``attack`` of its flow.  Sampled: flow ``i`` keeps
        its result when every other flow is a one-packet flow, which
        finishes on the first tick and leaves flow ``i`` stepping alone."""
        _, _, _, flows = equivalence_setup
        _, _, _, agent = self._run(equivalence_setup)
        lengths = (2, 5, 9, 14)
        mixed = [flow.prefix_views([length])[0].copy() for flow, length in zip(flows, lengths)]
        assert [flow.n_packets for flow in mixed] == list(lengths)

        batched = agent.attack_many(mixed)
        assert len({result.n_steps for result in batched}) > 1
        assert [result_key(r) for r in batched] == [result_key(agent.attack(f)) for f in mixed]

        stub = Flow(sizes=np.array([536.0]), delays=np.array([0.0]))
        start = agent._eval_rng.bit_generator.state
        sampled = agent.attack_many(mixed, deterministic=False)
        for index, flow in enumerate(mixed):
            agent._eval_rng.bit_generator.state = start
            alone = [stub] * index + [flow] + [stub] * (len(mixed) - index - 1)
            result = agent.attack_many(alone, deterministic=False)[index]
            assert result_key(result) == result_key(sampled[index])

    def test_attack_many_of_no_flows_is_empty(self, equivalence_setup):
        agent = self._agent(equivalence_setup)
        assert agent.attack_many([]) == []
        assert agent.attack_many([], deterministic=False) == []


def result_key(result):
    """What must agree bit for bit between two attacks of the same flow."""
    return (
        result.adversarial_flow.sizes.tobytes(),
        result.adversarial_flow.delays.tobytes(),
        result.final_score,
        result.n_steps,
        result.success,
        result.data_overhead,
        result.time_overhead,
    )


def test_bulk_normal_equals_per_tick_draws():
    """Pinned numpy assumption: ``Generator.normal(size=(T, d))`` is ``T``
    successive ``normal(size=d)`` draws, bit for bit, and leaves the bit
    generator in the same state.

    ``ShardRunner.collect`` draws each slot's exploration noise for the whole
    segment in one call; if a numpy release drew a block in another order
    (or buffered ahead), every collected rollout would part from the
    per-tick draws of ``tests/oracles/sequential_collection.py`` and the
    training digests would move.  Checked on numpy 2.4.6; CI's
    ``numpy-floor`` job runs it on 1.24.
    """
    for seed in (0, 2024, 2**63 - 1):
        for ticks, dim in ((1, 2), (2, 1), (7, 2), (64, 2), (33, 3), (0, 2)):
            bulk_rng = np.random.default_rng(np.random.SeedSequence(seed))
            tick_rng = np.random.default_rng(np.random.SeedSequence(seed))
            bulk = bulk_rng.normal(size=(ticks, dim))
            per_tick = np.array([tick_rng.normal(size=dim) for _ in range(ticks)]).reshape(ticks, dim)
            assert bulk.shape == (ticks, dim) and bulk.dtype == np.float64
            assert np.array_equal(bulk.view(np.uint64), per_tick.view(np.uint64))
            assert bulk_rng.bit_generator.state == tick_rng.bit_generator.state
            # ... and the streams carry on identically afterwards.
            assert bulk_rng.normal() == tick_rng.normal()


class TestIndexValidation:
    """``step_subset`` / ``propose(indices=...)`` and the tracker's
    ``step(indices=...)`` refuse a repeated or negative slot — before any
    environment advances, any query is spent or any tracker row moves."""

    @pytest.fixture
    def envs(self, trained_dt_censor, normalizer, fast_config, simple_flow):
        return make_envs(trained_dt_censor, normalizer, fast_config, [simple_flow], [0, 1, 2])

    @pytest.fixture
    def vec_env(self, envs):
        vec_env = VectorFlowEnv(envs)
        vec_env.reset()
        return vec_env

    @pytest.mark.parametrize(
        "indices,error",
        [([0, 0], ValueError), ([2, 1, 2], ValueError), ([-1], ValueError), ([0, -3], ValueError), ([0, 3], IndexError)],
    )
    def test_step_subset_refuses_before_any_step(self, vec_env, envs, trained_dt_censor, indices, error):
        trained_dt_censor.reset_query_count()
        before = [env.state_snapshot() for env in envs]
        actions = np.tile([0.9, 0.0], (len(indices), 1))
        with pytest.raises(error, match="environment ind"):
            vec_env.step_subset(indices, actions)
        with pytest.raises(error, match="environment ind"):
            vec_env.propose(actions, indices)
        assert trained_dt_censor.query_count == 0
        for env, snapshot in zip(envs, before):
            assert env._steps == snapshot["_steps"] == 0
            assert env._rng.bit_generator.state == snapshot["_rng"].bit_generator.state

    def test_distinct_subsets_still_step(self, vec_env, envs):
        observations, _, dones, infos = vec_env.step_subset(np.array([2, 0]), np.tile([0.9, 0.0], (2, 1)))
        assert observations.shape == (2, 2) and len(infos) == 2
        assert [env._steps for env in envs] == [1, 0, 1]

    @pytest.mark.parametrize("indices", [[0, 0], [1, 2, 1], [-1], [-2, 0]])
    def test_tracker_refuses_repeated_or_negative_rows(self, indices):
        encoder = StateEncoder(hidden_size=4, num_layers=2, rng=0)
        tracker = BatchedEpisodeEncoder(encoder, 3)
        tracker.reset_all(np.random.default_rng(0).uniform(-1, 1, size=(3, 2)))
        before = tracker.snapshot()
        count = len(indices)
        with pytest.raises(ValueError, match="environment indices"):
            tracker.step(np.ones((2 * count, 2)), np.zeros(count, bool), indices=indices)
        after = tracker.snapshot()
        for stream in before:
            assert np.array_equal(after[stream], before[stream])


class FlakyCensor(CensorClassifier):
    """Delegates to a fitted censor; raises on the next call once armed."""

    name = "flaky"

    def __init__(self, base: CensorClassifier) -> None:
        super().__init__()
        self.base = base
        self._fitted = True
        self.fail_next = False

    def fit(self, flows, labels=None):
        return self

    def _score_flows(self, flows):
        if self.fail_next:
            self.fail_next = False
            raise KeyError("censor backend unavailable")
        return self.base._score_flows(flows)


class TestShardRunnerEdges:
    """``ShardRunner`` against the seed per-environment loop
    (``SequentialCollector``) at the edges of the tick: one slot, all or no
    rewards masked, an episode ending on every tick, a snapshot / restore
    between collects, and a censor failing inside ``settle``."""

    N_TICKS = 9

    @pytest.fixture(scope="class")
    def agent(self, trained_dt_censor, normalizer):
        config = AmoebaConfig.for_tor(
            n_envs=3, encoder_hidden=8, actor_hidden=(16,), critic_hidden=(16,)
        )
        return Amoeba(
            trained_dt_censor,
            normalizer,
            config,
            rng=5,
            encoder_pretrain_kwargs=dict(n_flows=10, max_length=10, epochs=1),
        )

    @staticmethod
    def _kernel(kernel, agent, censor, normalizer, config, flows):
        from repro.utils.rng import collection_seed_tree

        return kernel(
            agent.actor,
            agent.critic,
            agent.state_encoder,
            censor,
            normalizer,
            config,
            flows,
            collection_seed_tree(np.random.default_rng(31), config.n_envs),
        )

    @staticmethod
    def _assert_same_segment(got, want):
        for name in (
            "states", "actions", "log_probs", "values", "rewards", "dones",
            "final_values",
        ):  # fmt: skip
            left, right = getattr(got, name), getattr(want, name)
            assert left.shape == right.shape, name
            assert np.array_equal(left.view(np.uint64) if left.dtype == np.float64 else left,
                                  right.view(np.uint64) if right.dtype == np.float64 else right), name
        assert got.query_delta == want.query_delta
        assert [
            (tick, row, s.success, s.final_score, s.episode_reward, s.n_steps,
             s.adversarial_flow.sizes.tobytes(), s.adversarial_flow.delays.tobytes())
            for tick, row, s in got.summaries
        ] == [
            (tick, row, s.success, s.final_score, s.episode_reward, s.n_steps,
             s.adversarial_flow.sizes.tobytes(), s.adversarial_flow.delays.tobytes())
            for tick, row, s in want.summaries
        ]  # fmt: skip

    @pytest.mark.parametrize("n_envs", [1, 3])
    @pytest.mark.parametrize("mask_rate", [0.0, 1.0])
    @pytest.mark.parametrize("max_episode_steps", [1, 20])
    def test_equals_sequential_collector(
        self, agent, trained_dt_censor, normalizer, tor_splits, n_envs, mask_rate, max_episode_steps
    ):
        from repro.distrib import ShardRunner

        config = agent.config.with_overrides(
            n_envs=n_envs, reward_mask_rate=mask_rate, max_episode_steps=max_episode_steps
        )
        flows = tor_splits.attack_train.censored_flows
        censor = trained_dt_censor
        sequential = self._kernel(SequentialCollector, agent, censor, normalizer, config, flows)
        batched = self._kernel(ShardRunner, agent, censor, normalizer, config, flows)
        for _ in range(2):
            want = sequential.collect(self.N_TICKS)
            got = batched.collect(self.N_TICKS)
            self._assert_same_segment(got, want)
        if max_episode_steps == 1:
            assert got.dones.all()
            assert len(got.summaries) == self.N_TICKS * n_envs
        if mask_rate == 1.0:
            assert got.query_delta == len(got.summaries)
        else:
            assert got.query_delta == self.N_TICKS * n_envs + len(got.summaries)

    @pytest.mark.parametrize("workers", [0, 1])
    def test_rollout_values_equal_per_tick_critic_calls(
        self, agent, trained_dt_censor, normalizer, tor_splits, workers
    ):
        """``collect`` values the whole rollout in one critic call; every tick's
        row equals a per-tick call on that tick's states, bitwise, across
        collects and auto-resets, in-process and in a forked worker."""
        from repro.distrib import ShardedRolloutEngine, ShardRunner

        config = agent.config.with_overrides(max_episode_steps=4)
        flows = tor_splits.attack_train.censored_flows

        def build(worker_index=0):
            return self._kernel(ShardRunner, agent, trained_dt_censor, normalizer, config, flows)

        if workers:
            engine = ShardedRolloutEngine(build, workers)
            collect, close = engine.collect, engine.close
            engine.broadcast(state_dict_to_bytes(agent._policy_state()))
        else:
            collect, close = build().collect, lambda: None
        try:
            rollouts = [collect(self.N_TICKS) for _ in range(3)]
        finally:
            close()
        assert sum(len(rollout.summaries) for rollout in rollouts) >= 2 * config.n_envs
        for rollout in rollouts:
            per_tick = np.stack([agent.critic.value_batch(states) for states in rollout.states])
            assert np.array_equal(rollout.values.view(np.uint64), per_tick.view(np.uint64))

    def test_snapshot_restore_between_collects_equals_sequential(
        self, agent, trained_dt_censor, normalizer, tor_splits
    ):
        from repro.distrib import ShardRunner

        config = agent.config.with_overrides(reward_mask_rate=0.4, max_episode_steps=6)
        flows = tor_splits.attack_train.censored_flows
        censor = trained_dt_censor
        sequential = self._kernel(SequentialCollector, agent, censor, normalizer, config, flows)
        first = self._kernel(ShardRunner, agent, censor, normalizer, config, flows)
        self._assert_same_segment(first.collect(self.N_TICKS), sequential.collect(self.N_TICKS))
        snapshot = first.snapshot()
        resumed = self._kernel(ShardRunner, agent, censor, normalizer, config, flows)
        resumed.restore(snapshot)
        for _ in range(2):
            self._assert_same_segment(resumed.collect(self.N_TICKS), sequential.collect(self.N_TICKS))

    def test_censor_failure_in_settle_then_restore_equals_uninterrupted(
        self, agent, trained_dt_censor, normalizer, tor_splits
    ):
        from repro.distrib import ShardRunner

        config = agent.config.with_overrides(reward_mask_rate=0.4, max_episode_steps=6)
        flows = tor_splits.attack_train.censored_flows
        reference = self._kernel(
            ShardRunner, agent, FlakyCensor(trained_dt_censor), normalizer, config, flows
        )
        expected = [reference.collect(self.N_TICKS) for _ in range(3)]

        censor = FlakyCensor(trained_dt_censor)
        runner = self._kernel(ShardRunner, agent, censor, normalizer, config, flows)
        self._assert_same_segment(runner.collect(self.N_TICKS), expected[0])
        snapshot = runner.snapshot()
        censor.fail_next = True
        with pytest.raises(KeyError, match="censor backend unavailable"):
            runner.collect(self.N_TICKS)
        runner.restore(snapshot)
        for want in expected[1:]:
            self._assert_same_segment(runner.collect(self.N_TICKS), want)
        assert censor.query_count == reference.censor.query_count


class TestTwoPhaseStep:
    def test_propose_settle_equals_step(self, trained_dt_censor, normalizer, fast_config, simple_flow):
        left = AdversarialFlowEnv(trained_dt_censor, normalizer, fast_config, [simple_flow], rng=5)
        right = AdversarialFlowEnv(trained_dt_censor, normalizer, fast_config, [simple_flow], rng=5)
        left_vec, right_vec = VectorFlowEnv([left]), VectorFlowEnv([right])
        left.reset()
        right.reset()
        action = np.array([[0.4, 0.1]])
        done = False
        while not done:
            [observation], [reward], [done], [info] = left_vec.step_subset([0], action)

            tick = right_vec.propose(action, [0])
            rewards, finished = right_vec.settle([tick])

            assert reward == rewards[0]
            assert done == tick.dones[0] == bool(finished)
            assert info["action_kind"] == tick.action_kinds[0]
            if not done:
                assert np.array_equal(observation, tick.next_observations[0])
        assert finished[0][2].episode_reward == info["episode"].episode_reward

    def test_propose_on_finished_episode_raises(self, trained_dt_censor, normalizer, fast_config, simple_flow):
        env = AdversarialFlowEnv(trained_dt_censor, normalizer, fast_config, [simple_flow], rng=0)
        vec_env = VectorFlowEnv([env])
        env.reset()
        done = False
        while not done:
            _, _, [done], _ = vec_env.step_subset([0], np.array([[1.0, 0.0]]))
        with pytest.raises(RuntimeError, match="finished episode"):
            vec_env.propose(np.array([[1.0, 0.0]]), [0])

"""Deferred, block-batched reward scoring: ``propose`` n ticks, ``settle`` once.

The environment's transition never depends on the censor, so
``ShardRunner.collect`` advances every emulator for the whole rollout and
scores all pending flows afterwards.  The contract under test: that rollout
is the one per-tick ``VectorFlowEnv.step`` produces — same rewards, dones,
summaries, query counts — bit for bit with a batch-invariant (DT) censor and
up to the thresholded score with a neural (DF) one; each distinct input
``(episode, min(length, packet_window))`` reaches the censor once, in tick
order, as a read-only view of one array per episode, while every step still
counts as a query; and misuse of the two-phase API is an error, never a
silently wrong reward.
"""

import numpy as np
import pytest

from repro.censors import DeepFingerprintingClassifier
from repro.censors.base import CensorClassifier
from repro.core import AdversarialFlowEnv, Amoeba, AmoebaConfig, BatchedEpisodeEncoder, VectorFlowEnv
from repro.core import vec_env as vec_env_module
from repro.core.vec_env import build_envs_from_seed_tree
from repro.distrib import ShardRunner
from repro.features import SequenceRepresentation
from repro.utils.rng import collection_seed_tree

N_ENVS = 3
N_TICKS = 12
N_COLLECTS = 3


class RecordingCensor(CensorClassifier):
    """Delegates to a fitted censor and records every flow it is handed."""

    name = "recording"

    def __init__(self, base: CensorClassifier) -> None:
        super().__init__()
        self.base = base
        self._fitted = True
        self.calls = []  # one list of (sizes bytes, delays bytes, writeable) per call

    def fit(self, flows, labels=None):
        return self

    @property
    def packet_window(self):
        return self.base.packet_window

    def _score_flows(self, flows):
        self.calls.append(
            [
                (flow.sizes.tobytes(), flow.delays.tobytes(), flow.sizes.flags.writeable)
                for flow in flows
            ]
        )
        return self.base._score_flows(flows)

    def scored(self):
        return [(sizes, delays) for call in self.calls for sizes, delays, _ in call]


class FailingCensor(RecordingCensor):
    def _score_flows(self, flows):
        raise KeyError("censor backend unavailable")


@pytest.fixture(scope="module")
def agent(trained_dt_censor, normalizer):
    config = AmoebaConfig.for_tor(
        n_envs=N_ENVS, encoder_hidden=8, actor_hidden=(16,), critic_hidden=(16,)
    )
    return Amoeba(
        trained_dt_censor,
        normalizer,
        config,
        rng=42,
        encoder_pretrain_kwargs=dict(n_flows=10, max_length=10, epochs=1),
    )


def make_config(agent, mask_rate):
    # Short episodes: several end inside every rollout, the rest carry over.
    return agent.config.with_overrides(max_episode_steps=7, reward_mask_rate=mask_rate)


def seed_tree():
    return collection_seed_tree(np.random.default_rng(2024), N_ENVS)


def make_runner(agent, censor, normalizer, config, flows):
    return ShardRunner(
        agent.actor, agent.critic, agent.state_encoder, censor, normalizer, config, flows, seed_tree()
    )


def collect_per_tick(agent, censor, normalizer, config, flows, n_collects=N_COLLECTS):
    """The pre-deferral kernel: one ``VectorFlowEnv.step`` (one censor batch)
    per tick, over the same seed tree and replicas as :func:`make_runner`."""
    tree = seed_tree()
    vec_env = VectorFlowEnv(build_envs_from_seed_tree(censor, normalizer, config, flows, tree))
    noise_rngs = [np.random.default_rng(noise_seq) for _, noise_seq in tree]
    tracker = BatchedEpisodeEncoder(agent.state_encoder, N_ENVS)
    states = tracker.reset_all(vec_env.reset())
    collects = []
    for _ in range(n_collects):
        queries_before = censor.query_count
        tick_states = np.zeros((N_TICKS,) + states.shape)
        rewards = np.zeros((N_TICKS, N_ENVS))
        dones = np.zeros((N_TICKS, N_ENVS), dtype=bool)
        actions = np.zeros((N_TICKS, N_ENVS, 2))
        summaries = []
        for tick in range(N_TICKS):
            tick_states[tick] = states
            noise = np.stack([rng.normal(size=2) for rng in noise_rngs])
            actions[tick], _ = agent.actor.act_batch(states, noise=noise)
            observations, rewards[tick], dones[tick], infos = vec_env.step(actions[tick])
            summaries.extend(
                (tick, row, info["episode"]) for row, info in enumerate(infos) if "episode" in info
            )
            recorded = np.stack([info["recorded_action"] for info in infos])
            states = tracker.step(np.concatenate([observations, recorded]), dones[tick])
        collects.append(
            dict(
                rewards=rewards,
                dones=dones,
                actions=actions,
                summaries=summaries,
                states=tick_states,
                query_delta=censor.query_count - queries_before,
            )
        )
    return collects


def flows_to_score(tick, row):
    """The flows one step (``row`` of a proposed tick) asks the censor
    about, in order: its prefix (unless masked), then the finished flow
    (when the step ended the episode) — read-only views of, or the
    episode's one flow."""
    flow = tick.episodes[row].flow()
    flows = [] if tick.masked[row] else [flow.prefix_views([tick.prefix_lengths[row]])[0]]
    if tick.dones[row]:
        flows.append(flow)
    return flows


def summary_key(item):
    tick, row, summary = item
    return (
        tick,
        row,
        summary.episode_reward,
        summary.final_score,
        summary.success,
        summary.n_steps,
        summary.n_truncations,
        summary.n_paddings,
        summary.n_delays,
        summary.data_overhead,
        summary.time_overhead,
        summary.adversarial_flow.sizes.tobytes(),
        summary.adversarial_flow.delays.tobytes(),
        summary.original_flow.sizes.tobytes(),
    )


def assert_same_rollout(result, reference):
    assert np.array_equal(result.rewards, reference["rewards"])
    assert np.array_equal(result.dones, reference["dones"])
    assert np.array_equal(result.actions, reference["actions"])
    assert np.array_equal(result.states, reference["states"])
    assert [summary_key(item) for item in result.summaries] == [
        summary_key(item) for item in reference["summaries"]
    ]
    assert result.query_delta == reference["query_delta"]


class TestDeferredEqualsPerTick:
    @pytest.mark.parametrize("mask_rate", [0.0, 0.5, 1.0])
    def test_consecutive_collects_bit_identical(
        self, agent, trained_dt_censor, normalizer, tor_splits, mask_rate
    ):
        config = make_config(agent, mask_rate)
        flows = tor_splits.attack_train.censored_flows
        censor = trained_dt_censor

        censor.reset_query_count()
        reference = collect_per_tick(agent, censor, normalizer, config, flows)
        reference_queries = censor.query_count

        censor.reset_query_count()
        runner = make_runner(agent, censor, normalizer, config, flows)
        results = [runner.collect(N_TICKS) for _ in range(N_COLLECTS)]
        assert censor.query_count == reference_queries

        for result, expected in zip(results, reference):
            assert_same_rollout(result, expected)
        # Episodes ended inside rollouts and others carried across them.
        assert all(result.summaries for result in results)
        assert not all(result.dones[-1].all() for result in results)
        if mask_rate == 1.0:
            # All-masked rollouts pay only for finished flows.
            assert [r.query_delta for r in results] == [len(r.summaries) for r in results]
        if mask_rate == 0.0:
            assert all(
                r.query_delta == N_TICKS * N_ENVS + len(r.summaries) for r in results
            )

    def test_nothing_pending_is_no_censor_call(self, agent, trained_dt_censor, normalizer, tor_splits):
        censor = RecordingCensor(trained_dt_censor)
        config = agent.config.with_overrides(max_episode_steps=60, reward_mask_rate=1.0)
        long_flows = [f for f in tor_splits.attack_train.censored_flows if f.n_packets >= 10]
        runner = make_runner(agent, censor, normalizer, config, long_flows)
        result = runner.collect(3)  # all masked, nothing finishes in 3 ticks
        assert not result.dones.any()
        assert result.query_delta == 0 and censor.query_count == 0 and censor.calls == []
        assert (result.rewards <= config.masked_reward_value).all()
        vec_env = VectorFlowEnv(
            [AdversarialFlowEnv(censor, normalizer, config, long_flows, rng=0)]
        )
        rewards, finished = vec_env.settle([])
        assert len(rewards) == 0 and finished == [] and censor.calls == []

    def test_snapshot_restore_between_collects(self, agent, trained_dt_censor, normalizer, tor_splits):
        config = make_config(agent, 0.5)
        flows = tor_splits.attack_train.censored_flows
        uninterrupted = make_runner(agent, trained_dt_censor, normalizer, config, flows)
        expected = [uninterrupted.collect(N_TICKS) for _ in range(N_COLLECTS)]

        first = make_runner(agent, trained_dt_censor, normalizer, config, flows)
        head = first.collect(N_TICKS)
        snapshot = first.snapshot()
        # Episodes are in flight at the boundary, emitted packets and all.
        assert any(env["_episode"].length > 0 for env in snapshot["envs"])
        first.collect(N_TICKS)  # the snapshot must not alias the live runner

        resumed = make_runner(agent, trained_dt_censor, normalizer, config, flows)
        resumed.restore(snapshot)
        tail = [resumed.collect(N_TICKS) for _ in range(N_COLLECTS - 1)]
        for result, reference in zip([head] + tail, expected):
            assert np.array_equal(result.rewards, reference.rewards)
            assert np.array_equal(result.dones, reference.dones)
            assert np.array_equal(result.states, reference.states)
            assert [summary_key(s) for s in result.summaries] == [
                summary_key(s) for s in reference.summaries
            ]
            assert result.query_delta == reference.query_delta


class TestScoringBlocks:
    def test_each_flow_scored_once_in_tick_order(
        self, agent, trained_dt_censor, normalizer, tor_splits, monkeypatch
    ):
        config = make_config(agent, 0.5)
        flows = tor_splits.attack_train.censored_flows

        per_tick = RecordingCensor(trained_dt_censor)
        reference = collect_per_tick(agent, per_tick, normalizer, config, flows, n_collects=1)[0]
        n_flows = len(per_tick.scored())
        assert len(per_tick.calls) > N_TICKS // 2  # one call per unmasked tick

        block = next(size for size in (7, 5, 3) if n_flows % size)
        monkeypatch.setattr(vec_env_module, "_SCORE_BLOCK", block)
        deferred = RecordingCensor(trained_dt_censor)
        result = make_runner(agent, deferred, normalizer, config, flows).collect(N_TICKS)

        sizes = [len(call) for call in deferred.calls]
        assert sizes == [block] * (n_flows // block) + [n_flows % block]
        assert deferred.scored() == per_tick.scored()
        # A finished flow is its last prefix: scored once, counted twice.
        queries = reference["query_delta"]
        assert deferred.query_count == per_tick.query_count == queries
        assert 0 < queries - n_flows <= len(result.summaries)
        assert_same_rollout(result, reference)

    def test_default_block_is_bounded(self):
        # Larger blocks raise a neural censor's peak memory (see the constant's
        # comment); raising the cap needs a new peak_rss_mb measurement.
        assert 1 <= vec_env_module._SCORE_BLOCK <= 128


class TestNeuralCensor:
    # 40 packets: episodes never pass the window; 6 (a 4-packet window):
    # their prefixes past it share one score.
    @pytest.mark.parametrize("max_length", [40, 6])
    def test_thresholded_rewards_and_queries_equal(self, agent, normalizer, tor_splits, max_length):
        censor = DeepFingerprintingClassifier(
            SequenceRepresentation(max_length, normalizer), epochs=3, rng=0
        ).fit(tor_splits.clf_train.flows)
        config = make_config(agent, 0.3)
        flows = tor_splits.attack_train.censored_flows
        reference = collect_per_tick(agent, censor, normalizer, config, flows)
        runner = make_runner(agent, censor, normalizer, config, flows)
        for expected in reference:
            result = runner.collect(N_TICKS)
            # Rewards depend on the score only through the 0.5 threshold.
            assert np.array_equal(result.rewards, expected["rewards"])
            assert np.array_equal(result.dones, expected["dones"])
            assert result.query_delta == expected["query_delta"]
            assert [(t, r, s.success, s.episode_reward) for t, r, s in result.summaries] == [
                (t, r, s.success, s.episode_reward) for t, r, s in expected["summaries"]
            ]
            assert np.allclose(
                [s.final_score for _, _, s in result.summaries],
                [s.final_score for _, _, s in expected["summaries"]],
                rtol=0,
                atol=1e-12,
            )


class TestOwnershipAndMisuse:
    def test_prefixes_are_read_only_views_of_the_summary_flow(
        self, agent, trained_dt_censor, normalizer, simple_flow
    ):
        censor = RecordingCensor(trained_dt_censor)
        config = agent.config.with_overrides(max_episode_steps=30)
        env = AdversarialFlowEnv(censor, normalizer, config, [simple_flow], rng=0)
        vec_env = VectorFlowEnv([env])
        vec_env.reset()
        ticks = []
        while not (ticks and ticks[-1].dones[0]):
            ticks.append(vec_env.propose(np.array([[0.2, 0.1]])))
        assert not env._done  # auto-reset: the environment already runs its next flow

        flows = [flow for tick in ticks for flow in flows_to_score(tick, 0)]
        *prefixes, finished = flows
        _, settled = vec_env.settle(ticks)
        [(tick_index, row, summary)] = settled
        assert (tick_index, row) == (len(ticks) - 1, 0)

        assert summary.adversarial_flow is finished
        assert finished.sizes.flags.writeable and finished.delays.flags.writeable
        assert [prefix.n_packets for prefix in prefixes] == list(range(1, len(ticks) + 1))
        for prefix in prefixes:
            assert not prefix.sizes.flags.writeable and not prefix.delays.flags.writeable
            assert np.shares_memory(prefix.sizes, finished.sizes)
            assert np.array_equal(prefix.sizes, finished.sizes[: prefix.n_packets])
            with pytest.raises(ValueError):
                prefix.sizes[0] = 1.0
        # The censor saw every prefix once, read-only; the finished flow is
        # the last prefix, so it was counted but not scored again.
        assert [writeable for call in censor.calls for _, _, writeable in call] == (
            [False] * len(prefixes)
        )
        assert censor.scored() == [(p.sizes.tobytes(), p.delays.tobytes()) for p in prefixes]
        assert censor.query_count == len(flows)
        # The summary's arrays are its own: the next episode never touches them.
        before = finished.sizes.copy()
        vec_env.step(np.array([[0.9, 0.0]]))
        assert np.array_equal(finished.sizes, before)
        assert summary.n_steps == len(ticks) == finished.n_packets

    def test_settle_misuse_raises_before_any_query(
        self, trained_dt_censor, normalizer, fast_config, simple_flow
    ):
        censor = RecordingCensor(trained_dt_censor)
        envs = [
            AdversarialFlowEnv(censor, normalizer, fast_config, [simple_flow], rng=seed)
            for seed in range(3)
        ]
        ours, theirs = VectorFlowEnv(envs[:2]), VectorFlowEnv(envs[2:])
        ours.reset()
        theirs.reset()
        tick = ours.propose(np.tile([0.9, 0.0], (2, 1)))
        foreign = theirs.propose(np.array([[0.9, 0.0]]))
        with pytest.raises(ValueError, match="outside this VectorFlowEnv"):
            ours.settle([foreign])
        with pytest.raises(ValueError, match="outside this VectorFlowEnv"):
            ours.settle([tick, foreign])
        with pytest.raises(RuntimeError, match="listed twice"):
            ours.settle([tick, tick])
        assert censor.query_count == 0 and censor.calls == [] and not tick.applied
        ours.settle([tick])
        queries = censor.query_count
        with pytest.raises(RuntimeError, match="already applied"):
            ours.settle([tick])
        later = ours.propose(np.tile([0.9, 0.0], (2, 1)))
        with pytest.raises(RuntimeError, match="already applied"):
            ours.settle([later, tick])
        assert censor.query_count == queries == 2
        assert not later.applied

    def test_wrong_score_count_from_censor_raises(
        self, trained_dt_censor, normalizer, fast_config, simple_flow
    ):
        class ShortCensor(RecordingCensor):
            def _score_flows(self, flows):
                return np.zeros(len(flows) - 1)

        env = AdversarialFlowEnv(
            ShortCensor(trained_dt_censor), normalizer, fast_config, [simple_flow], rng=0
        )
        vec_env = VectorFlowEnv([env])
        vec_env.reset()
        with pytest.raises(RuntimeError, match="wrong number of scores"):
            vec_env.step(np.array([[0.9, 0.0]]))

    def test_censor_exception_propagates_out_of_collect(
        self, agent, trained_dt_censor, normalizer, tor_splits
    ):
        config = make_config(agent, 0.0)
        runner = make_runner(
            agent,
            FailingCensor(trained_dt_censor),
            normalizer,
            config,
            tor_splits.attack_train.censored_flows,
        )
        with pytest.raises(KeyError, match="censor backend unavailable"):
            runner.collect(N_TICKS)


@pytest.fixture(scope="module")
def windowed_df_censor(normalizer, tor_splits):
    """A DF censor reading 4 packets: 7-step episodes run past its window."""
    return DeepFingerprintingClassifier(SequenceRepresentation(6, normalizer), epochs=1, rng=0).fit(
        tor_splits.clf_train.flows
    )


class TestDistinctInputsScoredOnce:
    """``settle`` scores each ``(episode, min(length, packet_window))`` once;
    every step still counts as a query and reads its key's score."""

    def test_windowed_censor_scores_each_key_once(
        self, agent, windowed_df_censor, normalizer, tor_splits
    ):
        window = windowed_df_censor.packet_window
        assert window == 4
        config = make_config(agent, 0.3)
        flows = tor_splits.attack_train.censored_flows
        per_tick = RecordingCensor(windowed_df_censor)
        [reference] = collect_per_tick(agent, per_tick, normalizer, config, flows, n_collects=1)
        deferred = RecordingCensor(windowed_df_censor)
        runner = make_runner(agent, deferred, normalizer, config, flows)
        result = runner.collect(N_TICKS)

        # Per tick, the steps of one tick share no input but a finished
        # flow's; deferred, an episode's prefixes past the window share one.
        scored = deferred.scored()
        assert scored == list(dict.fromkeys(per_tick.scored()))
        assert len(scored) < len(per_tick.scored())
        assert all(len(sizes) <= 8 * window for sizes, _ in scored)
        assert deferred.query_count == per_tick.query_count > len(scored)
        assert result.query_delta == reference["query_delta"]
        assert np.array_equal(result.rewards, reference["rewards"])
        assert np.array_equal(result.dones, reference["dones"])
        assert [(t, r, s.success, s.episode_reward) for t, r, s in result.summaries] == [
            (t, r, s.success, s.episode_reward) for t, r, s in reference["summaries"]
        ]
        assert result.summaries

        # No score outlives its settle call: an episode in flight across the
        # boundary has its window scored again by the next collect.
        runner.collect(N_TICKS)
        assert len(set(deferred.scored())) < len(deferred.scored())

    def test_flows_scored_counts_the_rows_the_censor_scored(
        self, agent, windowed_df_censor, normalizer, tor_splits, monkeypatch
    ):
        monkeypatch.setattr(vec_env_module, "_SCORE_BLOCK", 16)
        censor = RecordingCensor(windowed_df_censor)
        runner = make_runner(
            agent, censor, normalizer, make_config(agent, 0.0), tor_splits.attack_train.censored_flows
        )
        result = runner.collect(N_TICKS)
        flows = len(censor.scored())
        assert runner._vec_env.flows_scored == flows < result.query_delta
        assert len(censor.calls) == -(-flows // 16) > 1

    def test_tree_censor_drops_only_the_finished_duplicate(
        self, agent, trained_dt_censor, normalizer, tor_splits
    ):
        config = make_config(agent, 0.0)
        censor = RecordingCensor(trained_dt_censor)
        result = make_runner(
            agent, censor, normalizer, config, tor_splits.attack_train.censored_flows
        ).collect(N_TICKS)
        # Every step's prefix is scored, once; a finished flow is its last
        # step's prefix, so it is counted but not scored again.
        assert len(censor.scored()) == len(set(censor.scored())) == N_TICKS * N_ENVS
        assert result.query_delta == N_TICKS * N_ENVS + len(result.summaries)
        assert result.summaries


class TestFreshRunnersReproduce:
    """A rollout is a function of the replicas and the seed tree alone: two
    runners built from the same seed collect the same bits, neural censor
    scores included, whatever ran in the process in between."""

    @pytest.mark.parametrize("mask_rate", [0.0, 0.5])
    def test_neural_censor_rollouts_bit_identical(
        self, agent, windowed_df_censor, normalizer, tor_splits, mask_rate
    ):
        config = make_config(agent, mask_rate)
        flows = tor_splits.attack_train.censored_flows

        def collect():
            runner = make_runner(agent, windowed_df_censor, normalizer, config, flows)
            return [runner.collect(N_TICKS) for _ in range(2)]

        first, second = collect(), collect()
        for got, want in zip(second, first):
            for name in (
                "states", "actions", "log_probs", "values", "rewards", "dones", "final_values"
            ):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert [summary_key(item) for item in got.summaries] == [
                summary_key(item) for item in want.summaries
            ]
            assert got.query_delta == want.query_delta > 0


class TestPerSlotConfigs:
    def test_each_slot_is_rewarded_with_its_own_coefficients(
        self, trained_dt_censor, normalizer, tor_splits
    ):
        """Slots whose configs differ (reward coefficients, masking, step
        budgets) settle together as each settles alone."""
        flows = tor_splits.attack_train.censored_flows[:4]
        configs = [
            AmoebaConfig.for_tor(max_episode_steps=5),
            AmoebaConfig.for_v2ray(max_episode_steps=9, reward_mask_rate=0.5, masked_reward_value=0.25),
            AmoebaConfig(lambda_time=0.7, lambda_data=-0.0, max_episode_steps=3),
        ]

        def envs():
            return [
                AdversarialFlowEnv(trained_dt_censor, normalizer, config, flows, rng=slot)
                for slot, config in enumerate(configs)
            ]

        together = VectorFlowEnv(envs())
        alone = [VectorFlowEnv([env]) for env in envs()]
        together.reset()
        for vec_env in alone:
            vec_env.reset()
        actions = np.random.default_rng(7).uniform(-1, 1, size=(12, len(configs), 2))
        for tick_actions in actions:
            observations, rewards, dones, infos = together.step(tick_actions)
            for slot, vec_env in enumerate(alone):
                got = vec_env.step(tick_actions[slot : slot + 1])
                assert got[0].tobytes() == observations[slot : slot + 1].tobytes()
                assert got[1].view(np.uint64)[0] == rewards[slot : slot + 1].view(np.uint64)[0]
                assert got[2][0] == dones[slot]
                if dones[slot]:
                    assert got[3][0]["episode"].episode_reward == infos[slot]["episode"].episode_reward


class TestPinnedNumpyAssumptions:
    """``settle`` computes rewards as arrays where the seed computed them one
    Python float at a time; these pin the numpy behaviour that makes the two
    bit-identical (the reference is the per-step body kept in
    ``tests/oracles/sequential_collection.py``)."""

    def test_array_reward_equals_python_float_reward(self):
        """``np.where(masked, masked_value, score >= 0.5) - λd·data - λt·time``
        on float64 rounds every operation as Python floats do, in the same
        order: the masked value, signed zeros, subnormal and huge
        penalties included."""
        rng = np.random.default_rng(0)
        n = 4096
        masked = rng.random(n) < 0.4
        scores = rng.random(n)
        scores[::9] = 0.5
        scores[1::9] = np.nextafter(0.5, 0.0)
        pool = np.array([0.0, -0.0, 0.5, 1.0, 0.25, 1 / 3, 5e-324, 1e-300, 1e300, 2.0**-60])
        masked_value = rng.choice(np.array([0.5, 0.0, -0.0, 1.0, 1 / 3]), n)
        lambda_data = rng.choice(np.array([0.0, -0.0, 0.2, 2.0, 0.1, 1 / 7]), n)
        lambda_time = rng.choice(np.array([0.0, 0.2, 0.7, 1e-200]), n)
        data = np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.exponential(3.0, n))
        time = np.where(rng.random(n) < 0.5, rng.choice(pool, n), rng.random(n))

        got = np.where(masked, masked_value, scores >= 0.5) - lambda_data * data - lambda_time * time
        want = [
            (value if mask else (1.0 if score >= 0.5 else 0.0)) - ld * d - lt * t
            for mask, value, score, ld, d, lt, t in zip(
                masked.tolist(), masked_value.tolist(), scores.tolist(), lambda_data.tolist(),
                data.tolist(), lambda_time.tolist(), time.tolist(),
            )
        ]  # fmt: skip
        assert got.dtype == np.float64
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()
        assert any(np.signbit(value) and value == 0.0 for value in want)

    def test_add_at_equals_the_in_order_python_sum(self):
        """``np.add.at(totals, episodes, rewards)`` adds the rewards one at
        a time, in index order, to their episode's running total: each
        total is the in-order Python sum from where it stood, signed zeros,
        cancellation and episodes interleaved across the index included."""
        rng = np.random.default_rng(1)
        n_episodes, n_steps = 40, 3000
        totals = np.zeros(n_episodes)
        for episode in range(n_episodes):  # carried totals: sums from +0.0
            for value in rng.normal(scale=10.0 ** rng.integers(-3, 4), size=rng.integers(0, 20)):
                totals[episode] += value
        episodes = rng.integers(0, n_episodes, n_steps)
        pool = np.array([-0.0, 0.0, 0.1, -1e-17, 1e16, -1e16, 1.0, 2.0 / 3.0, 5e-324])
        rewards = np.where(rng.random(n_steps) < 0.5, rng.choice(pool, n_steps), rng.normal(size=n_steps))
        want = totals.tolist()
        for episode, reward in zip(episodes.tolist(), rewards.tolist()):
            want[episode] += reward
        got = totals.copy()
        np.add.at(got, episodes, rewards)
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

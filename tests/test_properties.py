"""Property-based tests (hypothesis) on core data structures and invariants."""

import io
import struct
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import nn
from repro.core import (
    AmoebaConfig,
    BatchedEpisodeEncoder,
    Critic,
    GaussianActor,
    PPOUpdater,
    RolloutBuffer,
    StateEncoder,
    VectorFlowEnv,
    compute_gae,
)
from repro.censors.base import CensorClassifier
from repro.eval import empirical_cdf
from repro.features import CumulFeatureExtractor, FlowNormalizer, StatisticalFeatureExtractor
from repro.features.statistical import N_STATISTICAL_FEATURES
from repro.flows import (
    Flow,
    FlowLabel,
    NetworkCondition,
    build_tor_dataset,
    load_flows_jsonl,
    save_dataset,
    save_flows_jsonl,
)
from repro.ml import StandardScaler, accuracy_score, f1_score
from repro.nn.serialization import CheckpointError, metadata_from_bytes
from repro.serve import ServeConfig
from repro.serve.session import FlowSession, SessionTable

from repro.core.env import PacketShaper, normalised_pair

from oracles import composed_ppo, emulator_reference
from oracles.conv_reference import composed_relu_pool
from oracles.executors import EXECUTORS, executing
from oracles.gae_reference import reference_compute_gae
from oracles.per_tick_settle import settled_step
from oracles.statistical_reference import (
    StatisticalFeatureExtractor as ReferenceStatisticalFeatureExtractor,
)
from oracles.serve_reference import LockstepServers
from oracles.tensor_inference import TwoSlabEpisodeEncoder, reference_step_pairs

# Strategy: a syntactically valid flow — non-zero signed sizes, non-negative delays.
sizes_strategy = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=16384),
        st.integers(min_value=-16384, max_value=-1),
    ),
    min_size=1,
    max_size=30,
)
delays_strategy = st.lists(
    st.floats(min_value=0.0, max_value=500.0, allow_nan=False), min_size=1, max_size=30
)


# Strategy for the bitwise oracle property: every packet is drawn either from
# a small pool (ties, constant groups, zero delays) or from the full finite
# range (non-integer sizes, denormal-to-huge magnitudes).
_magnitudes = st.one_of(
    st.sampled_from([0.1, 1.0 / 3.0, 100.0, 536.0, 1460.0]),
    st.floats(min_value=1e-3, max_value=65535.0),
    st.floats(min_value=5e-324, max_value=1.7e308),
)
_packets = st.tuples(
    _magnitudes,
    st.sampled_from([-1.0, 1.0]),
    st.one_of(
        st.sampled_from([0.0, 0.1, 1.0, 5.0]),
        st.floats(min_value=0.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=1.7e308),
    ),
)
oracle_flows = st.lists(_packets, min_size=1, max_size=200).map(
    lambda packets: Flow(
        sizes=[magnitude * sign for magnitude, sign, _ in packets],
        delays=[delay for _, _, delay in packets],
    )
)


_HUGE = 1.7e308
_FEATURE_NAMES = StatisticalFeatureExtractor().feature_names()
_EXTREMA = [column for column, name in enumerate(_FEATURE_NAMES) if name.endswith(("_min", "_max"))]
# Extremum columns alone, or with any other columns beside them.
_extremum_column_sets = st.one_of(
    st.lists(st.sampled_from(_EXTREMA), min_size=1, max_size=6),
    st.tuples(
        st.lists(st.sampled_from(_EXTREMA), min_size=1, max_size=3),
        st.lists(st.integers(0, N_STATISTICAL_FEATURES - 1), min_size=1, max_size=6),
    ).map(lambda sets: sets[0] + sets[1]),
)


@st.composite
def _prefix_batches(draw):
    """Growing prefixes (the one-packet one always among them) of one to
    three flows, each mixed, one-directional (every group of the other
    direction empty), or holding a burst whose bytes and gaps overflow to
    inf / NaN."""
    flows = []
    for _ in range(draw(st.integers(1, 3))):
        packets = draw(st.lists(_packets, min_size=1, max_size=40))
        sizes = [magnitude * sign for magnitude, sign, _ in packets]
        delays = [delay for _, _, delay in packets]
        kind = draw(st.sampled_from(["mixed", "up", "down", "overflowing"]))
        if kind in ("up", "down"):
            sizes = [abs(size) if kind == "up" else -abs(size) for size in sizes]
        elif kind == "overflowing":
            at = draw(st.integers(0, len(sizes)))
            sizes[at:at] = [draw(st.sampled_from([-_HUGE, _HUGE]))] * 3
            delays[at:at] = [_HUGE] * 3
        flow = Flow(sizes=sizes, delays=delays)
        lengths = draw(st.lists(st.integers(1, flow.n_packets), max_size=8))
        flows.extend(flow.prefix_views(sorted({1, *lengths, flow.n_packets})))
    return flows


def make_flow(sizes, delays):
    length = min(len(sizes), len(delays))
    return Flow(
        sizes=np.asarray(sizes[:length], dtype=float),
        delays=np.asarray(delays[:length], dtype=float),
        label=FlowLabel.CENSORED,
    )


class TestFlowProperties:
    @given(sizes=sizes_strategy, delays=delays_strategy)
    @settings(max_examples=40, deadline=None)
    def test_packet_count_consistent(self, sizes, delays):
        flow = make_flow(sizes, delays)
        assert flow.n_packets == len(flow) == len(flow.sizes) == len(flow.delays)

    @given(sizes=sizes_strategy, delays=delays_strategy)
    @settings(max_examples=40, deadline=None)
    def test_dict_roundtrip_preserves_flow(self, sizes, delays):
        flow = make_flow(sizes, delays)
        restored = Flow.from_dict(flow.to_dict())
        assert np.allclose(restored.sizes, flow.sizes)
        assert np.allclose(restored.delays, flow.delays)

    @given(sizes=sizes_strategy, delays=delays_strategy, length=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_prefix_never_longer_than_flow(self, sizes, delays, length):
        flow = make_flow(sizes, delays)
        prefix = flow.prefix_views([length])[0]
        assert 1 <= prefix.n_packets <= flow.n_packets

    @given(sizes=sizes_strategy, delays=delays_strategy, drop=st.floats(0.0, 0.5))
    @settings(max_examples=30, deadline=None)
    def test_network_condition_never_loses_payload(self, sizes, delays, drop):
        flow = make_flow(sizes, delays)
        degraded = NetworkCondition(drop_rate=drop).apply(flow, rng=0)
        # Retransmission duplicates packets; payload on the wire never shrinks.
        assert np.abs(degraded.sizes).sum() >= np.abs(flow.sizes).sum()
        assert degraded.n_packets >= flow.n_packets


class TestFeatureProperties:
    @given(sizes=sizes_strategy, delays=delays_strategy)
    @settings(max_examples=30, deadline=None)
    def test_statistical_features_always_finite_and_166(self, sizes, delays):
        flow = make_flow(sizes, delays)
        vector = StatisticalFeatureExtractor().extract(flow)
        assert vector.shape == (166,)
        assert np.all(np.isfinite(vector))

    @given(flows=st.lists(oracle_flows, min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_statistical_kernel_bit_identical_to_seed_oracle(self, flows):
        # ``extract`` is the same kernel on a one-flow batch.
        oracle = ReferenceStatisticalFeatureExtractor()
        extractor = StatisticalFeatureExtractor()
        with np.errstate(all="ignore"):
            expected = np.vstack([oracle.extract(flow) for flow in flows])
            alone = extractor.extract(flows[-1])
            batched = extractor.extract_many(flows)
        assert np.array_equal(alone.view(np.uint64), expected[-1].view(np.uint64))
        assert np.array_equal(batched.view(np.uint64), expected.view(np.uint64))

    @given(
        flows=st.lists(oracle_flows, min_size=0, max_size=5),
        columns=st.one_of(
            st.just([]),
            st.just(list(range(N_STATISTICAL_FEATURES))),
            st.lists(st.integers(0, N_STATISTICAL_FEATURES - 1), min_size=1, max_size=40),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_statistical_columns_bit_identical_to_full_extraction(self, flows, columns):
        # Random subsets may repeat a column or list them out of order.
        extractor = StatisticalFeatureExtractor()
        with np.errstate(all="ignore"):
            full = extractor.extract_many(flows)
            pruned = extractor.extract_many(flows, columns)
        assert pruned.shape == (len(flows), len(columns))
        assert np.array_equal(pruned.view(np.uint64), full[:, columns].view(np.uint64))

    # Gaps of NaN (inf - inf) beside finite ones: min must be NaN, not the
    # least finite gap.
    @example(
        flows=Flow(sizes=[100.0, 7.0, 100.0, _HUGE, _HUGE, _HUGE, -5.0], delays=[0.0, 1.0, 2.0] + [_HUGE] * 4)
        .prefix_views(range(1, 8)),
        columns=[_FEATURE_NAMES.index(name) for name in ("gap_up_min", "gap_up_max", "time_all_max")],
    )
    @given(flows=_prefix_batches(), columns=_extremum_column_sets)
    @settings(max_examples=120, deadline=None)
    def test_extremum_reads_bit_identical_to_seed_oracle(self, flows, columns):
        # Extremum-only sets take min / max from one reduceat; mixed sets add
        # the length buckets, the row sort or a section beside it.
        with np.errstate(all="ignore"):
            expected = np.vstack([ReferenceStatisticalFeatureExtractor().extract(flow) for flow in flows])
            actual = StatisticalFeatureExtractor().extract_many(flows, columns)
        assert np.array_equal(actual.view(np.uint64), expected[:, columns].view(np.uint64))

    @given(sizes=sizes_strategy, delays=delays_strategy)
    @settings(max_examples=30, deadline=None)
    def test_cumul_features_finite(self, sizes, delays):
        flow = make_flow(sizes, delays)
        vector = CumulFeatureExtractor(n_interpolation=20).extract(flow)
        assert np.all(np.isfinite(vector))

    @given(
        sizes=sizes_strategy,
        delays=delays_strategy,
        size_scale=st.floats(100.0, 20000.0),
        delay_scale=st.floats(10.0, 1000.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_normaliser_output_ranges(self, sizes, delays, size_scale, delay_scale):
        flow = make_flow(sizes, delays)
        normalizer = FlowNormalizer(size_scale=size_scale, delay_scale=delay_scale)
        pairs = normalizer.normalise_flow(flow)
        assert np.all(pairs[:, 0] >= -1.0) and np.all(pairs[:, 0] <= 1.0)
        assert np.all(pairs[:, 1] >= 0.0) and np.all(pairs[:, 1] <= 1.0)


class TestMLProperties:
    @given(
        labels=st.lists(st.integers(0, 1), min_size=2, max_size=50),
        predictions=st.lists(st.integers(0, 1), min_size=2, max_size=50),
    )
    @settings(max_examples=40, deadline=None)
    def test_metric_ranges(self, labels, predictions):
        length = min(len(labels), len(predictions))
        labels, predictions = labels[:length], predictions[:length]
        assert 0.0 <= accuracy_score(labels, predictions) <= 1.0
        assert 0.0 <= f1_score(labels, predictions) <= 1.0

    @given(st.integers(2, 30), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_standard_scaler_idempotent_statistics(self, n, d):
        X = np.random.default_rng(n * 7 + d).normal(size=(n, d)) * 3 + 1
        scaled = StandardScaler().fit_transform(X)
        assert np.allclose(scaled.mean(axis=0), 0.0, atol=1e-8)


class TestTensorProperties:
    @given(
        data=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_sigmoid_output_in_unit_interval(self, data):
        out = nn.Tensor(np.asarray(data)).sigmoid().data
        assert np.all((out > 0) & (out < 1))

    @given(
        data=st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_sum_gradient_is_all_ones(self, data):
        t = nn.Tensor(np.asarray(data), requires_grad=True)
        t.sum().backward()
        assert np.allclose(t.grad, 1.0)

    @given(st.integers(1, 5), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_matmul_shape_contract(self, n, m):
        a = nn.Tensor(np.zeros((n, 3)))
        b = nn.Tensor(np.zeros((3, m)))
        assert (a @ b).shape == (n, m)


class TestGAEProperties:
    @given(
        rewards=st.lists(st.floats(-1, 1, allow_nan=False), min_size=1, max_size=20),
        gamma=st.floats(0.5, 0.999),
        lam=st.floats(0.5, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_returns_equal_advantages_plus_values(self, rewards, gamma, lam):
        T = len(rewards)
        rewards_arr = np.asarray(rewards).reshape(T, 1)
        values = np.zeros((T, 1))
        dones = np.zeros((T, 1), dtype=bool)
        dones[-1, 0] = True
        advantages, returns = compute_gae(rewards_arr, values, dones, np.zeros(1), gamma, lam)
        assert np.allclose(returns, advantages + values)
        assert np.all(np.isfinite(advantages))


# Values GAE must carry bit for bit: signed zeros, magnitudes whose products
# overflow, NaN and both infinities.
_GAE_SPECIALS = np.array([0.0, -0.0, 1e308, -1e308, 1e-308, np.nan, np.inf, -np.inf])


def _with_specials(rng, array, share):
    """``array`` with a ``share`` of its elements replaced by special values."""
    mask = rng.random(array.shape) < share
    array[mask] = rng.choice(_GAE_SPECIALS, size=int(mask.sum()))
    return array


class TestGAEOracleProperties:
    """``compute_gae`` hoists ``non_terminal``, ``delta`` and the decay out of
    the loop; advantages and returns equal the per-step loop of
    ``tests/oracles/gae_reference.py`` in every bit (``view(uint64)``)."""

    @given(
        steps=st.integers(1, 70),
        n_envs=st.integers(1, 9),
        dones=st.sampled_from(["none", "all", "last", "random"]),
        gamma=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        gae_lambda=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        special_share=st.sampled_from([0.0, 0.05, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    @example(steps=1, n_envs=1, dones="none", gamma=1.0, gae_lambda=1.0, special_share=0.0, seed=0)
    @example(steps=70, n_envs=9, dones="random", gamma=1.0, gae_lambda=0.0, special_share=0.5, seed=1)
    def test_hoisted_terms_equal_per_step_loop(
        self, steps, n_envs, dones, gamma, gae_lambda, special_share, seed
    ):
        rng = np.random.default_rng(seed)
        shape = (steps, n_envs)
        rewards = _with_specials(rng, rng.normal(size=shape) * 10.0, special_share)
        values = _with_specials(rng, rng.normal(size=shape) * 10.0, special_share)
        last_values = _with_specials(rng, rng.normal(size=n_envs), special_share)
        done = {
            "none": np.zeros(shape, dtype=bool),
            "all": np.ones(shape, dtype=bool),
            "last": np.arange(steps)[:, None].repeat(n_envs, axis=1) == steps - 1,
            "random": rng.random(shape) < 0.3,
        }[dones]
        with np.errstate(all="ignore"):
            got = compute_gae(rewards, values, done, last_values, gamma, gae_lambda)
            want = reference_compute_gae(rewards, values, done, last_values, gamma, gae_lambda)
        for got_array, want_array in zip(got, want):
            assert got_array.shape == shape
            assert np.array_equal(_bits(got_array), _bits(want_array))


class TestEnvironmentProperties:
    @given(
        sizes=st.lists(st.integers(100, 1460), min_size=1, max_size=6),
        actions=st.lists(
            st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
            min_size=30,
            max_size=30,
        ),
    )
    @settings(max_examples=15, deadline=None)
    def test_payload_always_delivered(self, sizes, actions, trained_dt_censor, normalizer):
        """Constraint (1) holds for arbitrary flows and arbitrary action sequences."""
        signs = [1 if i % 2 == 0 else -1 for i in range(len(sizes))]
        flow = Flow(
            sizes=[s * sign for s, sign in zip(sizes, signs)],
            delays=[0.0] + [1.0] * (len(sizes) - 1),
            label=FlowLabel.CENSORED,
        )
        config = AmoebaConfig.for_tor(max_episode_steps=60, reward_mask_rate=1.0)
        vec_env = VectorFlowEnv(trained_dt_censor, normalizer, config, [flow], [0])
        vec_env.reset()
        summaries = {}
        index = 0
        while not summaries and index < len(actions):
            _, _, summaries = settled_step(vec_env, np.asarray(actions[index])[None], [0])
            index += 1
        if summaries:
            adversarial = summaries[0].adversarial_flow
            assert np.abs(adversarial.sizes).sum() >= np.abs(flow.sizes).sum() - 1e-6


    @given(
        actions=st.lists(
            st.tuples(
                st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
                st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(0, 1, allow_nan=False)),
            ),
            min_size=1,
            max_size=40,
        ),
        mask_rate=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_settling_a_rollout_once_equals_stepping_every_tick(
        self, actions, mask_rate, seed, trained_dt_censor, normalizer, tor_splits
    ):
        """``step`` x T then one ``settle`` is T ticks each settled at once,
        for arbitrary action sequences: rewards, dones, episode summaries and
        the censor's query count, with episodes auto-resetting mid-sequence."""
        config = AmoebaConfig.for_tor(max_episode_steps=9, reward_mask_rate=mask_rate)
        flows = tor_splits.attack_train.censored_flows[:5]

        def engine():
            return VectorFlowEnv(trained_dt_censor, normalizer, config, flows, [seed, seed + 1])

        def summary_key(summary):
            return (
                summary.episode_reward,
                summary.final_score,
                summary.n_steps,
                summary.adversarial_flow.sizes.tobytes(),
                summary.adversarial_flow.delays.tobytes(),
            )

        def settled_outcome(tick, rewards, finished):
            return (
                rewards.tobytes(),
                tick.dones.tobytes(),
                tick.pairs.tobytes(),
                [(row, summary_key(summary)) for row, summary in finished],
                [score for score, masked in zip(tick.scores.tolist(), tick.masked) if not masked],
            )

        actions = np.asarray(actions, dtype=np.float64)
        stepped, deferred = engine(), engine()
        assert np.array_equal(stepped.reset(), deferred.reset())

        trained_dt_censor.reset_query_count()
        per_tick = [
            settled_outcome(tick, rewards, sorted(finished.items()))
            for tick, rewards, finished in (settled_step(stepped, row) for row in actions)
        ]
        per_tick_queries = trained_dt_censor.query_count

        trained_dt_censor.reset_query_count()
        ticks = [deferred.step(row) for row in actions]
        assert trained_dt_censor.query_count == 0
        rewards, finished = deferred.settle(ticks)
        assert [
            settled_outcome(
                tick,
                rewards[index * len(tick.episodes) : (index + 1) * len(tick.episodes)],
                [(row, summary) for at, row, summary in finished if at == index],
            )
            for index, tick in enumerate(ticks)
        ] == per_tick
        assert trained_dt_censor.query_count == per_tick_queries


class _WindowedCensor(CensorClassifier):
    """A fitted censor that reads only its ``window`` leading packets: the
    tree censor's scores of those packets, bit for bit."""

    name = "windowed"

    def __init__(self, base: CensorClassifier, window: int) -> None:
        super().__init__()
        self.base = base
        self.window = window
        self._fitted = True

    def fit(self, flows, labels=None):
        return self

    @property
    def packet_window(self):
        return self.window

    def _score_flows(self, flows):
        return self.base._score_flows([flow.prefix_views([self.window])[0] for flow in flows])


@pytest.fixture(scope="module")
def windowed_df_censor(normalizer, tor_splits):
    """A DF censor reading 4 packets, so short episodes run past its window."""
    from repro.censors import DeepFingerprintingClassifier
    from repro.features import SequenceRepresentation

    return DeepFingerprintingClassifier(SequenceRepresentation(6, normalizer), epochs=1, rng=0).fit(
        tor_splits.clf_train.flows
    )


def _collect_with_both_kernels(censor, normalizer, flows, config, seed, n_ticks=10, n_collects=2):
    """Two collects of ``n_ticks`` from ``ShardRunner`` and from the seed
    per-environment loop, on same-seed replicas and seed trees; each
    kernel's results and the queries it counted."""
    from oracles.sequential_collection import SequentialCollector
    from repro.distrib import ShardRunner
    from repro.utils.rng import collection_seed_tree

    outcomes = []
    for kernel in (ShardRunner, SequentialCollector):
        rng = np.random.default_rng(seed)
        encoder = StateEncoder(hidden_size=4, num_layers=1, rng=rng)
        actor = GaussianActor(2 * encoder.hidden_size, hidden_dims=(6,), rng=rng)
        critic = Critic(2 * encoder.hidden_size, hidden_dims=(6,), rng=rng)
        runner = kernel(
            actor, critic, encoder, censor, normalizer, config, flows,
            collection_seed_tree(rng, config.n_envs),
        )  # fmt: skip
        censor.reset_query_count()
        results = [runner.collect(n_ticks) for _ in range(n_collects)]
        outcomes.append((results, censor.query_count))
    return outcomes


class TestCollectionProperties:
    """``ShardRunner.collect`` (tick records, rewards settled as arrays) is
    the seed per-environment loop of ``tests/oracles/sequential_collection.py``:
    over reward masking rates, episode caps below the flows' lengths (slots
    finish and restart inside one rollout) and censor windows."""

    @given(
        mask_rate=st.sampled_from([0.0, 0.5, 1.0]),
        max_episode_steps=st.integers(1, 8),
        n_envs=st.integers(1, 3),
        window=st.sampled_from([None, 1, 3]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_collect_equals_sequential_collector_bit_for_bit(
        self, mask_rate, max_episode_steps, n_envs, window, seed, trained_dt_censor, normalizer, tor_splits
    ):
        """A tree censor, on whole prefixes or on a window it declares."""
        censor = trained_dt_censor if window is None else _WindowedCensor(trained_dt_censor, window)
        config = AmoebaConfig.for_tor(
            n_envs=n_envs, reward_mask_rate=mask_rate, max_episode_steps=max_episode_steps
        )
        flows = tor_splits.attack_train.censored_flows[:6]
        (got, got_queries), (want, want_queries) = _collect_with_both_kernels(
            censor, normalizer, flows, config, seed
        )
        assert got_queries == want_queries
        for left, right in zip(got, want):
            for name in (
                "states", "actions", "log_probs", "values", "rewards", "dones", "final_values",
            ):  # fmt: skip
                assert _bits(getattr(left, name)).tobytes() == _bits(getattr(right, name)).tobytes(), name
            assert left.query_delta == right.query_delta
            assert [
                (tick, row, _bits(summary.episode_reward).tobytes(), _bits(summary.final_score).tobytes(),
                 summary.n_steps, summary.n_truncations, summary.n_paddings, summary.n_delays,
                 summary.data_overhead, summary.time_overhead,
                 summary.adversarial_flow.sizes.tobytes(), summary.adversarial_flow.delays.tobytes())
                for tick, row, summary in left.summaries
            ] == [
                (tick, row, _bits(summary.episode_reward).tobytes(), _bits(summary.final_score).tobytes(),
                 summary.n_steps, summary.n_truncations, summary.n_paddings, summary.n_delays,
                 summary.data_overhead, summary.time_overhead,
                 summary.adversarial_flow.sizes.tobytes(), summary.adversarial_flow.delays.tobytes())
                for tick, row, summary in right.summaries
            ]  # fmt: skip
        if max_episode_steps < 10:
            assert sum(len(result.summaries) for result in got) >= n_envs

    @given(
        mask_rate=st.sampled_from([0.0, 0.5, 1.0]),
        max_episode_steps=st.integers(1, 8),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_collect_equals_sequential_collector_thresholded_with_a_neural_censor(
        self, mask_rate, max_episode_steps, seed, windowed_df_censor, normalizer, tor_splits
    ):
        """A DF censor's score may move in its last bits with the batch it
        is scored in; everything that reads it only through the 0.5
        threshold may not move at all."""
        config = AmoebaConfig.for_tor(
            n_envs=2, reward_mask_rate=mask_rate, max_episode_steps=max_episode_steps
        )
        flows = tor_splits.attack_train.censored_flows[:6]
        (got, got_queries), (want, want_queries) = _collect_with_both_kernels(
            windowed_df_censor, normalizer, flows, config, seed
        )
        assert got_queries == want_queries
        for left, right in zip(got, want):
            for name in ("states", "actions", "log_probs", "values", "rewards", "dones"):
                assert _bits(getattr(left, name)).tobytes() == _bits(getattr(right, name)).tobytes(), name
            assert left.query_delta == right.query_delta
            assert [
                (tick, row, s.success, s.episode_reward, s.adversarial_flow.sizes.tobytes())
                for tick, row, s in left.summaries
            ] == [
                (tick, row, s.success, s.episode_reward, s.adversarial_flow.sizes.tobytes())
                for tick, row, s in right.summaries
            ]
            assert np.allclose(
                [s.final_score for _, _, s in left.summaries],
                [s.final_score for _, _, s in right.summaries],
                rtol=0,
                atol=1e-12,
            )


def _around(*centres):
    """Each centre with its two float neighbours."""
    return [
        float(v)
        for centre in centres
        for v in (np.nextafter(centre, -np.inf), centre, np.nextafter(centre, np.inf))
    ]


# Action / delay / payload components for the emulator oracle property: the
# clamp bounds and their neighbours, signed zeros, subnormals, huge and
# infinite values, plus ordinary floats.
_components = st.one_of(
    st.sampled_from(_around(-1.0, -0.0, 0.0, 1.0) + [5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf]),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(allow_nan=False, allow_infinity=True),
)
_payloads = st.one_of(
    st.sampled_from([1.0, 63.0, 64.0, 64.5, 1460.0, 1e300, 5e-324]),
    st.floats(min_value=5e-324, max_value=1e6),
)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestEmulatorOracleProperties:
    """The Python-float emulator helpers equal the seed ``np.clip`` bodies
    (``tests/oracles/emulator_reference.py``) in every bit, on every branch."""

    @given(
        action=st.tuples(_components, _components),
        remaining=_payloads,
        truncations=st.integers(0, 9),
        steps=st.integers(0, 81),
        max_truncations=st.sampled_from([0, 1, 8]),
        max_steps=st.sampled_from([None, 1, 80]),
        min_packet_bytes=st.sampled_from([0, 64, 1500]),
        scales=st.sampled_from([(1460.0, 100.0), (16384.0, 250.0)]),
        direction=st.sampled_from([-1.0, 1.0]),
        delay_ms=st.sampled_from([0.0, 7.5, 1e4]),
    )
    @settings(max_examples=300, deadline=None)
    def test_shape_packet_bit_identical_to_oracle(
        self, action, remaining, truncations, steps, max_truncations, max_steps,
        min_packet_bytes, scales, direction, delay_ms,
    ):
        """``PacketShaper.apply`` from a packet state set here: the emitted
        packet, added delay and time penalty are the oracle's."""
        kwargs = dict(
            remaining_bytes=remaining,
            truncations_current_packet=truncations,
            steps_taken=steps,
            size_scale=scales[0],
            min_packet_bytes=min_packet_bytes,
            max_delay_ms=scales[1],
            max_truncations_per_packet=max_truncations,
            max_steps=max_steps,
        )
        shaper = PacketShaper(scales[0], min_packet_bytes, scales[1], max_truncations, max_steps)
        shaper.begin(direction * remaining, delay_ms)
        shaper.truncations, shaper.steps = truncations, steps
        kind, emitted_size, emitted_delay, added_delay, time_penalty, _ = shaper.apply(
            *np.asarray(action, dtype=np.float64).tolist()
        )
        expected = emulator_reference.shape_packet(np.asarray(action), **kwargs)
        assert (kind == "truncation") is expected.is_truncation
        assert np.array_equal(
            _bits([emitted_size, added_delay, time_penalty, emitted_delay]),
            _bits([
                direction * expected.emitted_bytes,
                expected.added_delay,
                expected.delay_action,
                delay_ms + expected.added_delay,
            ]),
        )

    @given(
        direction=st.sampled_from([-1.0, 0.0, 1.0]),
        magnitude=st.one_of(_payloads, st.sampled_from([0.0, np.inf])),
        delay=_components,
        scales=st.sampled_from([(1460.0, 100.0), (16384.0, 250.0), (3.0, 7.0)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_observation_and_record_bit_identical_to_oracle(
        self, direction, magnitude, delay, scales
    ):
        got = normalised_pair(direction, magnitude, delay, *scales)
        assert type(got) is tuple and all(type(value) is float for value in got)
        for reference in (emulator_reference.make_observation, emulator_reference.record_action):
            expected = reference(direction, magnitude, delay, *scales)
            assert expected.dtype == np.float64 and expected.shape == (2,)
            assert np.array_equal(_bits(got), _bits(expected))


_packet_sizes = st.one_of(
    st.sampled_from([1.0, 63.5, 64.0, 1460.0, 1460.5, 5000.0]),
    st.floats(min_value=0.5, max_value=20000.0),
)


class TestOneShaperBothTiers:
    """Training and serving step the same emulator: one flow and one action
    stream through ``VectorFlowEnv.propose`` and through a ``FlowSession``
    (enqueue, arm, observe, apply) with equal bounds give bitwise-equal
    observations, emitted packets, recorded pairs and kinds, step for step,
    and both sides end at the same step."""

    @given(
        packets=st.lists(
            st.tuples(_packet_sizes, st.booleans(), st.sampled_from([0.0, 3.0, 99.5, 150.0])),
            min_size=1,
            max_size=6,
        ),
        actions=st.lists(st.tuples(_components, _components), min_size=1, max_size=12),
        max_truncations=st.integers(1, 8),
        budget=st.sampled_from([None, 1, 2, 3, 5, 8]),
        min_packet_bytes=st.sampled_from([1, 64, 1500]),
        scales=st.sampled_from([(1460.0, 100.0), (16384.0, 250.0)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_propose_and_session_shape_alike(
        self, packets, actions, max_truncations, budget, min_packet_bytes, scales,
        trained_dt_censor,
    ):
        size_scale, max_delay_ms = scales
        flow = Flow(
            sizes=[size if upstream else -size for size, upstream, _ in packets],
            delays=[delay for _, _, delay in packets],
            label=FlowLabel.CENSORED,
        )
        # An unbounded session is a training budget the flow cannot reach.
        # Neither config takes a truncation cap of 0, so none is drawn.
        config = AmoebaConfig.for_tor(
            min_packet_bytes=min_packet_bytes,
            max_delay_ms=max_delay_ms,
            max_truncations_per_packet=max_truncations,
            max_episode_steps=budget or 10_000,
        )
        normalizer = FlowNormalizer(size_scale=size_scale, delay_scale=max_delay_ms)
        vec_env = VectorFlowEnv(trained_dt_censor, normalizer, config, [flow], [0])
        table = SessionTable(1, 4)
        session = FlowSession(
            "s",
            table,
            table.acquire(),
            PacketShaper(size_scale, min_packet_bytes, max_delay_ms, max_truncations, budget),
        )
        for size, delay in zip(flow.sizes.tolist(), flow.delays.tolist()):
            session.enqueue(size, delay)
        assert session.arm_next()

        observation = tuple(vec_env.reset()[0].tolist())
        step, done = 0, False
        while not done:
            assert _bits(session.current_observation()).tobytes() == _bits(observation).tobytes()
            action = actions[step % len(actions)]
            tick = vec_env.step_subset([0], np.array([action]))
            decision = session.apply_action(action)
            episode, [done] = tick.episodes[0], tick.dones.tolist()
            assert tick.action_kinds[0] == decision.kind
            assert _bits([episode.sizes[step], episode.delays[step]]).tobytes() == _bits(
                [decision.emitted_size, decision.emitted_delay_ms]
            ).tobytes()
            assert _bits(tick.pairs[1]).tobytes() == _bits(decision.recorded_action).tobytes()
            step += 1
            # The server's re-arm rule: the session goes on exactly when
            # the episode does.
            assert (session.online and (session.in_flight or session.arm_next())) is not done
            observation = tuple(tick.pairs[0].tolist())
        assert episode.shaper.steps == session.n_decisions == decision.step == step


# Values for the conv block property: ties, zeros of both signs and NaN must
# all be likely, in the input, the weights, the bias and the upstream
# gradient, so cells come from a small pool (drawn by a seeded generator:
# a batch of 33 is too many cells to draw one by one).
_CELLS = np.array([-0.0, 0.0, 0.5, 0.5, 1.0, -1.0, 2.5, 1e-300, 1e300])


def _laid_out(data, channel_last):
    if channel_last:
        data = np.ascontiguousarray(data.transpose(0, 2, 1)).transpose(0, 2, 1)
    return data


def _block_results(block, values, weight, bias, grad, kernel_size, stride, padding):
    channels, out_channels = values.shape[1], bias.shape[0]
    conv = nn.Conv1d(channels, out_channels, kernel_size, stride=stride, padding=padding)
    conv.weight.data, conv.bias.data = weight.copy(), bias.copy()
    x = nn.Tensor(values.copy(order="K"), requires_grad=True)
    out = block(conv, x)
    out.backward(grad)
    return out.data, x.grad, conv.weight.grad, conv.bias.grad


class TestConvBlockOracleProperties:
    """``Conv1d.relu_pool`` (one node) equals the composed Conv1d → ReLU →
    MaxPool1d graph of ``tests/oracles/conv_reference.py`` in every bit --
    output, input, weight and bias gradients -- on both backends."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        nan_share=st.sampled_from([0.0, 0.05]),
        batch=st.sampled_from([1, 2, 33]),
        channels=st.sampled_from([2, 16]),
        out_channels=st.sampled_from([2, 16]),
        length=st.sampled_from([2, 3, 4, 5, 7, 8, 21]),
        padding=st.sampled_from([0, 2]),
        channel_last=st.booleans(),
        backend=st.sampled_from(EXECUTORS),
    )
    @settings(max_examples=80, deadline=None)
    def test_block_bit_identical_to_composed(
        self, seed, nan_share, batch, channels, out_channels, length, padding, channel_last, backend
    ):
        kernel_size = 5  # DF's; the lengths run from shorter than it to odd
        positions = length + 2 * padding - kernel_size + 1
        rng = np.random.default_rng(seed)

        def draw(*shape):
            cells = rng.choice(_CELLS, size=shape)
            cells[rng.random(shape) < nan_share] = np.nan
            return cells

        values = _laid_out(draw(batch, channels, length), channel_last)
        weight, bias = draw(channels * kernel_size, out_channels), draw(out_channels)
        if positions < 2:  # no pair to pool: both refuse
            for block in (nn.Conv1d.relu_pool, composed_relu_pool):
                with pytest.raises(ValueError), executing(backend), np.errstate(all="ignore"):
                    _block_results(block, values, weight, bias, None, kernel_size, 1, padding)
            return
        grad = draw(batch, out_channels, positions // 2)
        with np.errstate(all="ignore"), executing(backend):
            fused = _block_results(nn.Conv1d.relu_pool, values, weight, bias, grad, kernel_size, 1, padding)
            composed = _block_results(composed_relu_pool, values, weight, bias, grad, kernel_size, 1, padding)
        for ours, reference in zip(fused, composed):
            assert np.array_equal(_bits(np.ascontiguousarray(ours)), _bits(np.ascontiguousarray(reference)))

    @given(
        seed=st.integers(0, 2**16),
        batch=st.integers(1, 3),
        in_channels=st.integers(1, 4),
        out_channels=st.integers(1, 4),
        kernel_size=st.integers(1, 5),
        stride=st.integers(1, 6),
        padding=st.integers(0, 3),
        extra=st.integers(0, 30),
        channel_last=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_conv_bit_identical_to_oracle(
        self, seed, batch, in_channels, out_channels, kernel_size, stride, padding, extra,
        channel_last,
    ):
        """Any kernel, stride and padding, on normal values."""
        rng = np.random.default_rng(seed)
        length = kernel_size + stride + extra  # at least two positions to pool
        shape = (batch, in_channels, length)
        values = _laid_out(rng.normal(size=shape), channel_last)
        weight = rng.normal(size=(in_channels * kernel_size, out_channels))
        bias = rng.normal(size=out_channels)
        positions = (length + 2 * padding - kernel_size) // stride + 1
        grad = rng.normal(size=(batch, out_channels, positions // 2))
        results = [
            _block_results(block, values, weight, bias, grad, kernel_size, stride, padding)
            for block in (nn.Conv1d.relu_pool, composed_relu_pool)
        ]
        for ours, reference in zip(*results):
            assert np.array_equal(_bits(np.ascontiguousarray(ours)), _bits(np.ascontiguousarray(reference)))


class TestEncoderTickOracleProperties:
    """The array GRU step and the one-slab tracker equal the ``Tensor`` step
    and the two-slab tracker (``tests/oracles/tensor_inference.py``) in every
    bit, for any batch, width, depth and pattern of finished episodes."""

    @given(
        seed=st.integers(0, 2**16),
        n_envs=st.integers(1, 9),
        hidden_size=st.integers(1, 12),
        num_layers=st.integers(1, 3),
        done_masks=st.lists(st.integers(0, 2**9 - 1), min_size=1, max_size=6),
        backend=st.sampled_from(EXECUTORS),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_slab_tracker_bit_identical_to_two_slab_oracle(
        self, seed, n_envs, hidden_size, num_layers, done_masks, backend
    ):
        rng = np.random.default_rng(seed)
        encoder = StateEncoder(hidden_size, num_layers, rng=rng)
        with executing(backend):
            tracker = BatchedEpisodeEncoder(encoder, n_envs)
            oracle = TwoSlabEpisodeEncoder(encoder, n_envs)
            first = rng.uniform(-1, 1, size=(n_envs, 2))
            assert np.array_equal(_bits(tracker.reset_all(first)), _bits(oracle.reset_all(first)))
            for mask in done_masks:
                dones = np.array([bool(mask >> env & 1) for env in range(n_envs)])
                actions = rng.uniform(-1, 1, size=(n_envs, 2))
                observations = rng.uniform(-1, 1, size=(n_envs, 2))
                pairs = np.concatenate([observations, actions])
                got = tracker.step(pairs, dones)
                want = oracle.step(pairs, dones)
                assert np.array_equal(_bits(got), _bits(want))
            for stream, slab in oracle.snapshot().items():
                assert np.array_equal(_bits(tracker.snapshot()[stream]), _bits(slab))
                stepped = encoder.step_pairs(first, slab)
                assert np.array_equal(
                    _bits(stepped), _bits(reference_step_pairs(encoder, first, slab))
                )


_serve_ops = st.one_of(
    st.tuples(st.just("open"), st.integers(0, 5)),
    st.tuples(
        st.just("submit"),
        st.integers(0, 5),
        st.sampled_from([-6000.0, -1460.0, -300.0, 64.0, 700.0, 1460.0, 4000.0]),
        st.sampled_from([0.0, 1.5, 40.0, 250.0]),
    ),
    st.tuples(st.just("poll")),
    st.tuples(st.just("drain")),
    st.tuples(st.just("close"), st.integers(0, 5)),
    st.tuples(st.just("demote"), st.integers(0, 5)),
)

# Sizes far above what one decision can emit (at most ``size_scale`` = 1460
# bytes), so a packet is truncated until the per-packet cap closes it.
# Submits are three of the seven kinds, so batches fill.
_flush_submit = st.tuples(
    st.just("submit"),
    st.integers(0, 4),
    st.sampled_from([-60000.0, -9000.0, -1461.0, 64.0, 1461.0, 20000.0, 60000.0]),
    st.sampled_from([0.0, 2.0, 99.0]),
)
_flush_ops = st.one_of(
    _flush_submit,
    _flush_submit,
    _flush_submit,
    st.tuples(st.just("poll")),
    st.tuples(st.just("flush")),
    st.tuples(st.just("close"), st.integers(0, 4)),
    st.tuples(st.just("demote"), st.integers(0, 4)),
)


class TestServeTableOracleProperties:
    """The session-table server equals the stack / split server
    (``tests/oracles/serve_reference.py``) in every decision and every bit of
    hidden state, for any schedule of open / submit / poll / close / reopen
    (a reopened id takes a recycled slot) with demotions in between."""

    @given(
        seed=st.integers(0, 2**16),
        max_batch=st.sampled_from([1, 2, 3, 16]),
        max_steps=st.sampled_from([None, 4]),
        deadline_ms=st.sampled_from([None, 5.0]),
        ops=st.lists(_serve_ops, min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_any_schedule_bit_identical_to_stack_split_oracle(
        self, seed, max_batch, max_steps, deadline_ms, ops
    ):
        rng = np.random.default_rng(seed)
        encoder = StateEncoder(hidden_size=5, num_layers=2, rng=rng)
        actor = GaussianActor(state_dim=10, hidden_dims=(8,), rng=rng)
        config = ServeConfig(
            size_scale=1460.0,
            max_batch=max_batch,
            flush_timeout_ms=1.0,
            max_steps_per_session=max_steps,
            deadline_ms=deadline_ms,
            miss_window=2,
        )
        servers = LockstepServers((actor, encoder), config, tick_s=0.0008)
        for op, *args in ops:
            name = f"s{args[0]}" if args else None
            if name is not None and name not in servers.table._sessions:
                # A session is opened by its first operation, and reopened
                # (on a recycled slot) by the first one after its close.
                servers.open(name)
            if op in ("poll", "drain"):
                getattr(servers, op)()
            elif op == "open" or servers.table.session(name).closed:
                continue  # already open, or its step budget closed it
            elif op == "submit":
                servers.submit(name, args[1], args[2])
            elif op == "close":
                servers.close(name)
            else:
                servers.demote(name)
        servers.drain()
        for name in list(servers.table._sessions):
            servers.close(name)

    @given(
        seed=st.integers(0, 2**16),
        max_batch=st.sampled_from([1, 3, 16]),
        max_truncations=st.sampled_from([1, 8]),
        max_steps=st.sampled_from([None, 6]),
        deadline_ms=st.sampled_from([None, 0.5, 1.2]),
        ops=st.lists(_flush_ops, min_size=8, max_size=80),
    )
    @settings(max_examples=60, deadline=None)
    def test_flush_bookkeeping_bit_identical_to_stack_split_oracle(
        self, seed, max_batch, max_truncations, max_steps, deadline_ms, ops
    ):
        """The flush's per-batch bookkeeping (one filtering pass, float-pair
        slabs, counters and latency window updated once per flush) keeps
        every stream, table row and counter equal to the oracle's per-decision
        flush after every operation, with packets large enough that every
        one is cut into several sub-packets (the truncation cap closes it)
        and explicit flushes of part-full batches."""
        rng = np.random.default_rng(seed)
        encoder = StateEncoder(hidden_size=4, num_layers=2, rng=rng)
        actor = GaussianActor(state_dim=8, hidden_dims=(6,), rng=rng)
        config = ServeConfig(
            size_scale=1460.0,
            max_batch=max_batch,
            flush_timeout_ms=1.0,
            max_truncations_per_packet=max_truncations,
            max_steps_per_session=max_steps,
            deadline_ms=deadline_ms,
            miss_window=2,
        )
        servers = LockstepServers((actor, encoder), config, tick_s=0.0004)
        for op, *args in ops:
            name = f"s{args[0]}" if args else None
            if name is not None and name not in servers.table._sessions:
                servers.open(name)  # a session is opened by its first operation
            if op == "poll":
                servers.poll()
            elif op == "flush":
                servers.table.flush()
                servers.reference.flush()
                servers.check()
            elif servers.table.session(name).closed:
                continue  # its step budget closed it; nothing to do
            elif op == "submit":
                servers.submit(name, args[1], args[2])
            elif op == "close":
                servers.close(name)
            else:
                servers.demote(name)
        servers.drain()
        assert len(servers.decisions) == servers.table.stats()["decisions"]
        for name in list(servers.table._sessions):
            servers.close(name)


class TestPPONodeOracleProperties:
    """The PPO update's fat nodes equal the composed ``Tensor`` graph
    (``tests/oracles/composed_ppo.py``) in every bit of both losses, the
    ratio and every gradient, for any batch, widths and clip range — rows
    whose ratio is exactly 1 (on both clip bounds when ε = 0) and tied or
    zero advantages included."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 40),
        state_dim=st.integers(1, 9),
        hidden=st.lists(st.integers(1, 12), max_size=3).map(tuple),
        clip_epsilon=st.one_of(st.sampled_from([0.0, 0.1, 0.2]), st.floats(0.0, 0.9)),
        unchanged_rows=st.integers(0, 2**40 - 1),
        advantage_pool=st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, -1.0]), st.floats(-3.0, 3.0)), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_policy_and_value_step_bit_identical_to_composed_graph(
        self, seed, n, state_dim, hidden, clip_epsilon, unchanged_rows, advantage_pool
    ):
        rng = np.random.default_rng(seed)
        states = rng.normal(size=(n, state_dim))
        actions = rng.normal(size=(n, 2))
        returns = rng.normal(size=n)
        advantages = rng.choice(np.array(advantage_pool), size=n)
        moved = np.array([not (unchanged_rows >> row & 1) for row in range(n)])
        drift = rng.normal(size=n) * 0.3 * moved

        def run(log_prob_and_entropy, critic_forward, policy_loss_node, mse_loss, backward):
            actor = GaussianActor(state_dim, hidden_dims=hidden, rng=np.random.default_rng(seed))
            critic = Critic(state_dim, hidden_dims=hidden, rng=np.random.default_rng(seed + 1))
            actor.log_std.data = np.random.default_rng(seed + 2).normal(size=2) * 0.3
            inputs = nn.Tensor(states)
            log_probs, entropy = log_prob_and_entropy(actor, inputs, actions)
            policy_loss, ratio = policy_loss_node(
                log_probs, entropy, log_probs.data - drift, advantages, clip_epsilon, 0.01
            )
            backward(policy_loss)
            value_loss = mse_loss(critic_forward(critic, inputs), nn.Tensor(returns))
            backward(value_loss)
            grads = [p.grad for p in actor.parameters() + critic.parameters()]
            return [policy_loss.data, value_loss.data, ratio] + grads

        got = run(
            GaussianActor.log_prob_and_entropy,
            Critic.forward,
            nn.functional.ppo_policy_loss,
            nn.functional.mse_loss,
            nn.Tensor.backward,
        )
        want = run(
            composed_ppo.composed_log_prob_and_entropy,
            composed_ppo.composed_critic_forward,
            composed_ppo.composed_ppo_policy_loss,
            composed_ppo.composed_mse_loss,
            composed_ppo.recursive_backward,
        )
        assert np.array_equal(got[2][~moved], np.ones(np.count_nonzero(~moved)))
        for got_array, want_array in zip(got, want):
            assert np.array_equal(_bits(got_array), _bits(want_array))


def _old_log_prob_for_ratio(new: float, target: float) -> float:
    """An old log-probability whose ratio ``exp(new + -old)`` — the
    production and composed ratio expression — is exactly ``target``: the
    nearest ``old`` to ``new - log(target)`` that hits it.  With ``|new|``
    small the reachable ratios are finer than the spacing of floats near
    ``target``, so there always is one."""
    old = new - np.log(target)
    for _ in range(64):
        ratio = np.exp(new + -old)
        if ratio == target:
            return old
        old = np.nextafter(old, np.inf if ratio > target else -np.inf)
    raise AssertionError(f"no old log-probability gives ratio {target} from {new}")


class TestPolicyLossEdgeProperties:
    """The folded policy loss on the edges of the clipped surrogate: ratios
    exactly on both clip bounds and exactly 1, products tied between the
    raw and clipped branches, ``±0.0`` advantages — every bit of the loss,
    the ratio and every actor gradient equals the composed graph
    (``tests/oracles/composed_ppo.py``).  A NaN advantage makes the same
    values NaN, and the update raises ``FloatingPointError`` naming the
    policy loss and leaves every weight as it was."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 24),
        hidden=st.lists(st.integers(1, 8), max_size=2).map(tuple),
        clip_epsilon=st.one_of(st.sampled_from([0.1, 0.2]), st.floats(0.05, 0.3)),
        kinds=st.lists(st.sampled_from(["high", "low", "one", "free"]), min_size=24, max_size=24),
        advantage_pool=st.lists(
            st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-3.0, 3.0)),
            min_size=1,
            max_size=4,
        ),
        nan_row=st.one_of(st.none(), st.integers(0, 23)),
    )
    @settings(max_examples=60, deadline=None)
    def test_clip_bounds_ties_and_signed_zeros_match_composed_graph(
        self, seed, n, hidden, clip_epsilon, kinds, advantage_pool, nan_row
    ):
        rng = np.random.default_rng(seed)
        state_dim = 5
        states = rng.normal(size=(n, state_dim))

        def networks():
            actor = GaussianActor(state_dim, hidden_dims=hidden, rng=np.random.default_rng(seed))
            critic = Critic(state_dim, hidden_dims=hidden, rng=np.random.default_rng(seed + 1))
            # log_std cancels the density's constant, so log-probabilities
            # near the mean are small and every ratio near 1 is reachable.
            actor.log_std.data = np.full(2, -0.5 * np.log(2.0 * np.pi))
            return actor, critic

        actor, _ = networks()
        mean, _ = actor.act_batch(states)
        actions = mean + rng.normal(size=(n, 2)) * 0.05
        with nn.no_grad():
            new = actor.log_prob_and_entropy(nn.Tensor(states), actions)[0].data
        targets = {"high": 1.0 + clip_epsilon, "low": 1.0 - clip_epsilon, "one": 1.0}
        old = new - rng.normal(size=n) * 0.3
        exact = {row: targets[kinds[row]] for row in range(n) if kinds[row] in targets}
        for row, target in exact.items():
            old[row] = _old_log_prob_for_ratio(new[row], target)
        advantages = rng.choice(np.array(advantage_pool), size=n)
        if nan_row is not None and nan_row < n:
            advantages[nan_row] = np.nan

        def run(log_prob_and_entropy, policy_loss_node, backward):
            actor, _ = networks()
            log_probs, entropy = log_prob_and_entropy(actor, nn.Tensor(states), actions)
            loss, ratio = policy_loss_node(log_probs, entropy, old, advantages, clip_epsilon, 0.01)
            backward(loss)
            return [loss.data, ratio] + [p.grad for p in actor.parameters()]

        with np.errstate(invalid="ignore"):
            got = run(
                GaussianActor.log_prob_and_entropy,
                nn.functional.ppo_policy_loss,
                nn.Tensor.backward,
            )
            want = run(
                composed_ppo.composed_log_prob_and_entropy,
                composed_ppo.composed_ppo_policy_loss,
                composed_ppo.recursive_backward,
            )
        for row, target in exact.items():
            assert got[1][row] == target
        if nan_row is None or nan_row >= n:
            for got_array, want_array in zip(got, want):
                assert np.array_equal(_bits(got_array), _bits(want_array))
            return

        # A NaN advantage poisons the loss and every gradient; which NaN is
        # not part of the contract, since the update refuses to step on it.
        for got_array, want_array in zip(got, want):
            assert np.array_equal(got_array, want_array, equal_nan=True)
        actor, critic = networks()
        buffer = RolloutBuffer(n, 1, state_dim, 2)
        buffer.load(
            states[:, None],
            actions[:, None],
            old[:, None],
            np.zeros((n, 1)),
            np.zeros((n, 1)),
            np.zeros((n, 1), dtype=bool),
        )
        buffer.finalize(np.zeros(1), 0.99, 0.95)
        buffer.advantages[nan_row, 0] = np.nan
        config = AmoebaConfig(n_minibatches=1, update_epochs=1, clip_epsilon=clip_epsilon)
        updater = PPOUpdater(actor, critic, config, rng=0)
        before = [p.data.copy() for p in actor.parameters() + critic.parameters()]
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="policy loss"):
            updater.update(buffer)
        after = actor.parameters() + critic.parameters()
        assert all(np.array_equal(_bits(a), _bits(b.data)) for a, b in zip(before, after))


class TestECDFProperties:
    @given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_ecdf_final_probability_is_one(self, samples):
        ecdf = empirical_cdf(samples)
        assert ecdf.probabilities[-1] == pytest.approx(1.0)
        assert np.all(np.diff(ecdf.probabilities) >= 0)


_FIXTURE_POLICY = Path(__file__).resolve().parents[1] / "benchmarks/perf/fixtures/policy.npz"
_POLICY_BYTES = _FIXTURE_POLICY.read_bytes()


def _structural_bytes(data: bytes) -> list:
    """Byte offsets of what is not array data: every local file header and
    ``.npy`` header, the central directory and the end record."""
    archive = zipfile.ZipFile(io.BytesIO(data))
    positions = []
    for info in archive.infolist():
        positions.extend(range(info.header_offset, info.header_offset + 30 + len(info.filename) + 128))
    end = data.rfind(b"PK\x05\x06")
    (directory,) = struct.unpack_from("<L", data, end + 16)
    positions.extend(range(directory, len(data)))
    return positions


# Any bit, or (as often) a bit of the archive's structure, where damage can
# hide members or reach a parser instead of failing a CRC.
_policy_bits = st.one_of(
    st.integers(0, 8 * len(_POLICY_BYTES) - 1),
    st.builds(
        lambda position, bit: 8 * position + bit,
        st.sampled_from(_structural_bytes(_POLICY_BYTES)),
        st.integers(0, 7),
    ),
)


class TestCheckpointBytesProperties:
    """Any truncation or any one flipped bit of the fixture policy reads back
    as the original content (keys in order, dtypes, shapes, bytes; the same
    metadata) or raises ``CheckpointError``: never another exception, never
    different content."""

    ORIGINAL = nn.state_dict_from_bytes(_POLICY_BYTES)
    METADATA = metadata_from_bytes(_POLICY_BYTES)

    def _assert_original_or_refused(self, data: bytes) -> None:
        try:
            state = nn.state_dict_from_bytes(data)
        except CheckpointError:
            pass
        else:
            assert list(state) == list(self.ORIGINAL)
            for key, original in self.ORIGINAL.items():
                assert (state[key].dtype, state[key].shape) == (original.dtype, original.shape)
                assert state[key].tobytes() == original.tobytes(), key
        try:
            metadata = metadata_from_bytes(data)
        except CheckpointError:
            return
        assert metadata == self.METADATA

    @given(cut=st.integers(0, len(_POLICY_BYTES)))
    @settings(max_examples=150, deadline=None)
    def test_any_truncation_reads_the_original_or_is_refused(self, cut):
        self._assert_original_or_refused(_POLICY_BYTES[:cut])

    # A flip inside a member's ``.npy`` header once raised tokenize.TokenError;
    # one in a central-directory length field once hid seven members (the
    # metadata among them) behind passing CRCs.
    @example(bit=2396)
    @example(bit=1459569)
    @given(bit=_policy_bits)
    @settings(max_examples=300, deadline=None)
    def test_any_bit_flip_reads_the_original_or_is_refused(self, bit):
        data = bytearray(_POLICY_BYTES)
        data[bit // 8] ^= 1 << (bit % 8)
        self._assert_original_or_refused(bytes(data))


_PROFILE_FLOWS = build_tor_dataset(n_censored=6, n_benign=6, rng=np.random.default_rng(21), max_packets=40)


def _flow_file_bytes(writer) -> bytes:
    """What ``writer`` writes for the 12 flows of ``_PROFILE_FLOWS``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "flows.jsonl"
        writer(_PROFILE_FLOWS if writer is save_dataset else _PROFILE_FLOWS.flows, path)
        return path.read_bytes()


_FLOW_FILES = {writer.__name__: _flow_file_bytes(writer) for writer in (save_dataset, save_flows_jsonl)}
_flow_file_names = st.sampled_from(sorted(_FLOW_FILES))


@st.composite
def _flow_file_bits(draw):
    """A file and one bit of it: any bit, or (as often) a bit of its header
    line or of a line break."""
    name = draw(_flow_file_names)
    data = _FLOW_FILES[name]
    structural = [*range(data.index(b"\n") + 1), *(i for i, byte in enumerate(data) if byte == ord("\n"))]
    position = draw(st.one_of(st.integers(0, len(data) - 1), st.sampled_from(structural)))
    return name, 8 * position + draw(st.integers(0, 7))


class TestFlowFileBytesProperties:
    """Any truncation or any one flipped bit of a ``save_dataset`` file or a
    ``save_flows_jsonl`` file (what ``serve --profiles`` reads) loads as the
    saved flows (sizes and delays bit for bit, label, protocol, metadata) or
    raises ``ValueError``: never another exception, never other flows."""

    @staticmethod
    def _assert_original_or_refused(data: bytes) -> None:
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "flows.jsonl"
            path.write_bytes(data)
            try:
                flows = load_flows_jsonl(path)
            except ValueError as error:
                assert str(error).startswith(str(path))
                return
        assert len(flows) == len(_PROFILE_FLOWS)
        for got, want in zip(flows, _PROFILE_FLOWS):
            assert got.sizes.tobytes() == want.sizes.tobytes()
            assert got.delays.tobytes() == want.delays.tobytes()
            assert (got.label, got.protocol, got.metadata) == (want.label, want.protocol, want.metadata)

    # Cut at byte 0, a file used to load as no flows at all.
    @example(cut=("save_dataset", 0))
    @given(cut=_flow_file_names.flatmap(lambda name: st.tuples(st.just(name), st.integers(0, len(_FLOW_FILES[name])))))
    @settings(max_examples=150, deadline=None)
    def test_any_truncation_loads_the_original_or_is_refused(self, cut):
        name, length = cut
        self._assert_original_or_refused(_FLOW_FILES[name][:length])

    @given(flip=_flow_file_bits())
    @settings(max_examples=300, deadline=None)
    def test_any_bit_flip_loads_the_original_or_is_refused(self, flip):
        name, bit = flip
        data = bytearray(_FLOW_FILES[name])
        data[bit // 8] ^= 1 << (bit % 8)
        self._assert_original_or_refused(bytes(data))

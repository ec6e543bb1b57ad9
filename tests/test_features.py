"""Unit tests for feature extraction (statistical, CUMUL, sequence representation)."""

import tracemalloc

import numpy as np
import pytest

from repro.features import (
    N_STATISTICAL_FEATURES,
    CumulFeatureExtractor,
    FlowNormalizer,
    SequenceRepresentation,
    StatisticalFeatureExtractor,
)
from repro.features.statistical import _SUMMARY_NAMES, _segment_summaries
from repro.flows import Flow, FlowLabel

from oracles.statistical_reference import (
    StatisticalFeatureExtractor as ReferenceStatisticalFeatureExtractor,
)


def assert_bitwise_equal(actual, expected, names=None):
    """``view(uint64)`` equality, naming the first few offending features."""
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    differing = np.argwhere(actual.view(np.uint64) != expected.view(np.uint64))
    if len(differing):
        shown = [
            (tuple(index), names[index[-1]] if names else None, actual[tuple(index)], expected[tuple(index)])
            for index in differing[:5]
        ]
        raise AssertionError(f"{len(differing)} values differ bitwise, first: {shown}")


class TestStatisticalFeatures:
    def test_feature_count_is_166(self):
        extractor = StatisticalFeatureExtractor()
        assert len(extractor.feature_names()) == N_STATISTICAL_FEATURES == 166

    def test_names_match_count_and_are_unique(self):
        extractor = StatisticalFeatureExtractor()
        names = extractor.feature_names()
        assert len(names) == 166
        assert len(set(names)) == 166

    def test_categories_cover_all_features(self):
        extractor = StatisticalFeatureExtractor()
        categories = extractor.feature_categories()
        assert len(categories) == 166
        assert set(categories) == {"packet", "timing"}

    def test_extract_vector_shape_and_finiteness(self, simple_flow):
        vector = StatisticalFeatureExtractor().extract(simple_flow)
        assert vector.shape == (166,)
        assert np.all(np.isfinite(vector))

    def test_extract_many_matrix(self, tor_dataset):
        matrix = StatisticalFeatureExtractor().extract_many(tor_dataset.flows[:10])
        assert matrix.shape == (10, 166)

    def test_single_packet_flow(self):
        flow = Flow(sizes=[500.0], delays=[0.0])
        vector = StatisticalFeatureExtractor().extract(flow)
        assert np.all(np.isfinite(vector))

    def test_unidirectional_flow(self):
        flow = Flow(sizes=[100.0, 200.0, 300.0], delays=[0.0, 1.0, 2.0])
        vector = StatisticalFeatureExtractor().extract(flow)
        names = StatisticalFeatureExtractor().feature_names()
        # downstream packet count should be zero
        assert vector[names.index("n_packets_down")] == 0.0

    def test_packet_count_features_correct(self, simple_flow):
        extractor = StatisticalFeatureExtractor()
        vector = extractor.extract(simple_flow)
        names = extractor.feature_names()
        assert vector[names.index("n_packets")] == 4
        assert vector[names.index("n_packets_up")] == 2
        assert vector[names.index("n_packets_down")] == 2

    def test_duration_feature(self, simple_flow):
        extractor = StatisticalFeatureExtractor()
        vector = extractor.extract(simple_flow)
        assert vector[extractor.feature_names().index("duration_ms")] == pytest.approx(75.0)

    def test_burst_counts(self):
        flow = Flow(sizes=[100.0, 200.0, -300.0, -400.0, 500.0], delays=[0.0, 1.0, 1.0, 1.0, 1.0])
        extractor = StatisticalFeatureExtractor()
        vector = extractor.extract(flow)
        names = extractor.feature_names()
        assert vector[names.index("burst_count_total")] == 3
        assert vector[names.index("direction_changes")] == 2

    def test_tor_vs_https_features_differ(self, tor_dataset):
        extractor = StatisticalFeatureExtractor()
        censored = extractor.extract_many(tor_dataset.censored_flows[:20]).mean(axis=0)
        benign_flows = [f for f in tor_dataset.flows if f.label == FlowLabel.BENIGN]
        benign = extractor.extract_many(benign_flows[:20]).mean(axis=0)
        assert not np.allclose(censored, benign)


SWEEP_FAMILIES = (
    "integer sizes",
    "unidirectional up",
    "unidirectional down",
    "single-packet direction",
    "constant",
    "heavy ties",
    "non-integer sizes",
    "zero delays",
)


def sweep_flows(family):
    """One flow of every length 1..200 from ``family`` (deterministic)."""
    rng = np.random.default_rng([20230905, SWEEP_FAMILIES.index(family)])
    flows = []
    for n in range(1, 201):
        mixed = rng.choice([-1.0, 1.0], n)
        delays = rng.exponential(10.0, n)
        if family == "integer sizes":
            sizes = rng.integers(40, 1500, n) * mixed
        elif family == "unidirectional up":
            sizes = rng.uniform(1.0, 1500.0, n)
        elif family == "unidirectional down":
            sizes = -rng.uniform(1.0, 1500.0, n)
        elif family == "single-packet direction":
            sizes = rng.uniform(1.0, 1500.0, n)
            sizes[rng.integers(n)] *= -1.0
        elif family == "constant":  # the ``std < 1e-12`` branch, in every group
            sizes = np.full(n, 536.0) * mixed
            delays = np.full(n, 0.1)
        elif family == "heavy ties":
            sizes = rng.choice([100.0, 536.0, 1460.0], n) * mixed
            delays = rng.choice([0.0, 1.0, 5.0], n)
        elif family == "non-integer sizes":
            sizes = rng.uniform(0.001, 1500.0, n) * np.where(np.arange(n) % 2, -1.0, 1.0)
            delays = np.round(delays, 2)
        else:
            sizes = rng.integers(40, 1500, n) * mixed
            delays = np.zeros(n)
        flows.append(Flow(sizes=sizes, delays=delays))
    return flows


class TestStatisticalKernelMatchesOracle:
    """The kernel is bit-identical to the seed implementation."""

    @pytest.mark.parametrize("family", SWEEP_FAMILIES)
    def test_sweep_is_bitwise_equal_to_oracle(self, family):
        flows = sweep_flows(family)
        extractor = StatisticalFeatureExtractor()
        oracle = ReferenceStatisticalFeatureExtractor()
        expected = np.vstack([oracle.extract(flow) for flow in flows])
        names = extractor.feature_names()
        assert_bitwise_equal(extractor.extract_many(flows), expected, names)
        # ... and the one-flow entry point, on a spread of lengths.
        for flow in flows[::23]:
            assert_bitwise_equal(extractor.extract(flow), oracle.extract(flow), names)

    def test_rows_do_not_depend_on_batch_composition(self):
        flows = [flow for family in SWEEP_FAMILIES for flow in sweep_flows(family)[:60:3]]
        extractor = StatisticalFeatureExtractor()
        stacked = np.vstack([extractor.extract(flow) for flow in flows])
        assert_bitwise_equal(extractor.extract_many(flows), stacked)
        order = np.random.default_rng(5).permutation(len(flows))
        shuffled = extractor.extract_many([flows[i] for i in order])
        assert_bitwise_equal(shuffled, stacked[order])
        # Any sub-batch, down to a single flow, yields the same rows.
        assert_bitwise_equal(extractor.extract_many(flows[7:19]), stacked[7:19])
        assert_bitwise_equal(extractor.extract_many(flows[40:41]), stacked[40:41])

    def test_overflowing_sums_match_oracle(self):
        # Finite flows whose duration / byte sums overflow: the gap and burst
        # groups then hold inf and NaN, which min / max / median propagate.
        huge = 1.7e308
        flows = [
            Flow(sizes=[100.0, 200.0, 300.0, 400.0], delays=[0.0, huge, huge, huge]),
            Flow(sizes=[huge, huge, -huge, huge, huge, -5.0], delays=[0.0, 1.0, huge, 2.0, huge, huge]),
            Flow(sizes=[-huge, -huge, 7.0, -huge, -huge], delays=[huge] * 5),
        ]
        extractor = StatisticalFeatureExtractor()
        oracle = ReferenceStatisticalFeatureExtractor()
        with np.errstate(all="ignore"):
            expected = np.vstack([oracle.extract(flow) for flow in flows])
            actual = extractor.extract_many(flows)
        assert np.all(np.isfinite(actual))
        assert_bitwise_equal(actual, expected, extractor.feature_names())

    def test_empty_batch(self):
        assert StatisticalFeatureExtractor().extract_many([]).shape == (0, 166)

    def test_decile_lerp_equals_numpy_percentile(self):
        """A numpy upgrade that changes the ``linear`` formula must fail here.

        The three value families of each length are three segments of one
        length bucket, so the kernel's row lerp runs on a ``(3, n)`` matrix.
        """
        rng = np.random.default_rng(11)
        no_summaries = [False] * (len(_SUMMARY_NAMES) + 1)
        for n in range(1, 201):
            families = (
                rng.uniform(0.0, 1500.0, n),
                rng.choice([0.1, 0.3, 536.0, 1460.0], n),
                np.full(n, 1.0 / 3.0),
            )
            _, deciles = _segment_summaries(
                np.concatenate(families), np.full(3, n), n_deciled=3, read=no_summaries
            )
            expected = [[np.percentile(values, q) for q in range(10, 100, 10)] for values in families]
            assert_bitwise_equal(deciles, expected)


def test_row_reduce_equals_vector_reduce():
    """A numpy upgrade that changes how ``axis=1`` reductions run must fail here.

    The batched kernel reduces a gathered C-contiguous ``(k, n)`` matrix along
    ``axis=1`` and relies on every row rounding exactly as the 1-D pairwise
    ``add.reduce`` of that row alone (and likewise for ``cumsum``).
    """
    rng = np.random.default_rng(17)
    lengths = [*range(1, 301), 511, 512, 513, 1000, 1025]  # spans the 8- and 128-wide blocks
    for n in lengths:
        for k in (1, 2, 3, 7, 16, 129) if n <= 130 else (1, 3, 16):
            for magnitude in (1e-6, 1.0, 1e6):
                pool = rng.standard_normal(k * n + 7) * magnitude
                offsets = np.arange(k) * n + rng.integers(0, 8, k)
                matrix = pool[offsets[:, None] + np.arange(n)]
                assert matrix.flags.c_contiguous
                rows = [pool[offset : offset + n] for offset in offsets]
                where = f"n={n} k={k} magnitude={magnitude}"
                for name, operand in (
                    ("values", lambda a: a),
                    ("squares", lambda a: a * a),
                    ("cubes", lambda a: a ** 3),
                    ("fourth powers", lambda a: a ** 4),
                ):
                    reduced = np.add.reduce(operand(matrix), axis=1)
                    alone = np.asarray([np.add.reduce(operand(row)) for row in rows])
                    assert np.array_equal(reduced.view(np.uint64), alone.view(np.uint64)), (
                        f"add.reduce(axis=1) of {name} no longer equals the 1-D reduce ({where}, "
                        f"numpy {np.__version__}): _batch_features is not bit-identical to the seed extractor"
                    )
                assert np.array_equal(
                    np.cumsum(matrix, axis=1).view(np.uint64),
                    np.vstack([np.cumsum(row) for row in rows]).view(np.uint64),
                ), f"cumsum(axis=1) no longer equals the 1-D cumsum ({where}, numpy {np.__version__})"


def test_reduceat_extrema_equal_segment_extrema():
    """A numpy upgrade that changes ``minimum`` / ``maximum.reduceat`` must fail here.

    An extremum-only read takes the min / max of every segment from one
    ``reduceat`` over the concatenated segments and relies on each result
    carrying the bits of that segment's ``ndarray.min()`` / ``max()`` -- a
    NaN (an overflowed gap or burst) anywhere in the segment included.
    """
    rng = np.random.default_rng(19)
    lengths = np.asarray([*range(1, 41), 63, 64, 65, 127, 128, 129, 1000, *rng.integers(1, 300, 200)])
    starts = np.cumsum(lengths) - lengths
    for family in ("normal", "ties", "non-finite"):
        if family == "normal":
            values = rng.standard_normal(lengths.sum()) * 10.0 ** rng.integers(-6, 7, lengths.sum())
        elif family == "ties":
            values = rng.choice([0.0, 0.1, 536.0, 1460.0], lengths.sum())
        else:
            values = rng.choice([1.0, 5e-324, 1.7e308, np.inf, -np.inf, np.inf - np.inf], lengths.sum())
            values[starts[::3]] = np.nan  # a NaN first,
            values[(starts + lengths - 1)[1::3]] = np.nan  # last, or nowhere in the segment
        for ufunc, method in ((np.minimum, "min"), (np.maximum, "max")):
            reduced = ufunc.reduceat(values, starts)
            alone = np.asarray([getattr(values[start : start + n], method)() for start, n in zip(starts, lengths)])
            assert np.array_equal(reduced.view(np.uint64), alone.view(np.uint64)), (
                f"{ufunc.__name__}.reduceat no longer equals ndarray.{method}() per segment ({family}, "
                f"numpy {np.__version__}): _segment_summaries is not bit-identical to the seed extractor"
            )


def mixed_flow(rng, n):
    """A bidirectional flow of ``n`` packets with non-integer sizes and a few ties."""
    sizes = np.where(rng.random(n) < 0.3, 536.0, rng.uniform(1.0, 1500.0, n))
    delays = np.where(rng.random(n) < 0.2, 0.0, rng.exponential(10.0, n))
    return Flow(sizes=sizes * rng.choice([-1.0, 1.0], n), delays=delays)


def oracle_rows(flows):
    oracle = ReferenceStatisticalFeatureExtractor()
    with np.errstate(all="ignore"):
        return np.vstack([oracle.extract(flow) for flow in flows])


class TestBatchedKernelMatchesOracle:
    """The length-bucketed row kernel behind every ``extract_many`` batch."""

    names = StatisticalFeatureExtractor().feature_names()

    def test_settle_shaped_blocks(self):
        # What ``VectorFlowEnv.settle`` sends: every prefix of a few episodes,
        # as zero-copy views, 128 flows to a block.
        rng = np.random.default_rng(31)
        episodes = [mixed_flow(rng, n) for n in (80, 80, 67, 55, 41, 33, 12, 1)]
        prefixes = [
            prefix
            for episode in episodes
            for prefix in episode.prefix_views(range(1, episode.n_packets + 1))
        ]
        order = rng.permutation(len(prefixes))  # a block interleaves the episodes
        prefixes = [prefixes[index] for index in order]
        assert {flow.n_packets for flow in prefixes} == set(range(1, 81))
        extractor = StatisticalFeatureExtractor()
        for start in range(0, len(prefixes), 128):
            block = prefixes[start : start + 128]
            assert_bitwise_equal(extractor.extract_many(block), oracle_rows(block), self.names)

    def test_overflowed_rows_do_not_leak_into_their_bucket(self):
        # ``test_overflowing_sums_match_oracle``'s flows, each next to ordinary
        # flows with the same direction pattern -- hence the same operand
        # lengths in every group, so they share every length bucket.
        huge = 1.7e308
        poisoned = [
            Flow(sizes=[100.0, 200.0, 300.0, 400.0], delays=[0.0, huge, huge, huge]),
            Flow(sizes=[huge, huge, -huge, huge, huge, -5.0], delays=[0.0, 1.0, huge, 2.0, huge, huge]),
            Flow(sizes=[-huge, -huge, 7.0, -huge, -huge], delays=[huge] * 5),
        ]
        rng = np.random.default_rng(33)
        flows = []
        for flow in poisoned:
            n = flow.n_packets
            for _ in range(2):
                flows.append(
                    Flow(sizes=np.sign(flow.sizes) * rng.uniform(1.0, 1500.0, n), delays=rng.exponential(10.0, n))
                )
            flows.insert(len(flows) - 1, flow)
        with np.errstate(all="ignore"):
            actual = StatisticalFeatureExtractor().extract_many(flows)
        assert np.all(np.isfinite(actual))
        assert_bitwise_equal(actual, oracle_rows(flows), self.names)

    def test_empty_and_one_value_operands(self):
        # Upstream-only / downstream-only flows give count-0 and count-1
        # operands in the other direction's groups; a one-packet flow gives
        # nothing but.
        rng = np.random.default_rng(34)
        flows = [mixed_flow(rng, int(n)) for n in rng.integers(2, 60, 128)]
        flows[5] = Flow(sizes=[812.5], delays=[0.0])
        flows[6] = Flow(sizes=[-812.5], delays=[3.0])
        flows[40] = Flow(sizes=rng.uniform(1.0, 1500.0, 23), delays=rng.exponential(10.0, 23))
        flows[41] = Flow(sizes=-rng.uniform(1.0, 1500.0, 23), delays=rng.exponential(10.0, 23))
        flows[42] = Flow(sizes=[100.0, 100.0, -7.5], delays=[0.0, 1.0, 1.0])
        flows[43] = Flow(sizes=[-100.0, 7.5, -100.0], delays=[0.0, 0.0, 0.0])
        assert_bitwise_equal(
            StatisticalFeatureExtractor().extract_many(flows), oracle_rows(flows), self.names
        )

    def test_memory_is_linear_in_total_packets(self):
        # One very long flow must not pad 500 short ones to its width: that
        # alone would be 501 float64 per packet of the batch.
        rng = np.random.default_rng(35)
        n = 200_000
        long_flow = Flow(
            sizes=rng.integers(40, 1500, n) * rng.choice([-1.0, 1.0], n), delays=rng.exponential(10.0, n)
        )
        flows = [Flow(sizes=[float(size)], delays=[0.0]) for size in rng.integers(40, 1500, 500)]
        flows.insert(250, long_flow)
        extractor = StatisticalFeatureExtractor()
        tracemalloc.start()
        try:
            matrix = extractor.extract_many(flows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Measured 31 float64 per packet.
        assert peak < 64 * 8 * (n + 500), f"peak {peak / 1e6:.0f} MB"
        assert_bitwise_equal(matrix[250:251], oracle_rows([long_flow]), self.names)
        assert_bitwise_equal(matrix[:3], oracle_rows(flows[:3]), self.names)


def overflowing_flows():
    """``test_overflowing_sums_match_oracle``'s flows: sums overflow to inf / NaN."""
    huge = 1.7e308
    return [
        Flow(sizes=[100.0, 200.0, 300.0, 400.0], delays=[0.0, huge, huge, huge]),
        Flow(sizes=[huge, huge, -huge, huge, huge, -5.0], delays=[0.0, 1.0, huge, 2.0, huge, huge]),
        Flow(sizes=[-huge, -huge, 7.0, -huge, -huge], delays=[huge] * 5),
    ]


def column_sets():
    """Named column sets: empty, all, each column alone, each statistic
    across its groups, each group's (or section's) columns, random subsets."""
    names = StatisticalFeatureExtractor().feature_names()
    sets = {"empty": [], "all": list(range(len(names)))}
    sets.update({name: [column] for column, name in enumerate(names)})
    for column, name in enumerate(names):
        scope, _, statistic = name.rpartition("_")
        sets.setdefault(f"every {statistic}", []).append(column)
        sets.setdefault(f"group {scope}", []).append(column)
    rng = np.random.default_rng(36)
    for size in (2, 3, 5, 9, 17, 40, 100):
        sets[f"random {size}"] = rng.choice(len(names), size, replace=False).tolist()
    sets["unsorted with repeats"] = [165, 0, 85, 0, 122, 48]
    return sets


class TestColumnSubsetsMatchFullExtraction:
    """``extract_many(flows, columns)`` is ``extract_many(flows)[:, columns]``, bit for bit."""

    def test_every_column_set(self):
        # The 128-flow batch holds the overflowing flows, so inf / NaN
        # operands share buckets with ordinary ones; the others are one
        # overflowing flow alone and a small clean batch.
        pool = [flow for family in SWEEP_FAMILIES for flow in sweep_flows(family)[::13]]
        overflowing = overflowing_flows()
        batches = [overflowing[1:2], overflowing + pool[: 128 - len(overflowing)], pool[-3:]]
        assert [len(batch) for batch in batches] == [1, 128, 3]
        extractor = StatisticalFeatureExtractor()
        sets = column_sets()
        for batch in batches:
            with np.errstate(all="ignore"):
                full = extractor.extract_many(batch)
                for name, columns in sets.items():
                    actual = extractor.extract_many(batch, columns)
                    assert actual.shape == (len(batch), len(columns)), name
                    assert_bitwise_equal(actual, full[:, columns])

    def test_empty_batch_with_columns(self):
        extractor = StatisticalFeatureExtractor()
        assert extractor.extract_many([], [0, 5]).shape == (0, 2)
        assert extractor.extract_many([], []).shape == (0, 0)


_NAMES = StatisticalFeatureExtractor().feature_names()
# What the censors ask for: nothing (every column), no column, the fitted DT
# stump's one split column, sixteen columns across every section (an RF's
# split set), every column.
SWEEP_COLUMN_SETS = {
    "none": None,
    "empty": [],
    "DT stump": [_NAMES.index("pkt_all_min")],
    "RF-like 16": [
        _NAMES.index(name)
        for name in (
            "pkt_all_min", "pkt_up_mean", "pkt_down_std", "time_all_median", "time_up_mad",
            "pkt_up_p50", "time_down_p90", "burst_len_up_max", "burst_bytes_down_skew",
            "burst_count_total", "gap_up_kurtosis", "cumsum_frac_3", "n_packets_down",
            "byte_ratio_up", "throughput_down", "size_entropy",
        )
    ],
    "all 166": list(range(N_STATISTICAL_FEATURES)),
}
SWEEP_BATCH_SIZES = (0, 1, 2, 3, 4, 5, 8, 128)


def batch_sweep_pool():
    """Overflowing and one-packet flows first, then ordinary ones of 1..300 packets."""
    rng = np.random.default_rng(37)
    singles = [
        *overflowing_flows(),
        Flow(sizes=[812.5], delays=[0.0]),
        Flow(sizes=[-812.5], delays=[3.0]),
        mixed_flow(rng, 300),  # an ``attack_many`` final flow
    ]
    return singles, singles + [mixed_flow(rng, int(n)) for n in rng.integers(1, 301, 130)]


class TestBatchSizeSweepMatchesOracle:
    """Every batch size, with and without columns, equals the seed oracle's rows."""

    singles, pool = batch_sweep_pool()
    expected = oracle_rows(pool)

    @pytest.mark.parametrize("column_set", SWEEP_COLUMN_SETS)
    @pytest.mark.parametrize("size", SWEEP_BATCH_SIZES)
    def test_batch_against_oracle(self, size, column_set):
        columns = SWEEP_COLUMN_SETS[column_set]
        selected = slice(None) if columns is None else columns
        if size == 1:
            windows = [range(index, index + 1) for index in range(len(self.singles))]
        else:
            windows = [range(size), range(len(self.pool) - size, len(self.pool))]
        extractor = StatisticalFeatureExtractor()
        for window in windows:
            batch = [self.pool[index] for index in window]
            with np.errstate(all="ignore"):
                actual = extractor.extract_many(batch, columns)
            assert np.all(np.isfinite(actual))
            assert_bitwise_equal(actual, self.expected[list(window)][:, selected])


class TestCumulFeatures:
    def test_feature_count(self, simple_flow):
        extractor = CumulFeatureExtractor(n_interpolation=50)
        assert extractor.n_features == 4 + 100
        assert extractor.extract(simple_flow).shape == (extractor.n_features,)

    def test_without_timing(self):
        extractor = CumulFeatureExtractor(n_interpolation=30, include_timing=False)
        assert extractor.n_features == 34

    @pytest.mark.parametrize("n_interpolation", [1, 0, float("nan"), 2.5])
    def test_invalid_interpolation(self, n_interpolation):
        # NaN used to be accepted, and 2.5 to fail only in ``extract``.
        with pytest.raises(ValueError, match="n_interpolation"):
            CumulFeatureExtractor(n_interpolation=n_interpolation)

    def test_aggregate_counters(self, simple_flow):
        vector = CumulFeatureExtractor(n_interpolation=10).extract(simple_flow)
        assert vector[0] == 2  # upstream packets
        assert vector[1] == 2  # downstream packets
        assert vector[2] == pytest.approx(1072.0)
        assert vector[3] == pytest.approx(1608.0)

    def test_cumulative_trace_endpoint(self, simple_flow):
        extractor = CumulFeatureExtractor(n_interpolation=10, include_timing=False)
        vector = extractor.extract(simple_flow)
        assert vector[-1] == pytest.approx(np.cumsum(simple_flow.sizes)[-1])

    def test_extract_many_shape(self, tor_dataset):
        extractor = CumulFeatureExtractor(n_interpolation=20)
        matrix = extractor.extract_many(tor_dataset.flows[:6])
        assert matrix.shape == (6, 44)
        assert np.array_equal(matrix[3], extractor.extract(tor_dataset.flows[3]))

    def test_empty_batch(self):
        matrix = CumulFeatureExtractor(n_interpolation=20).extract_many([])
        assert matrix.shape == (0, 44) and matrix.dtype == np.float64


class TestFlowNormalizer:
    def test_invalid_scales_rejected(self):
        with pytest.raises(ValueError):
            FlowNormalizer(size_scale=0.0, delay_scale=1.0)

    def test_normalise_clips_to_range(self):
        normalizer = FlowNormalizer(size_scale=1000.0, delay_scale=100.0)
        sizes = normalizer.normalise_sizes(np.array([-5000.0, 500.0, 5000.0]))
        assert np.all((sizes >= -1.0) & (sizes <= 1.0))
        delays = normalizer.normalise_delays(np.array([50.0, 500.0]))
        assert np.all((delays >= 0.0) & (delays <= 1.0))

    def test_normalise_flow_shape(self, simple_flow):
        normalizer = FlowNormalizer(size_scale=1460.0, delay_scale=100.0)
        pairs = normalizer.normalise_flow(simple_flow)
        assert pairs.shape == (4, 2)

class TestSequenceRepresentation:
    def test_transform_pads_to_max_length(self, simple_flow, representation):
        out = representation.transform_many((simple_flow,))[0]
        assert out.shape == (40, 2)
        assert np.all(out[4:] == 0.0)

    def test_transform_truncates_long_flows(self, normalizer):
        representation = SequenceRepresentation(2, normalizer)
        flow = Flow(sizes=[100.0, -200.0, 300.0], delays=[0.0, 1.0, 1.0])
        assert representation.transform_many((flow,)).shape == (1, 2, 2)

    def test_transform_many_and_flat(self, tor_dataset, representation):
        flows = tor_dataset.flows[:5]
        stacked = representation.transform_many(flows)
        flat = representation.transform_flat(flows)
        assert stacked.shape == (5, 40, 2)
        assert flat.shape == (5, 80)
        assert np.allclose(stacked.reshape(5, -1), flat)

    def test_transform_many_bit_identical_to_per_flow_normalisation(self, tor_dataset, normalizer):
        """One fill + one normalisation pass per channel equals padding each
        flow's ``normalise_flow`` pairs (what the seed stacked), bit for bit."""
        rng = np.random.default_rng(7)
        long_flow = Flow(sizes=rng.uniform(60.0, 1460.0, 61) * rng.choice([-1.0, 1.0], 61),
                         delays=rng.exponential(10.0, 61))
        flows = list(tor_dataset.flows[:12]) + [long_flow,
            Flow(sizes=[5e-324, -1e300, 1460.0], delays=[0.0, 1e300, 5e-324]),
            Flow(sizes=[-536.0], delays=[0.0]),
            Flow(sizes=[-0.5], delays=[-0.0]),
            long_flow.prefix_views([1])[0],
            long_flow.prefix_views([long_flow.n_packets])[0],
        ]
        one_packet = [flow for flow in flows if flow.n_packets == 1]
        for max_length in (1, 7, 40):
            representation = SequenceRepresentation(max_length, normalizer)
            expected = np.zeros((len(flows), max_length, 2))
            for row, flow in zip(expected, flows):
                pairs = normalizer.normalise_flow(flow)[:max_length]
                row[: len(pairs)] = pairs
            got = representation.transform_many(flows)
            assert got.flags.c_contiguous and got.dtype == np.float64
            assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
            # any sub-batch is the same rows: one flow, the one-packet flows
            # alone, over-length flows alone, the batch reversed
            for rows in ([0], [i for i, flow in enumerate(flows) if flow.n_packets == 1],
                         [i for i, flow in enumerate(flows) if flow.n_packets > max_length],
                         list(range(len(flows)))[::-1]):
                sub = representation.transform_many([flows[i] for i in rows])
                assert np.array_equal(sub.view(np.uint64), expected[rows].view(np.uint64)), rows
            empty = representation.transform_many([])
            assert empty.shape == (0, max_length, 2) and empty.dtype == np.float64
        assert len(one_packet) == 3 and any(flow.n_packets > 40 for flow in flows)

    def test_invalid_max_length(self, normalizer):
        with pytest.raises(ValueError):
            SequenceRepresentation(0, normalizer)

    def test_n_features(self, representation):
        assert representation.n_features == 80

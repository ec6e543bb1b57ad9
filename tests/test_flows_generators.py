"""Unit tests for the synthetic traffic generators."""

import hashlib

import numpy as np
import pytest

from repro.flows import (
    TCP_MSS,
    TLS_MAX_RECORD,
    TOR_CELL_SIZE,
    FlowLabel,
    HTTPSFlowGenerator,
    HTTPSRecordFlowGenerator,
    TorFlowGenerator,
    V2RayFlowGenerator,
    build_tor_dataset,
    build_v2ray_dataset,
)

from oracles.flow_generators_reference import ReferenceTorFlowGenerator

GENERATORS = [TorFlowGenerator, HTTPSFlowGenerator, V2RayFlowGenerator, HTTPSRecordFlowGenerator]


class TestTorGenerator:
    def test_label_and_protocol(self):
        flow = TorFlowGenerator(rng=0).generate()
        assert flow.label == FlowLabel.CENSORED
        assert flow.protocol == "tor"

    def test_sizes_are_cell_multiples(self):
        flow = TorFlowGenerator(rng=1).generate()
        remainders = np.abs(flow.sizes) % TOR_CELL_SIZE
        assert np.all(remainders == 0)

    def test_bidirectional(self):
        flow = TorFlowGenerator(rng=2).generate()
        assert np.any(flow.sizes > 0) and np.any(flow.sizes < 0)

    def test_first_delay_zero(self):
        flow = TorFlowGenerator(rng=3).generate()
        assert flow.delays[0] == 0.0

    def test_max_packets_respected(self):
        flow = TorFlowGenerator(rng=4, max_packets=25).generate()
        assert flow.n_packets <= 25

    def test_generate_many_count(self):
        flows = TorFlowGenerator(rng=5).generate_many(7)
        assert len(flows) == 7

    def test_generate_many_negative_rejected(self):
        with pytest.raises(ValueError):
            TorFlowGenerator(rng=0).generate_many(-1)

    def test_circuit_latency_visible_in_downstream_delays(self):
        generator = TorFlowGenerator(rng=6, circuit_latency_ms=150.0)
        flow = generator.generate()
        assert flow.delays.max() > 50.0


class TestHTTPSGenerator:
    def test_label_benign(self):
        flow = HTTPSFlowGenerator(rng=0).generate()
        assert flow.label == FlowLabel.BENIGN

    def test_sizes_bounded_by_mss(self):
        flow = HTTPSFlowGenerator(rng=1).generate()
        assert np.abs(flow.sizes).max() <= TCP_MSS

    def test_not_cell_quantised(self):
        # Across several flows, plenty of packet sizes should NOT be multiples
        # of the Tor cell size — that is the distinguishing feature.
        flows = HTTPSFlowGenerator(rng=2).generate_many(10)
        sizes = np.concatenate([np.abs(f.sizes) for f in flows])
        non_multiples = np.mean(sizes % TOR_CELL_SIZE != 0)
        assert non_multiples > 0.5

    def test_download_heavier_than_upload(self):
        flows = HTTPSFlowGenerator(rng=3).generate_many(10)
        down = sum(f.downstream_bytes for f in flows)
        up = sum(f.upstream_bytes for f in flows)
        assert down > up


class TestV2RayGenerator:
    def test_label_and_protocol(self):
        flow = V2RayFlowGenerator(rng=0).generate()
        assert flow.label == FlowLabel.CENSORED
        assert flow.protocol == "v2ray"

    def test_record_sizes_within_tls_limit(self):
        flow = V2RayFlowGenerator(rng=1).generate()
        assert np.abs(flow.sizes).max() <= TLS_MAX_RECORD

    def test_inner_handshake_pattern_at_start(self):
        flow = V2RayFlowGenerator(rng=2).generate()
        # first packet upstream (inner ClientHello), second downstream (cert burst)
        assert flow.sizes[0] > 0
        assert flow.sizes[1] < 0

    def test_records_larger_than_mtu_exist(self):
        flows = V2RayFlowGenerator(rng=3).generate_many(5)
        assert any(np.abs(f.sizes).max() > TCP_MSS for f in flows)


class TestHTTPSRecordGenerator:
    def test_label_benign(self):
        flow = HTTPSRecordFlowGenerator(rng=0).generate()
        assert flow.label == FlowLabel.BENIGN

    def test_max_size_records_common(self):
        flows = HTTPSRecordFlowGenerator(rng=1).generate_many(10)
        sizes = np.concatenate([np.abs(f.sizes) for f in flows])
        assert np.any(sizes == TLS_MAX_RECORD)

    def test_statistically_different_from_v2ray(self):
        """The benign and censored record-level generators must differ in the
        fraction of maximal-size records (the artefact classifiers learn)."""
        https = HTTPSRecordFlowGenerator(rng=2).generate_many(20)
        v2ray = V2RayFlowGenerator(rng=2).generate_many(20)
        https_max_fraction = np.mean(
            [np.mean(np.abs(f.sizes) == TLS_MAX_RECORD) for f in https]
        )
        v2ray_max_fraction = np.mean(
            [np.mean(np.abs(f.sizes) == TLS_MAX_RECORD) for f in v2ray]
        )
        assert https_max_fraction > v2ray_max_fraction


def dataset_digest(dataset) -> str:
    """sha256 over every flow's label, length, sizes and delays, in order."""
    digest = hashlib.sha256()
    for flow in dataset:
        digest.update(np.asarray([flow.label, flow.n_packets], dtype=np.int64).tobytes())
        digest.update(flow.sizes.tobytes())
        digest.update(flow.delays.tobytes())
    return digest.hexdigest()


class TestDeterminism:
    @pytest.mark.parametrize("generator_cls", GENERATORS)
    def test_seeded_generators_are_reproducible(self, generator_cls):
        a = generator_cls(rng=99).generate()
        b = generator_cls(rng=99).generate()
        assert a.sizes.tobytes() == b.sizes.tobytes()
        assert a.delays.tobytes() == b.delays.tobytes()

    # Draw order is part of the dataset: these digests were recorded before
    # the Tor bursts were drawn in bulk, and any change to what a generator
    # draws, or in which order, moves them (and every table built on them).
    @pytest.mark.parametrize(
        "build, expected",
        [
            (build_tor_dataset, "e1846e4e5de3283c1e8c287e76a525b633cd1e8f71d984495ccb57185f802dad"),
            (build_v2ray_dataset, "1454d4ec29a1ff58e0bf4aa9a9d45707c456b071bf84e8b099cc2a4d3b042351"),
        ],
        ids=["tor", "v2ray"],
    )
    def test_fixed_seed_dataset_digest(self, build, expected):
        dataset = build(n_censored=60, n_benign=60, rng=1, max_packets=40)
        assert dataset_digest(dataset) == expected


TOR_VARIANTS = {
    "default": {},
    "mss_below_cell": {"mss": 500},
    "mss_3000": {"mss": 3000},
    "small_pages": {"mean_page_kb": 5},
}


def assert_same_flows_and_stream(fast, reference, flows, reference_flows):
    assert len(flows) == len(reference_flows)
    for flow, expected in zip(flows, reference_flows):
        assert flow.sizes.tobytes() == expected.sizes.tobytes()
        assert flow.delays.tobytes() == expected.delays.tobytes()
    assert fast._rng.bit_generator.state == reference._rng.bit_generator.state


class TestTorBulkDrawsOracle:
    """The bulk burst draws consume the stream exactly as the per-cell seed
    loop in ``tests/oracles/flow_generators_reference.py`` does: same sizes,
    same delays, same final bit-generator state."""

    @pytest.mark.parametrize("variant", sorted(TOR_VARIANTS))
    @pytest.mark.parametrize("max_packets", [1, 2, 16, 40, 120, 400])
    def test_single_flows_match_reference(self, max_packets, variant):
        kwargs = dict(TOR_VARIANTS[variant], max_packets=max_packets)
        for seed in range(10):
            fast = TorFlowGenerator(rng=seed, **kwargs)
            reference = ReferenceTorFlowGenerator(rng=seed, **kwargs)
            assert_same_flows_and_stream(fast, reference, [fast.generate()], [reference.generate()])

    @pytest.mark.parametrize("variant", sorted(TOR_VARIANTS))
    @pytest.mark.parametrize("max_packets", [1, 2, 16, 40, 120, 400])
    def test_generate_many_carries_the_stream(self, max_packets, variant):
        kwargs = dict(TOR_VARIANTS[variant], max_packets=max_packets)
        fast = TorFlowGenerator(rng=max_packets, **kwargs)
        reference = ReferenceTorFlowGenerator(rng=max_packets, **kwargs)
        assert_same_flows_and_stream(fast, reference, fast.generate_many(150), reference.generate_many(150))


@pytest.mark.parametrize("k", [1, 2, 7, 8])
@pytest.mark.parametrize("interleaved", [False, True], ids=["fresh", "after_scalar"])
def test_bulk_integers_and_normal_equal_scalar_draws(k, interleaved):
    """Pinned numpy assumption behind ``TorFlowGenerator``'s bulk draws:
    ``integers(low, high, size=k)`` and ``normal(loc, scale, size=k)`` yield
    the ``k`` scalar draws, bit for bit, and leave the same state -- for odd
    and even ``k`` and with half of a uint32 pair already buffered."""

    def scalar_and_bulk(draw):
        scalar_rng, bulk_rng = np.random.default_rng(11), np.random.default_rng(11)
        if interleaved:
            assert scalar_rng.integers(1, 3) == bulk_rng.integers(1, 3)
        scalar = np.asarray([draw(scalar_rng) for _ in range(k)])
        bulk = draw(bulk_rng, size=k)
        assert scalar.tobytes() == bulk.tobytes()
        assert scalar_rng.bit_generator.state == bulk_rng.bit_generator.state

    for low, high in [(1, 2), (1, 3), (1, 6), (1, 1000)]:
        scalar_and_bulk(lambda rng, size=None: rng.integers(low, high, size=size))
    for loc, scale in [(2.0, 2.0 * 0.3), (120.0, 36.0)]:
        scalar_and_bulk(lambda rng, size=None: rng.normal(loc, scale, size=size))
    scalar_and_bulk(lambda rng, size=None: np.maximum(rng.normal(0.0, 1.0, size=size), 0.0))


class TestParameterValidation:
    """Constructors reject what ``generate`` cannot honour, before any draw."""

    @pytest.mark.parametrize("generator_cls", GENERATORS)
    @pytest.mark.parametrize("max_packets", [0, -3, 2.5, True])
    def test_max_packets_must_be_a_positive_integer(self, generator_cls, max_packets):
        with pytest.raises(ValueError, match="max_packets"):
            generator_cls(rng=0, max_packets=max_packets)

    @pytest.mark.parametrize("generator_cls", GENERATORS)
    @pytest.mark.parametrize("mean_page_kb", [0.0, -1.0, float("nan")])
    def test_mean_page_kb_must_be_positive(self, generator_cls, mean_page_kb):
        with pytest.raises(ValueError, match="mean_page_kb"):
            generator_cls(rng=0, mean_page_kb=mean_page_kb)

    @pytest.mark.parametrize(
        "generator_cls, kwargs, name",
        [
            (TorFlowGenerator, {"cell_size": 0}, "cell_size"),
            (TorFlowGenerator, {"mss": 0}, "mss"),
            (HTTPSFlowGenerator, {"mss": 999}, "mss"),
            (V2RayFlowGenerator, {"max_record": 3000}, "max_record"),
            (V2RayFlowGenerator, {"max_record": 3300}, "max_record"),
            (HTTPSRecordFlowGenerator, {"max_record": 0}, "max_record"),
        ],
    )
    def test_sizes_generate_cannot_draw_are_rejected(self, generator_cls, kwargs, name):
        with pytest.raises(ValueError, match=name):
            generator_cls(rng=0, **kwargs)

    @pytest.mark.parametrize(
        "generator_cls, kwargs",
        [
            (TorFlowGenerator, {"mss": 1, "cell_size": 1}),
            (HTTPSFlowGenerator, {"mss": 1000}),
            (V2RayFlowGenerator, {"max_record": 3301}),
            (HTTPSRecordFlowGenerator, {"max_record": 1}),
        ],
    )
    def test_smallest_accepted_sizes_generate(self, generator_cls, kwargs):
        flow = generator_cls(rng=0, max_packets=12, mean_page_kb=5, **kwargs).generate()
        assert 1 <= flow.n_packets <= 12

    @pytest.mark.parametrize("generator_cls", GENERATORS)
    def test_one_packet_flows(self, generator_cls):
        flow = generator_cls(rng=0, max_packets=1).generate()
        assert flow.n_packets == 1
        assert flow.delays[0] == 0.0

    def test_construction_draws_nothing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        for generator_cls in GENERATORS:
            generator_cls(rng=rng)
        assert rng.bit_generator.state == before

"""Unit tests for datasets, splits, network conditions and flow I/O."""

import hashlib
import json
import re

import numpy as np
import pytest

from repro.flows import (
    Flow,
    FlowDataset,
    FlowLabel,
    NetworkCondition,
    build_tor_dataset,
    build_v2ray_dataset,
    load_flows_jsonl,
    save_dataset,
    save_flows_jsonl,
)


class TestFlowDataset:
    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            FlowDataset([])

    def test_labels_and_balance(self, tor_dataset):
        assert np.sum(tor_dataset.labels == FlowLabel.CENSORED) == 60
        assert np.sum(tor_dataset.labels == FlowLabel.BENIGN) == 60

    def test_censored_view(self, tor_dataset):
        assert len(tor_dataset.censored_flows) == 60
        assert all(f.label == FlowLabel.CENSORED for f in tor_dataset.censored_flows)

    def test_max_statistics_positive(self, tor_dataset):
        assert tor_dataset.max_packet_size > 0
        assert tor_dataset.max_delay > 0

    def test_subset(self, tor_dataset):
        subset = tor_dataset.subset([0, 1, 2])
        assert len(subset) == 3
        assert subset[2] is tor_dataset[2]

    def test_shuffled_preserves_contents(self, tor_dataset):
        shuffled = tor_dataset.shuffled(rng=0)
        assert len(shuffled) == len(tor_dataset)
        assert sorted(shuffled.labels) == sorted(tor_dataset.labels)

    def test_summary_keys(self, tor_dataset):
        summary = tor_dataset.summary()
        assert {"n_flows", "mean_length", "censored_fraction"} <= set(summary)

    def test_iteration_and_indexing(self, tor_dataset):
        assert isinstance(tor_dataset[0], Flow)
        assert sum(1 for _ in tor_dataset) == len(tor_dataset)


class TestSplits:
    def test_split_fractions(self, tor_dataset):
        splits = tor_dataset.split(rng=0)
        sizes = splits.sizes()
        assert sizes["clf_train"] + sizes["attack_train"] + sizes["validation"] + sizes["test"] == len(tor_dataset)
        assert sizes["clf_train"] == pytest.approx(0.4 * len(tor_dataset), abs=2)
        assert sizes["test"] == pytest.approx(0.1 * len(tor_dataset), abs=2)

    def test_split_stratified_balance(self, tor_dataset):
        splits = tor_dataset.split(rng=1, stratify=True)
        for split in splits:
            labels = split.labels
            fraction = np.mean(labels == FlowLabel.CENSORED)
            assert 0.3 < fraction < 0.7

    def test_split_no_overlap(self, tor_dataset):
        splits = tor_dataset.split(rng=2)
        ids = [id(f) for split in splits for f in split.flows]
        assert len(ids) == len(set(ids))

    def test_invalid_fractions_rejected(self, tor_dataset):
        with pytest.raises(ValueError):
            tor_dataset.split(fractions=(0.5, 0.5, 0.5, 0.5))


class TestDatasetBuilders:
    def test_tor_dataset_shape(self):
        ds = build_tor_dataset(n_censored=10, n_benign=12, rng=0, max_packets=20)
        assert len(ds) == 22
        assert ds.name == "tor"

    def test_v2ray_dataset_larger_records(self):
        ds = build_v2ray_dataset(n_censored=10, n_benign=10, rng=0, max_packets=20)
        assert ds.max_packet_size > 1460

    def test_dataset_with_condition_renames(self):
        condition = NetworkCondition(drop_rate=0.1)
        ds = build_tor_dataset(n_censored=5, n_benign=5, rng=0, condition=condition, max_packets=15)
        assert "drop" in ds.name


class TestNetworkCondition:
    def test_invalid_drop_rate(self):
        with pytest.raises(ValueError):
            NetworkCondition(drop_rate=1.5)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkCondition(bandwidth_kbps=0.0)

    def test_zero_condition_preserves_packet_count(self, simple_flow):
        out = NetworkCondition().apply(simple_flow, rng=0)
        assert out.n_packets == simple_flow.n_packets
        assert np.allclose(out.sizes, simple_flow.sizes)

    def test_drops_add_retransmissions(self, simple_flow):
        condition = NetworkCondition(drop_rate=0.9)
        out = condition.apply(simple_flow, rng=0)
        assert out.n_packets > simple_flow.n_packets

    def test_retransmissions_duplicate_sizes(self, simple_flow):
        condition = NetworkCondition(drop_rate=1.0)
        out = condition.apply(simple_flow, rng=0)
        assert out.n_packets == 2 * simple_flow.n_packets
        assert np.allclose(out.sizes[0::2], simple_flow.sizes)
        assert np.allclose(out.sizes[1::2], simple_flow.sizes)

    def test_jitter_increases_duration(self, simple_flow):
        condition = NetworkCondition(congestion_jitter_ms=50.0)
        out = condition.apply(simple_flow, rng=0)
        assert out.duration >= simple_flow.duration

    def test_bandwidth_adds_serialisation_delay(self, simple_flow):
        condition = NetworkCondition(bandwidth_kbps=100.0)
        out = condition.apply(simple_flow, rng=0)
        assert out.duration > simple_flow.duration

    def test_metadata_records_drop_rate(self, simple_flow):
        out = NetworkCondition(drop_rate=0.25).apply(simple_flow, rng=0)
        assert out.metadata["drop_rate"] == 0.25

    def test_apply_many_length(self, tor_dataset):
        condition = NetworkCondition(drop_rate=0.05)
        flows = condition.apply_many(tor_dataset.flows[:5], rng=0)
        assert len(flows) == 5


class TestIO:
    def test_jsonl_roundtrip(self, tmp_path, tor_dataset):
        path = tmp_path / "flows.jsonl"
        save_flows_jsonl(tor_dataset.flows[:8], path)
        loaded = load_flows_jsonl(path)
        assert len(loaded) == 8
        assert np.allclose(loaded[0].sizes, tor_dataset.flows[0].sizes)

    def test_jsonl_roundtrip_keeps_every_field(self, tmp_path, tor_dataset):
        path = tmp_path / "flows.jsonl"
        flows = tor_dataset.flows[:3]
        save_flows_jsonl(flows, path)
        for original, loaded in zip(flows, load_flows_jsonl(path)):
            assert np.array_equal(loaded.sizes, original.sizes)
            assert np.array_equal(loaded.delays, original.delays)
            assert loaded.label == original.label
            assert loaded.protocol == original.protocol
            assert loaded.metadata == original.metadata

    def test_jsonl_load_skips_blank_lines(self, tmp_path, tor_dataset):
        path = tmp_path / "flows.jsonl"
        save_flows_jsonl(tor_dataset.flows[:2], path)
        path.write_text(path.read_text().replace("\n", "\n\n"))
        assert len(load_flows_jsonl(path)) == 2

    def test_save_creates_parent_directories(self, tmp_path, tor_dataset):
        path = tmp_path / "nested" / "dir" / "flows.jsonl"
        assert save_flows_jsonl(tor_dataset.flows[:1], path) == path
        assert len(load_flows_jsonl(path)) == 1

    @staticmethod
    def _assert_header_then_flows(path, name, flows):
        header, *lines = path.read_text().splitlines(keepends=True)
        assert json.loads(header) == {
            "__dataset__": name,
            "n_flows": len(flows),
            "sha256": hashlib.sha256("".join(lines).encode()).hexdigest(),
        }
        assert len(lines) == len(flows)
        restored = Flow.from_dict(json.loads(lines[0]))
        assert np.array_equal(restored.sizes, flows[0].sizes)

    def test_saved_dataset_is_a_header_then_one_flow_per_line(self, tmp_path, tor_dataset):
        path = tmp_path / "dataset.jsonl"
        save_dataset(tor_dataset, path)
        self._assert_header_then_flows(path, tor_dataset.name, tor_dataset.flows)

    def test_saved_flows_are_a_nameless_header_then_one_flow_per_line(self, tmp_path, tor_dataset):
        path = tmp_path / "flows.jsonl"
        save_flows_jsonl(tor_dataset.flows[:5], path)
        self._assert_header_then_flows(path, None, tor_dataset.flows[:5])

    def test_saved_dataset_loads_back_without_its_header(self, tmp_path, tor_dataset):
        # The header line used to end the read in ``KeyError: 'sizes'``.
        path = tmp_path / "dataset.jsonl"
        save_dataset(tor_dataset, path)
        loaded = load_flows_jsonl(path)
        assert len(loaded) == len(tor_dataset)
        for original, restored in zip(tor_dataset, loaded):
            assert np.array_equal(restored.sizes, original.sizes)
            assert np.array_equal(restored.delays, original.delays)
            assert restored.label == original.label

    def test_a_truncated_dataset_is_refused(self, tmp_path, tor_dataset):
        # A 20-flow dataset cut to five lines used to load four flows.
        path = tmp_path / "dataset.jsonl"
        save_dataset(tor_dataset.subset(range(20)), path)
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:5]))
        expected = f"^{re.escape(str(path))}: the header declares 20 flows, the file holds 4$"
        with pytest.raises(ValueError, match=expected):
            load_flows_jsonl(path)

    def test_flows_appended_to_a_dataset_are_refused(self, tmp_path, tor_dataset):
        path = tmp_path / "dataset.jsonl"
        save_dataset(tor_dataset.subset(range(3)), path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(tor_dataset[3].to_dict()) + "\n")
        with pytest.raises(ValueError, match="declares 3 flows, the file holds 4"):
            load_flows_jsonl(path)

    def test_concatenated_datasets_load_by_their_headers(self, tmp_path, tor_dataset):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(tor_dataset.subset(range(3)), first)
        save_dataset(tor_dataset.subset(range(3, 5)), second)
        both = tmp_path / "both.jsonl"
        both.write_text(first.read_text() + second.read_text())
        assert len(load_flows_jsonl(both)) == 5

    @pytest.mark.parametrize("count", ["-1", "2.0", "true", "null", '"1"'])
    def test_a_header_count_that_is_not_a_count_is_refused(self, tmp_path, count):
        path = tmp_path / "dataset.jsonl"
        path.write_text('{"__dataset__": "tor", "n_flows": %s}\n{"sizes": [100.0], "delays": [0.0]}\n' % count)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: the header's n_flows must be a count"):
            load_flows_jsonl(path)

    def test_header_less_files_load_as_before(self, tmp_path, tor_dataset):
        # As ``save_flows_jsonl`` and ``save_dataset`` wrote them before the
        # files carried a sha256: no header, a name only, a name and a count.
        path = tmp_path / "flows.jsonl"
        path.write_text("".join(json.dumps(flow.to_dict()) + "\n" for flow in tor_dataset.flows[:2]))
        assert len(load_flows_jsonl(path)) == 2
        for header in ('{"__dataset__": "tor"}', '{"__dataset__": "tor", "n_flows": 2}'):
            named = tmp_path / "named.jsonl"
            named.write_text(header + "\n" + path.read_text())
            assert len(load_flows_jsonl(named)) == 2

    @pytest.mark.parametrize("writer", [save_dataset, save_flows_jsonl])
    def test_a_changed_flow_line_is_refused(self, tmp_path, tor_dataset, writer):
        # One digit of one size changed: the count holds, the sha256 does not.
        path = tmp_path / "dataset.jsonl"
        writer(tor_dataset.subset(range(3)), path)
        header, first, *rest = path.read_text().splitlines(keepends=True)
        changed = first.replace('"sizes": [', '"sizes": [1', 1)
        assert changed != first and len(load_flows_jsonl(path)) == 3
        path.write_text("".join([header, changed, *rest]))
        expected = f"^{re.escape(str(path))}:1: the flows after this header do not match its sha256$"
        with pytest.raises(ValueError, match=expected):
            load_flows_jsonl(path)

    def test_each_concatenated_section_is_checked(self, tmp_path, tor_dataset):
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(tor_dataset.subset(range(3)), first)
        save_dataset(tor_dataset.subset(range(3, 5)), second)
        lines = second.read_text().splitlines(keepends=True)
        lines[-1] = lines[-1].replace('"delays": [', '"delays": [1', 1)
        both = tmp_path / "both.jsonl"
        both.write_text(first.read_text() + "".join(lines))
        with pytest.raises(ValueError, match=":5: the flows after this header do not match its sha256$"):
            load_flows_jsonl(both)

    @pytest.mark.parametrize("content", ["", "\n\n"])
    def test_an_empty_file_is_refused(self, tmp_path, content):
        # A zero-flow file still has its header; an empty one is a file cut at byte 0.
        path = tmp_path / "flows.jsonl"
        path.write_text(content)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the file holds no header and no flow$"):
            load_flows_jsonl(path)
        save_flows_jsonl([], path)
        assert load_flows_jsonl(path) == []

    def test_a_sha256_that_is_not_a_string_is_refused(self, tmp_path):
        path = tmp_path / "dataset.jsonl"
        path.write_text('{"__dataset__": "tor", "sha256": 7}\n{"sizes": [100.0], "delays": [0.0]}\n')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: the header's sha256 must be a string"):
            load_flows_jsonl(path)

    @pytest.mark.parametrize(
        "line,reason",
        [
            ("{not json", "Expecting property name"),
            ("[1, 2]", "expected a JSON object, got list"),
            ('{"delays": [0.0]}', "a flow needs the key 'sizes'"),
            ('{"sizes": [100.0, -200.0], "delays": [0.0]}', "sizes and delays must have equal length"),
            ('{"sizes": [0.0], "delays": [0.0]}', "non-zero"),
            ('{"sizes": [100.0], "delays": [0.0], "label": "x"}', "invalid literal"),
        ],
    )
    def test_a_bad_line_names_its_path_and_line(self, tmp_path, tor_dataset, line, reason):
        # Header, two flows, a blank line, then the bad line.
        path = tmp_path / "flows.jsonl"
        save_flows_jsonl(tor_dataset.flows[:2], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n" + line + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: .*{re.escape(reason)}"):
            load_flows_jsonl(path)

"""Unit tests for the Flow data model."""

import copy
import pickle

import numpy as np
import pytest

from repro.flows import Flow, FlowLabel


class TestFlowConstruction:
    def test_basic_construction(self, simple_flow):
        assert simple_flow.n_packets == 4
        assert simple_flow.label == FlowLabel.CENSORED

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Flow(sizes=[100.0, -200.0], delays=[0.0])

    def test_empty_flow_rejected(self):
        with pytest.raises(ValueError):
            Flow(sizes=[], delays=[])

    def test_zero_size_packet_rejected(self):
        with pytest.raises(ValueError):
            Flow(sizes=[0.0, 100.0], delays=[0.0, 1.0])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Flow(sizes=[100.0], delays=[-1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_size_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Flow(sizes=[100.0, bad], delays=[0.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_delay_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            Flow(sizes=[100.0, -200.0], delays=[0.0, bad])

    def test_non_finite_from_dict_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Flow.from_dict({"sizes": [100.0, float("nan")], "delays": [0.0, 1.0]})

    def test_negative_zero_delay_stored_as_positive_zero(self):
        flow = Flow(sizes=[100.0, -200.0, 300.0], delays=[0.0, -0.0, 1.0])
        assert not np.signbit(flow.delays).any()
        assert np.array_equal(flow.delays, [0.0, 0.0, 1.0])

    def test_arrays_coerced_to_float(self):
        flow = Flow(sizes=[1, -2], delays=[0, 1])
        assert flow.sizes.dtype == np.float64


class TestFlowProperties:
    def test_directions(self, simple_flow):
        assert np.array_equal(simple_flow.directions, [1, -1, 1, -1])

    def test_duration_is_sum_of_delays(self, simple_flow):
        assert simple_flow.duration == pytest.approx(75.0)

    def test_timestamps_cumulative(self, simple_flow):
        assert np.allclose(simple_flow.timestamps, [0.0, 50.0, 70.0, 75.0])

    def test_len_dunder(self, simple_flow):
        assert len(simple_flow) == 4


class TestFlowOperations:
    def test_prefix_truncates(self, simple_flow):
        prefix = simple_flow.prefix_views([2])[0]
        assert prefix.n_packets == 2
        assert prefix.label == simple_flow.label

    def test_prefix_longer_than_flow_returns_full(self, simple_flow):
        assert simple_flow.prefix_views([100])[0].n_packets == 4

    def test_prefix_invalid_length(self, simple_flow):
        with pytest.raises(ValueError):
            simple_flow.prefix_views([0])[0]

    def test_prefix_skips_revalidation(self, simple_flow, monkeypatch):
        # A prefix of a validated flow is valid by construction.
        monkeypatch.setattr(
            Flow, "__post_init__", lambda self: pytest.fail("prefix re-validated the flow")
        )
        prefix = simple_flow.prefix_views([3])[0]
        assert np.array_equal(prefix.sizes, [536.0, -1072.0, 536.0])
        assert np.array_equal(prefix.delays, [0.0, 50.0, 20.0])
        assert (prefix.label, prefix.protocol) == (simple_flow.label, simple_flow.protocol)

    def test_copied_prefix_owns_its_arrays(self, simple_flow):
        prefix = simple_flow.prefix_views([3])[0]
        owned = prefix.copy()
        owned.metadata["touched"] = True
        assert "touched" not in simple_flow.metadata
        assert np.array_equal(owned.sizes, [536.0, -1072.0, 536.0])
        assert not np.shares_memory(owned.sizes, simple_flow.sizes)
        assert not np.shares_memory(owned.delays, simple_flow.delays)
        owned.sizes[0] = 999.0
        assert simple_flow.sizes[0] == 536.0

    def test_prefix_view_metadata_is_a_read_only_view(self, simple_flow):
        view = simple_flow.prefix_views([2])[0]
        with pytest.raises(TypeError):
            view.metadata["touched"] = True
        assert "touched" not in simple_flow.metadata
        simple_flow.metadata["origin"] = "unit-test"  # the view reflects its flow's dict
        assert view.metadata["origin"] == "unit-test"
        assert type(view.copy().metadata) is dict and type(view.to_dict()["metadata"]) is dict
        assert view.copy().metadata == {"origin": "unit-test"}
        for clone in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view)):
            assert clone.metadata == {"origin": "unit-test"} and np.array_equal(clone.sizes, view.sizes)

    def test_prefix_view_is_zero_copy_and_read_only(self, simple_flow):
        view = simple_flow.prefix_views([2])[0]
        assert np.array_equal(view.sizes, simple_flow.sizes[:2])
        assert np.array_equal(view.delays, simple_flow.delays[:2])
        assert (view.label, view.protocol) == (simple_flow.label, simple_flow.protocol)
        assert np.shares_memory(view.sizes, simple_flow.sizes)
        assert np.shares_memory(view.delays, simple_flow.delays)
        for array in (view.sizes, view.delays):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        # The flow it aliases stays writable; the length clamps.
        assert simple_flow.sizes.flags.writeable
        assert simple_flow.prefix_views([100])[0].n_packets == 4
        with pytest.raises(ValueError):
            simple_flow.prefix_views([0])[0]

    def test_copy_is_independent(self, simple_flow):
        clone = simple_flow.copy()
        clone.sizes[0] = 999.0
        assert simple_flow.sizes[0] == 536.0

    def test_dict_roundtrip(self, simple_flow):
        restored = Flow.from_dict(simple_flow.to_dict())
        assert np.allclose(restored.sizes, simple_flow.sizes)
        assert np.allclose(restored.delays, simple_flow.delays)
        assert restored.protocol == simple_flow.protocol

    def test_same_direction_delays(self):
        flow = Flow(sizes=[100.0, 200.0, -300.0, 400.0], delays=[0.0, 10.0, 5.0, 5.0])
        gaps = flow.same_direction_delays()
        # upstream timestamps: 0, 10, 20 -> gaps 10, 10; downstream single packet -> none
        assert sorted(gaps.tolist()) == [10.0, 10.0]

    def test_same_direction_delays_single_packet(self):
        flow = Flow(sizes=[100.0], delays=[0.0])
        assert flow.same_direction_delays().size == 0


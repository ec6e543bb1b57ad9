"""Unit tests for the Flow data model."""

import numpy as np
import pytest

from repro.flows import Flow, FlowLabel, flow_matrix


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

    def test_byte_accounting(self, simple_flow):
        assert simple_flow.upstream_bytes == pytest.approx(1072.0)
        assert simple_flow.downstream_bytes == pytest.approx(1608.0)
        assert simple_flow.total_bytes == pytest.approx(2680.0)

    def test_duration_is_sum_of_delays(self, simple_flow):
        assert simple_flow.duration == pytest.approx(75.0)

    def test_timestamps_cumulative(self, simple_flow):
        assert np.allclose(simple_flow.timestamps, [0.0, 50.0, 70.0, 75.0])

    def test_absolute_sizes(self, simple_flow):
        assert np.all(simple_flow.absolute_sizes > 0)

    def test_as_pairs_shape(self, simple_flow):
        assert simple_flow.as_pairs().shape == (4, 2)

    def test_len_dunder(self, simple_flow):
        assert len(simple_flow) == 4


class TestFlowOperations:
    def test_prefix_truncates(self, simple_flow):
        prefix = simple_flow.prefix(2)
        assert prefix.n_packets == 2
        assert prefix.label == simple_flow.label

    def test_prefix_longer_than_flow_returns_full(self, simple_flow):
        assert simple_flow.prefix(100).n_packets == 4

    def test_prefix_invalid_length(self, simple_flow):
        with pytest.raises(ValueError):
            simple_flow.prefix(0)

    def test_prefix_owns_its_arrays_and_skips_revalidation(self, simple_flow, monkeypatch):
        # A prefix of a validated flow is valid by construction.
        monkeypatch.setattr(
            Flow, "__post_init__", lambda self: pytest.fail("prefix re-validated the flow")
        )
        prefix = simple_flow.prefix(3)
        assert np.array_equal(prefix.sizes, [536.0, -1072.0, 536.0])
        assert np.array_equal(prefix.delays, [0.0, 50.0, 20.0])
        assert (prefix.label, prefix.protocol) == (simple_flow.label, simple_flow.protocol)
        assert not np.shares_memory(prefix.sizes, simple_flow.sizes)
        assert not np.shares_memory(prefix.delays, simple_flow.delays)
        prefix.sizes[0] = 999.0
        prefix.metadata["touched"] = True
        assert simple_flow.sizes[0] == 536.0 and "touched" not in simple_flow.metadata

    def test_prefix_view_is_zero_copy_and_read_only(self, simple_flow):
        view = simple_flow.prefix_view(2)
        assert np.array_equal(view.sizes, simple_flow.sizes[:2])
        assert np.array_equal(view.delays, simple_flow.delays[:2])
        assert (view.label, view.protocol) == (simple_flow.label, simple_flow.protocol)
        assert np.shares_memory(view.sizes, simple_flow.sizes)
        assert np.shares_memory(view.delays, simple_flow.delays)
        for array in (view.sizes, view.delays):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        # The flow it aliases stays writable, and clamping matches prefix().
        assert simple_flow.sizes.flags.writeable
        assert simple_flow.prefix_view(100).n_packets == 4
        with pytest.raises(ValueError):
            simple_flow.prefix_view(0)

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


class TestFlowMatrix:
    def test_padding_and_truncation(self, simple_flow):
        matrix = flow_matrix([simple_flow], max_length=6)
        assert matrix.shape == (1, 6, 2)
        assert np.all(matrix[0, 4:] == 0.0)
        short = flow_matrix([simple_flow], max_length=2)
        assert short.shape == (1, 2, 2)

    def test_normalisation_applied(self, simple_flow):
        matrix = flow_matrix([simple_flow], max_length=4, normalise_size=1460.0, normalise_delay=100.0)
        assert np.abs(matrix[0, :, 0]).max() <= 1.0
        assert matrix[0, 1, 1] == pytest.approx(0.5)

    def test_invalid_max_length(self, simple_flow):
        with pytest.raises(ValueError):
            flow_matrix([simple_flow], max_length=0)

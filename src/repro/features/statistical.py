"""Statistical flow features in the style of Barradas et al. (USENIX Sec'18).

The paper's tree-based censoring classifiers (DT / RF) consume 166 features
per flow "covering bi-directional packet/timing statistics, burst behaviors,
percentile features and flow-level information".  This module reproduces that
feature family:

* summary statistics (min / max / mean / std / median / MAD / skew / kurtosis)
  of packet sizes and inter-packet delays, computed for the whole flow and
  separately per direction;
* decile features of the packet-size and timing distributions per direction;
* burst features (a burst is a maximal run of consecutive same-direction
  packets): count, length and byte statistics per direction;
* flow-level features: packet/byte counts and ratios, duration, throughput.

The exact feature count is 166, asserted in the test suite, and every feature
has a stable name (``feature_names()``) so importance analyses (Figure 4) can
classify features as packet- or timing-derived.

One kernel computes them, for a batch of any size: every summary operand of
every flow goes into one segment table (concatenated values plus a count per
segment).  Min and max are one ``np.minimum`` / ``np.maximum.reduceat`` over
the whole table.  For every other summary the segments are bucketed by
length, and each distinct length is reduced as one C-contiguous ``(k, n)``
matrix; only the median, the MAD and the deciles sort its rows.  numpy's
pairwise ``add.reduce`` along ``axis=1`` of such a matrix runs the 1-D inner
loop on every row, so a row's sums round exactly as the 1-D reduce of that
segment alone does (pinned in
``tests/test_features.py::test_row_reduce_equals_vector_reduce``), and every
row is bit-identical to the seed extractor kept as the test oracle.

``extract_many(flows, columns)`` returns ``extract_many(flows)[:, columns]``,
bit for bit, and computes only what those columns read: unread operands
(the delays, the directions) are not gathered, unread segment groups get no
segments, unread summaries (the length buckets, the sort, the MAD's second
sort, the sum, the centred moments, the third and fourth powers) are never
computed, the burst, gap, checkpoint and flow-level sections run only for a
requested column of theirs, and only the requested columns are assembled.
A tree censor asks for the columns its fitted model splits on; the DT
stumps of both datasets split on an extremum, which costs no length bucket.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..flows.flow import Flow

__all__ = ["StatisticalFeatureExtractor", "N_STATISTICAL_FEATURES"]

N_STATISTICAL_FEATURES = 166

_SUMMARY_NAMES = ["min", "max", "mean", "std", "median", "mad", "skew", "kurtosis"]
_DECILES = [10, 20, 30, 40, 50, 60, 70, 80, 90]

_NAN = float("nan")
_add_reduce = np.add.reduce


def _feature_names() -> List[str]:
    names: List[str] = []
    # Packet-size summaries: overall, upstream, downstream  -> 3 * 8 = 24
    for scope in ("all", "up", "down"):
        names.extend(f"pkt_{scope}_{stat}" for stat in _SUMMARY_NAMES)
    # Timing summaries: overall, upstream, downstream       -> 3 * 8 = 24
    for scope in ("all", "up", "down"):
        names.extend(f"time_{scope}_{stat}" for stat in _SUMMARY_NAMES)
    # Packet-size deciles per direction                      -> 2 * 9 = 18
    for scope in ("up", "down"):
        names.extend(f"pkt_{scope}_p{q}" for q in _DECILES)
    # Timing deciles per direction                           -> 2 * 9 = 18
    for scope in ("up", "down"):
        names.extend(f"time_{scope}_p{q}" for q in _DECILES)
    # Burst length summaries per direction                   -> 2 * 8 = 16
    for scope in ("up", "down"):
        names.extend(f"burst_len_{scope}_{stat}" for stat in _SUMMARY_NAMES)
    # Burst byte summaries per direction                     -> 2 * 8 = 16
    for scope in ("up", "down"):
        names.extend(f"burst_bytes_{scope}_{stat}" for stat in _SUMMARY_NAMES)
    # Burst counts and rate features                         -> 6
    names.extend(
        [
            "burst_count_up",
            "burst_count_down",
            "burst_count_total",
            "direction_changes",
            "bursts_per_packet",
            "max_burst_fraction",
        ]
    )
    # Same-direction gap summaries per direction             -> 2 * 8 = 16
    for scope in ("up", "down"):
        names.extend(f"gap_{scope}_{stat}" for stat in _SUMMARY_NAMES)
    # Cumulative-size checkpoint features                    -> 10
    names.extend(f"cumsum_frac_{i}" for i in range(1, 11))
    # Flow-level features                                    -> 18
    names.extend(
        [
            "n_packets",
            "n_packets_up",
            "n_packets_down",
            "packet_ratio_up",
            "packet_ratio_down",
            "total_bytes",
            "bytes_up",
            "bytes_down",
            "byte_ratio_up",
            "byte_ratio_down",
            "duration_ms",
            "throughput_bytes_per_ms",
            "throughput_up",
            "throughput_down",
            "mean_packet_rate",
            "first_quarter_down_fraction",
            "last_quarter_down_fraction",
            "size_entropy",
        ]
    )
    return names


_FEATURE_NAMES = _feature_names()
assert len(_FEATURE_NAMES) == N_STATISTICAL_FEATURES, len(_FEATURE_NAMES)


def _run_bounds(values: np.ndarray) -> List[int]:
    """Start of every maximal run of equal consecutive values, then ``len(values)``."""
    return [0, *(np.flatnonzero(values[1:] != values[:-1]) + 1).tolist(), values.shape[0]]


@lru_cache(maxsize=1024)
def _decile_plan(n: int) -> Tuple[np.ndarray, ...]:
    """Neighbour indexes and weights of the nine deciles of ``n >= 2`` sorted values.

    Replays ``np.percentile(..., method="linear")`` operation for operation:
    virtual index ``(n - 1) * (q / 100)``, its floor, and the weight
    ``gamma = virtual - floor`` with its complement and the ``gamma >= 0.5``
    branch ``_lerp`` takes.
    """
    virtual = (n - 1) * (np.asarray(_DECILES) / np.float64(100))
    previous = np.floor(virtual)
    gamma = virtual - previous
    previous = previous.astype(np.intp)
    return previous, previous + 1, gamma, 1 - gamma, gamma >= 0.5


@lru_cache(maxsize=1024)
def _checkpoint_indexes(n_packets: int) -> np.ndarray:
    """Index of the last packet inside each tenth of an ``n_packets`` flow."""
    return np.asarray(
        [max(0, math.ceil(checkpoint / 10 * n_packets) - 1) for checkpoint in range(1, 11)],
        dtype=np.intp,
    )


# Rows of a ``_segment_summaries`` table: the eight summaries, then the sum.
_MIN, _MAX, _MEAN, _STD, _MEDIAN, _MAD, _SKEW, _KURTOSIS, _TOTAL = range(len(_SUMMARY_NAMES) + 1)
# Min, max, mean, median and sum of a one-value segment are that value.
_ONE_VALUE_ROWS = np.array([_MIN, _MAX, _MEAN, _MEDIAN, _TOTAL])[:, None]

# The twelve segment groups in table order (the four deciled ones first),
# named by the feature-name prefix of their summary columns.
_GROUPS = (
    "pkt_up", "pkt_down", "time_up", "time_down", "pkt_all", "time_all",
    "burst_len_up", "burst_len_down", "burst_bytes_up", "burst_bytes_down", "gap_up", "gap_down",
)
_PKT_UP, _PKT_DOWN, _TIME_UP, _TIME_DOWN, _PKT_ALL, _TIME_ALL = map(
    _GROUPS.index, ("pkt_up", "pkt_down", "time_up", "time_down", "pkt_all", "time_all")
)
_BURST_LEN_UP, _BURST_LEN_DOWN, _BURST_BYTES_UP, _BURST_BYTES_DOWN, _GAP_UP, _GAP_DOWN = map(
    _GROUPS.index,
    ("burst_len_up", "burst_len_down", "burst_bytes_up", "burst_bytes_down", "gap_up", "gap_down"),
)
assert (_PKT_UP, _PKT_DOWN, _TIME_UP, _TIME_DOWN) == (0, 1, 2, 3), "deciled groups lead"
_BURST_GROUPS = (_BURST_LEN_UP, _BURST_LEN_DOWN, _BURST_BYTES_UP, _BURST_BYTES_DOWN)
# The groups whose operands read the delays, and those that read the directions.
_TIMED_GROUPS = (_TIME_UP, _TIME_DOWN, _TIME_ALL, _GAP_UP, _GAP_DOWN)
_DIRECTED_GROUPS = tuple(group for group in range(len(_GROUPS)) if group not in (_PKT_ALL, _TIME_ALL))
# The flow-level columns that read group sums (bytes up / down, duration).
_SUMS_READ = {
    "total_bytes": (_PKT_UP, _PKT_DOWN),
    "bytes_up": (_PKT_UP,),
    "bytes_down": (_PKT_DOWN,),
    "byte_ratio_up": (_PKT_UP, _PKT_DOWN),
    "byte_ratio_down": (_PKT_UP, _PKT_DOWN),
    "duration_ms": (_TIME_ALL,),
    "throughput_bytes_per_ms": (_PKT_UP, _PKT_DOWN, _TIME_ALL),
    "throughput_up": (_PKT_UP, _TIME_ALL),
    "throughput_down": (_PKT_DOWN, _TIME_ALL),
    "mean_packet_rate": (_TIME_ALL,),
}
# Row of ``_COLUMN_READS`` for a group's deciles, after the nine table rows.
_DECILE_ROW = _TOTAL + 1


def _column_reads() -> np.ndarray:
    """``reads[column, row, group]``: does ``column`` read that row of that group?"""
    reads = np.zeros((N_STATISTICAL_FEATURES, _DECILE_ROW + 1, len(_GROUPS)), dtype=bool)
    for column, name in enumerate(_FEATURE_NAMES):
        scope, _, statistic = name.rpartition("_")
        if scope in _GROUPS:
            row = _SUMMARY_NAMES.index(statistic) if statistic in _SUMMARY_NAMES else _DECILE_ROW
            reads[column, row, _GROUPS.index(scope)] = True
        for group in _SUMS_READ.get(name, ()):
            reads[column, _TOTAL, group] = True
    return reads


_COLUMN_READS = _column_reads()


def _span(first: str, last: str) -> slice:
    return slice(_FEATURE_NAMES.index(first), _FEATURE_NAMES.index(last) + 1)


# Feature column of each summary row of each group: ``[row, group]``.
_SUMMARY_COLUMNS = np.array(
    [[_FEATURE_NAMES.index(f"{group}_{statistic}") for group in _GROUPS] for statistic in _SUMMARY_NAMES]
)
# Columns of the sections outside the segment table.
_DECILE_COLUMNS = _span("pkt_up_p10", "time_down_p90")
_BURST_COUNT_COLUMNS = _span("burst_count_up", "max_burst_fraction")
_CHECKPOINT_COLUMNS = _span("cumsum_frac_1", "cumsum_frac_10")
_FLOW_COLUMNS = _span("n_packets", "last_quarter_down_fraction")
_ENTROPY_COLUMN = _FEATURE_NAMES.index("size_entropy")


def _segment_matrices(
    values: np.ndarray, counts: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The non-empty segments of ``values``, gathered one distinct length at a time.

    Segment ``i`` is the ``counts[i]`` values after the segments before it.
    Yields ``(rows, matrix)`` per distinct length ``n > 0``: the ascending
    indexes of the segments of that length and their values as a fresh
    C-contiguous ``(len(rows), n)`` matrix.
    """
    offsets = np.cumsum(counts) - counts
    steps = np.arange(counts.max())
    order = np.argsort(counts, kind="stable")
    ordered = counts[order]
    bounds = _run_bounds(ordered)
    for n, start, stop in zip(ordered[bounds[:-1]].tolist(), bounds, bounds[1:]):
        if n:
            rows = order[start:stop]
            yield rows, values[offsets[rows][:, None] + steps[:n]]


def _segment_totals(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``add.reduce`` of every segment of ``values``; 0.0 for an empty one."""
    totals = np.zeros(counts.shape[0])
    for rows, matrix in _segment_matrices(values, counts):
        totals[rows] = _add_reduce(matrix, axis=1)
    return totals


def _row_order_statistics(ordered: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(min, max, median)`` of every row of a ``(k, n >= 2)`` row-sorted matrix.

    NaN (an overflowed sum upstream) sorts last; numpy's min, max and median
    all propagate it, so a row whose maximum is NaN gets NaN in all three.
    """
    n = ordered.shape[1]
    half = n >> 1
    minimum, maximum = ordered[:, 0], ordered[:, -1]
    median = ordered[:, half] if n & 1 else (ordered[:, half - 1] + ordered[:, half]) / 2
    poisoned = maximum != maximum
    if poisoned.any():
        minimum, maximum, median = (
            np.where(poisoned, _NAN, statistic) for statistic in (minimum, maximum, median)
        )
    return minimum, maximum, median


def _segment_summaries(
    values: np.ndarray, counts: np.ndarray, n_deciled: int, read: Sequence[bool]
) -> Tuple[np.ndarray, np.ndarray]:
    """Summaries of every segment of ``values``.

    Segments are laid out as for ``_segment_matrices``.  Returns a
    ``(9, n_segments)`` table -- the eight summaries and the sum of each
    segment -- plus the ``(n_deciled, 9)`` deciles of the first ``n_deciled``
    segments.  Only the table rows ``read`` marks are computed for segments
    of two or more values; the others stay 0.0 (as do the std, MAD, skew and
    kurtosis of a one-value segment, and every row of an empty one).

    Min and max alone are one ``minimum`` / ``maximum.reduceat`` over the
    non-empty segments, which equals each segment's ``ndarray.min()`` /
    ``max()``, NaN included (pinned in
    ``tests/test_features.py::test_reduceat_extrema_equal_segment_extrema``).
    Every other row is computed one length bucket at a time, and only the
    median, MAD and deciles sort the rows (min and max then come from that
    sort).  Sums and moments stay on the per-length rows: an ``add.reduceat``
    sums sequentially, not pairwise as ``ndarray.sum`` does.  Mean, std,
    skew and kurtosis reduce the *unsorted* values in the order
    ``ndarray.mean`` / ``ndarray.std`` do, and the deciles replay
    ``np.percentile``'s ``linear`` lerp.  Every operation is elementwise, a
    row sort, or an ``axis=1`` ``add.reduce`` of a C-contiguous matrix, so a
    segment's bits are those of the same operations on that segment alone.
    """
    extrema = read[_MIN] or read[_MAX]
    order_statistics = read[_MEDIAN] or read[_MAD] or (extrema and n_deciled > 0)
    higher_moments = read[_SKEW] or read[_KURTOSIS]
    moments = read[_STD] or higher_moments
    totals = read[_MEAN] or read[_TOTAL] or moments
    table = np.zeros((_TOTAL + 1, counts.shape[0]))
    deciles = np.zeros((n_deciled, len(_DECILES)))
    if extrema and not order_statistics:
        filled = counts > 0
        starts = (np.cumsum(counts) - counts)[filled]
        for row, extremum in ((_MIN, np.minimum), (_MAX, np.maximum)):
            if read[row]:
                table[row, filled] = extremum.reduceat(values, starts)
    if not (order_statistics or n_deciled or totals):
        return table, deciles
    for rows, matrix in _segment_matrices(values, counts):
        n = matrix.shape[1]
        n_rows_deciled = int(np.searchsorted(rows, n_deciled)) if n_deciled else 0
        if n == 1:
            table[_ONE_VALUE_ROWS, rows] = matrix[:, 0]
            deciles[rows[:n_rows_deciled]] = matrix[:n_rows_deciled]
            continue
        computed = {}
        if order_statistics or n_rows_deciled:
            ordered = np.sort(matrix, axis=1)
            computed[_MIN], computed[_MAX], computed[_MEDIAN] = _row_order_statistics(ordered)
        if read[_MAD]:
            deviations = np.abs(matrix - computed[_MEDIAN][:, None])
            deviations.sort(axis=1)
            computed[_MAD] = _row_order_statistics(deviations)[2]
        if totals:
            computed[_TOTAL] = _add_reduce(matrix, axis=1)
            computed[_MEAN] = computed[_TOTAL] / n
        if moments:
            centred = matrix - computed[_MEAN][:, None]
            std = computed[_STD] = np.sqrt(_add_reduce(centred * centred, axis=1) / n)
        if higher_moments:
            flat = std < 1e-12
            standardised = centred / std[:, None]
            if read[_SKEW]:
                computed[_SKEW] = np.where(flat, 0.0, _add_reduce(standardised ** 3, axis=1) / n)
            if read[_KURTOSIS]:
                computed[_KURTOSIS] = np.where(
                    flat, 0.0, _add_reduce(standardised ** 4, axis=1) / n - 3.0
                )
        if computed:
            table[np.fromiter(computed, np.intp)[:, None], rows] = np.concatenate(
                tuple(computed.values())
            ).reshape(-1, rows.shape[0])
        if n_rows_deciled:
            previous, following, gamma, one_minus_gamma, upper = _decile_plan(n)
            ordered = ordered[:n_rows_deciled]
            below = ordered[:, previous]
            above = ordered[:, following]
            difference = above - below
            deciles[rows[:n_rows_deciled]] = np.where(
                upper, above - difference * one_minus_gamma, below + difference * gamma
            )
    return table, deciles


def _length_chunks(lengths: np.ndarray) -> List[np.ndarray]:
    """Flow indexes, shortest flow first, cut wherever padding a chunk to its
    longest flow would take more than twice the chunk's own packets."""
    order = np.argsort(lengths, kind="stable")
    chunks, start, packets = [], 0, 0
    for position, length in enumerate(lengths[order].tolist()):
        if length * (position - start + 1) > 2 * (packets + length):
            chunks.append(order[start:position])
            start, packets = position, 0
        packets += length
    chunks.append(order[start:])
    return chunks


def _per_flow_scans(
    starts: np.ndarray,
    lengths: np.ndarray,
    cumulated: Sequence[Optional[np.ndarray]],
    ascending: Optional[np.ndarray],
) -> List[Optional[np.ndarray]]:
    """Per-flow running sums of each of ``cumulated``, then the per-flow
    ascending sort of ``ascending``; ``None`` in, ``None`` out.

    Inputs and outputs hold the packets of all flows end to end.  The running
    sums must restart at every flow, so they run along the rows of a padded
    ``(n_flows, longest)`` matrix (``cumsum`` accumulates left to right: a
    row's first ``n`` entries are the 1-D ``cumsum`` of those ``n``); chunking
    by length keeps the padding linear in total packets however uneven the
    batch is.
    """
    operands = (*cumulated, ascending)
    scanned = [None if values is None else np.empty_like(values) for values in operands]
    if all(values is None for values in operands):
        return scanned
    for chunk in _length_chunks(lengths):
        steps = np.arange(lengths[chunk[-1]])
        valid = steps < lengths[chunk][:, None]
        cells = (starts[chunk][:, None] + steps)[valid]
        padded = np.zeros(valid.shape)
        for values, running in zip(cumulated, scanned):
            if values is not None:
                padded[valid] = values[cells]
                running[cells] = np.cumsum(padded, axis=1)[valid]
        if ascending is not None:
            padded[valid] = ascending[cells]
            padded[~valid] = np.inf
            padded.sort(axis=1)
            scanned[-1][cells] = padded[valid]
    return scanned


def _runs(
    changes: np.ndarray, starts: np.ndarray, flow_of: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of the packets of all flows, never crossing a flow boundary.

    ``changes[j]`` says packet ``j + 1`` differs from packet ``j``.  Returns
    each run's first packet, its length, and the flow it belongs to.
    """
    first = np.empty(flow_of.shape[0] + 1, dtype=bool)
    first[1:-1] = changes
    first[starts] = first[-1] = True
    bounds = np.flatnonzero(first)
    offsets = bounds[:-1]
    return offsets, bounds[1:] - offsets, flow_of[offsets]


def _batch_features(flows: Sequence[Flow], wanted: np.ndarray) -> np.ndarray:
    """The 166 features of every flow of a non-empty batch, in
    ``feature_names()`` order and before non-finite values are zeroed, as
    one feature-major ``(166, len(flows))`` matrix exact in the rows the
    boolean ``wanted`` marks.

    Works on the packets of all flows laid end to end and computes only what
    a wanted column reads (``_COLUMN_READS``): the delays and the directions
    are gathered only for a group or section that reads them, other groups
    get no segments, ``_segment_summaries`` reduces only the rows wanted
    columns read, the burst, gap, checkpoint and flow-level sections run only
    for a wanted column of theirs, and only the wanted summary cells are
    written.  Unwanted rows hold zeros or meaningless values.  Overflowed
    intermediates come out non-finite exactly where the seed extractor's do
    and are zeroed by the caller.
    """
    reads = _COLUMN_READS[wanted].any(axis=0)
    grouped = reads.any(axis=0).tolist()
    bursts = any(grouped[group] for group in _BURST_GROUPS) or wanted[_BURST_COUNT_COLUMNS].any()
    flow_level = wanted[_FLOW_COLUMNS].any()
    m = len(flows)
    features = np.zeros((N_STATISTICAL_FEATURES, m))
    lengths = np.asarray([len(flow.sizes) for flow in flows], dtype=np.intp)
    stops = np.cumsum(lengths)
    starts = stops - lengths
    flow_of = np.repeat(np.arange(m), lengths)
    sizes = np.concatenate([flow.sizes for flow in flows], dtype=np.float64)
    if any(grouped[group] for group in _TIMED_GROUPS):
        delays = np.concatenate([flow.delays for flow in flows], dtype=np.float64)
    abs_sizes = np.abs(sizes)
    if bursts or flow_level or any(grouped[group] for group in _DIRECTED_GROUPS):
        up_mask = sizes > 0
        down_mask = sizes < 0
        n_up = np.bincount(flow_of[up_mask], minlength=m)
        n_down = lengths - n_up  # sizes are non-zero
    checkpointed = wanted[_CHECKPOINT_COLUMNS].any()
    timestamps, cumulative, sorted_sizes = _per_flow_scans(
        starts,
        lengths,
        (
            delays if grouped[_GAP_UP] or grouped[_GAP_DOWN] else None,
            abs_sizes if checkpointed else None,
        ),
        abs_sizes if wanted[_ENTROPY_COLUMN] else None,
    )

    # Bursts: maximal same-direction runs.
    if bursts:
        burst_offsets, burst_counts, burst_flow = _runs(up_mask[1:] != up_mask[:-1], starts, flow_of)
        up_bursts = up_mask[burst_offsets]
        down_bursts = ~up_bursts
        burst_lengths = burst_counts.astype(np.float64)
        if grouped[_BURST_BYTES_UP] or grouped[_BURST_BYTES_DOWN]:
            burst_bytes = _segment_totals(abs_sizes, burst_counts)
        n_bursts = np.bincount(burst_flow, minlength=m)
        n_up_bursts = np.bincount(burst_flow[up_bursts], minlength=m)
        n_down_bursts = n_bursts - n_up_bursts
        longest_burst = np.maximum.reduceat(burst_lengths, np.cumsum(n_bursts) - n_bursts)
        features[_BURST_COUNT_COLUMNS] = (
            n_up_bursts,
            n_down_bursts,
            n_bursts,
            n_bursts - 1,
            n_bursts / lengths,
            longest_burst / lengths,
        )

    def gaps(mask: np.ndarray, count: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Same-direction gaps: one difference of the concatenated stamps,
        minus the elements that straddle two flows."""
        stamps, owner = timestamps[mask], flow_of[mask]
        return (stamps[1:] - stamps[:-1])[owner[1:] == owner[:-1]], np.maximum(count - 1, 0)

    # The segment table, in ``_GROUPS`` order: each group's operand and one
    # segment count per flow, built only when a wanted column reads it.
    operands = {
        _PKT_UP: lambda: (abs_sizes[up_mask], n_up),
        _PKT_DOWN: lambda: (abs_sizes[down_mask], n_down),
        _TIME_UP: lambda: (delays[up_mask], n_up),
        _TIME_DOWN: lambda: (delays[down_mask], n_down),
        _PKT_ALL: lambda: (abs_sizes, lengths),
        _TIME_ALL: lambda: (delays, lengths),
        _BURST_LEN_UP: lambda: (burst_lengths[up_bursts], n_up_bursts),
        _BURST_LEN_DOWN: lambda: (burst_lengths[down_bursts], n_down_bursts),
        _BURST_BYTES_UP: lambda: (burst_bytes[up_bursts], n_up_bursts),
        _BURST_BYTES_DOWN: lambda: (burst_bytes[down_bursts], n_down_bursts),
        _GAP_UP: lambda: gaps(up_mask, n_up),
        _GAP_DOWN: lambda: gaps(down_mask, n_down),
    }
    unread = (abs_sizes[:0], np.zeros(m, dtype=np.intp))
    segments = [operands[group]() if read else unread for group, read in enumerate(grouped)]
    table, deciles = _segment_summaries(
        np.concatenate([values for values, _ in segments]),
        np.concatenate([counts for _, counts in segments]),
        n_deciled=4 * m if reads[_DECILE_ROW].any() else 0,
        read=reads[:_DECILE_ROW].any(axis=1).tolist(),
    )
    table = table.reshape(_TOTAL + 1, len(_GROUPS), m)
    cells = wanted[_SUMMARY_COLUMNS]
    features[_SUMMARY_COLUMNS[cells]] = table[:_TOTAL][cells]
    if deciles.shape[0]:
        features[_DECILE_COLUMNS] = deciles.reshape(4, m, -1).transpose(0, 2, 1).reshape(-1, m)
    if checkpointed:
        last_cumulative = cumulative[stops - 1]
        checkpoint_indexes = np.stack([_checkpoint_indexes(n) for n in lengths.tolist()], axis=1)
        features[_CHECKPOINT_COLUMNS] = cumulative[starts + checkpoint_indexes] / np.where(
            last_cumulative > 0, last_cumulative, 1.0
        )

    # Flow-level.
    if flow_level:
        bytes_up = table[_TOTAL, _PKT_UP]
        bytes_down = table[_TOTAL, _PKT_DOWN]
        total_bytes = bytes_up + bytes_down
        duration = table[_TOTAL, _TIME_ALL]
        safe_duration = np.where(duration > 0, duration, 1.0)
        quarter = np.maximum(lengths // 4, 1)
        down_before = np.concatenate(([0], np.cumsum(down_mask)))
        features[_FLOW_COLUMNS] = (
            lengths,
            n_up,
            n_down,
            n_up / lengths,
            n_down / lengths,
            total_bytes,
            bytes_up,
            bytes_down,
            np.where(total_bytes != 0, bytes_up / total_bytes, 0.0),
            np.where(total_bytes != 0, bytes_down / total_bytes, 0.0),
            duration,
            total_bytes / safe_duration,
            bytes_up / safe_duration,
            bytes_down / safe_duration,
            lengths / safe_duration,
            (down_before[starts + quarter] - down_before[starts]) / quarter,
            (down_before[stops] - down_before[stops - quarter]) / quarter,
        )
    if sorted_sizes is not None:
        # Multiplicities of the distinct sizes are run lengths of the sorted sizes.
        _, multiplicities, size_flow = _runs(sorted_sizes[1:] != sorted_sizes[:-1], starts, flow_of)
        size_probabilities = multiplicities / lengths[size_flow]
        features[_ENTROPY_COLUMN] = -_segment_totals(
            size_probabilities * np.log2(size_probabilities), np.bincount(size_flow, minlength=m)
        )
    return features


class StatisticalFeatureExtractor:
    """Extract the 166-dimensional statistical feature vector from a flow."""

    def __init__(self) -> None:
        self._names = list(_FEATURE_NAMES)

    # ------------------------------------------------------------------ #
    # Feature names / categories
    # ------------------------------------------------------------------ #
    def feature_names(self) -> List[str]:
        """Stable ordered names of all 166 features."""
        return list(self._names)

    def feature_categories(self) -> List[str]:
        """Per-feature category: ``"packet"`` or ``"timing"`` (Figure 4 analysis)."""
        categories = []
        for name in self._names:
            if name.startswith(("time_", "gap_")) or name in ("duration_ms", "mean_packet_rate"):
                categories.append("timing")
            elif "throughput" in name:
                categories.append("timing")
            else:
                categories.append("packet")
        return categories

    # ------------------------------------------------------------------ #
    # Extraction
    # ------------------------------------------------------------------ #
    def extract(self, flow: Flow) -> np.ndarray:
        """The 166 features of one flow; bit-identical to its row of ``extract_many``."""
        return self.extract_many((flow,))[0]

    def extract_many(self, flows: Sequence[Flow], columns: Optional[Sequence[int]] = None) -> np.ndarray:
        """Extract features for a sequence of flows -> (n_flows, 166) matrix.

        A row depends on its own flow only, whatever else is in the batch, and
        is bit-identical to the seed implementation kept as the test oracle in
        ``tests/oracles/statistical_reference.py``.  With ``columns``, returns
        ``extract_many(flows)[:, columns]`` bit for bit and computes only
        what those columns read.
        """
        wanted = np.ones(N_STATISTICAL_FEATURES, dtype=bool)
        if columns is not None:
            columns = np.asarray(columns, dtype=np.intp)
            wanted[:] = False
            wanted[columns] = True
        if not len(flows):
            features = np.zeros((N_STATISTICAL_FEATURES, 0))
        else:
            with np.errstate(all="ignore"):
                features = _batch_features(flows, wanted)
        if columns is not None:
            features = features[columns]
        matrix = np.ascontiguousarray(features.T)
        # What nan_to_num(nan=0, posinf=0, neginf=0) does, in one pass.
        np.copyto(matrix, 0.0, where=~np.isfinite(matrix))
        return matrix
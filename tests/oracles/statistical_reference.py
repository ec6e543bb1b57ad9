"""Equivalence oracle: the seed ``StatisticalFeatureExtractor``, verbatim.

This is ``src/repro/features/statistical.py`` as it stood before the
sort-once kernel replaced it (one ``np.percentile`` / ``np.median`` /
``.mean()`` / ``.std()`` call per statistic, a per-packet burst loop).  It is
kept only as the reference the bitwise tests in ``tests/test_features.py``,
``tests/test_properties.py`` and ``tests/test_censors.py`` compare the
production kernel against -- do not optimise or "fix" it; the only edits are
the absolute ``repro.flows`` import and ``extract_many``'s ``columns``
argument, which slices the full matrix (the tree censors score through it).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.flows.flow import Flow

__all__ = ["StatisticalFeatureExtractor", "N_STATISTICAL_FEATURES"]

N_STATISTICAL_FEATURES = 166

_SUMMARY_NAMES = ["min", "max", "mean", "std", "median", "mad", "skew", "kurtosis"]
_DECILES = [10, 20, 30, 40, 50, 60, 70, 80, 90]


def _skew_kurtosis(values: np.ndarray) -> Tuple[float, float]:
    """Sample skewness and excess kurtosis; zero for (near-)constant data."""
    mean = values.mean()
    std = values.std()
    if std < 1e-12:
        return 0.0, 0.0
    standardised = (values - mean) / std
    return float(np.mean(standardised ** 3)), float(np.mean(standardised ** 4) - 3.0)


def _summary(values: np.ndarray) -> List[float]:
    """Eight summary statistics of ``values`` (zeros when empty)."""
    if values.size == 0:
        return [0.0] * len(_SUMMARY_NAMES)
    if values.size == 1:
        value = float(values[0])
        return [value, value, value, 0.0, value, 0.0, 0.0, 0.0]
    skew, kurtosis = _skew_kurtosis(values)
    return [
        float(values.min()),
        float(values.max()),
        float(values.mean()),
        float(values.std()),
        float(np.median(values)),
        float(np.median(np.abs(values - np.median(values)))),
        skew,
        kurtosis,
    ]


def _deciles(values: np.ndarray) -> List[float]:
    if values.size == 0:
        return [0.0] * len(_DECILES)
    return [float(np.percentile(values, q)) for q in _DECILES]


def _bursts(directions: np.ndarray, sizes: np.ndarray) -> List[Tuple[float, float]]:
    """Return (length, bytes) of each maximal same-direction burst."""
    bursts: List[Tuple[float, float]] = []
    start = 0
    for index in range(1, len(directions) + 1):
        if index == len(directions) or directions[index] != directions[start]:
            bursts.append((float(index - start), float(np.abs(sizes[start:index]).sum())))
            start = index
    return bursts


class StatisticalFeatureExtractor:
    """Extract the 166-dimensional statistical feature vector from a flow."""

    def __init__(self) -> None:
        self._names = self._build_names()
        assert len(self._names) == N_STATISTICAL_FEATURES, len(self._names)

    # ------------------------------------------------------------------ #
    # Feature names / categories
    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_names() -> List[str]:
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

    @property
    def n_features(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------ #
    # Extraction
    # ------------------------------------------------------------------ #
    def extract(self, flow: Flow) -> np.ndarray:
        sizes = np.asarray(flow.sizes, dtype=np.float64)
        delays = np.asarray(flow.delays, dtype=np.float64)
        directions = np.sign(sizes)
        abs_sizes = np.abs(sizes)
        up_mask = directions > 0
        down_mask = directions < 0
        timestamps = np.cumsum(delays)

        features: List[float] = []

        # Packet-size summaries.
        features.extend(_summary(abs_sizes))
        features.extend(_summary(abs_sizes[up_mask]))
        features.extend(_summary(abs_sizes[down_mask]))
        # Timing summaries.
        features.extend(_summary(delays))
        features.extend(_summary(delays[up_mask]))
        features.extend(_summary(delays[down_mask]))
        # Size deciles per direction.
        features.extend(_deciles(abs_sizes[up_mask]))
        features.extend(_deciles(abs_sizes[down_mask]))
        # Timing deciles per direction.
        features.extend(_deciles(delays[up_mask]))
        features.extend(_deciles(delays[down_mask]))

        # Bursts.
        bursts = _bursts(directions, sizes)
        burst_directions = []
        cursor = 0
        for length, _ in bursts:
            burst_directions.append(directions[cursor])
            cursor += int(length)
        burst_directions = np.asarray(burst_directions)
        burst_lengths = np.asarray([b[0] for b in bursts])
        burst_bytes = np.asarray([b[1] for b in bursts])
        up_bursts = burst_directions > 0
        down_bursts = burst_directions < 0

        features.extend(_summary(burst_lengths[up_bursts]))
        features.extend(_summary(burst_lengths[down_bursts]))
        features.extend(_summary(burst_bytes[up_bursts]))
        features.extend(_summary(burst_bytes[down_bursts]))

        n_packets = len(sizes)
        features.extend(
            [
                float(up_bursts.sum()),
                float(down_bursts.sum()),
                float(len(bursts)),
                float(np.sum(directions[1:] != directions[:-1])),
                float(len(bursts)) / n_packets,
                float(burst_lengths.max() / n_packets) if len(bursts) else 0.0,
            ]
        )

        # Same-direction gaps.
        up_stamps = timestamps[up_mask]
        down_stamps = timestamps[down_mask]
        features.extend(_summary(np.diff(up_stamps) if up_stamps.size > 1 else np.array([])))
        features.extend(_summary(np.diff(down_stamps) if down_stamps.size > 1 else np.array([])))

        # Cumulative-size checkpoints: fraction of bytes sent by each decile of packets.
        cumulative = np.cumsum(abs_sizes)
        total_bytes = cumulative[-1] if cumulative[-1] > 0 else 1.0
        for checkpoint in range(1, 11):
            index = max(0, int(np.ceil(checkpoint / 10 * n_packets)) - 1)
            features.append(float(cumulative[index] / total_bytes))

        # Flow-level.
        bytes_up = float(abs_sizes[up_mask].sum())
        bytes_down = float(abs_sizes[down_mask].sum())
        duration = float(delays.sum())
        safe_duration = duration if duration > 0 else 1.0
        quarter = max(1, n_packets // 4)
        first_quarter = directions[:quarter]
        last_quarter = directions[-quarter:]
        size_counts = np.unique(abs_sizes, return_counts=True)[1]
        size_probabilities = size_counts / size_counts.sum()
        entropy = float(-(size_probabilities * np.log2(size_probabilities)).sum())

        features.extend(
            [
                float(n_packets),
                float(up_mask.sum()),
                float(down_mask.sum()),
                float(up_mask.sum()) / n_packets,
                float(down_mask.sum()) / n_packets,
                bytes_up + bytes_down,
                bytes_up,
                bytes_down,
                bytes_up / (bytes_up + bytes_down) if bytes_up + bytes_down else 0.0,
                bytes_down / (bytes_up + bytes_down) if bytes_up + bytes_down else 0.0,
                duration,
                (bytes_up + bytes_down) / safe_duration,
                bytes_up / safe_duration,
                bytes_down / safe_duration,
                n_packets / safe_duration,
                float(np.mean(first_quarter < 0)),
                float(np.mean(last_quarter < 0)),
                entropy,
            ]
        )

        vector = np.asarray(features, dtype=np.float64)
        if vector.shape[0] != N_STATISTICAL_FEATURES:
            raise RuntimeError(
                f"feature extractor produced {vector.shape[0]} features, expected {N_STATISTICAL_FEATURES}"
            )
        return np.nan_to_num(vector, nan=0.0, posinf=0.0, neginf=0.0)

    def extract_many(self, flows: Sequence[Flow], columns=None) -> np.ndarray:
        """Extract features for a sequence of flows -> (n_flows, 166) matrix,
        or its ``columns`` only (a slice of the full matrix)."""
        matrix = np.vstack([self.extract(flow) for flow in flows])
        return matrix if columns is None else matrix[:, columns]

    def __call__(self, flow: Flow) -> np.ndarray:
        return self.extract(flow)

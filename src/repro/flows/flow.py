"""Network-flow data model.

A flow is represented exactly as in Section 3 of the paper: a vector of
signed packet sizes (positive = client-to-server, negative = server-to-client)
and a vector of non-negative inter-packet delays.  The first delay is zero by
convention (it is the flow start).

Sizes are in bytes; delays are in milliseconds throughout the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List

import numpy as np

__all__ = ["Flow", "FlowLabel"]


class FlowLabel:
    """Binary flow labels.

    The censor blocks ``CENSORED`` traffic (Tor / V2Ray tunnels) and permits
    ``BENIGN`` traffic (plain HTTPS browsing).  These integers are also the
    classifier targets: following the paper's decision function, a classifier
    score >= 0.5 (class 1) means *benign / permitted*.
    """

    CENSORED = 0
    BENIGN = 1


@dataclass
class Flow:
    """A bidirectional network flow.

    Attributes
    ----------
    sizes:
        Signed packet sizes in bytes.  Positive values are client-to-server
        packets, negative values server-to-client.
    delays:
        Inter-packet delays in milliseconds, same length as ``sizes``; the
        first entry is 0 by convention.
    label:
        :class:`FlowLabel` value (0 = censored/sensitive, 1 = benign).
    protocol:
        Human-readable provenance tag, e.g. ``"tor"``, ``"v2ray"``, ``"https"``.
    metadata:
        Free-form dictionary (drop rate, generator parameters, ...).
    """

    sizes: np.ndarray
    delays: np.ndarray
    label: int = FlowLabel.CENSORED
    protocol: str = "unknown"
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=np.float64).reshape(-1)
        self.delays = np.asarray(self.delays, dtype=np.float64).reshape(-1)
        if self.sizes.shape != self.delays.shape:
            raise ValueError(
                f"sizes and delays must have equal length, got {self.sizes.shape} vs {self.delays.shape}"
            )
        if len(self.sizes) == 0:
            raise ValueError("a flow must contain at least one packet")
        # NaN passes both comparisons below, so non-finite values are rejected first.
        if not (np.isfinite(self.sizes).all() and np.isfinite(self.delays).all()):
            raise ValueError("packet sizes and inter-packet delays must be finite")
        if np.any(self.sizes == 0):
            raise ValueError("packet sizes must be non-zero (sign encodes direction)")
        if np.signbit(self.delays).any():
            if np.any(self.delays < 0):
                raise ValueError("inter-packet delays must be non-negative")
            # Only -0.0 is left: store +0.0 so equal delays are also bit-equal.
            self.delays = np.abs(self.delays)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def n_packets(self) -> int:
        return len(self.sizes)

    @property
    def directions(self) -> np.ndarray:
        """+1 for client-to-server packets, -1 for server-to-client."""
        return np.sign(self.sizes)

    @property
    def duration(self) -> float:
        """Total transmission time in milliseconds (sum of inter-packet delays)."""
        return float(self.delays.sum())

    @property
    def timestamps(self) -> np.ndarray:
        """Cumulative packet timestamps in milliseconds from flow start."""
        return np.cumsum(self.delays)

    def prefix_view(self, length: int) -> "Flow":
        """The first ``length`` packets as read-only views of this flow's arrays.

        Built without ``__post_init__``: every invariant it establishes (equal
        lengths, finite values, non-zero sizes, non-negative
        ``+0.0``-normalised delays) is elementwise, so it is closed under
        taking a non-empty prefix.  A flow is validated once, when it is
        constructed, and its prefixes inherit that.  The views are
        ``writeable=False`` so a scorer cannot alter the flow they alias, and
        ``metadata`` is a read-only ``MappingProxyType`` over this flow's
        own dict (no copy per scored prefix); ``.copy()`` gives an owning
        flow with a plain dict.
        """
        if length < 1:
            raise ValueError("prefix length must be >= 1")
        sizes = self.sizes[:length]  # slicing clamps to n_packets
        delays = self.delays[:length]
        sizes.flags.writeable = False
        delays.flags.writeable = False
        flow = object.__new__(Flow)
        flow.sizes = sizes
        flow.delays = delays
        flow.label = self.label
        flow.protocol = self.protocol
        flow.metadata = MappingProxyType(self.metadata)
        return flow

    def __getstate__(self) -> Dict:
        # pickle and deepcopy cannot copy a view's read-only metadata proxy
        return {**self.__dict__, "metadata": dict(self.metadata)}

    def copy(self) -> "Flow":
        return Flow(
            sizes=self.sizes.copy(),
            delays=self.delays.copy(),
            label=self.label,
            protocol=self.protocol,
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> Dict:
        """JSON-serialisable representation."""
        return {
            "sizes": self.sizes.tolist(),
            "delays": self.delays.tolist(),
            "label": int(self.label),
            "protocol": self.protocol,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "Flow":
        return cls(
            sizes=np.asarray(payload["sizes"], dtype=np.float64),
            delays=np.asarray(payload["delays"], dtype=np.float64),
            label=int(payload.get("label", FlowLabel.CENSORED)),
            protocol=payload.get("protocol", "unknown"),
            metadata=dict(payload.get("metadata", {})),
        )

    # ------------------------------------------------------------------ #
    # Same-direction inter-packet delays (Figure 11)
    # ------------------------------------------------------------------ #
    def same_direction_delays(self) -> np.ndarray:
        """Delays between consecutive packets travelling in the same direction.

        Used to reproduce Figure 11 (feasibility of per-packet online
        inference): the delay between packet ``i`` and the next packet in the
        same direction.
        """
        timestamps = self.timestamps
        directions = self.directions
        gaps: List[float] = []
        for direction in (1.0, -1.0):
            stamps = timestamps[directions == direction]
            if len(stamps) > 1:
                gaps.extend(np.diff(stamps).tolist())
        return np.asarray(gaps, dtype=np.float64)

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
from typing import Dict, List, Sequence

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
        if (self.sizes == 0).any():
            raise ValueError("packet sizes must be non-zero (sign encodes direction)")
        if np.signbit(self.delays).any():
            if (self.delays < 0).any():
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

    def prefix_views(self, lengths: Sequence[int]) -> List["Flow"]:
        """The first ``length`` packets, for every entry of ``lengths``, as
        read-only views of this flow's arrays.

        Built without ``__post_init__``: every invariant it establishes is
        elementwise, so closed under taking a non-empty prefix, and a flow
        is validated once, when it is constructed.  The views are cut from
        one ``writeable=False`` view of each array, so a scorer cannot alter
        the flow they alias, and share one read-only ``MappingProxyType``
        over its metadata; ``.copy()`` gives an owning flow.
        """
        sizes = self.sizes.view()
        delays = self.delays.view()
        sizes.flags.writeable = False
        delays.flags.writeable = False
        label, protocol = self.label, self.protocol
        metadata = MappingProxyType(self.metadata)
        if min(lengths, default=1) < 1:
            raise ValueError("prefix length must be >= 1")
        views = []
        for length in lengths:
            flow = object.__new__(Flow)
            flow.sizes = sizes[:length]  # slicing clamps to n_packets
            flow.delays = delays[:length]
            flow.label = label
            flow.protocol = protocol
            flow.metadata = metadata
            views.append(flow)
        return views

    def __getstate__(self) -> Dict:
        # pickle and deepcopy cannot copy a view's read-only metadata proxy
        return {**self.__dict__, "metadata": dict(self.metadata)}

    def copy(self) -> "Flow":
        """An owning copy (writable arrays, a plain metadata dict); like
        :meth:`prefix_views`, not validated again."""
        flow = object.__new__(Flow)
        flow.__dict__.update(self.__dict__, metadata=dict(self.metadata))
        flow.sizes, flow.delays = self.sizes.copy(), self.delays.copy()
        return flow

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

"""Network-condition simulation: packet loss, retransmission and congestion.

Section 5.5.2 of the paper collects the Tor dataset under enforced packet
drop rates between 0 % and 10 % and studies how training/testing Amoeba under
mismatched conditions affects the attack success rate (Figure 6).  This
module applies the equivalent transformation to synthetic flows: dropped
packets are retransmitted after a timeout, which both lengthens the flow and
perturbs its timing structure, exactly the heterogeneity the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..utils.rng import ensure_rng
from ..utils.validation import check_non_negative, check_probability
from .flow import Flow

__all__ = ["NetworkCondition"]


@dataclass
class NetworkCondition:
    """Parametric description of a network environment.

    Attributes
    ----------
    drop_rate:
        Probability that any individual packet is lost and must be
        retransmitted (applied bidirectionally, as in the paper).
    retransmission_timeout_ms:
        Base retransmission timeout added ahead of a retransmitted packet.
    congestion_jitter_ms:
        Standard deviation of additional queueing delay added to every packet.
    bandwidth_kbps:
        Optional bottleneck bandwidth; when set, serialisation delay
        ``size / bandwidth`` is added per packet.
    """

    drop_rate: float = 0.0
    retransmission_timeout_ms: float = 200.0
    congestion_jitter_ms: float = 0.0
    bandwidth_kbps: Optional[float] = None

    def __post_init__(self) -> None:
        check_probability(self.drop_rate, "drop_rate")
        check_non_negative(self.retransmission_timeout_ms, "retransmission_timeout_ms")
        check_non_negative(self.congestion_jitter_ms, "congestion_jitter_ms")
        if self.bandwidth_kbps is not None and self.bandwidth_kbps <= 0:
            raise ValueError("bandwidth_kbps must be positive when provided")

    # ------------------------------------------------------------------ #
    def apply(self, flow: Flow, rng=None) -> Flow:
        """Return a new flow as it would be observed under these conditions.

        A dropped packet appears twice on the wire: the original transmission
        is lost upstream of the observation point only in terms of payload
        delivery, but the censor between client and bridge still observes the
        retransmission as an extra packet of the same size arriving one
        timeout later (this matches the paper's description of
        retransmissions making drop-rate datasets "more heterogeneous").
        """
        rng = ensure_rng(rng)
        sizes: List[float] = []
        delays: List[float] = []
        carried_delay = 0.0
        for size, delay in zip(flow.sizes, flow.delays):
            delay = float(delay) + carried_delay
            carried_delay = 0.0
            if self.congestion_jitter_ms > 0:
                delay += float(abs(rng.normal(0.0, self.congestion_jitter_ms)))
            if self.bandwidth_kbps:
                delay += abs(size) * 8.0 / self.bandwidth_kbps  # ms per byte at kbit/ms
            sizes.append(float(size))
            delays.append(delay)
            if self.drop_rate > 0 and rng.random() < self.drop_rate:
                # Retransmission: duplicate packet after a jittered timeout.
                timeout = float(
                    max(1.0, rng.normal(self.retransmission_timeout_ms, self.retransmission_timeout_ms * 0.2))
                )
                sizes.append(float(size))
                delays.append(timeout)
        delays[0] = 0.0
        metadata = dict(flow.metadata)
        metadata.update(
            {
                "drop_rate": self.drop_rate,
                "congestion_jitter_ms": self.congestion_jitter_ms,
            }
        )
        return Flow(
            sizes=np.asarray(sizes),
            delays=np.asarray(delays),
            label=flow.label,
            protocol=flow.protocol,
            metadata=metadata,
        )

    def apply_many(self, flows: Sequence[Flow], rng=None) -> List[Flow]:
        """Apply the condition independently to each flow."""
        rng = ensure_rng(rng)
        return [self.apply(flow, rng=rng) for flow in flows]

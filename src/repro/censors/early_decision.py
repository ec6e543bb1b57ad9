"""Early-decision censor wrapper.

Section 5.6.2 of the paper discusses censors that make their decision after
observing only the first *n* packets of a flow (as real middleboxes do, to
bound per-flow state), or only client-to-server packets.  This wrapper turns
any censor into such an early/partial-observation censor, which changes what
feedback an attacker can extract and how long the censor must buffer.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..flows.flow import Flow
from .base import CensorClassifier

__all__ = ["EarlyDecisionCensor"]


class EarlyDecisionCensor(CensorClassifier):
    """Classify flows from a truncated / filtered view.

    Parameters
    ----------
    base:
        The underlying censor actually performing the classification.
    first_n_packets:
        If set, only the first ``n`` packets of every flow are visible to the
        base censor (both at fit and at scoring time).
    upstream_only:
        If true, only client-to-server packets are visible (the paper cites
        censors that ignore the downstream direction).
    """

    differentiable = False

    def __init__(
        self,
        base: CensorClassifier,
        first_n_packets: Optional[int] = None,
        upstream_only: bool = False,
    ) -> None:
        super().__init__()
        if first_n_packets is not None and first_n_packets < 1:
            raise ValueError("first_n_packets must be >= 1 when provided")
        if first_n_packets is None and not upstream_only:
            raise ValueError("configure at least one of first_n_packets / upstream_only")
        self.base = base
        self.first_n_packets = first_n_packets
        self.upstream_only = upstream_only
        self.name = f"Early[{base.name}]"

    # ------------------------------------------------------------------ #
    def _restrict(self, flow: Flow) -> Flow:
        """Return the part of ``flow`` the censor is allowed to observe."""
        sizes = flow.sizes
        delays = flow.delays
        if self.upstream_only:
            mask = sizes > 0
            if not np.any(mask):
                # A flow with no visible packets: keep the first packet so the
                # restricted view is still a valid (non-empty) flow.
                mask = np.zeros(len(sizes), dtype=bool)
                mask[0] = True
            sizes, delays = sizes[mask], delays[mask]
        if self.first_n_packets is not None:
            sizes, delays = sizes[: self.first_n_packets], delays[: self.first_n_packets]
        # Cut first, then build: one copy and one validation per flow.
        return Flow(
            sizes=sizes.copy(),
            delays=delays.copy(),
            label=flow.label,
            protocol=flow.protocol,
            metadata=dict(flow.metadata),
        )

    def _restrict_many(self, flows: Sequence[Flow]) -> list:
        return [self._restrict(flow) for flow in flows]

    # ------------------------------------------------------------------ #
    def fit(self, flows: Sequence[Flow], labels: Optional[Sequence[int]] = None) -> "EarlyDecisionCensor":
        flows = list(flows)
        labels = self._resolve_labels(flows, labels)
        self.base.fit(self._restrict_many(flows), labels=labels)
        self._fitted = True
        return self

    def _score_flows(self, flows: Sequence[Flow]) -> np.ndarray:
        return self.base.predict_scores(self._restrict_many(flows))

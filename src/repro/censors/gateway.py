"""Censor gateway simulation.

Section 2 of the paper describes the censor as sitting on the network
gateway, classifying every flow and maintaining a blacklist of
``(src_ip, src_port, dst_ip, dst_port, protocol)`` tuples; once a flow is
flagged, the socket pair can no longer communicate (the destination IP is
*not* blocked wholesale, to avoid CDN collateral damage).

The gateway wraps any :class:`~repro.censors.base.CensorClassifier` and
exposes exactly the feedback an attacker can observe in the wild: whether a
new connection for a given socket pair can still be established.  This is the
component the discussion in Section 5.6.2 reasons about (inferring rewards
from connection resets / blocked ports).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Set, Tuple

from ..flows.flow import Flow
from .base import CensorClassifier

__all__ = ["SocketPair", "CensorGateway", "GatewayDecision"]


@dataclass(frozen=True)
class SocketPair:
    """The 5-tuple the censor uses for blacklisting."""

    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str = "tcp"


@dataclass(frozen=True)
class GatewayDecision:
    """Outcome of the censor examining one flow."""

    allowed: bool
    score: float
    blacklisted: bool


class CensorGateway:
    """Stateful gateway: classifies flows and maintains a blacklist.

    Parameters
    ----------
    classifier:
        Trained censoring classifier.
    block_destination_port:
        When true (the Great-Firewall-style behaviour described in the
        paper), a blocked flow also blocks the destination (ip, port) pair
        for *any* source, emulating port blacklisting.
    """

    def __init__(self, classifier: CensorClassifier, block_destination_port: bool = False) -> None:
        self.classifier = classifier
        self.block_destination_port = block_destination_port
        self._blacklist: Set[SocketPair] = set()
        self._blocked_destinations: Set[Tuple[str, int]] = set()
        self._decisions = 0
        self._blocked = 0

    # ------------------------------------------------------------------ #
    def is_blocked(self, socket_pair: SocketPair) -> bool:
        """Can this socket pair still establish connections?"""
        if socket_pair in self._blacklist:
            return True
        if self.block_destination_port and (socket_pair.dst_ip, socket_pair.dst_port) in self._blocked_destinations:
            return True
        return False

    def observe(self, socket_pair: SocketPair, flow: Flow) -> GatewayDecision:
        """Classify a flow traversing the gateway and update the blacklist."""
        if self.is_blocked(socket_pair):
            return GatewayDecision(allowed=False, score=0.0, blacklisted=True)
        score = self.classifier.predict_score(flow)
        allowed = score >= 0.5
        self._decisions += 1
        if not allowed:
            self._blocked += 1
            self._blacklist.add(socket_pair)
            if self.block_destination_port:
                self._blocked_destinations.add((socket_pair.dst_ip, socket_pair.dst_port))
        return GatewayDecision(allowed=allowed, score=float(score), blacklisted=not allowed)

    @property
    def statistics(self) -> Dict[str, int]:
        return {
            "decisions": self._decisions,
            "blocked": self._blocked,
            "blacklist_size": len(self._blacklist),
        }

"""Synthetic load generator for the serving tier.

Builds an interleaved per-packet arrival schedule from the library's
synthetic traffic generators (Tor / V2Ray / HTTPS mixes, the same
distributions the censors are trained on) at a target aggregate arrival
rate, and drives a :class:`~repro.serve.server.PolicyServer` through it.

The schedule is *virtual-time* ordered: flow start offsets and inter-packet
gaps define the interleaving of sessions — i.e. which sessions' packets
contend for the same batches — while the run itself executes as fast as the
server can serve (offered-load mode, which is what a throughput benchmark
wants).  Decision latencies are measured on the wall clock, so deadline
tracking still reflects what the serving process can actually sustain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..flows.flow import Flow
from ..flows.generators import (
    HTTPSFlowGenerator,
    TorFlowGenerator,
    V2RayFlowGenerator,
)
from ..utils.rng import ensure_rng
from ..utils.validation import check_integer, check_positive
from .server import summarize_stats

__all__ = ["PacketEvent", "SyntheticWorkload", "LoadReport", "run_workload"]

_GENERATORS = {
    "tor": TorFlowGenerator,
    "v2ray": V2RayFlowGenerator,
    "https": HTTPSFlowGenerator,
}


@dataclass(frozen=True)
class PacketEvent:
    """One packet arrival in the virtual-time schedule."""

    time_ms: float
    session_id: str
    size: float
    delay_ms: float


@dataclass
class SyntheticWorkload:
    """An arrival schedule over a set of synthetic flows."""

    events: List[PacketEvent]
    flows: Dict[str, Flow]
    protocols: Dict[str, str]
    arrival_rate_pps: float

    @property
    def n_sessions(self) -> int:
        return len(self.flows)

    @property
    def n_packets(self) -> int:
        return len(self.events)

    @classmethod
    def generate(
        cls,
        n_sessions: int,
        mix: Optional[Dict[str, float]] = None,
        arrival_rate_pps: float = 1000.0,
        max_packets: int = 24,
        rng=None,
    ) -> "SyntheticWorkload":
        """Sample ``n_sessions`` flows from a protocol mix and schedule them.

        ``mix`` maps generator names (``tor`` / ``v2ray`` / ``https``) to
        weights; each session samples its protocol from the normalised mix.
        The natural time span of the sampled flows is rescaled so the
        aggregate packet arrival rate equals ``arrival_rate_pps``, and each
        session starts at a uniform offset inside the span, so packets of
        different sessions interleave the way concurrent proxy traffic
        would.
        """
        if n_sessions < 1:
            raise ValueError("n_sessions must be >= 1")
        check_positive(arrival_rate_pps, "arrival_rate_pps")
        check_integer(max_packets, "max_packets", minimum=1)
        rng = ensure_rng(rng)
        mix = dict(mix or {"tor": 0.5, "https": 0.3, "v2ray": 0.2})
        unknown = set(mix) - set(_GENERATORS)
        if unknown:
            raise ValueError(f"unknown generators in mix: {sorted(unknown)}")
        names = sorted(mix)
        weights = np.asarray([mix[name] for name in names], dtype=np.float64)
        if weights.sum() <= 0:
            raise ValueError("mix weights must sum to a positive value")
        weights = weights / weights.sum()
        generators = {name: _GENERATORS[name](rng=rng) for name in names}

        flows: Dict[str, Flow] = {}
        protocols: Dict[str, str] = {}
        for index in range(n_sessions):
            protocol = names[int(rng.choice(len(names), p=weights))]
            flow = generators[protocol].generate()
            if flow.n_packets > max_packets:
                flow = Flow(
                    sizes=flow.sizes[:max_packets],
                    delays=flow.delays[:max_packets],
                    label=flow.label,
                    protocol=flow.protocol,
                    metadata=dict(flow.metadata),
                )
            session_id = f"flow{index}"
            flows[session_id] = flow
            protocols[session_id] = protocol

        total_packets = sum(flow.n_packets for flow in flows.values())
        span_ms = max(total_packets / arrival_rate_pps * 1000.0, 1e-6)
        events: List[PacketEvent] = []
        for session_id, flow in flows.items():
            natural = np.cumsum(flow.delays)
            natural_span = float(natural[-1]) if flow.n_packets else 0.0
            scale = span_ms / max(natural_span, 1e-6)
            start = float(rng.uniform(0.0, span_ms))
            times = start + natural * min(scale, 1.0)
            for size, delay, t in zip(flow.sizes, flow.delays, times):
                events.append(
                    PacketEvent(
                        time_ms=float(t),
                        session_id=session_id,
                        size=float(size),
                        delay_ms=float(delay),
                    )
                )
        events.sort(key=lambda event: (event.time_ms, event.session_id))
        return cls(
            events=events,
            flows=flows,
            protocols=protocols,
            arrival_rate_pps=float(arrival_rate_pps),
        )


@dataclass(frozen=True)
class LoadReport:
    """Outcome of one load-generation run against a serving tier."""

    n_sessions: int
    n_packets: int
    decisions: int
    decisions_per_s: float
    p50_latency_ms: float
    p99_latency_ms: float
    deadline_miss_rate: float
    profile_fallback_rate: float
    stats: Dict[str, object] = field(repr=False, default_factory=dict)


def run_workload(server, workload: SyntheticWorkload) -> LoadReport:
    """Drive a :class:`~repro.serve.server.PolicyServer` through a workload;
    returns aggregate metrics.

    Packets are submitted in schedule order with a ``poll()`` after each
    arrival (timeout-based flushes), a final ``drain()`` serves the tail,
    and sessions are closed so profile fallbacks are embedded and accounted.
    """
    start = time.perf_counter()
    for session_id, flow in workload.flows.items():
        server.open_session(session_id, protocol=workload.protocols[session_id])
    for event in workload.events:
        server.submit(event.session_id, event.size, event.delay_ms)
        server.poll()
    server.drain()
    server.close_all()
    wall = time.perf_counter() - start

    stats = server.stats()
    summary = summarize_stats(stats)
    decisions = int(summary["decisions"])
    return LoadReport(
        n_sessions=workload.n_sessions,
        n_packets=workload.n_packets,
        decisions=decisions,
        decisions_per_s=decisions / wall if wall > 0 else 0.0,
        p50_latency_ms=summary["p50_latency_ms"],
        p99_latency_ms=summary["p99_latency_ms"],
        deadline_miss_rate=summary["deadline_miss_rate"],
        profile_fallback_rate=summary["profile_fallback_rate"],
        stats=stats,
    )

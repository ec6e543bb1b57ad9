"""Equivalence oracle: the seed Tor flow generator, one draw per packet.

This is ``TorFlowGenerator`` from ``src/repro/flows/generators.py`` as it stood
before the bulk burst draws: ``_cells_to_packets`` draws one scalar
``integers(1, per_packet + 1)`` per packet, and ``generate`` packs every
response burst whole, draws one scalar delay per kept packet and breaks at
``max_packets``.  The shared ``FlowGenerator`` helpers it draws through are
copied here too, so no production generator code sits on the reference side.
It is kept only as the reference ``tests/test_flows_generators.py`` compares
the production generator against (sizes, delays and the final bit-generator
state) -- do not optimise or "fix" it; the only edits are the absolute
``repro`` imports and the class name.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.flows.flow import Flow, FlowLabel
from repro.flows.generators import TCP_MSS, TOR_CELL_SIZE
from repro.utils.rng import ensure_rng

__all__ = ["ReferenceTorFlowGenerator"]


class ReferenceTorFlowGenerator:
    protocol = "tor"
    label = FlowLabel.CENSORED

    def __init__(
        self,
        rng=None,
        cell_size: int = TOR_CELL_SIZE,
        mss: int = TCP_MSS,
        circuit_latency_ms: float = 120.0,
        mean_page_kb: float = 350.0,
        max_packets: int = 120,
    ) -> None:
        self._rng = ensure_rng(rng)
        self.cell_size = cell_size
        self.mss = mss
        self.circuit_latency_ms = circuit_latency_ms
        self.mean_page_kb = mean_page_kb
        self.max_packets = max_packets

    def generate_many(self, count: int) -> List[Flow]:
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate() for _ in range(count)]

    def _page_weight_bytes(self, mean_kb: float = 400.0, sigma: float = 0.8) -> float:
        return float(self._rng.lognormal(np.log(mean_kb * 1024), sigma))

    def _request_count(self, lam: float = 6.0) -> int:
        return int(max(1, self._rng.poisson(lam)))

    def _jittered_delay(self, base_ms: float, jitter: float = 0.3) -> float:
        return float(max(0.0, self._rng.normal(base_ms, base_ms * jitter)))

    def _cells_to_packets(self, n_cells: int, direction: float) -> List[float]:
        packets: List[float] = []
        remaining = n_cells
        max_cells_per_packet = max(1, self.mss // self.cell_size)
        while remaining > 0:
            cells = int(min(remaining, self._rng.integers(1, max_cells_per_packet + 1)))
            packets.append(direction * cells * self.cell_size)
            remaining -= cells
        return packets

    def generate(self) -> Flow:
        sizes: List[float] = []
        delays: List[float] = []
        n_requests = self._request_count(lam=4.0)
        page_bytes = self._page_weight_bytes(self.mean_page_kb)
        bytes_per_response = page_bytes / n_requests

        for request_index in range(n_requests):
            # Upstream request: one or two cells.
            request_cells = int(self._rng.integers(1, 3))
            for packet in self._cells_to_packets(request_cells, +1.0):
                sizes.append(packet)
                delays.append(
                    0.0
                    if not sizes[:-1]
                    else self._jittered_delay(10.0 if request_index == 0 else 40.0)
                )
            # Downstream burst after a full circuit round trip.
            response_cells = max(1, int(bytes_per_response // self.cell_size))
            first_in_burst = True
            for packet in self._cells_to_packets(response_cells, -1.0):
                sizes.append(packet)
                if first_in_burst:
                    delays.append(self._jittered_delay(self.circuit_latency_ms))
                    first_in_burst = False
                else:
                    delays.append(self._jittered_delay(2.0))
                if len(sizes) >= self.max_packets:
                    break
            if len(sizes) >= self.max_packets:
                break

        sizes = sizes[: self.max_packets]
        delays = delays[: self.max_packets]
        delays[0] = 0.0
        return Flow(
            sizes=np.asarray(sizes),
            delays=np.asarray(delays),
            label=self.label,
            protocol=self.protocol,
            metadata={"generator": "TorFlowGenerator"},
        )

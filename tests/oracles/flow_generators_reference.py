"""Equivalence oracle: the seed flow generators that draw one packet at a time.

``ReferenceTorFlowGenerator`` is ``TorFlowGenerator`` from
``src/repro/flows/generators.py`` as it stood before the bulk burst draws:
``_cells_to_packets`` draws one scalar ``integers(1, per_packet + 1)`` per
packet, and ``generate`` packs every response burst whole, draws one scalar
delay per kept packet and breaks at ``max_packets``.
``ReferenceHTTPSFlowGenerator`` and ``ReferenceHTTPSRecordFlowGenerator``
are the two benign generators as they stood before their response bursts
were drawn in bulk: one ``_jittered_delay`` call per segment, and a tail
segment's ``integers`` just before it.  The shared ``FlowGenerator`` helpers
they draw through are copied into ``_ReferenceFlowGenerator``, so no
production generator code sits on the reference side.
They are kept only as the reference ``tests/test_flows_generators.py``
compares the production generators against (sizes, delays and the final
bit-generator state) -- do not optimise or "fix" them; the only edits are
the absolute ``repro`` imports, the class names and the shared base.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.flows.flow import Flow, FlowLabel
from repro.flows.generators import TCP_MSS, TLS_MAX_RECORD, TOR_CELL_SIZE
from repro.utils.rng import ensure_rng

__all__ = [
    "ReferenceTorFlowGenerator",
    "ReferenceHTTPSFlowGenerator",
    "ReferenceHTTPSRecordFlowGenerator",
]


class _ReferenceFlowGenerator:
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


class ReferenceTorFlowGenerator(_ReferenceFlowGenerator):
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


class ReferenceHTTPSFlowGenerator(_ReferenceFlowGenerator):
    protocol = "https"
    label = FlowLabel.BENIGN

    def __init__(
        self,
        rng=None,
        mss: int = TCP_MSS,
        rtt_ms: float = 25.0,
        mean_page_kb: float = 400.0,
        max_packets: int = 120,
    ) -> None:
        self._rng = ensure_rng(rng)
        self.mean_page_kb = mean_page_kb
        self.max_packets = max_packets
        self.mss = mss
        self.rtt_ms = rtt_ms

    def generate(self) -> Flow:
        sizes: List[float] = []
        delays: List[float] = []
        n_requests = self._request_count(lam=7.0)
        page_bytes = self._page_weight_bytes(self.mean_page_kb)
        bytes_per_response = page_bytes / n_requests

        # TLS handshake: ClientHello, ServerHello+cert burst, Finished.
        sizes.append(float(self._rng.integers(250, 600)))
        delays.append(0.0)
        for _ in range(int(self._rng.integers(2, 4))):
            sizes.append(-float(self._rng.integers(1000, self.mss + 1)))
            delays.append(self._jittered_delay(self.rtt_ms if len(sizes) == 2 else 1.0))
        sizes.append(float(self._rng.integers(60, 150)))
        delays.append(self._jittered_delay(self.rtt_ms))

        for request_index in range(n_requests):
            # HTTP request upstream: varied sizes, not cell-quantised.
            sizes.append(float(self._rng.integers(80, 900)))
            delays.append(self._jittered_delay(15.0 if request_index == 0 else 60.0))
            # Response: MSS-sized segments plus a fractional tail segment.
            remaining = max(200.0, self._rng.normal(bytes_per_response, bytes_per_response * 0.4))
            first_in_burst = True
            while remaining > 0 and len(sizes) < self.max_packets:
                segment = min(remaining, float(self.mss))
                if segment < 80:
                    segment = float(self._rng.integers(80, 300))
                sizes.append(-segment)
                delays.append(
                    self._jittered_delay(self.rtt_ms) if first_in_burst else self._jittered_delay(0.8)
                )
                first_in_burst = False
                remaining -= segment
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
            metadata={"generator": "HTTPSFlowGenerator"},
        )


class ReferenceHTTPSRecordFlowGenerator(_ReferenceFlowGenerator):
    protocol = "https-records"
    label = FlowLabel.BENIGN

    def __init__(
        self,
        rng=None,
        max_record: int = TLS_MAX_RECORD,
        rtt_ms: float = 25.0,
        mean_page_kb: float = 400.0,
        max_packets: int = 80,
    ) -> None:
        self._rng = ensure_rng(rng)
        self.mean_page_kb = mean_page_kb
        self.max_packets = max_packets
        self.max_record = max_record
        self.rtt_ms = rtt_ms

    def generate(self) -> Flow:
        sizes: List[float] = []
        delays: List[float] = []

        n_requests = self._request_count(lam=7.0)
        page_bytes = self._page_weight_bytes(self.mean_page_kb)
        bytes_per_response = page_bytes / n_requests

        for request_index in range(n_requests):
            # HTTP request: one small record upstream.
            sizes.append(float(self._rng.integers(80, 700)))
            delays.append(
                0.0 if not delays else self._jittered_delay(15.0 if request_index == 0 else 60.0)
            )
            # Response: servers coalesce data into records close to the maximum.
            remaining = max(300.0, self._rng.normal(bytes_per_response, bytes_per_response * 0.4))
            first_in_burst = True
            while remaining > 0 and len(sizes) < self.max_packets:
                record = min(remaining, float(self.max_record))
                if record < 100:
                    record = float(self._rng.integers(100, 400))
                sizes.append(-record)
                delays.append(
                    self._jittered_delay(self.rtt_ms) if first_in_burst else self._jittered_delay(1.0)
                )
                first_in_burst = False
                remaining -= record
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
            metadata={"generator": "HTTPSRecordFlowGenerator"},
        )

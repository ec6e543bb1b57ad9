"""Synthetic traffic generators standing in for the paper's collected datasets.

The paper crawls the Alexa top-25k landing pages through (a) a Tor bridge and
(b) a V2Ray TLS tunnel, and records the same pages fetched directly over
HTTPS as the benign class.  Live captures are unavailable offline, so these
generators synthesise flows that reproduce the *statistical artefacts the
paper says the censoring classifiers key on*:

* **Tor (TCP layer)** — packet sizes are dominated by multiples of the
  586-byte encapsulated onion cell (the paper rounds this to 536-byte cells);
  request/response exchanges show long downstream cell bursts and added
  relay-circuit latency.
* **V2Ray (TLS-record layer)** — records up to 16 KB with a tell-tale
  TLS-in-TLS phase: a browser↔web-server handshake *inside* the tunnel right
  after the outer handshake, which plain HTTPS never exhibits.
* **HTTPS (benign)** — ordinary web browsing: small upstream requests,
  MTU-limited (Tor dataset) or large-record (V2Ray dataset) downstream
  responses, no cell quantisation, no inner handshake.

Each generator returns :class:`~repro.flows.flow.Flow` objects; the page-size
and object-count distributions are log-normal, matching the heavy-tailed
nature of web-page weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..utils.rng import ensure_rng
from ..utils.validation import check_integer, check_positive
from .flow import Flow, FlowLabel

__all__ = [
    "TCP_MSS",
    "TLS_MAX_RECORD",
    "TOR_CELL_SIZE",
    "FlowGenerator",
    "TorFlowGenerator",
    "HTTPSFlowGenerator",
    "V2RayFlowGenerator",
    "HTTPSRecordFlowGenerator",
]

TCP_MSS = 1460
TLS_MAX_RECORD = 16384
TOR_CELL_SIZE = 536


class FlowGenerator:
    """Base class for synthetic flow generators (constructors validate, never draw)."""

    protocol = "unknown"
    label = FlowLabel.CENSORED

    def __init__(self, rng=None, mean_page_kb: float = 400.0, max_packets: int = 120) -> None:
        self._rng = ensure_rng(rng)
        self.mean_page_kb = check_positive(mean_page_kb, "mean_page_kb")
        self.max_packets = check_integer(max_packets, "max_packets", minimum=1)

    def generate(self) -> Flow:
        """Generate a single flow."""
        raise NotImplementedError

    def generate_many(self, count: int) -> List[Flow]:
        """Generate ``count`` flows."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate() for _ in range(count)]

    # ------------------------------------------------------------------ #
    # Shared building blocks
    # ------------------------------------------------------------------ #
    def _page_weight_bytes(self, mean_kb: float = 400.0, sigma: float = 0.8) -> float:
        """Sample a page weight (bytes) from a log-normal distribution."""
        return float(self._rng.lognormal(np.log(mean_kb * 1024), sigma))

    def _request_count(self, lam: float = 6.0) -> int:
        """Sample the number of request/response exchanges on a page."""
        return int(max(1, self._rng.poisson(lam)))

    def _jittered_delay(self, base_ms: float, jitter: float = 0.3) -> float:
        """Return a non-negative delay around ``base_ms`` with relative jitter."""
        return float(max(0.0, self._rng.normal(base_ms, base_ms * jitter)))


class TorFlowGenerator(FlowGenerator):
    """Tor traffic observed at the TCP layer between client and bridge.

    The defining artefact is the fixed-size onion cell: nearly every TCP
    payload is a multiple of ``cell_size`` bytes (clipped at the MSS), and
    round trips incur circuit latency an order of magnitude above direct
    fetches.
    """

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
        super().__init__(rng, mean_page_kb, max_packets)
        self.cell_size = check_integer(cell_size, "cell_size", minimum=1)
        self.mss = check_integer(mss, "mss", minimum=1)
        self.circuit_latency_ms = circuit_latency_ms

    def _cells_to_packets(self, n_cells: int, direction: float) -> List[float]:
        """Pack ``n_cells`` onion cells into TCP segments (multiples of cell size).

        Each packet draws ``integers(1, per_packet + 1)`` cells; the last one
        takes what is left.  Draws come in rounds of ``ceil(remaining /
        per_packet)``, the packets still certainly needed, so the stream
        advances exactly as one scalar draw per packet would.
        """
        per_packet = max(1, self.mss // self.cell_size)
        rounds = []
        remaining = n_cells
        while remaining > 0:
            cells = self._rng.integers(1, per_packet + 1, size=-(-remaining // per_packet))
            drawn = int(cells.sum())
            if drawn >= remaining:
                cells[-1] -= drawn - remaining
            rounds.append(cells)
            remaining -= drawn
        return (np.concatenate(rounds) * (direction * self.cell_size)).tolist()

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
                    0.0 if len(sizes) == 1 else self._jittered_delay(10.0 if request_index == 0 else 40.0)
                )
            # Downstream burst after a full circuit round trip.  The whole
            # burst is drawn (later flows depend on the stream), but only the
            # packets kept under max_packets (at least one) draw a delay.
            response_cells = max(1, int(bytes_per_response // self.cell_size))
            burst = self._cells_to_packets(response_cells, -1.0)
            burst = burst[: max(1, self.max_packets - len(sizes))]
            sizes.extend(burst)
            delays.append(self._jittered_delay(self.circuit_latency_ms))
            base_ms, jitter = 2.0, 0.3
            trailing = self._rng.normal(base_ms, base_ms * jitter, size=len(burst) - 1)
            delays.extend(np.maximum(trailing, 0.0).tolist())
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


class HTTPSFlowGenerator(FlowGenerator):
    """Plain HTTPS browsing observed at the TCP layer (benign class, Tor dataset)."""

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
        super().__init__(rng, mean_page_kb, max_packets)
        # The handshake's certificate burst draws integers(1000, mss + 1).
        self.mss = check_integer(mss, "mss", minimum=1000)
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


class V2RayFlowGenerator(FlowGenerator):
    """V2Ray TLS-tunnelled traffic observed at the TLS-record layer.

    The giveaway pattern is TLS-in-TLS: shortly after the outer handshake the
    tunnelled browser performs its own TLS handshake with the destination web
    server, producing a recognisable exchange of mid-sized records in both
    directions before any application data flows.
    """

    protocol = "v2ray"
    label = FlowLabel.CENSORED

    def __init__(
        self,
        rng=None,
        max_record: int = TLS_MAX_RECORD,
        proxy_rtt_ms: float = 80.0,
        mean_page_kb: float = 400.0,
        max_packets: int = 80,
    ) -> None:
        super().__init__(rng, mean_page_kb, max_packets)
        # Response records draw integers(2800, max_record - 500).
        self.max_record = check_integer(max_record, "max_record", minimum=3301)
        self.proxy_rtt_ms = proxy_rtt_ms

    def generate(self) -> Flow:
        sizes: List[float] = []
        delays: List[float] = []

        # Inner TLS handshake tunnelled through the established outer session:
        # ClientHello (+ v2ray framing), ServerHello/cert burst, Finished.
        sizes.append(float(self._rng.integers(560, 860)))
        delays.append(0.0)
        sizes.append(-float(self._rng.integers(3000, 4800)))
        delays.append(self._jittered_delay(self.proxy_rtt_ms))
        sizes.append(float(self._rng.integers(100, 260)))
        delays.append(self._jittered_delay(self.proxy_rtt_ms))

        n_requests = self._request_count(lam=5.0)
        page_bytes = self._page_weight_bytes(self.mean_page_kb)
        bytes_per_response = page_bytes / n_requests

        for request_index in range(n_requests):
            # Tunnelled HTTP request (inner TLS record + proxy framing overhead).
            sizes.append(float(self._rng.integers(150, 1100)))
            delays.append(self._jittered_delay(20.0 if request_index == 0 else 70.0))
            remaining = max(400.0, self._rng.normal(bytes_per_response, bytes_per_response * 0.4))
            first_in_burst = True
            while remaining > 0 and len(sizes) < self.max_packets:
                # The proxy re-frames inner data into large but *not maximal*
                # records (framing overhead), a further statistical artefact.
                record = min(remaining, float(self._rng.integers(2800, self.max_record - 500)))
                if record < 120:
                    record = float(self._rng.integers(120, 400))
                sizes.append(-record)
                delays.append(
                    self._jittered_delay(self.proxy_rtt_ms)
                    if first_in_burst
                    else self._jittered_delay(3.0)
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
            metadata={"generator": "V2RayFlowGenerator"},
        )


class HTTPSRecordFlowGenerator(FlowGenerator):
    """Plain HTTPS browsing observed at the TLS-record layer (benign, V2Ray dataset)."""

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
        super().__init__(rng, mean_page_kb, max_packets)
        self.max_record = check_integer(max_record, "max_record", minimum=1)
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

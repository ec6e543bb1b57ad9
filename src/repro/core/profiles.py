"""Adversarial flow profiles (Section 5.6.1, Table 2).

Online, per-packet inference may be too slow relative to inter-packet delays
(Figure 11), so the paper proposes an offline deployment mode: store the
packet-size / delay "shapes" of adversarial flows that successfully evaded a
censor in a profile database synchronised between client and server proxies,
then embed real payload into those pre-generated shapes.  If the payload does
not fit into one profile, additional profiles (i.e. additional connections)
are used; if a profile prescribes a packet but no payload is waiting, a dummy
packet is sent anyway.  Both effects add overhead, which Table 2 quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..flows.flow import Flow
from ..utils.rng import ensure_rng

__all__ = ["AdversarialProfile", "ProfileDatabase", "ProfileEmbeddingResult"]


@dataclass(frozen=True)
class AdversarialProfile:
    """The shape of one successful adversarial flow (no payload)."""

    sizes: np.ndarray
    delays: np.ndarray

    @classmethod
    def from_flow(cls, flow: Flow) -> "AdversarialProfile":
        return cls(sizes=np.asarray(flow.sizes, dtype=np.float64), delays=np.asarray(flow.delays, dtype=np.float64))

    @property
    def upstream_capacity(self) -> float:
        return float(self.sizes[self.sizes > 0].sum())

    @property
    def downstream_capacity(self) -> float:
        return float(-self.sizes[self.sizes < 0].sum())

    @property
    def total_capacity(self) -> float:
        return float(np.abs(self.sizes).sum())

    @property
    def duration(self) -> float:
        return float(self.delays.sum())


@dataclass(frozen=True)
class ProfileEmbeddingResult:
    """Overhead of transmitting one tunnelled flow through stored profiles."""

    n_profiles_used: int
    payload_bytes: float
    transmitted_bytes: float
    dummy_bytes: float
    original_duration: float
    profile_duration: float
    handshake_overhead_ms: float
    # Whether the whole payload fit within the profile-draw cap.  A False
    # value means the overhead fields *underreport* what full delivery
    # would cost (the remainder was never placed) — Table 2 aggregation
    # must surface the rate instead of silently averaging truncated flows.
    fully_embedded: bool = True

    @property
    def data_overhead(self) -> float:
        """padding / (original payload + padding), as defined in Section 5.3."""
        padding = self.transmitted_bytes - self.payload_bytes
        denominator = self.payload_bytes + padding
        return float(padding / denominator) if denominator > 0 else 0.0

    @property
    def time_overhead(self) -> float:
        """delays / (delays + total transmission time)."""
        added = max(0.0, self.profile_duration + self.handshake_overhead_ms - self.original_duration)
        denominator = added + self.profile_duration + self.handshake_overhead_ms
        return float(added / denominator) if denominator > 0 else 0.0


class ProfileDatabase:
    """Database of successful adversarial flow profiles.

    Parameters
    ----------
    handshake_cost_ms:
        Extra latency charged each time an additional profile (i.e. a new
        TCP/TLS connection) has to be opened to carry leftover payload —
        the "extra TCP handshakes" the paper mentions when explaining the
        larger time overhead of the profile mode.
    max_embed_passes:
        Draw cap of :meth:`embed_flow`: at most this many full passes over
        the database (each pass a fresh random permutation) may be spent
        placing one flow's payload.  A flow still unplaced at the cap is
        returned with ``fully_embedded=False`` instead of looping forever
        on a database whose profiles lack capacity in some direction.
    """

    def __init__(
        self,
        profiles: Optional[Sequence[AdversarialProfile]] = None,
        handshake_cost_ms: float = 80.0,
        max_embed_passes: int = 10,
    ) -> None:
        if max_embed_passes < 1:
            raise ValueError("max_embed_passes must be >= 1")
        self._profiles: List[AdversarialProfile] = list(profiles or [])
        self.handshake_cost_ms = float(handshake_cost_ms)
        self.max_embed_passes = int(max_embed_passes)

    # ------------------------------------------------------------------ #
    def add_profile(self, profile: AdversarialProfile) -> None:
        self._profiles.append(profile)

    def add_flows(self, flows: Sequence[Flow], successes: Optional[Sequence[bool]] = None) -> int:
        """Store profiles of (successful) adversarial flows; returns count added."""
        added = 0
        for index, flow in enumerate(flows):
            if successes is not None and not successes[index]:
                continue
            self.add_profile(AdversarialProfile.from_flow(flow))
            added += 1
        return added

    def __len__(self) -> int:
        return len(self._profiles)

    def __getitem__(self, index: int) -> AdversarialProfile:
        return self._profiles[index]

    # ------------------------------------------------------------------ #
    def embed_flow(self, flow: Flow, rng=None) -> ProfileEmbeddingResult:
        """Embed a tunnelled flow's payload into stored profiles.

        Profiles are drawn at random (the database is synchronised between
        both proxies, so either end can pick); each profile's upstream and
        downstream byte capacity carries the corresponding directional
        payload of the original flow.  Every packet prescribed by a used
        profile is transmitted in full — unfilled capacity becomes dummy
        bytes.

        Drawing proceeds in passes, each a fresh permutation of the
        database, up to ``max_embed_passes`` passes.  A heavy flow whose
        payload is still unplaced at the cap is returned with
        ``fully_embedded=False`` — its overhead fields cover only the
        placed portion, and :meth:`overhead_summary` reports the rate so
        Table 2 aggregates cannot silently undercount heavy flows.
        """
        if not self._profiles:
            raise RuntimeError("the profile database is empty")
        rng = ensure_rng(rng)

        remaining_up = float(flow.sizes[flow.sizes > 0].sum())
        remaining_down = float(-flow.sizes[flow.sizes < 0].sum())
        payload_bytes = remaining_up + remaining_down

        transmitted = 0.0
        duration = 0.0
        used = 0
        for _ in range(self.max_embed_passes):
            if remaining_up <= 0 and remaining_down <= 0:
                break
            for index in rng.permutation(len(self._profiles)):
                if remaining_up <= 0 and remaining_down <= 0:
                    break
                profile = self._profiles[index]
                used += 1
                transmitted += profile.total_capacity
                duration += profile.duration
                remaining_up = max(0.0, remaining_up - profile.upstream_capacity)
                remaining_down = max(0.0, remaining_down - profile.downstream_capacity)

        dummy = max(0.0, transmitted - payload_bytes)
        handshake_overhead = self.handshake_cost_ms * max(0, used - 1)
        return ProfileEmbeddingResult(
            n_profiles_used=used,
            payload_bytes=payload_bytes,
            transmitted_bytes=transmitted,
            dummy_bytes=dummy,
            original_duration=float(flow.duration),
            profile_duration=duration,
            handshake_overhead_ms=handshake_overhead,
            fully_embedded=remaining_up <= 0 and remaining_down <= 0,
        )

    def embed_many(self, flows: Sequence[Flow], rng=None) -> List[ProfileEmbeddingResult]:
        rng = ensure_rng(rng)
        return [self.embed_flow(flow, rng=rng) for flow in flows]

    def overhead_summary(self, flows: Sequence[Flow], rng=None) -> Dict[str, float]:
        """Average data/time overhead of transmitting ``flows`` via profiles (Table 2).

        ``fully_embedded_rate`` is the fraction of flows whose payload was
        completely placed within the draw cap; overheads of the remainder
        are lower bounds (heavy flows would need more connections still).
        """
        results = self.embed_many(flows, rng=rng)
        return {
            "data_overhead": float(np.mean([r.data_overhead for r in results])),
            "time_overhead": float(np.mean([r.time_overhead for r in results])),
            "mean_profiles_per_flow": float(np.mean([r.n_profiles_used for r in results])),
            "fully_embedded_rate": float(np.mean([r.fully_embedded for r in results])),
        }

"""Online policy-serving subsystem: continuous-batching inference for live
flow shaping (the deployment tier of Section 5.6).

* :class:`~repro.serve.server.PolicyServer` — loads an actor/encoder
  checkpoint and serves per-packet shaping decisions to concurrent flow
  sessions, whose incremental encoder state is one slot each of a resident
  session table that the flush gathers from and scatters to by row.
* :class:`~repro.serve.scheduler.ContinuousBatchScheduler` — coalesces
  pending decisions across sessions into single batched forwards.
* :class:`~repro.serve.session.FlowSession` — per-flow emulator state,
  latency/deadline tracking and profile-tier fallback
  (:class:`~repro.serve.session.SessionTable` holds the encoder state).
* :mod:`~repro.serve.loadgen` — synthetic Tor/V2Ray/HTTPS packet schedules
  to exercise the tier at a target arrival rate.
"""

from .loadgen import LoadReport, PacketEvent, SyntheticWorkload, run_workload
from .scheduler import ContinuousBatchScheduler, DecisionRequest
from .server import PolicyServer, ServeConfig, build_policy_from_state, summarize_stats
from .session import (
    FlowSession,
    SessionLimits,
    SessionReport,
    SessionStatus,
    ShapingDecision,
)

__all__ = [
    "PolicyServer",
    "ServeConfig",
    "build_policy_from_state",
    "summarize_stats",
    "ContinuousBatchScheduler",
    "DecisionRequest",
    "FlowSession",
    "SessionLimits",
    "SessionReport",
    "SessionStatus",
    "ShapingDecision",
    "SyntheticWorkload",
    "PacketEvent",
    "LoadReport",
    "run_workload",
]

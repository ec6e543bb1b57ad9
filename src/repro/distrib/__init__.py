"""Distributed rollout collection and its worker channel.

This package hosts the multi-process tier of the reproduction:

``repro.distrib.transport``
    The worker channel — framed command tuples over :class:`Transport`
    pipes to local forks, served by the generic
    :func:`worker_command_loop`.
``repro.distrib.shard``
    :class:`ShardRunner` — the per-process collection kernel: a
    :class:`~repro.core.vec_env.VectorFlowEnv` shard, its incremental state
    tracker, per-slot exploration-noise streams and actor/critic/encoder
    replicas refreshed from broadcast checkpoints.
``repro.distrib.sharded``
    :class:`ShardedRolloutEngine` — forks W workers through
    :class:`ForkWorkerPool`, owns the rollout command vocabulary,
    broadcasts checkpoints as bytes (serialized once per broadcast), merges
    per-shard rollout segments deterministically, and restarts crashed
    workers by deterministic command-log replay.

Determinism contract: on the row-consistent :mod:`repro.nn.backend` kernel, sharded
collection with ``W × n_envs_per_shard`` environments is bit-equivalent to
single-process vectorized collection with the same ``n_envs`` — identical
buffers, rewards, episode summaries and per-flow censor query counts.  See
the seed-tree layout in :mod:`repro.utils.rng`.
"""

from .shard import ShardResult, ShardRunner
from .sharded import ForkWorkerPool, ShardedRolloutEngine
from .transport import Transport, TransportError, worker_command_loop

__all__ = [
    "ShardRunner",
    "ShardResult",
    "ShardedRolloutEngine",
    "Transport",
    "TransportError",
    "worker_command_loop",
    "ForkWorkerPool",
]

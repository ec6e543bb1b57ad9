"""Distributed rollout collection, sweep orchestration and worker channels.

This package hosts the multi-process tier of the reproduction:

``repro.distrib.transport``
    The worker channel — one framed command protocol
    (:func:`worker_command_loop`) over :class:`Transport` pipes to local
    forks, and the :class:`ForkWorkerPool` every driver places workers
    through.
``repro.distrib.shard``
    :class:`ShardRunner` — the per-process collection kernel: a
    :class:`~repro.core.vec_env.VectorFlowEnv` shard, its incremental state
    tracker, per-slot exploration-noise streams and actor/critic/encoder
    replicas refreshed from broadcast checkpoints.
``repro.distrib.sharded``
    :class:`ShardedRolloutEngine` — drives W workers, broadcasts checkpoints
    as bytes (serialized once per broadcast), merges per-shard rollout
    segments deterministically, and restarts crashed workers by
    deterministic command-log replay.
``repro.distrib.sweep``
    :class:`SweepOrchestrator` — schedules independent experiment grid
    points (arms-race rounds, reward-masking sweeps) across a worker pool
    with per-task retry and a JSON results manifest.

Determinism contract: on the row-consistent :mod:`repro.nn.backend` kernel, sharded
collection with ``W × n_envs_per_shard`` environments is bit-equivalent to
single-process vectorized collection with the same ``n_envs`` — identical
buffers, rewards, episode summaries and per-flow censor query counts.  See
the seed-tree layout in :mod:`repro.utils.rng`.

Telemetry is per process: what a worker records (``collect.*`` counters,
``collect.shard`` spans) stays in the worker, and the driver records its
own ``distrib.<command>`` spans, transport counters and
``distrib.worker_restarts``.  No telemetry crosses the worker pipe.
"""

from .shard import ShardResult, ShardRunner
from .sharded import ShardedRolloutEngine
from .sweep import SweepOrchestrator, SweepTask, SweepTaskRecord, amoeba_grid_task
from .transport import ForkWorkerPool, Transport, TransportError, worker_command_loop

__all__ = [
    "ShardRunner",
    "ShardResult",
    "ShardedRolloutEngine",
    "SweepOrchestrator",
    "SweepTask",
    "SweepTaskRecord",
    "amoeba_grid_task",
    "Transport",
    "TransportError",
    "worker_command_loop",
    "ForkWorkerPool",
]

"""Rollout worker: handler table around a :class:`ShardRunner`.

Workers speak the shared framed protocol of
:mod:`repro.distrib.transport` — the command loop, error replies and
broken-channel handling all live in :func:`worker_command_loop`; this
module only supplies the rollout command table:

============ ======================= ==============================
command      payload                 reply
============ ======================= ==============================
``load``      checkpoint bytes        ``("ok", None)``
``collect``   number of ticks         ``("result", ShardResult)``
``snapshot``  —                       ``("result", runner state dict)``
``restore``   runner state dict       ``("ok", None)``
``close``     —                       ``("ok", None)``, then exit
============ ======================= ==============================

Telemetry is not a command: a worker's instruments and spans stay in the
worker process, so the table holds only the rollout commands.

Exceptions inside a command come back as ``("error", traceback)`` so the
engine can re-raise them in the driver — only a broken pipe (the worker
process died) is treated as a restartable fault.
"""

from __future__ import annotations

import traceback
from typing import Callable, Dict

from .transport import Transport, worker_command_loop

__all__ = ["rollout_handlers", "rollout_worker_entry"]


def rollout_handlers(runner) -> Dict[str, Callable[..., tuple]]:
    """The rollout command table over one :class:`ShardRunner`."""

    def load(payload: bytes) -> tuple:
        runner.load_weights(payload)
        return ("ok", None)

    def collect(n_ticks: int) -> tuple:
        return ("result", runner.collect(n_ticks))

    def snapshot() -> tuple:
        return ("result", runner.snapshot())

    def restore(state) -> tuple:
        runner.restore(state)
        return ("ok", None)

    return {
        "load": load,
        "collect": collect,
        "snapshot": snapshot,
        "restore": restore,
    }


def rollout_worker_entry(
    transport: Transport, runner_factory: Callable[[int], object], worker_index: int
) -> None:
    """Build the worker's runner with ``runner_factory(worker_index)``, then
    serve :func:`rollout_handlers` through :func:`worker_command_loop`."""
    try:
        handlers = rollout_handlers(runner_factory(worker_index))
    except Exception:
        # A factory that cannot build its runner is a deterministic bug.
        # The worker stays up and answers every command with the traceback,
        # so the driver raises it instead of treating an exited worker as a
        # crash to restart.
        failure = ("error", traceback.format_exc())
        handlers = dict.fromkeys(rollout_handlers(None), lambda *payload: failure)
    worker_command_loop(transport, handlers)

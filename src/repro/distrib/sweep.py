"""Sweep orchestrator: experiment grids over a fault-tolerant worker pool.

The arms-race and reward-masking studies (Sections 5.5.3 / 5.6.2) are grids
of independent experiment points — each a full censor-train / Amoeba-train /
evaluate cycle.  :class:`SweepOrchestrator` schedules such grids over a pool
of forked workers (:class:`~repro.distrib.transport.ForkWorkerPool`):
tasks are handed to idle workers, a crashed worker (broken pipe) is
restarted and its task re-queued up to ``max_attempts`` times, and the
outcome of every task — result payload or error, attempt count, worker id,
wall-clock — is written to a JSON results manifest.

Unlike the sharded *rollout* workers (which share one training run and need
deterministic replay), sweep tasks are independent, so recovery is simply
re-running the task on a fresh worker; determinism is the task function's
business (seed every task through its params).

:func:`amoeba_grid_task` is the ready-made task function for arms-race /
reward-masking grids on the synthetic substrate; any top-level callable
``task_fn(params) -> dict`` works.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _wait_connections
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from .transport import ForkWorkerPool, Transport, TransportError, worker_command_loop

__all__ = [
    "SweepTask",
    "SweepTaskRecord",
    "SweepOrchestrator",
    "amoeba_grid_task",
    "sweep_worker_entry",
]


@dataclass(frozen=True)
class SweepTask:
    """One grid point: an identifier plus the task function's parameters."""

    task_id: str
    params: Dict[str, object] = field(default_factory=dict)


@dataclass
class SweepTaskRecord:
    """Outcome of one task, as written to the results manifest."""

    task_id: str
    status: str  # "ok" | "failed"
    attempts: int
    worker: Optional[int] = None
    elapsed_s: Optional[float] = None
    result: Optional[dict] = None
    error: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "task_id": self.task_id,
            "status": self.status,
            "attempts": self.attempts,
            "worker": self.worker,
            "elapsed_s": self.elapsed_s,
        }
        if self.status == "ok":
            payload["result"] = self.result
        else:
            payload["error"] = self.error
        return payload


def sweep_handlers(task_fn: Callable[[dict], dict]) -> Dict[str, Callable[..., tuple]]:
    """The sweep command table: one ``task`` command, replies carry the id.

    Task exceptions are caught *here* (not by the generic loop) so the
    error reply keeps the sweep shape ``("error", task_id, traceback)`` —
    the orchestrator matches results to tasks by id, not arrival order.
    """

    def run_task(task_id: str, params: dict) -> tuple:
        start = time.perf_counter()
        try:
            result = task_fn(params)
        except Exception:
            return ("error", task_id, traceback.format_exc())
        return ("done", task_id, result, time.perf_counter() - start)

    return {"task": run_task}


def sweep_worker_entry(
    transport: Transport, task_fn: Callable[[dict], dict], worker_index: int
) -> None:
    """Entry point of a forked sweep worker.

    ``close`` is fire-and-forget in the sweep protocol (``close_reply=None``):
    the orchestrator's shutdown never waits on a worker that may be hours
    into a task.
    """
    del worker_index  # tasks carry their own identity
    worker_command_loop(transport, sweep_handlers(task_fn), close_reply=None)


@dataclass
class _SweepWorker:
    index: int
    process: multiprocessing.Process
    conn: Transport
    current: Optional[SweepTask] = None


class SweepOrchestrator:
    """Schedules independent experiment tasks over a forked worker pool.

    Parameters
    ----------
    task_fn:
        ``task_fn(params) -> dict`` run inside a worker for every task; the
        returned dict must be JSON-serializable (it lands in the manifest).
    n_workers:
        Pool size; the pool never grows beyond the number of tasks.
    max_attempts:
        How many times a task may be scheduled before a crashing worker
        marks it failed.  A task that *raises* is failed immediately
        (exceptions are deterministic; only worker death is retried).

    Tasks may nest their own rollout engines, so sweep workers are forked
    non-daemonic.
    """

    def __init__(
        self,
        task_fn: Callable[[dict], dict],
        n_workers: int = 2,
        max_attempts: int = 2,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self._pool = ForkWorkerPool(
            sweep_worker_entry,
            task_fn,
            name_prefix="repro-sweep-worker",
            daemon=False,
        )
        self._n_workers = n_workers
        self._max_attempts = max_attempts
        self._restart_budget = 0  # set per run()
        self.restarts_performed = 0

    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> _SweepWorker:
        conn, process = self._pool.launch(index)
        return _SweepWorker(index=index, process=process, conn=conn)

    def _replace_worker(self, worker: _SweepWorker) -> None:
        """Swap a dead worker's process/channel for a fresh one in place."""
        if self.restarts_performed > self._restart_budget:
            raise RuntimeError(
                f"sweep workers kept crashing ({self.restarts_performed} restarts "
                f"for a budget of {self._restart_budget}); giving up instead of "
                "respawning forever"
            )
        worker.process.join(timeout=5)
        worker.conn.close()
        replacement = self._spawn(worker.index)
        worker.process, worker.conn = replacement.process, replacement.conn

    def _shutdown(self, workers: Sequence[_SweepWorker]) -> None:
        for worker in workers:
            try:
                worker.conn.send(("close",))
            except TransportError:
                pass
        for worker in workers:
            worker.process.join(timeout=5)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5)
            worker.conn.close()

    # ------------------------------------------------------------------ #
    def run(
        self,
        tasks: Sequence[Union[SweepTask, Dict[str, object]]],
        manifest_path: Optional[Union[str, Path]] = None,
    ) -> List[SweepTaskRecord]:
        """Run every task to completion (or exhausted retries).

        ``tasks`` may be :class:`SweepTask` instances or plain param dicts
        (auto-assigned ids ``task-0`` ...).  Records come back in the input
        task order; when ``manifest_path`` is given, the JSON manifest is
        written there as well.
        """
        normalized: List[SweepTask] = []
        for position, task in enumerate(tasks):
            if isinstance(task, SweepTask):
                normalized.append(task)
            else:
                normalized.append(SweepTask(task_id=f"task-{position}", params=dict(task)))
        if len({task.task_id for task in normalized}) != len(normalized):
            raise ValueError("task ids must be unique")
        if not normalized:
            return []

        start = time.perf_counter()
        self.restarts_performed = 0  # per-run counter (reported in the manifest)
        records: Dict[str, SweepTaskRecord] = {}
        attempts: Dict[str, int] = {task.task_id: 0 for task in normalized}
        pending = deque(normalized)
        workers = [self._spawn(index) for index in range(min(self._n_workers, len(normalized)))]
        # Restart budget: every legitimate failure mode is bounded by
        # max_attempts per task, so anything beyond this is a crash loop
        # (e.g. forks dying at startup) that retrying cannot fix.
        self._restart_budget = self._max_attempts * len(normalized) + len(workers)

        try:
            while pending or any(worker.current is not None for worker in workers):
                self._assign(workers, pending, attempts, records)
                busy = [worker for worker in workers if worker.current is not None]
                if not busy:
                    continue
                ready = _wait_connections([worker.conn for worker in busy])
                for worker in busy:
                    if worker.conn not in ready:
                        continue
                    self._consume(worker, pending, attempts, records)
        finally:
            self._shutdown(workers)

        ordered = [records[task.task_id] for task in normalized]
        if manifest_path is not None:
            self.write_manifest(ordered, manifest_path, elapsed_s=time.perf_counter() - start)
        return ordered

    # ------------------------------------------------------------------ #
    def _assign(self, workers, pending, attempts, records) -> None:
        for worker in workers:
            while pending and worker.current is None:
                task = pending.popleft()
                attempts[task.task_id] += 1
                try:
                    worker.conn.send(("task", task.task_id, task.params))
                    worker.current = task
                except TransportError:
                    # Worker died while idle: restart it, then retry the task
                    # (its failed hand-off does not count as an attempt).
                    attempts[task.task_id] -= 1
                    pending.appendleft(task)
                    self.restarts_performed += 1
                    self._replace_worker(worker)

    def _consume(self, worker: _SweepWorker, pending, attempts, records) -> None:
        task = worker.current
        assert task is not None
        try:
            reply = worker.conn.recv()
        except TransportError:
            worker.current = None
            self.restarts_performed += 1
            self._replace_worker(worker)
            if attempts[task.task_id] < self._max_attempts:
                pending.append(task)
            else:
                records[task.task_id] = SweepTaskRecord(
                    task_id=task.task_id,
                    status="failed",
                    attempts=attempts[task.task_id],
                    worker=worker.index,
                    error="worker process died",
                )
            return

        worker.current = None
        if reply[0] == "done":
            _, task_id, result, elapsed = reply
            records[task_id] = SweepTaskRecord(
                task_id=task_id,
                status="ok",
                attempts=attempts[task_id],
                worker=worker.index,
                elapsed_s=round(float(elapsed), 4),
                result=result,
            )
        else:
            # Sweep error replies carry the task id; generic loop errors
            # (unknown command) do not — fall back to the in-flight task.
            if len(reply) == 3:
                _, task_id, error = reply
            else:
                task_id, error = task.task_id, reply[-1]
            records[task_id] = SweepTaskRecord(
                task_id=task_id,
                status="failed",
                attempts=attempts[task_id],
                worker=worker.index,
                error=error,
            )

    # ------------------------------------------------------------------ #
    def write_manifest(
        self,
        records: Sequence[SweepTaskRecord],
        path: Union[str, Path],
        elapsed_s: Optional[float] = None,
    ) -> Path:
        """Write the JSON results manifest for a finished sweep."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        manifest = {
            "n_workers": self._n_workers,
            "max_attempts": self._max_attempts,
            "n_tasks": len(records),
            "completed": sum(1 for record in records if record.status == "ok"),
            "failed": sum(1 for record in records if record.status == "failed"),
            "worker_restarts": self.restarts_performed,
            "elapsed_s": round(elapsed_s, 4) if elapsed_s is not None else None,
            "tasks": [record.as_dict() for record in records],
        }
        path.write_text(json.dumps(manifest, indent=2) + "\n")
        return path


# ---------------------------------------------------------------------- #
# Ready-made grid task: arms-race / reward-masking points
# ---------------------------------------------------------------------- #
def amoeba_grid_task(params: dict) -> dict:
    """One arms-race / reward-masking grid point on the synthetic substrate.

    Recognised ``params`` (all optional):

    * ``dataset`` (``"tor"``/``"v2ray"``), ``n_flows``, ``max_packets``,
      ``seed`` — experiment data;
    * ``censor`` — censor name (see :data:`repro.pipeline.CENSOR_NAMES`);
    * ``config`` — dict of :class:`~repro.core.config.AmoebaConfig`
      overrides (e.g. ``reward_mask_rate`` for masking grids);
    * ``n_rounds``, ``amoeba_timesteps``, ``harvest_per_round``,
      ``eval_flows``, ``eval_batch_size`` — arms-race shape;
    * ``collect_workers`` — rollout workers *inside* the task (sharded
      collection nests under sweep workers).

    Returns a JSON-serializable summary of the race trajectory.
    """
    from ..core.arms_race import run_arms_race
    from ..core.config import AmoebaConfig
    from ..pipeline import make_censor, prepare_experiment_data

    seed = int(params.get("seed", 0))
    data = prepare_experiment_data(
        params.get("dataset", "tor"),
        n_censored=int(params.get("n_flows", 60)),
        n_benign=int(params.get("n_flows", 60)),
        max_packets=int(params.get("max_packets", 30)),
        rng=seed,
    )
    censor_name = str(params.get("censor", "DT"))
    config_overrides = dict(params.get("config", {}))
    base = AmoebaConfig.for_v2ray() if data.dataset_name == "v2ray" else AmoebaConfig.for_tor()
    config = base.with_overrides(**config_overrides)

    result = run_arms_race(
        censor_factory=lambda: make_censor(censor_name, data, rng=seed + 1),
        normalizer=data.normalizer,
        clf_train_flows=data.splits.clf_train.flows,
        attack_train_flows=data.splits.attack_train.censored_flows,
        test_flows=data.splits.test.flows,
        eval_flows=data.splits.test.censored_flows[: int(params.get("eval_flows", 10))],
        n_rounds=int(params.get("n_rounds", 2)),
        amoeba_timesteps=int(params.get("amoeba_timesteps", 300)),
        harvest_per_round=int(params.get("harvest_per_round", 10)),
        config=config,
        eval_batch_size=params.get("eval_batch_size"),
        # 0 means in-process, matching the CLI's --workers convention.
        workers=params.get("collect_workers") or None,
        rng=seed + 2,
    )
    return {
        "dataset": data.dataset_name,
        "censor": censor_name,
        "config": config_overrides,
        "asr_trajectory": result.asr_trajectory(),
        "accuracy_trajectory": result.accuracy_trajectory(),
        "final_asr": result.rounds[-1].attack_success_rate,
        "attacker_dominates": result.attacker_dominates(),
    }

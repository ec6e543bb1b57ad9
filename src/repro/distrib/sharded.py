"""Sharded rollout engine: W collection workers, one merged rollout.

The engine partitions the global environment batch into ``W`` contiguous
shards, forks one worker process per shard through :class:`ForkWorkerPool`
(each worker hosts a :class:`~repro.distrib.shard.ShardRunner` — its own
:class:`~repro.core.vec_env.VectorFlowEnv`, censor replica and per-slot
seed streams), and drives them with two commands per PPO iteration:

1. :meth:`ShardedRolloutEngine.broadcast` ships the current actor / critic /
   encoder checkpoint as in-memory ``.npz`` bytes
   (:func:`repro.nn.state_dict_to_bytes`) to every worker;
2. :meth:`ShardedRolloutEngine.collect` has every shard advance
   ``rollout_length`` ticks and merges the per-shard segments along the
   environment axis, in worker order, into one ``(T, W·n_shard, ...)``
   rollout.

Both commands are synchronous: the driver blocks until every shard has
answered, so PPO collects with the current policy, then updates.

Worker protocol
---------------
This module owns the rollout command vocabulary, both the sender (the
engine) and the handlers (:func:`rollout_handlers`, served by
:func:`~repro.distrib.transport.worker_command_loop`):

============ ======================= ==============================
command      payload                 reply
============ ======================= ==============================
``load``      checkpoint bytes        ``("ok", None)``
``collect``   number of ticks         ``("result", ShardResult)``
``snapshot``  —                       ``("result", runner state dict)``
``restore``   runner state dict       ``("ok", None)``
``close``     —                       ``("ok", None)``, then exit
============ ======================= ==============================

Exceptions inside a command come back as ``("error", traceback)`` and are
re-raised in the driver — only a broken pipe (the worker process died) is
treated as a restartable fault.

Determinism contract
--------------------
Because every environment slot owns its seed streams (see the seed-tree
layout in :mod:`repro.utils.rng`) and all policy / encoder inference runs
on the row-consistent :mod:`repro.nn.backend` kernel, the merged rollout is
bit-equivalent to what a single-process vectorized engine over the same
``n_envs`` would collect — same buffers, rewards, episode summaries and
per-flow censor query counts.

Fault tolerance
---------------
Workers are deterministic functions of (seed tree, command history).  The
engine keeps a command log — broadcast payloads and collect lengths, in
order — and restarts a crashed worker (a broken pipe: the process died)
by forking a fresh process and replaying the log, which fast-forwards the
replacement to the exact state of the lost worker before re-answering the
in-flight command.  A worker SIGKILLed while its collect is in flight is recovered
inside :meth:`collect`, which replays the logged broadcast + collect of the
current iteration before merging.  Replayed collect results (and their
censor-query deltas) are discarded, so the merged rollout and query
accounting are unaffected by restarts.  After every successful collect the
engine snapshots each worker's mutable collection state (environment
episodes, seed streams, tracked encoder states, query counters — weights
stay driver-side as the last broadcast payload) and truncates the log, so
both the log and a restart's replay cost stay O(1) in the number of
iterations: a recovery restores the latest snapshot, re-applies the last
checkpoint and replays at most the current iteration's commands.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.env import EpisodeSummary
from .shard import ShardResult, ShardRunner
from .transport import Transport, TransportError, encode_message, worker_command_loop

__all__ = ["ShardedRolloutEngine", "ForkWorkerPool"]

# Restart budget per recovery attempt before the fault is re-raised.
_MAX_RESTARTS = 3
# How long close() waits for one worker's close reply, and then for the
# process to exit, before it kills the worker: an idle worker answers at
# once, a stopped one never does.
_CLOSE_TIMEOUT_S = 1.0


# --------------------------------------------------------------------- #
# Worker side
# --------------------------------------------------------------------- #
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
    conn, runner_factory: Callable[[int], object], worker_index: int
) -> None:
    """Forked-child body: wrap the inherited pipe end, build the worker's
    runner with ``runner_factory(worker_index)``, then serve
    :func:`rollout_handlers` through :func:`worker_command_loop`."""
    transport = Transport(conn)
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


class ForkWorkerPool:
    """Forks one local rollout worker per index, running
    :func:`rollout_worker_entry` over ``runner_factory``.

    Nothing is pickled — the factory and everything it closes over (censor
    replicas, network architectures, flow pools) are inherited
    copy-on-write, which is why ``fork`` is the only supported start
    method.  Workers are daemonic: a rollout worker never forks, and a
    driver that dies takes its workers with it.
    """

    def __init__(self, runner_factory: Callable[[int], object]) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "worker pools require the 'fork' start method (POSIX only): "
                "workers inherit censor replicas and network architectures "
                "by copy-on-write instead of pickling"
            )
        self._context = multiprocessing.get_context("fork")
        self._factory = runner_factory

    def launch(self, index: int) -> Tuple[Transport, multiprocessing.Process]:
        """Fork worker ``index``; returns its channel and process handle."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=rollout_worker_entry,
            args=(child_conn, self._factory, index),
            name=f"repro-rollout-worker-{index}",
            daemon=True,
        )
        process.start()
        # The parent must drop its reference to the child end, otherwise a
        # dead worker never produces EOF on the parent's connection.
        child_conn.close()
        return Transport(parent_conn), process


# --------------------------------------------------------------------- #
# Driver side
# --------------------------------------------------------------------- #


@dataclass
class _WorkerHandle:
    index: int
    process: multiprocessing.Process
    conn: Transport


class ShardedRolloutEngine:
    """Drives W rollout workers and merges their shard segments.

    Parameters
    ----------
    runner_factory:
        ``runner_factory(worker_index) -> ShardRunner``, executed *inside*
        the forked worker process.  Closures are fine: fork never pickles
        them.
    n_workers:
        Number of worker processes (= number of shards).
    """

    def __init__(
        self, runner_factory: Callable[[int], ShardRunner], n_workers: int
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self._pool = ForkWorkerPool(runner_factory)
        self._n_workers = n_workers
        self._log: List[tuple] = []
        self._snapshots: Optional[list] = None
        self._last_payload: Optional[bytes] = None
        # Set when a collect round died mid-way (worker error, interrupt):
        # replies are partially consumed and workers may still be busy, so
        # the engine can only be close()d, and close() must not wait on them.
        self._broken = False
        self._restarts = 0
        self._closed = False
        self._workers: List[_WorkerHandle] = []
        try:
            for index in range(n_workers):
                self._workers.append(self._spawn(index))
        except BaseException:
            # A worker that cannot be launched must not strand the ones
            # already running.
            self.close()
            raise

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def for_agent(
        cls,
        agent,
        flows: Sequence,
        seed_tree: Sequence[Tuple[np.random.SeedSequence, np.random.SeedSequence]],
        n_workers: int,
    ) -> "ShardedRolloutEngine":
        """Build the engine for an :class:`~repro.core.agent.Amoeba` agent.

        ``seed_tree`` is the per-env pair list from
        :func:`repro.utils.rng.collection_seed_tree`; it is cut into
        ``n_workers`` contiguous shards so worker ``w`` hosts global
        environment slots ``[w·shard, (w+1)·shard)``.
        """
        n_envs = len(seed_tree)
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if n_envs % n_workers != 0:
            raise ValueError(
                f"n_envs={n_envs} must be divisible by workers={n_workers} "
                "so every shard hosts the same number of environment slots"
            )
        shard_size = n_envs // n_workers
        actor, critic, encoder = agent.actor, agent.critic, agent.state_encoder
        censor, normalizer, config = agent.censor, agent.normalizer, agent.config
        flows, seed_tree = list(flows), list(seed_tree)

        def runner_factory(worker_index: int) -> ShardRunner:
            low = worker_index * shard_size
            return ShardRunner(
                actor=actor,
                critic=critic,
                encoder=encoder,
                censor=censor,
                normalizer=normalizer,
                config=config,
                flows=flows,
                seed_pairs=seed_tree[low : low + shard_size],
            )

        return cls(runner_factory, n_workers)

    # ------------------------------------------------------------------ #
    # Introspection (used by tests and benchmarks)
    # ------------------------------------------------------------------ #
    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def processes(self) -> List[object]:
        """Per-worker process handles (``pid`` / ``is_alive`` / signals)."""
        return [handle.process for handle in self._workers]

    @property
    def restarts_performed(self) -> int:
        """Number of worker restarts (replay recoveries) so far."""
        return self._restarts

    # ------------------------------------------------------------------ #
    # Commands
    # ------------------------------------------------------------------ #
    def broadcast(self, payload: bytes) -> None:
        """Ship a checkpoint (``state_dict_to_bytes`` payload) to every worker."""
        payload = bytes(payload)
        self._command(("load", payload))
        # Retained as the authoritative replica weights: worker snapshots
        # deliberately exclude weights, so a restart re-applies this payload
        # after restoring the snapshot.  Recorded only once the command was
        # accepted — a rejected broadcast (engine closed or broken) must not
        # become the recovery checkpoint.
        self._last_payload = payload

    def collect(self, n_ticks: int) -> ShardResult:
        """Advance every shard ``n_ticks`` ticks and merge the segments.

        The merged rollout is one :class:`~repro.distrib.shard.ShardResult`
        over all ``n_envs`` slots: ``summaries`` carry *global* environment
        indices, sorted the way a single shard emits them (tick-major, then
        environment order), and ``query_delta`` sums the per-replica censor
        query deltas, preserving the one-query-per-flow accounting.

        A worker that crashes mid-collect (SIGKILL, broken channel) is
        restarted here: the replacement restores the latest post-collect
        snapshot, re-applies the last broadcast checkpoint and replays the
        current iteration's logged commands — including this collect, whose
        recomputed result stands in for the lost one — so the merged rollout
        and the censor query accounting are identical to an undisturbed
        round.  A collect that fails any other way (a worker error reply, an
        interrupt) marks the engine broken: the other workers may still be
        mid-rollout and their replies partially consumed, so later commands
        raise instead of blocking and :meth:`close` terminates the workers
        instead of waiting on them.
        """
        self._check_usable()
        if n_ticks < 1:
            raise ValueError("n_ticks must be >= 1")
        try:
            results = self._command(("collect", int(n_ticks)))
        except BaseException:
            self._broken = True
            raise
        merged = self._merge(results)
        self._checkpoint_workers()
        return merged

    def _checkpoint_workers(self) -> None:
        """Snapshot every worker and truncate the replay log.

        The snapshots capture everything the replayed commands would have
        rebuilt, so the log can restart from empty; recovery becomes
        "restore latest snapshot, replay the current iteration's commands".
        """
        self._snapshots = self._command(("snapshot",))
        # The snapshot round completed on every worker, so no logged command
        # remains to replay on a future restart.
        self._log.clear()

    def close(self) -> None:
        """Shut all workers down; returns within a bounded time.

        Every wait is bounded by ``_CLOSE_TIMEOUT_S``: a worker that does
        not answer its close (stopped, wedged) or does not exit afterwards
        is killed, and so is every live worker of a broken engine.
        """
        if self._closed:
            return
        self._closed = True
        answered = set()
        if not self._broken:
            # Polite handshake — only when every reply was drained; a busy
            # worker would not answer until its whole rollout finished.
            for handle in self._workers:
                try:
                    handle.conn.send(("close",))
                except TransportError:
                    pass
            for handle in self._workers:
                try:
                    if handle.conn.poll(_CLOSE_TIMEOUT_S):
                        handle.conn.recv()
                        answered.add(handle.index)
                except TransportError:
                    pass
        for handle in self._workers:
            if handle.index in answered:
                handle.process.join(timeout=_CLOSE_TIMEOUT_S)
            if handle.process.is_alive():
                # SIGKILL, not SIGTERM: a stopped process never acts on
                # SIGTERM, and a mid-collect one would block sending its
                # result.
                handle.process.kill()
            handle.process.join(timeout=_CLOSE_TIMEOUT_S)
            handle.conn.close()

    def __enter__(self) -> "ShardedRolloutEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> _WorkerHandle:
        conn, process = self._pool.launch(index)
        return _WorkerHandle(index=index, process=process, conn=conn)

    def _respawn(self, index: int) -> _WorkerHandle:
        old = self._workers[index]
        if old.process.is_alive():
            # SIGKILL, not SIGTERM: _respawn only runs on workers whose
            # channel already broke, and a wedged (e.g. stopped) process
            # ignores SIGTERM — recovery must not stall on it.
            old.process.kill()
        old.process.join(timeout=5)
        old.conn.close()
        handle = self._spawn(index)
        self._workers[index] = handle
        return handle

    # ------------------------------------------------------------------ #
    # Robust command execution
    # ------------------------------------------------------------------ #
    def _check_usable(self) -> None:
        if self._closed:
            raise RuntimeError("engine is closed")
        if self._broken:
            raise RuntimeError(
                "engine is broken (a collect round failed mid-drain); close() it"
            )

    def _send_all(self, message: tuple) -> List[int]:
        """Frame ``message`` once, ship the same buffer to every worker.

        One serialization per broadcast, however many workers: a checkpoint
        ``load`` pickles its ``.npz`` bytes exactly once (the replay log
        holds the original message tuple, sharing the same payload object).
        Returns the indices whose channel was already broken.
        """
        frame = encode_message(message)
        failed: List[int] = []
        for handle in self._workers:
            try:
                handle.conn.send_encoded(frame)
            except TransportError:
                failed.append(handle.index)
        return failed

    def _command(self, message: tuple) -> list:
        """Send ``message`` to every worker; replay-recover crashed ones."""
        self._check_usable()
        self._log.append(message)
        return self._drain(self._send_all(message))

    def _drain(self, failed: List[int]) -> list:
        """Collect one reply per worker, replay-recovering the ``failed``
        indices plus any worker whose pipe breaks while we wait."""
        replies: List[Optional[tuple]] = [None] * self._n_workers
        for handle in self._workers:
            if handle.index in failed:
                continue
            try:
                replies[handle.index] = handle.conn.recv()
            except TransportError:
                failed.append(handle.index)
        for index in failed:
            replies[index] = self._recover(index)

        results = []
        for index, reply in enumerate(replies):
            assert reply is not None
            if reply[0] == "error":
                raise RuntimeError(f"rollout worker {index} failed:\n{reply[1]}")
            results.append(reply[1])
        return results

    def _recover(self, index: int) -> tuple:
        """Restart worker ``index``: restore its snapshot, replay the log.

        The replacement first restores the latest post-collect snapshot (if
        one exists), then re-executes the logged commands of the current
        iteration (broadcasts restore the right weights for a replayed
        collect; replayed collect results are discarded); the reply to the
        final — in-flight — command is returned as the worker's answer.
        """
        last_error: Optional[BaseException] = None
        for _ in range(_MAX_RESTARTS):
            self._restarts += 1
            handle = self._respawn(index)
            try:
                reply: Optional[tuple] = None
                if self._snapshots is not None:
                    handle.conn.send(("restore", self._snapshots[index]))
                    reply = handle.conn.recv()
                    if reply[0] == "error":
                        return reply
                if self._last_payload is not None:
                    # Snapshots carry no weights; re-apply the last broadcast
                    # checkpoint (idempotent if the log replays a newer one).
                    handle.conn.send(("load", self._last_payload))
                    reply = handle.conn.recv()
                    if reply[0] == "error":
                        return reply
                for message in self._log:
                    handle.conn.send(message)
                    reply = handle.conn.recv()
                    if reply[0] == "error":
                        # Deterministic failure inside the worker code path:
                        # restarting cannot help, surface it to the driver.
                        return reply
                assert reply is not None
                return reply
            except TransportError as error:
                last_error = error
                continue
        raise RuntimeError(
            f"rollout worker {index} kept crashing through "
            f"{_MAX_RESTARTS} restart attempts"
        ) from last_error

    # ------------------------------------------------------------------ #
    # Merge
    # ------------------------------------------------------------------ #
    @staticmethod
    def _merge(results: Sequence[ShardResult]) -> ShardResult:
        offsets = np.cumsum([0] + [result.n_envs for result in results])
        summaries: List[Tuple[int, int, EpisodeSummary]] = []
        for offset, result in zip(offsets, results):
            for tick, local_index, summary in result.summaries:
                summaries.append((tick, int(offset) + local_index, summary))
        summaries.sort(key=lambda item: (item[0], item[1]))
        return ShardResult(
            states=np.concatenate([result.states for result in results], axis=1),
            actions=np.concatenate([result.actions for result in results], axis=1),
            log_probs=np.concatenate([result.log_probs for result in results], axis=1),
            values=np.concatenate([result.values for result in results], axis=1),
            rewards=np.concatenate([result.rewards for result in results], axis=1),
            dones=np.concatenate([result.dones for result in results], axis=1),
            final_values=np.concatenate(
                [result.final_values for result in results], axis=0
            ),
            summaries=summaries,
            query_delta=sum(result.query_delta for result in results),
        )

"""Sharded rollout subsystem: bit-equivalence and fault tolerance.

The contract under test: sharded collection (W workers × n_envs-per-shard,
each worker hosting its own ``VectorFlowEnv`` shard plus censor replica,
refreshed by checkpoint broadcast) reproduces the single-process vectorized
engine's buffers, rewards and per-flow query counts exactly — and a killed
worker is restarted by deterministic command-log replay without corrupting
the merged rollout.

Also here: evaluation owns its own RNG stream, so neither mid-training
``eval_every`` evaluation nor standalone ``evaluate()`` calls shift the
collection seed trees of later training; and pins that the retired
paths (forked serving workers, pipelined collection, the TCP worker-host
tier) stay gone.
"""

import inspect
import os
import signal
import time

import numpy as np
import pytest

import repro.distrib
import repro.serve
from repro.core import Amoeba, AmoebaConfig, run_arms_race
from repro.distrib import ForkWorkerPool, ShardedRolloutEngine, ShardRunner
from repro.distrib import transport as transport_mod
from repro.nn.serialization import state_dict_to_bytes
from repro.pipeline import train_amoeba
from repro.utils.rng import collection_seed_tree

N_ENVS = 4
N_WORKERS = 2  # -> 2 envs per shard
ROLLOUT_LENGTH = 8


@pytest.fixture(scope="module")
def sharded_setup(trained_dt_censor, normalizer, tor_splits):
    config = AmoebaConfig.for_tor(
        n_envs=N_ENVS,
        rollout_length=ROLLOUT_LENGTH,
        max_episode_steps=20,
        encoder_hidden=8,
        actor_hidden=(16,),
        critic_hidden=(16,),
        reward_mask_rate=0.3,
    )
    return dict(
        censor=trained_dt_censor,
        normalizer=normalizer,
        config=config,
        flows=tor_splits.attack_train.censored_flows,
    )


def fresh_agent(setup, rng=42) -> Amoeba:
    return Amoeba(
        setup["censor"],
        setup["normalizer"],
        setup["config"],
        rng=rng,
        encoder_pretrain_kwargs=dict(n_flows=20, max_length=10, epochs=1),
    )


ARRAY_FIELDS = ("states", "actions", "log_probs", "values", "rewards", "dones")

TRAIN_RECORD_KEYS = ("timesteps", "train_asr", "mean_reward", "policy_loss", "value_loss", "entropy")


def shard_runner(agent, setup, seed_pairs, runner_cls=ShardRunner) -> ShardRunner:
    return runner_cls(
        agent.actor,
        agent.critic,
        agent.state_encoder,
        setup["censor"],
        setup["normalizer"],
        setup["config"],
        setup["flows"],
        seed_pairs,
    )


def reference_segments(setup, n_collects):
    """Inline single-process ShardRunner segments (the ground truth)."""
    agent = fresh_agent(setup)
    runner = shard_runner(agent, setup, collection_seed_tree(agent._rng, N_ENVS))
    return [runner.collect(ROLLOUT_LENGTH) for _ in range(n_collects)]


def assert_rollouts_equal(actual, expected):
    for name in ARRAY_FIELDS:
        assert np.array_equal(getattr(actual, name), getattr(expected, name)), name
    assert np.array_equal(actual.final_values, expected.final_values)
    assert actual.query_delta == expected.query_delta


class _SelfKillingRunner(ShardRunner):
    """SIGKILLs its own worker process inside its second collect.

    A replacement worker counts from zero again, so the replayed collect
    runs to completion."""

    collects = 0

    def collect(self, n_ticks):
        self.collects += 1
        if self.collects == 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().collect(n_ticks)


class _SlowRunner:
    """Never answers a collect within a test's lifetime."""

    def collect(self, n_ticks):
        time.sleep(60)


class TestShardedCollectionEquivalence:
    """Engine-level: merged shard segments == inline single-process segments."""

    @pytest.fixture(scope="class")
    def collected(self, sharded_setup):
        setup = sharded_setup
        censor = setup["censor"]

        # Reference: one inline ShardRunner hosting all N_ENVS slots — the
        # single-process vectorized engine.
        ref_agent = fresh_agent(setup)
        ref_tree = collection_seed_tree(ref_agent._rng, N_ENVS)
        ref_runner = shard_runner(ref_agent, setup, ref_tree)
        queries_before = censor.query_count
        reference = [ref_runner.collect(ROLLOUT_LENGTH) for _ in range(2)]
        reference_delta = censor.query_count - queries_before

        # Sharded: W=2 workers × 2 envs per shard, with worker 0 SIGKILLed
        # between the two collects.
        sharded_agent = fresh_agent(setup)
        sharded_tree = collection_seed_tree(sharded_agent._rng, N_ENVS)
        engine = ShardedRolloutEngine.for_agent(
            sharded_agent, setup["flows"], sharded_tree, N_WORKERS
        )
        try:
            engine.broadcast(state_dict_to_bytes(sharded_agent._policy_state()))
            first = engine.collect(ROLLOUT_LENGTH)
            os.kill(engine.processes[0].pid, signal.SIGKILL)
            time.sleep(0.2)
            second = engine.collect(ROLLOUT_LENGTH)
            restarts = engine.restarts_performed
        finally:
            engine.close()
        return dict(
            reference=reference,
            reference_delta=reference_delta,
            merged=[first, second],
            restarts=restarts,
        )

    def test_buffers_bit_equivalent(self, collected):
        for reference, merged in zip(collected["reference"], collected["merged"]):
            for name in ARRAY_FIELDS:
                assert np.array_equal(getattr(merged, name), getattr(reference, name)), name
            assert np.array_equal(merged.final_values, reference.final_values)

    def test_query_counts_exact(self, collected):
        merged_delta = sum(rollout.query_delta for rollout in collected["merged"])
        assert merged_delta == collected["reference_delta"]

    def test_episode_summaries_match(self, collected):
        for reference, merged in zip(collected["reference"], collected["merged"]):
            ref_items = sorted(
                ((tick, env) for tick, env, _ in reference.summaries)
            )
            merged_items = [(tick, env) for tick, env, _ in merged.summaries]
            assert merged_items == ref_items
            ref_by_key = {(tick, env): s for tick, env, s in reference.summaries}
            for tick, env, summary in merged.summaries:
                expected = ref_by_key[(tick, env)]
                assert summary.episode_reward == expected.episode_reward
                assert summary.success == expected.success
                assert np.array_equal(
                    summary.adversarial_flow.sizes, expected.adversarial_flow.sizes
                )

    def test_killed_worker_was_restarted(self, collected):
        assert collected["restarts"] >= 1


class TestShardedTrainEquivalence:
    """End-to-end: Amoeba.train(workers=2) == Amoeba.train() bit-for-bit."""

    def _run(self, setup, workers):
        censor = setup["censor"]
        censor.reset_query_count()
        agent = fresh_agent(setup)
        records = []
        agent.train(
            setup["flows"],
            total_timesteps=2 * ROLLOUT_LENGTH * N_ENVS,
            workers=workers,
            callback=records.append,
        )
        params = [p.data.copy() for p in agent.actor.parameters()]
        params += [p.data.copy() for p in agent.critic.parameters()]
        return records, censor.query_count, params

    def test_training_bit_equivalent(self, sharded_setup):
        local_records, local_queries, local_params = self._run(sharded_setup, None)
        shard_records, shard_queries, shard_params = self._run(sharded_setup, N_WORKERS)

        assert local_queries == shard_queries
        assert len(local_records) == len(shard_records) == 2
        for local, sharded in zip(local_records, shard_records):
            assert local == sharded
        for local, sharded in zip(local_params, shard_params):
            assert np.array_equal(local, sharded)

    def test_workers_must_divide_n_envs(self, sharded_setup):
        agent = fresh_agent(sharded_setup)
        with pytest.raises(ValueError, match="divisible"):
            agent.train(sharded_setup["flows"], total_timesteps=8, workers=3)

    def test_workers_must_be_positive(self, sharded_setup):
        agent = fresh_agent(sharded_setup)
        with pytest.raises(ValueError):
            agent.train(sharded_setup["flows"], total_timesteps=8, workers=0)


class TestSnapshotTruncation:
    def test_collect_snapshots_and_truncates_log(self, sharded_setup):
        """After every collect the replay log is emptied: restart cost and
        driver memory stay O(1) in the number of iterations."""
        agent = fresh_agent(sharded_setup)
        tree = collection_seed_tree(agent._rng, N_ENVS)
        engine = ShardedRolloutEngine.for_agent(
            agent, sharded_setup["flows"], tree, N_WORKERS
        )
        payload = state_dict_to_bytes(agent._policy_state())
        try:
            for _ in range(3):
                engine.broadcast(payload)
                engine.collect(2)
                assert engine._log == []
                assert engine._snapshots is not None
            # Kill between broadcast and collect: recovery must restore the
            # latest snapshot and replay only this iteration's commands.
            engine.broadcast(payload)
            os.kill(engine.processes[1].pid, signal.SIGKILL)
            time.sleep(0.2)
            merged = engine.collect(2)
            assert engine.restarts_performed >= 1
            assert merged.states.shape == (2, N_ENVS, merged.states.shape[2])
        finally:
            engine.close()

    def test_shard_runner_snapshot_round_trip(self, sharded_setup):
        """restore(snapshot()) on a fresh runner resumes bit-identically."""
        agent = fresh_agent(sharded_setup)
        tree = collection_seed_tree(agent._rng, N_ENVS)

        reference = shard_runner(agent, sharded_setup, tree)
        reference.collect(4)
        snapshot = reference.snapshot()
        expected = reference.collect(4)

        resumed = shard_runner(agent, sharded_setup, tree)
        resumed.restore(snapshot)
        actual = resumed.collect(4)
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(actual, name), getattr(expected, name)), name
        assert actual.query_delta == expected.query_delta


class TestCollectFaults:
    def test_sigkill_during_collect_is_recovered(self, sharded_setup):
        """A worker killed while its collect is in flight is rebuilt inside
        collect() by snapshot-restore + log replay: the merged rollout and
        the query accounting are identical to an undisturbed round."""
        expected = reference_segments(sharded_setup, 2)
        agent = fresh_agent(sharded_setup)
        tree = collection_seed_tree(agent._rng, N_ENVS)
        shard = N_ENVS // N_WORKERS

        def factory(index):
            runner_cls = _SelfKillingRunner if index == 0 else ShardRunner
            return shard_runner(
                agent, sharded_setup, tree[index * shard : (index + 1) * shard], runner_cls
            )

        engine = ShardedRolloutEngine(factory, N_WORKERS)
        try:
            engine.broadcast(state_dict_to_bytes(agent._policy_state()))
            first = engine.collect(ROLLOUT_LENGTH)
            second = engine.collect(ROLLOUT_LENGTH)
            restarts = engine.restarts_performed
        finally:
            engine.close()
        assert restarts >= 1
        assert_rollouts_equal(first, expected[0])
        assert_rollouts_equal(second, expected[1])

    def test_failed_drain_marks_engine_broken(self):
        """A deterministic worker error during a collect surfaces from
        collect(); afterwards the engine fails fast instead of blocking on
        replies that were already consumed."""

        def factory(index):
            class Broken:
                def load_weights(self, payload):
                    pass

                def collect(self, n_ticks):
                    raise RuntimeError("deterministic collect bug")

            return Broken()

        engine = ShardedRolloutEngine(factory, 1)
        try:
            engine.broadcast(b"ignored")
            with pytest.raises(RuntimeError, match="deterministic collect bug"):
                engine.collect(2)
            with pytest.raises(RuntimeError, match="broken"):
                engine.collect(2)
            with pytest.raises(RuntimeError, match="broken"):
                engine.broadcast(b"ignored")
        finally:
            engine.close()

    def test_interrupted_collect_closes_without_handshake(self, monkeypatch):
        """A drain interrupted while the workers are still collecting makes
        close() terminate them: the polite close handshake would wait for
        the rest of their rollouts."""
        engine = ShardedRolloutEngine(lambda index: _SlowRunner(), N_WORKERS)
        try:
            conn = engine._workers[0].conn
            recv = conn.recv
            calls = []

            def interrupted_recv():
                calls.append(None)
                if len(calls) == 1:
                    raise KeyboardInterrupt
                return recv()

            monkeypatch.setattr(conn, "recv", interrupted_recv)
            with pytest.raises(KeyboardInterrupt):
                engine.collect(2)
        finally:
            start = time.monotonic()
            engine.close()
            elapsed = time.monotonic() - start
        assert elapsed < 5.0
        assert not any(process.is_alive() for process in engine.processes)


def _idle_runner_factory(index):
    return object()


class TestEngineValidation:
    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ValueError):
            ShardedRolloutEngine(lambda index: None, 0)

    def test_rejects_nonpositive_tick_count(self):
        engine = ShardedRolloutEngine(_idle_runner_factory, 1)
        try:
            with pytest.raises(ValueError, match="n_ticks"):
                engine.collect(0)
            # Rejected before anything was sent: the engine is not broken.
            assert not engine._broken
        finally:
            engine.close()

    def test_partial_spawn_releases_launched_workers(self, monkeypatch):
        """Worker 1 cannot be launched: the constructor re-raises, and
        worker 0 does not outlive it."""
        launch = ForkWorkerPool.launch
        launched = []

        def launch_all_but_worker_1(pool, index):
            if index == 1:
                raise OSError("cannot fork worker 1")
            conn, process = launch(pool, index)
            launched.append(process)
            return conn, process

        monkeypatch.setattr(ForkWorkerPool, "launch", launch_all_but_worker_1)
        # Binding the ExceptionInfo keeps the half-built engine reachable
        # through the traceback, so only the constructor's own cleanup (not
        # the garbage collector's __del__) can have reaped worker 0.
        with pytest.raises(OSError, match="cannot fork worker 1") as excinfo:
            ShardedRolloutEngine(_idle_runner_factory, 2)
        (process,) = launched
        assert process.exitcode is not None
        del excinfo

    def test_worker_error_is_raised_not_retried(self):
        def factory(index):
            raise_target = index  # noqa: F841 — close over something picklable

            class Broken:
                def load_weights(self, payload):
                    raise RuntimeError("deterministic worker bug")

            return Broken()

        engine = ShardedRolloutEngine(factory, 1)
        try:
            with pytest.raises(RuntimeError, match="deterministic worker bug"):
                engine.broadcast(b"ignored")
            assert engine.restarts_performed == 0
        finally:
            engine.close()


class TestEvalRngIsolation:
    """Evaluation must never advance the training RNG (`self._rng`)."""

    def _train_records(self, record):
        return {key: record[key] for key in TRAIN_RECORD_KEYS}

    def _run(self, setup, eval_every, rounds=2):
        agent = fresh_agent(setup, rng=7)
        eval_kwargs = {}
        if eval_every is not None:
            eval_kwargs = dict(
                eval_flows=setup["flows"][:2],
                eval_every=eval_every,
                eval_size=2,
            )
        records = []
        for _ in range(rounds):
            agent.train(
                setup["flows"],
                total_timesteps=ROLLOUT_LENGTH * N_ENVS,
                callback=records.append,
                **eval_kwargs,
            )
        params = [p.data.copy() for p in agent.actor.parameters()]
        return [self._train_records(record) for record in records], params

    def test_training_invariant_to_eval_cadence(self, sharded_setup):
        """Two consecutive train() calls: the second one's seed tree (drawn
        from self._rng) must be identical whether or not the first call ran
        mid-training evaluations."""
        no_eval_records, no_eval_params = self._run(sharded_setup, eval_every=None)
        eval_records, eval_params = self._run(sharded_setup, eval_every=1)
        assert eval_records == no_eval_records
        for expected, actual in zip(no_eval_params, eval_params):
            assert np.array_equal(expected, actual)

    def test_standalone_evaluate_does_not_shift_later_training(self, sharded_setup):
        plain_records, plain_params = self._run(sharded_setup, eval_every=None)

        agent = fresh_agent(sharded_setup, rng=7)
        records = []
        agent.train(
            sharded_setup["flows"],
            total_timesteps=ROLLOUT_LENGTH * N_ENVS,
            callback=records.append,
        )
        agent.evaluate(sharded_setup["flows"][:3])
        agent.train(
            sharded_setup["flows"],
            total_timesteps=ROLLOUT_LENGTH * N_ENVS,
            callback=records.append,
        )
        assert [self._train_records(record) for record in records] == plain_records
        for expected, actual in zip(
            plain_params, [p.data.copy() for p in agent.actor.parameters()]
        ):
            assert np.array_equal(expected, actual)


class TestRetiredScaleOutPaths:
    """One process serves, one synchronous loop trains, and workers are
    forks of the driver: the forked serving tier and pipelined collection
    lost to the single-process paths on every measured workload, and the
    TCP worker-host tier had no multi-host run to serve.  Re-adding any of
    these surfaces fails here."""

    def test_train_has_no_pipeline_parameter(self):
        assert "pipeline" not in inspect.signature(Amoeba.train).parameters
        assert "pipeline" not in inspect.signature(train_amoeba).parameters

    def test_config_has_no_pipeline_field(self):
        assert "pipeline_collection" not in AmoebaConfig.__dataclass_fields__

    def test_engine_has_no_async_pair(self):
        assert not hasattr(ShardedRolloutEngine, "collect_async")
        assert not hasattr(ShardedRolloutEngine, "wait")

    def test_no_sharded_policy_server(self):
        assert not hasattr(repro.serve, "ShardedPolicyServer")
        assert "ShardedPolicyServer" not in repro.serve.__all__

    def test_worker_entrypoints(self):
        # The pool forks the one rollout entry; there is no name table and
        # no entry, name or daemon option to pick another.
        assert not hasattr(transport_mod, "_WORKER_ENTRYPOINTS")
        assert not hasattr(transport_mod, "resolve_worker_entrypoint")
        assert list(inspect.signature(ForkWorkerPool).parameters) == ["runner_factory"]

    @pytest.mark.parametrize(
        "function", [ShardedRolloutEngine, ShardedRolloutEngine.for_agent]
    )
    def test_no_restart_budget_parameter(self, function):
        assert "max_restarts" not in inspect.signature(function).parameters

    @pytest.mark.parametrize(
        "function",
        [
            ShardedRolloutEngine,
            ShardedRolloutEngine.for_agent,
            Amoeba.train,
            train_amoeba,
            run_arms_race,
        ],
    )
    def test_no_transport_parameter(self, function):
        assert "transport" not in inspect.signature(function).parameters

    def test_no_tcp_tier_in_the_package(self):
        retired = ("Tcp", "WorkerHost", "start_local_worker_host", "make_worker_pool")
        for module in (repro.distrib, transport_mod):
            assert [name for name in module.__all__ if name.startswith(retired)] == []
            assert [name for name in vars(module) if name.startswith(retired)] == []


class TestRetiredSweep:
    """``distrib`` serves one driver, the sharded engine: the sweep
    orchestrator, its separate worker module and the options only the
    sweep set are gone."""

    def test_distrib_exposes_no_sweep_names(self):
        for name in ("SweepOrchestrator", "SweepTask", "SweepTaskRecord", "amoeba_grid_task"):
            assert name not in repro.distrib.__all__, name
            assert not hasattr(repro.distrib, name), name

    @pytest.mark.parametrize("module", ["sweep", "worker"])
    def test_sweep_and_worker_modules_are_gone(self, module):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module(f"repro.distrib.{module}")

    def test_arms_race_has_no_workers_parameter(self):
        assert "workers" not in inspect.signature(run_arms_race).parameters

    def test_command_loop_has_no_close_reply_parameter(self):
        assert "close_reply" not in inspect.signature(transport_mod.worker_command_loop).parameters

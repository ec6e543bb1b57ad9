"""Sharded rollout subsystem: bit-equivalence, fault tolerance, sweeps.

The contract under test: sharded collection (W workers × n_envs-per-shard,
each worker hosting its own ``VectorFlowEnv`` shard plus censor replica,
refreshed by checkpoint broadcast) reproduces the single-process vectorized
engine's buffers, rewards and per-flow query counts exactly — and a killed
worker is restarted by deterministic command-log replay without corrupting
the merged rollout.
"""

import json
import os
import signal
import socket
import time

import numpy as np
import pytest

from repro.core import Amoeba, AmoebaConfig
from repro.distrib import (
    ShardedRolloutEngine,
    ShardRunner,
    SweepOrchestrator,
    SweepTask,
    TcpWorkerPool,
    TransportError,
    start_local_worker_host,
)
from repro.nn.serialization import state_dict_to_bytes
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


def fresh_agent(setup) -> Amoeba:
    return Amoeba(
        setup["censor"],
        setup["normalizer"],
        setup["config"],
        rng=42,
        encoder_pretrain_kwargs=dict(n_flows=20, max_length=10, epochs=1),
    )


ARRAY_FIELDS = ("states", "actions", "log_probs", "values", "rewards", "dones")


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
        ref_runner = ShardRunner(
            ref_agent.actor,
            ref_agent.critic,
            ref_agent.state_encoder,
            censor,
            setup["normalizer"],
            setup["config"],
            setup["flows"],
            ref_tree,
        )
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
            assert np.array_equal(merged.final_states, reference.final_states)

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

        def make_runner():
            return ShardRunner(
                agent.actor,
                agent.critic,
                agent.state_encoder,
                sharded_setup["censor"],
                sharded_setup["normalizer"],
                sharded_setup["config"],
                sharded_setup["flows"],
                tree,
            )

        reference = make_runner()
        reference.collect(4)
        snapshot = reference.snapshot()
        expected = reference.collect(4)

        resumed = make_runner()
        resumed.restore(snapshot)
        actual = resumed.collect(4)
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(actual, name), getattr(expected, name)), name
        assert actual.query_delta == expected.query_delta


class TestArmsRaceIntegration:
    def test_arms_race_with_sharded_collection(self, normalizer, tor_splits, fast_config):
        """`run_arms_race(workers=...)` shards each round's collection and
        plumbs `eval_batch_size` into the config default."""
        from repro.censors import DecisionTreeCensor
        from repro.core import run_arms_race

        result = run_arms_race(
            censor_factory=lambda: DecisionTreeCensor(rng=0),
            normalizer=normalizer,
            clf_train_flows=tor_splits.clf_train.flows,
            attack_train_flows=tor_splits.attack_train.censored_flows[:10],
            test_flows=tor_splits.test.flows,
            eval_flows=tor_splits.test.censored_flows[:4],
            n_rounds=1,
            amoeba_timesteps=2 * fast_config.rollout_length * fast_config.n_envs,
            harvest_per_round=3,
            config=fast_config,
            eval_batch_size=2,
            workers=2,
            rng=0,
        )
        assert len(result.rounds) == 1
        assert 0.0 <= result.rounds[0].attack_success_rate <= 1.0


def _idle_runner_factory(index):
    """Picklable (module-level) factory: explicit tcp:// hosts unpickle it."""
    return object()


class _RecordingTcpPool(TcpWorkerPool):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.launched = []
        self.closed = False

    def launch(self, index):
        endpoint = super().launch(index)
        self.launched.append(endpoint)
        return endpoint

    def close(self):
        self.closed = True
        super().close()


class TestEngineValidation:
    def test_rejects_nonpositive_worker_count(self):
        with pytest.raises(ValueError):
            ShardedRolloutEngine(lambda index: None, 0)

    def test_partial_spawn_releases_launched_workers_and_pool(self):
        """Worker 1 cannot be placed (nothing listens on its port): the
        constructor raises, and worker 0 and the pool do not outlive it."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_address = "127.0.0.1:%d" % probe.getsockname()[1]
        live_address, host = start_local_worker_host()
        try:
            pool = _RecordingTcpPool(
                "rollout", _idle_runner_factory, addresses=[live_address, dead_address]
            )
            with pytest.raises(TransportError, match="cannot reach worker host"):
                ShardedRolloutEngine(_idle_runner_factory, 2, transport=pool)
            assert pool.closed
            (worker,) = pool.launched
            worker.process.join(timeout=5)
            assert not worker.process.is_alive()
        finally:
            host.terminate()
            host.join(timeout=5)

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


def _sweep_task(params):
    if params.get("crash_flag") and not os.path.exists(params["crash_flag"]):
        with open(params["crash_flag"], "w") as handle:
            handle.write("crashed")
        os.kill(os.getpid(), signal.SIGKILL)
    if params.get("boom"):
        raise RuntimeError("task exploded")
    return {"value": params["x"] * 2}


class TestSweepOrchestrator:
    def test_grid_with_crash_retry_and_manifest(self, tmp_path):
        orchestrator = SweepOrchestrator(_sweep_task, n_workers=2, max_attempts=2)
        tasks = [
            SweepTask("plain", {"x": 1}),
            SweepTask("crashes-once", {"x": 2, "crash_flag": str(tmp_path / "flag")}),
            SweepTask("raises", {"x": 3, "boom": True}),
        ]
        manifest_path = tmp_path / "manifest.json"
        records = orchestrator.run(tasks, manifest_path=manifest_path)

        by_id = {record.task_id: record for record in records}
        assert by_id["plain"].status == "ok"
        assert by_id["plain"].result == {"value": 2}
        # The crashing task was retried on a fresh worker and succeeded.
        assert by_id["crashes-once"].status == "ok"
        assert by_id["crashes-once"].attempts == 2
        assert by_id["crashes-once"].result == {"value": 4}
        # A raising task fails immediately (deterministic), no retry.
        assert by_id["raises"].status == "failed"
        assert by_id["raises"].attempts == 1
        assert "task exploded" in by_id["raises"].error
        assert orchestrator.restarts_performed >= 1

        manifest = json.loads(manifest_path.read_text())
        assert manifest["n_tasks"] == 3
        assert manifest["completed"] == 2
        assert manifest["failed"] == 1
        assert [entry["task_id"] for entry in manifest["tasks"]] == [
            "plain",
            "crashes-once",
            "raises",
        ]

    def test_collect_workers_nest_under_sweep_workers(self):
        """Sharded collection inside a sweep task: sweep workers are
        non-daemonic precisely so they may fork rollout workers."""
        from repro.distrib import amoeba_grid_task

        orchestrator = SweepOrchestrator(amoeba_grid_task, n_workers=1)
        records = orchestrator.run(
            [
                SweepTask(
                    "nested",
                    {
                        "seed": 0,
                        "censor": "DT",
                        "n_flows": 30,
                        "max_packets": 16,
                        "n_rounds": 1,
                        "amoeba_timesteps": 32,
                        "eval_flows": 2,
                        "collect_workers": 2,
                        "config": {
                            "n_envs": 2,
                            "rollout_length": 8,
                            "max_episode_steps": 16,
                            "encoder_hidden": 8,
                            "actor_hidden": (16,),
                            "critic_hidden": (16,),
                        },
                    },
                )
            ]
        )
        assert records[0].status == "ok", records[0].error
        assert 0.0 <= records[0].result["final_asr"] <= 1.0

    def test_param_dicts_get_auto_ids(self):
        orchestrator = SweepOrchestrator(_sweep_task, n_workers=1)
        records = orchestrator.run([{"x": 5}])
        assert records[0].task_id == "task-0"
        assert records[0].result == {"value": 10}

    def test_duplicate_task_ids_rejected(self):
        orchestrator = SweepOrchestrator(_sweep_task, n_workers=1)
        with pytest.raises(ValueError):
            orchestrator.run([SweepTask("same", {}), SweepTask("same", {})])

    def test_empty_task_list(self):
        orchestrator = SweepOrchestrator(_sweep_task, n_workers=1)
        assert orchestrator.run([]) == []


class TestEvalBatchSizeConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AmoebaConfig.for_tor(eval_batch_size=0)
        assert AmoebaConfig.for_tor(eval_batch_size=5).eval_batch_size == 5
        assert AmoebaConfig.for_tor().eval_batch_size is None

    def test_attack_many_uses_config_default(self, sharded_setup, monkeypatch):
        agent = fresh_agent(sharded_setup)
        agent.config = agent.config.with_overrides(eval_batch_size=2)
        seen = []
        original = agent._attack_batch

        def spy(flows, deterministic):
            seen.append(len(flows))
            return original(flows, deterministic)

        monkeypatch.setattr(agent, "_attack_batch", spy)
        flows = sharded_setup["flows"][:5]
        agent.attack_many(flows)
        assert seen == [2, 2, 1]

    def test_explicit_batch_size_still_wins(self, sharded_setup, monkeypatch):
        agent = fresh_agent(sharded_setup)
        agent.config = agent.config.with_overrides(eval_batch_size=2)
        seen = []
        original = agent._attack_batch

        def spy(flows, deterministic):
            seen.append(len(flows))
            return original(flows, deterministic)

        monkeypatch.setattr(agent, "_attack_batch", spy)
        agent.attack_many(sharded_setup["flows"][:5], batch_size=5)
        assert seen == [5]

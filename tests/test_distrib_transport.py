"""Transport tier: framing, command loop, TCP == fork == single-process.

The contract under test: the transport abstraction carries the existing
distributed protocols without touching any numeric path — sharded
collection over localhost TCP is bit-identical to fork-pipe collection,
which is bit-identical to single-process collection (the equivalence
ladder gains one rung), and every failure-semantics contract survives the
backend swap: a SIGKILLed or wedged (SIGSTOPped) rollout worker is
rebuilt by snapshot-restore + log replay with an unchanged merged
rollout, a crashed sweep worker gets its task re-queued.  Checkpoint broadcasts serialize their
payload exactly once regardless of worker count.
"""

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import Amoeba, AmoebaConfig
from repro.distrib import (
    ShardedRolloutEngine,
    ShardRunner,
    SweepOrchestrator,
    SweepTask,
)
from repro.distrib import transport as transport_mod
from repro.distrib.transport import (
    ForkPipeTransport,
    TcpTransport,
    TcpWorkerPool,
    TransportError,
    WorkerHostServer,
    decode_message,
    encode_message,
    make_worker_pool,
    worker_command_loop,
)
from repro.nn.serialization import state_dict_to_bytes
from repro.utils.rng import collection_seed_tree

N_ENVS = 4
N_WORKERS = 2
ROLLOUT_LENGTH = 8

ARRAY_FIELDS = ("states", "actions", "log_probs", "values", "rewards", "dones")


# --------------------------------------------------------------------- #
# Unit: framing and the command loop
# --------------------------------------------------------------------- #
def _tcp_pair():
    """A connected TcpTransport pair over a local socketpair."""
    left, right = socket.socketpair()
    return TcpTransport(left), TcpTransport(right)


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = ("load", b"\x00\x01payload", {"nested": [1, 2.5]})
        assert decode_message(encode_message(message)) == message

    def test_tcp_round_trip(self):
        a, b = _tcp_pair()
        try:
            a.send(("collect", 7))
            assert b.recv() == ("collect", 7)
            b.send(("result", np.arange(3)))
            reply = a.recv()
            assert reply[0] == "result"
            assert np.array_equal(reply[1], np.arange(3))
        finally:
            a.close()
            b.close()

    def test_tcp_large_frame(self):
        # Bigger than any single recv() chunk: exercises exact-byte reads.
        a, b = _tcp_pair()
        blob = os.urandom(4 * 1024 * 1024)
        try:
            thread = threading.Thread(target=lambda: a.send(("load", blob)))
            thread.start()
            assert b.recv() == ("load", blob)
            thread.join()
        finally:
            a.close()
            b.close()

    def test_send_encoded_ships_the_same_frame(self):
        a, b = _tcp_pair()
        try:
            frame = encode_message(("load", b"w"))
            a.send_encoded(frame)
            a.send_encoded(frame)
            assert b.recv() == ("load", b"w")
            assert b.recv() == ("load", b"w")
        finally:
            a.close()
            b.close()

    def test_heartbeat_frames_are_skipped_by_recv(self):
        a, b = _tcp_pair()
        try:
            a._sock.sendall(transport_mod._HEARTBEAT_FRAME)
            a.send(("poll",))
            assert b.recv() == ("poll",)
        finally:
            a.close()
            b.close()

    def test_closed_peer_raises_transport_error(self):
        a, b = _tcp_pair()
        a.close()
        with pytest.raises(TransportError):
            b.recv()
        b.close()

    def test_heartbeat_timeout_raises_transport_error(self):
        a, b = _tcp_pair()
        b.heartbeat_timeout = 0.2
        try:
            start = time.monotonic()
            with pytest.raises(TransportError, match="heartbeat timeout"):
                b.recv()
            assert time.monotonic() - start < 2.0
        finally:
            a.close()
            b.close()

    def test_heartbeats_renew_the_deadline(self):
        a, b = _tcp_pair()
        a.heartbeat_interval = 0.05
        b.heartbeat_timeout = 0.5
        a.start_heartbeat()
        try:
            def delayed_reply():
                time.sleep(1.0)  # well past the timeout without heartbeats
                a.send(("result", 1))

            thread = threading.Thread(target=delayed_reply)
            thread.start()
            assert b.recv() == ("result", 1)
            thread.join()
        finally:
            a.close()
            b.close()

    def test_fork_pipe_poll_and_fileno(self):
        import multiprocessing

        parent, child = multiprocessing.get_context("fork").Pipe()
        a, b = ForkPipeTransport(parent), ForkPipeTransport(child)
        try:
            assert not a.poll(0.0)
            b.send(("x",))
            assert a.poll(1.0)
            assert a.recv() == ("x",)
            assert isinstance(a.fileno(), int)
        finally:
            a.close()
            b.close()


class TestWorkerCommandLoop:
    def _run_loop(self, driver_actions, handlers, close_reply=("ok", None)):
        """Run the loop against a TCP pair; returns the driver's replies."""
        worker, driver = _tcp_pair()
        thread = threading.Thread(
            target=worker_command_loop, args=(worker, handlers, close_reply)
        )
        thread.start()
        replies = []
        try:
            for message in driver_actions:
                driver.send(message)
                replies.append(driver.recv())
        finally:
            driver.close()
            thread.join(timeout=5)
        return replies

    def test_dispatch_error_reply_and_close(self):
        def ok(value):
            return ("result", value + 1)

        def boom():
            raise RuntimeError("kaboom")

        replies = self._run_loop(
            [("ok", 1), ("boom",), ("nope",), ("close",)],
            {"ok": ok, "boom": boom},
        )
        assert replies[0] == ("result", 2)
        assert replies[1][0] == "error" and "kaboom" in replies[1][1]
        assert replies[2][0] == "error"
        assert replies[3] == ("ok", None)

    def test_close_without_reply(self):
        worker, driver = _tcp_pair()
        thread = threading.Thread(
            target=worker_command_loop, args=(worker, {}, None)
        )
        thread.start()
        driver.send(("close",))
        thread.join(timeout=5)
        assert not thread.is_alive()
        # The loop closed its end without replying.
        with pytest.raises(TransportError):
            driver.recv()
        driver.close()

    def test_ping_answered_inside_the_loop(self):
        worker, driver = _tcp_pair()
        thread = threading.Thread(target=worker_command_loop, args=(worker, {}))
        thread.start()
        try:
            assert driver.ping() >= 0.0
        finally:
            driver.send(("close",))
            driver.recv()
            driver.close()
            thread.join(timeout=5)


class TestSpecResolution:
    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError):
            make_worker_pool("smoke-signals", "rollout", _echo_factory)

    def test_bad_tcp_address_rejected(self):
        with pytest.raises(ValueError, match="host:port"):
            TcpWorkerPool("rollout", _echo_factory, addresses=["nohost"])

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRANSPORT", "fork")
        pool = make_worker_pool(None, "rollout", _echo_factory)
        assert pool.kind == "fork-pipe"
        pool.close()

    def test_unpicklable_factory_rejected_for_external_hosts(self):
        with pytest.raises(TypeError, match="picklable"):
            TcpWorkerPool("rollout", lambda i: None, addresses=["127.0.0.1:9999"])

    def test_heartbeat_params_parsed(self):
        addresses, params = transport_mod._parse_tcp_spec(
            "tcp://h1:1,h2:2?heartbeat=0.5&heartbeat_timeout=3"
        )
        assert addresses == ["h1:1", "h2:2"]
        assert params == {"heartbeat": "0.5", "heartbeat_timeout": "3"}


# --------------------------------------------------------------------- #
# Pools and the worker host
# --------------------------------------------------------------------- #
def _echo_factory(index):
    class Runner:
        def load_weights(self, payload):
            self.payload = payload

        def collect(self, n_ticks):
            return index * 100 + n_ticks

        def snapshot(self):
            return {"index": index}

        def restore(self, state):
            pass

    return Runner()


def _broken_factory(index):
    raise RuntimeError("factory exploded")


class TestTcpWorkerPool:
    def test_loopback_pool_round_trip_and_kill(self):
        pool = make_worker_pool("tcp", "rollout", _echo_factory)
        endpoint = pool.launch(0)
        try:
            assert endpoint.transport.ping() >= 0.0
            endpoint.transport.send(("collect", 3))
            assert endpoint.transport.recv() == ("result", 3)
            # SIGKILL: the pid from the handshake is real and signalable.
            os.kill(endpoint.process.pid, signal.SIGKILL)
            endpoint.process.join(timeout=5)
            assert not endpoint.process.is_alive()
            with pytest.raises(TransportError):
                endpoint.transport.send(("collect", 1))
                endpoint.transport.recv()
        finally:
            endpoint.transport.close()
            pool.close()

    def test_external_host_serves_indexed_workers(self):
        server = WorkerHostServer("127.0.0.1", 0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        pool = TcpWorkerPool("rollout", _echo_factory, addresses=[server.address])
        endpoints = [pool.launch(i) for i in range(2)]
        try:
            for endpoint in endpoints:
                endpoint.transport.send(("collect", 7))
            assert [e.transport.recv() for e in endpoints] == [
                ("result", 7),
                ("result", 107),
            ]
        finally:
            for endpoint in endpoints:
                endpoint.transport.send(("close",))
                endpoint.transport.recv()
                endpoint.transport.close()
            pool.close()
            server.shutdown()
            server.close()
            thread.join(timeout=5)

    def test_factory_error_surfaces_as_error_reply(self):
        pool = make_worker_pool("tcp", "rollout", _broken_factory)
        endpoint = pool.launch(0)
        try:
            # The worker answers its first command slot with the traceback
            # unprompted, then exits — a factory bug is never restarted.
            reply = endpoint.transport.recv()
            assert reply[0] == "error"
            assert "factory exploded" in reply[1]
        finally:
            endpoint.transport.close()
            pool.close()


# --------------------------------------------------------------------- #
# Engine-level and train()-level bit-identity over TCP
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def transport_setup(trained_dt_censor, normalizer, tor_splits):
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


def _collect_rounds(setup, transport, kill_index=None, stop_index=None):
    """Two broadcast+collect rounds through a ShardedRolloutEngine."""
    agent = fresh_agent(setup)
    tree = collection_seed_tree(agent._rng, N_ENVS)
    engine = ShardedRolloutEngine.for_agent(
        agent, setup["flows"], tree, N_WORKERS, transport=transport
    )
    try:
        engine.broadcast(state_dict_to_bytes(agent._policy_state()))
        first = engine.collect(ROLLOUT_LENGTH)
        if kill_index is not None:
            os.kill(engine.processes[kill_index].pid, signal.SIGKILL)
            time.sleep(0.2)
        if stop_index is not None:
            os.kill(engine.processes[stop_index].pid, signal.SIGSTOP)
        second = engine.collect(ROLLOUT_LENGTH)
        restarts = engine.restarts_performed
    finally:
        engine.close()
    return [first, second], restarts


def _assert_merged_equal(actual, expected):
    """Strict equality between two merged-rollout sequences."""
    for left, right in zip(actual, expected):
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(left, name), getattr(right, name)), name
        assert np.array_equal(left.final_states, right.final_states)
        assert np.array_equal(left.final_values, right.final_values)
        assert left.query_delta == right.query_delta
        assert [(t, e) for t, e, _ in left.summaries] == [
            (t, e) for t, e, _ in right.summaries
        ]


def _assert_matches_reference(merged_rollouts, reference):
    """Merged rollouts == single-process ShardRunner segments (the existing
    fork-tier comparison, reused verbatim for the TCP rung)."""
    for ref, merged in zip(reference, merged_rollouts):
        for name in ARRAY_FIELDS:
            assert np.array_equal(getattr(merged, name), getattr(ref, name)), name
        assert np.array_equal(merged.final_states, ref.final_states)
        ref_items = sorted((tick, env) for tick, env, _ in ref.summaries)
        assert [(tick, env) for tick, env, _ in merged.summaries] == ref_items
    merged_delta = sum(rollout.query_delta for rollout in merged_rollouts)
    reference_delta = sum(rollout.query_delta for rollout in reference)
    assert merged_delta == reference_delta


class TestTcpEngineEquivalence:
    @pytest.fixture(scope="class")
    def reference(self, transport_setup):
        """Single-process reference: one inline ShardRunner over all slots."""
        setup = transport_setup
        agent = fresh_agent(setup)
        tree = collection_seed_tree(agent._rng, N_ENVS)
        runner = ShardRunner(
            agent.actor,
            agent.critic,
            agent.state_encoder,
            setup["censor"],
            setup["normalizer"],
            setup["config"],
            setup["flows"],
            tree,
        )
        return [runner.collect(ROLLOUT_LENGTH) for _ in range(2)]

    def test_tcp_matches_fork_and_single_process(self, transport_setup, reference):
        fork_rollouts, _ = _collect_rounds(transport_setup, "fork")
        tcp_rollouts, _ = _collect_rounds(transport_setup, "tcp")
        _assert_merged_equal(tcp_rollouts, fork_rollouts)
        _assert_matches_reference(tcp_rollouts, reference)

    def test_sigkilled_tcp_worker_replays_bit_identically(
        self, transport_setup, reference
    ):
        """EOF path: a SIGKILLed TCP worker is rebuilt by snapshot-restore +
        log replay and the merged rollout is unchanged."""
        rollouts, restarts = _collect_rounds(transport_setup, "tcp", kill_index=0)
        assert restarts >= 1
        _assert_matches_reference(rollouts, reference)

    def test_sigstopped_tcp_worker_recovers_via_heartbeat(
        self, transport_setup, reference
    ):
        """Heartbeat path: a wedged (SIGSTOPped) worker never closes its
        socket, so only the heartbeat deadline can detect it — recovery
        must still produce the same bit-identical merged rollout."""
        rollouts, restarts = _collect_rounds(
            transport_setup,
            "tcp?heartbeat=0.05&heartbeat_timeout=0.5",
            stop_index=1,
        )
        assert restarts >= 1
        _assert_matches_reference(rollouts, reference)


class TestTcpTrainEquivalence:
    def _run(self, setup, workers, transport=None):
        censor = setup["censor"]
        censor.reset_query_count()
        agent = fresh_agent(setup)
        records = []
        agent.train(
            setup["flows"],
            total_timesteps=2 * ROLLOUT_LENGTH * N_ENVS,
            workers=workers,
            transport=transport,
            callback=records.append,
        )
        params = [p.data.copy() for p in agent.actor.parameters()]
        params += [p.data.copy() for p in agent.critic.parameters()]
        return records, censor.query_count, params

    def test_train_over_tcp_bit_equivalent(self, transport_setup):
        local = self._run(transport_setup, None)
        fork = self._run(transport_setup, N_WORKERS, transport="fork")
        tcp = self._run(transport_setup, N_WORKERS, transport="tcp")

        for records, queries, params in (fork, tcp):
            assert queries == local[1]
            assert records == local[0]
            for left, right in zip(params, local[2]):
                assert np.array_equal(left, right)

    def test_transport_requires_workers(self, transport_setup):
        agent = fresh_agent(transport_setup)
        with pytest.raises(ValueError, match="transport requires workers"):
            agent.train(transport_setup["flows"], total_timesteps=8, transport="tcp")


# --------------------------------------------------------------------- #
# One serialization per broadcast
# --------------------------------------------------------------------- #
class TestBroadcastSerializesOnce:
    @pytest.mark.parametrize("transport", ["fork", "tcp"])
    def test_checkpoint_pickled_once_per_broadcast(self, monkeypatch, transport):
        calls = []
        original = encode_message

        def counting_encode(message):
            calls.append(message[0])
            return original(message)

        monkeypatch.setattr(
            "repro.distrib.sharded.encode_message", counting_encode
        )
        engine = ShardedRolloutEngine(_echo_factory, 2, transport=transport)
        try:
            engine.broadcast(b"checkpoint-bytes")
            assert calls.count("load") == 1  # two workers, one encode
            engine.broadcast(b"checkpoint-bytes-2")
            assert calls.count("load") == 2
        finally:
            engine.close()

    def test_replay_log_shares_the_broadcast_payload(self):
        """The log stores the same message tuple the workers received —
        no second checkpoint buffer per broadcast."""
        engine = ShardedRolloutEngine(_echo_factory, 2)
        try:
            engine.broadcast(b"checkpoint-bytes")
            assert engine._last_payload is engine._log[0][1]
        finally:
            engine.close()


# --------------------------------------------------------------------- #
# Sweeps over TCP
# --------------------------------------------------------------------- #
def _sweep_task(params):
    if params.get("crash_flag") and not os.path.exists(params["crash_flag"]):
        with open(params["crash_flag"], "w") as handle:
            handle.write("crashed")
        os.kill(os.getpid(), signal.SIGKILL)
    if params.get("boom"):
        raise RuntimeError("task exploded")
    return {"value": params["x"] * 2}


class TestTcpSweep:
    def test_sweep_over_tcp_with_crash_retry(self, tmp_path):
        orchestrator = SweepOrchestrator(
            _sweep_task, n_workers=2, max_attempts=2, transport="tcp"
        )
        tasks = [
            SweepTask("plain", {"x": 1}),
            SweepTask("crashes-once", {"x": 2, "crash_flag": str(tmp_path / "flag")}),
            SweepTask("raises", {"x": 3, "boom": True}),
        ]
        records = orchestrator.run(tasks)
        by_id = {record.task_id: record for record in records}
        assert by_id["plain"].status == "ok"
        assert by_id["plain"].result == {"value": 2}
        assert by_id["crashes-once"].status == "ok"
        assert by_id["crashes-once"].attempts == 2
        assert by_id["raises"].status == "failed"
        assert "task exploded" in by_id["raises"].error
        assert orchestrator.restarts_performed >= 1


# --------------------------------------------------------------------- #
# Telemetry: transport counters are outside the ladder
# --------------------------------------------------------------------- #
class TestTransportTelemetry:
    def test_counters_and_rtt_histogram(self):
        import repro.obs as obs

        obs.enable()
        obs.reset()
        try:
            pool = make_worker_pool("tcp", "rollout", _echo_factory)
            endpoint = pool.launch(0)
            try:
                endpoint.transport.ping()
                endpoint.transport.send(("collect", 2))
                endpoint.transport.recv()
                endpoint.transport.send(("close",))
                endpoint.transport.recv()
            finally:
                endpoint.transport.close()
                pool.close()
            snapshot = obs.take_snapshot()
            by_name = {}
            for entry in snapshot:
                by_name.setdefault(entry["name"], []).append(entry)
            for name in (
                "transport.frames_sent",
                "transport.bytes_sent",
                "transport.frames_recv",
                "transport.bytes_recv",
            ):
                assert name in by_name, name
            sent = [
                e
                for e in by_name["transport.frames_sent"]
                if e["labels"].get("transport") == "tcp"
            ]
            assert sent and sent[0]["value"] >= 3  # ping + collect + close
            assert "transport.heartbeat_rtt_ms" in by_name
        finally:
            obs.disable()
            obs.reset()

    def test_disabled_telemetry_records_nothing(self):
        import repro.obs as obs

        obs.reset()
        pool = make_worker_pool("tcp", "rollout", _echo_factory)
        endpoint = pool.launch(0)
        try:
            endpoint.transport.send(("collect", 2))
            endpoint.transport.recv()
            endpoint.transport.send(("close",))
            endpoint.transport.recv()
        finally:
            endpoint.transport.close()
            pool.close()
        assert obs.take_snapshot() == []

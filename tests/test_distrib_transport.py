"""Worker channel: framing, the command loop, the fork pool.

The contract under test: the pipe channel carries the rollout protocol
without touching any numeric path.  Every channel fault surfaces as
``TransportError``; the worker-side command loop dispatches, answers
errors and closes in one place; a worker factory that raises is a surfaced
error, not a restart loop; ``close()`` returns in bounded time and leaves
no worker alive, even a stopped one; checkpoint broadcasts serialize their
payload exactly once regardless of worker count; and command frames are
the bare protocol (the retired telemetry fold and trace-context envelope
are unknown commands to a worker).  Sharded == single-process
bit-equivalence and SIGKILL recovery live in
``tests/test_distrib_sharded.py``.
"""

import multiprocessing
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.distrib import ForkWorkerPool, ShardedRolloutEngine
from repro.distrib.transport import (
    Transport,
    TransportError,
    decode_message,
    encode_message,
    worker_command_loop,
)


# --------------------------------------------------------------------- #
# Unit: framing and the command loop
# --------------------------------------------------------------------- #
def _pipe_pair():
    """A connected Transport pair over one duplex pipe."""
    left, right = multiprocessing.get_context("fork").Pipe()
    return Transport(left), Transport(right)


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = ("load", b"\x00\x01payload", {"nested": [1, 2.5]})
        assert decode_message(encode_message(message)) == message

    def test_pipe_round_trip(self):
        a, b = _pipe_pair()
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

    def test_pipe_large_frame(self):
        # Far bigger than the pipe buffer: the writer blocks until the
        # reader drains, and the frame still arrives whole.
        a, b = _pipe_pair()
        blob = os.urandom(4 * 1024 * 1024)
        try:
            thread = threading.Thread(target=lambda: a.send(("load", blob)))
            thread.start()
            assert b.recv() == ("load", blob)
            thread.join(timeout=5)
            assert not thread.is_alive()
        finally:
            a.close()
            b.close()

    def test_send_encoded_ships_the_same_frame(self):
        a, b = _pipe_pair()
        try:
            frame = encode_message(("load", b"w"))
            a.send_encoded(frame)
            a.send_encoded(frame)
            assert b.recv() == ("load", b"w")
            assert b.recv() == ("load", b"w")
        finally:
            a.close()
            b.close()

    def test_closed_peer_raises_transport_error(self):
        a, b = _pipe_pair()
        a.close()
        with pytest.raises(TransportError):
            b.recv()
        with pytest.raises(TransportError):
            b.send(("collect", 1))
        b.close()

    def test_fork_pipe_poll(self):
        a, b = _pipe_pair()
        try:
            assert not a.poll(0.0)
            b.send(("x",))
            assert a.poll(1.0)
            assert a.recv() == ("x",)
        finally:
            a.close()
            b.close()

    # One frame of each kind the rollout protocol ships: bare commands,
    # checkpoint bytes, snapshots, tracebacks and rollout arrays.
    FRAMES = {
        "bare-command": ("close",),
        "int-payload": ("collect", 0),
        "empty-bytes": ("load", b""),
        "bytes-over-64k": ("load", bytes(range(256)) * 300),
        "none-reply": ("ok", None),
        "big-int-state": ("restore", {"index": 3, "state": {"key": 2**100, "pos": 7}}),
        "traceback": ("error", "Traceback (most recent call last):\n  boom\n"),
        "float32-array": ("result", np.linspace(-1.0, 1.0, 12, dtype=np.float32).reshape(3, 4)),
        "bool-array": ("result", np.array([[True, False], [False, True]])),
        "nested-tuple": ("result", (np.int64(5), [np.zeros((0, 2)), (1.5, "x")])),
    }

    @staticmethod
    def _assert_same(actual, expected):
        if isinstance(expected, np.ndarray):
            assert isinstance(actual, np.ndarray)
            assert actual.dtype == expected.dtype and actual.shape == expected.shape
            assert actual.tobytes() == expected.tobytes()
        elif isinstance(expected, (tuple, list)):
            assert type(actual) is type(expected) and len(actual) == len(expected)
            for got, want in zip(actual, expected):
                TestFraming._assert_same(got, want)
        elif isinstance(expected, dict):
            assert actual.keys() == expected.keys()
            for key in expected:
                TestFraming._assert_same(actual[key], expected[key])
        else:
            assert type(actual) is type(expected) and actual == expected

    @pytest.mark.parametrize("kind", list(FRAMES))
    def test_every_frame_kind_crosses_the_pipe_bit_for_bit(self, kind):
        message = self.FRAMES[kind]
        a, b = _pipe_pair()
        try:
            a.send(message)
            self._assert_same(b.recv(), message)
        finally:
            a.close()
            b.close()

    def test_close_is_idempotent(self):
        a, b = _pipe_pair()
        a.close()
        a.close()
        b.close()

    def test_poll_reports_a_gone_peer_as_readable(self):
        # EOF counts as readable, so a driver polling a dead worker goes on
        # to recv() and gets the restartable fault instead of waiting.
        a, b = _pipe_pair()
        a.close()
        assert b.poll(1.0)
        with pytest.raises(TransportError):
            b.recv()
        b.close()

    def test_send_after_own_close_is_a_transport_error(self):
        a, b = _pipe_pair()
        a.close()
        with pytest.raises(TransportError):
            a.send(("collect", 1))
        b.close()


class _ScriptedTransport:
    """In-process stand-in for a worker's end: ``recv`` hands out a script,
    then reports the driver gone; ``send_fails`` makes every reply find the
    driver gone."""

    def __init__(self, script, send_fails=False):
        self.unread = list(script)
        self.sent = []
        self.send_fails = send_fails
        self.closed = False

    def recv(self):
        if not self.unread:
            raise TransportError("script exhausted")
        return self.unread.pop(0)

    def send(self, message):
        if self.send_fails:
            raise TransportError("driver gone")
        self.sent.append(message)

    def close(self):
        self.closed = True


class TestWorkerCommandLoop:
    def _run_loop(self, driver_actions, handlers):
        """Run the loop against a pipe pair; returns the driver's replies."""
        worker, driver = _pipe_pair()
        thread = threading.Thread(target=worker_command_loop, args=(worker, handlers))
        thread.start()
        replies = []
        try:
            for message in driver_actions:
                driver.send(message)
                replies.append(driver.recv())
        finally:
            driver.close()
            thread.join(timeout=5)
        assert not thread.is_alive()
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
        assert replies[2][0] == "error" and "unknown worker command" in replies[2][1]
        assert replies[3] == ("ok", None)

    def test_trailing_elements_are_the_handler_payload(self):
        replies = self._run_loop(
            [("add", 2, 3), ("noargs",), ("close",)],
            {"add": lambda a, b: ("result", a + b), "noargs": lambda: ("result", None)},
        )
        assert replies == [("result", 5), ("result", None), ("ok", None)]

    def test_bare_command_runs_in_process(self):
        transport = _ScriptedTransport([("work", 5), ("close",)])
        worker_command_loop(transport, {"work": lambda n: ("result", n + 1)})
        assert transport.sent == [("result", 6), ("ok", None)]
        assert transport.closed

    def test_nothing_after_close_is_read(self):
        transport = _ScriptedTransport([("close",), ("work", 1)])
        worker_command_loop(transport, {"work": lambda n: ("result", n)})
        assert transport.sent == [("ok", None)]
        assert transport.unread == [("work", 1)]

    def test_end_of_channel_ends_the_loop_without_a_reply(self):
        transport = _ScriptedTransport([("work", 1)])
        worker_command_loop(transport, {"work": lambda n: ("result", n)})
        assert transport.sent == [("result", 1)]
        assert transport.closed

    def test_a_driver_gone_while_replying_ends_the_loop(self):
        transport = _ScriptedTransport([("work", 1), ("work", 2)], send_fails=True)
        worker_command_loop(transport, {"work": lambda n: ("result", n)})
        assert transport.unread == [("work", 2)]
        assert transport.closed

    def test_a_driver_gone_while_reporting_an_error_ends_the_loop(self):
        def boom():
            raise RuntimeError("kaboom")

        transport = _ScriptedTransport([("boom",), ("boom",)], send_fails=True)
        worker_command_loop(transport, {"boom": boom})
        assert transport.unread == [("boom",)]
        assert transport.closed

    def test_loop_exits_when_the_driver_goes_away(self):
        worker, driver = _pipe_pair()
        thread = threading.Thread(target=worker_command_loop, args=(worker, {}))
        thread.start()
        driver.close()
        thread.join(timeout=5)
        assert not thread.is_alive()
        # The loop closed its own end on the way out.
        assert worker._closed


# --------------------------------------------------------------------- #
# The fork pool
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


class TestForkWorkerPool:
    def test_pool_round_trip_and_kill(self):
        pool = ForkWorkerPool(_echo_factory)
        transport, process = pool.launch(0)
        try:
            transport.send(("collect", 3))
            assert transport.recv() == ("result", 3)
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=5)
            assert not process.is_alive()
            with pytest.raises(TransportError):
                transport.send(("collect", 1))
                transport.recv()
        finally:
            transport.close()

    def test_pool_serves_indexed_workers(self):
        pool = ForkWorkerPool(_echo_factory)
        workers = [pool.launch(i) for i in range(2)]
        try:
            for transport, _ in workers:
                transport.send(("collect", 7))
            assert [transport.recv() for transport, _ in workers] == [
                ("result", 7),
                ("result", 107),
            ]
        finally:
            for transport, process in workers:
                transport.send(("close",))
                assert transport.recv() == ("ok", None)
                transport.close()
                process.join(timeout=5)
                assert not process.is_alive()

    def test_factory_error_surfaces_as_error_reply(self):
        pool = ForkWorkerPool(_broken_factory)
        transport, process = pool.launch(0)
        try:
            # The worker stays up and answers every command with the
            # factory's traceback until it is closed.
            for command in (("load", b"w"), ("collect", 2)):
                transport.send(command)
                kind, detail = transport.recv()
                assert kind == "error" and "factory exploded" in detail
            transport.send(("close",))
            assert transport.recv() == ("ok", None)
        finally:
            transport.close()
            process.join(timeout=5)
        assert not process.is_alive()

    def test_factory_error_makes_broadcast_raise(self):
        engine = ShardedRolloutEngine(_broken_factory, 2)
        try:
            with pytest.raises(RuntimeError, match="factory exploded"):
                engine.broadcast(b"checkpoint-bytes")
            # A factory bug is deterministic: nothing is restarted.
            assert engine.restarts_performed == 0
        finally:
            engine.close()


def _collect_fails_on_worker_0(index):
    runner = _echo_factory(index)
    if index == 0:

        def collect(n_ticks):
            raise RuntimeError("deterministic collect bug")

        runner.collect = collect
    return runner


class TestBoundedClose:
    @pytest.mark.parametrize("broken", [False, True])
    def test_close_kills_a_stopped_worker(self, broken):
        """A SIGSTOPped worker never answers the close handshake and never
        acts on SIGTERM: close() must still return promptly and reap it, on
        the polite path and on a broken engine's."""
        engine = ShardedRolloutEngine(_collect_fails_on_worker_0, 2)
        processes = engine.processes
        # close() runs in a thread so a hang fails this test instead of
        # stalling the suite.
        closer = threading.Thread(target=engine.close, daemon=True)
        try:
            engine.broadcast(b"checkpoint-bytes")
            if broken:
                with pytest.raises(RuntimeError, match="deterministic collect bug"):
                    engine.collect(2)
                assert engine._broken
            os.kill(processes[1].pid, signal.SIGSTOP)
            start = time.monotonic()
            closer.start()
            closer.join(timeout=8)
            elapsed = time.monotonic() - start
            assert not closer.is_alive(), "close() blocked on a stopped worker"
            assert elapsed < 5.0
            assert not any(process.is_alive() for process in processes)
        finally:
            for process in processes:
                if process.is_alive():
                    os.kill(process.pid, signal.SIGKILL)
            if closer.ident is not None:
                closer.join(timeout=5)


# --------------------------------------------------------------------- #
# One serialization per broadcast
# --------------------------------------------------------------------- #
class TestBroadcastSerializesOnce:
    def test_checkpoint_pickled_once_per_broadcast(self, monkeypatch):
        calls = []
        original = encode_message

        def counting_encode(message):
            calls.append(message[0])
            return original(message)

        monkeypatch.setattr(
            "repro.distrib.sharded.encode_message", counting_encode
        )
        engine = ShardedRolloutEngine(_echo_factory, 2)
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
# Retired protocol: no telemetry fold, no trace-context envelope
# --------------------------------------------------------------------- #
class TestRetiredTelemetryProtocol:
    def test_worker_answers_retired_frames_as_unknown_and_keeps_serving(self):
        transport, process = ForkWorkerPool(_echo_factory).launch(0)
        try:
            for frame in (("__telemetry__",), ("__traced__", None, None, ("collect", 2))):
                transport.send(frame)
                kind, detail = transport.recv()
                assert kind == "error" and "unknown worker command" in detail
            transport.send(("collect", 2))
            assert transport.recv() == ("result", 2)
            transport.send(("close",))
            assert transport.recv() == ("ok", None)
        finally:
            transport.close()
            process.join(timeout=5)
        assert not process.is_alive()

    def test_send_all_ships_the_bare_frame(self, monkeypatch):
        shipped = []
        original = Transport.send_encoded

        def capture(self, frame):
            shipped.append(frame)
            original(self, frame)

        engine = ShardedRolloutEngine(_echo_factory, 2)
        try:
            monkeypatch.setattr(Transport, "send_encoded", capture)
            engine._send_all(("collect", 3))
            replies = engine._drain([])
        finally:
            engine.close()
        assert replies == [3, 103]
        assert shipped[:2] == [encode_message(("collect", 3))] * 2

    def test_transport_and_engine_expose_no_envelope(self):
        from repro.distrib import transport

        for name in ("TRACE_ENVELOPE", "traced_message", "untraced_message"):
            assert not hasattr(transport, name), name
        assert not hasattr(transport.Transport, "send_command")
        assert not hasattr(ShardedRolloutEngine, "stats")
        assert not hasattr(ShardedRolloutEngine, "_collect_worker_telemetry")

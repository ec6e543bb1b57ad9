"""Transport tier: one command protocol, pluggable worker channels.

Both distributed drivers in this codebase — :class:`ShardedRolloutEngine`
and :class:`SweepOrchestrator` — speak the same byte-oriented protocol to
their workers: framed command tuples out, framed reply tuples back, with a
broken channel (not an error reply) as the only signal that the worker
*process* died.  This module factors that protocol out of the two drivers
into one transport abstraction:

:class:`Transport`
    One connected peer channel.  ``send``/``recv`` move whole pickled
    frames; ``send_encoded`` ships a pre-serialized frame (so a checkpoint
    broadcast is serialized once, not once per worker); ``ping`` is the
    liveness probe (round-trips a control frame through the peer's command
    loop); every channel fault — pipe EOF, broken pipe, socket reset,
    heartbeat timeout — surfaces as :class:`TransportError`, the single
    restartable-fault signal the drivers' recovery paths key on.
:class:`ForkPipeTransport`
    The original semantics, byte-for-byte: a ``multiprocessing`` duplex
    pipe to a forked child.  Pipe EOF is the death signal; nothing is
    pickled at spawn time (fork-only start method, copy-on-write
    inheritance).
:class:`TcpTransport`
    Length-prefixed pickle frames over a TCP socket, so workers can live on
    other hosts.  An optional worker-side heartbeat (zero-length frames on
    a configurable interval) plus a driver-side liveness deadline map a
    dead or wedged peer onto the same :class:`TransportError` path that
    pipe EOF takes — recovery code cannot tell the transports apart.
:func:`worker_command_loop`
    The one worker-side loop.  Workers are now plain handler tables
    (``command -> callable returning the reply tuple``); unknown-command
    and error-reply handling, close semantics, heartbeat startup and ping
    replies live here, in exactly one place.
:class:`ForkWorkerPool` / :class:`TcpWorkerPool`
    Driver-side worker placement: ``launch(index)`` returns a
    :class:`WorkerEndpoint` (transport + process handle) wherever the
    worker runs.  The TCP pool connects to :class:`WorkerHostServer`
    daemons (``repro-amoeba worker-host``) and performs a
    ``hello``/``ready`` handshake carrying the worker index and the
    (pickled or fork-inherited) worker factory.

Select a transport per driver with ``transport="fork"`` /
``"tcp://host:port"`` or process-wide with ``REPRO_TRANSPORT``.  The
transport tier reads clocks and moves bytes only — it draws no RNG and
touches no numeric path, so the bit-equivalence ladder is indifferent to
which backend carried the rollout.
"""

from __future__ import annotations

import importlib
import itertools
import os
import pickle
import select
import signal
import socket
import struct
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import multiprocessing

from .. import obs
from ..obs import _state as _obs_state

__all__ = [
    "TransportError",
    "Transport",
    "ForkPipeTransport",
    "TcpTransport",
    "worker_command_loop",
    "WorkerEndpoint",
    "WorkerPool",
    "ForkWorkerPool",
    "TcpWorkerPool",
    "WorkerHostServer",
    "start_local_worker_host",
    "make_worker_pool",
    "encode_message",
    "decode_message",
    "TRACE_ENVELOPE",
    "traced_message",
    "untraced_message",
    "factory_worker_entry",
]

# Raw channel faults, normalised to TransportError by every backend.
_CHANNEL_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


class TransportError(ConnectionError):
    """The peer's channel broke: process death, socket reset, heartbeat loss.

    This is the *restartable-fault* signal of the distributed tier —
    drivers answer it with snapshot-restore + log replay (rollout) or task
    re-queue (sweeps).  Worker *bugs*
    never raise it; they come back as ordinary ``("error", traceback)``
    replies.
    """


def encode_message(message: tuple) -> bytes:
    """Serialize one command/reply tuple to a frame payload."""
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def decode_message(frame: bytes) -> tuple:
    """Inverse of :func:`encode_message`."""
    return pickle.loads(frame)


# --------------------------------------------------------------------- #
# Trace-context propagation
# --------------------------------------------------------------------- #
# Driver->worker commands may ride inside a trace envelope carrying the
# sender's (trace_id, parent_span_id); the worker command loop unwraps it
# and opens its command span as a child of the driver-side span, so folded
# worker span batches stitch into one cross-process tree.  The envelope
# exists ONLY when telemetry is enabled: with telemetry off,
# traced_message() is the identity function and frame bytes are identical
# to an untraced build (pinned by test).  Replies never carry envelopes.
TRACE_ENVELOPE = "__traced__"


def traced_message(message: tuple) -> tuple:
    """Wrap a driver->worker command with the current trace context.

    Returns ``(TRACE_ENVELOPE, trace_id, parent_span_id, message)`` when
    telemetry is enabled — even with no span open (both ids ``None``), so
    the worker still opens a root command span and ships it back.  Returns
    ``message`` unchanged when telemetry is off: zero frame overhead, and
    the wire format cannot drift for un-instrumented runs.
    """
    if not _obs_state.enabled:
        return message
    context = obs.trace_context()
    trace_id, parent_span_id = context if context is not None else (None, None)
    return (TRACE_ENVELOPE, trace_id, parent_span_id, message)


def untraced_message(message: tuple) -> Tuple[tuple, Optional[int], Optional[int]]:
    """Inverse of :func:`traced_message`.

    Returns ``(command_message, trace_id, parent_span_id)``; the ids are
    ``None`` for a bare (unenveloped) message.
    """
    if isinstance(message, tuple) and len(message) == 4 and message[0] == TRACE_ENVELOPE:
        return message[3], message[1], message[2]
    return message, None, None


# --------------------------------------------------------------------- #
# Transport interface + backends
# --------------------------------------------------------------------- #
class Transport:
    """One connected peer channel moving framed message tuples."""

    kind = "abstract"

    # -- framed messages ------------------------------------------------ #
    def send(self, message: tuple) -> None:
        """Serialize and ship one message tuple."""
        self.send_encoded(encode_message(message))

    def send_command(self, message: tuple) -> None:
        """Ship a driver->worker command, stamped with trace context.

        Identical to :meth:`send` when telemetry is off (the envelope is
        never added); drivers use this for commands, plain :meth:`send`
        for everything else (replies, handshakes).
        """
        self.send_encoded(encode_message(traced_message(message)))

    def send_encoded(self, frame: bytes) -> None:
        """Ship an already-serialized frame (see engine broadcast reuse)."""
        raise NotImplementedError

    def recv(self) -> tuple:
        """Block for the next message tuple; :class:`TransportError` on a
        broken channel."""
        raise NotImplementedError

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a frame (or EOF) is ready within ``timeout`` seconds."""
        raise NotImplementedError

    def fileno(self) -> int:
        """Waitable descriptor for ``multiprocessing.connection.wait``."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    # -- liveness ------------------------------------------------------- #
    def ping(self) -> float:
        """Round-trip a control frame through the peer's command loop.

        The liveness probe of the transport interface: returns the
        round-trip latency in seconds (recorded to the
        ``transport.heartbeat_rtt_ms`` histogram when telemetry is on) and
        raises :class:`TransportError` if the peer is gone.  Only valid
        while no command reply is outstanding — the peer's command loop
        answers pings in arrival order like any other frame.
        """
        start = time.perf_counter()
        self.send(("__ping__",))
        reply = self.recv()
        if not (isinstance(reply, tuple) and reply and reply[0] == "__pong__"):
            raise TransportError(f"unexpected ping reply {reply!r}")
        elapsed = time.perf_counter() - start
        if _obs_state.enabled:
            obs.histogram("transport.heartbeat_rtt_ms", transport=self.kind).observe(
                elapsed * 1000.0
            )
        return elapsed

    def start_heartbeat(self) -> None:
        """Start the peer-side heartbeat sender, if this backend has one."""

    # -- telemetry (off by default, outside the ladder) ----------------- #
    def _note_sent(self, n_bytes: int) -> None:
        if _obs_state.enabled:
            obs.counter("transport.frames_sent", transport=self.kind).inc()
            obs.counter("transport.bytes_sent", transport=self.kind).inc(n_bytes)

    def _note_received(self, n_bytes: int) -> None:
        if _obs_state.enabled:
            obs.counter("transport.frames_recv", transport=self.kind).inc()
            obs.counter("transport.bytes_recv", transport=self.kind).inc(n_bytes)


class ForkPipeTransport(Transport):
    """The existing fork+pipe semantics behind the Transport interface.

    Wraps one end of a ``multiprocessing.Pipe``.  EOF on the pipe — the
    peer process died — is the restartable-fault signal, exactly as before
    the transport tier existed.
    """

    kind = "fork-pipe"

    def __init__(self, conn) -> None:
        self._conn = conn
        self._closed = False

    def send_encoded(self, frame: bytes) -> None:
        try:
            self._conn.send_bytes(frame)
        except _CHANNEL_ERRORS as error:
            raise TransportError(f"pipe peer is gone: {error}") from error
        self._note_sent(len(frame))

    def recv(self) -> tuple:
        try:
            frame = self._conn.recv_bytes()
        except _CHANNEL_ERRORS as error:
            raise TransportError(f"pipe peer is gone: {error}") from error
        self._note_received(len(frame))
        return decode_message(frame)

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            return self._conn.poll(timeout)
        except _CHANNEL_ERRORS:
            return True  # EOF counts as readable: recv() will raise promptly

    def fileno(self) -> int:
        return self._conn.fileno()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.close()
        except OSError:
            pass


_FRAME_HEADER = struct.Struct(">Q")
_HEARTBEAT_FRAME = _FRAME_HEADER.pack(0)  # zero-length frame = heartbeat


class TcpTransport(Transport):
    """Length-prefixed pickle frames over a TCP socket.

    Wire format: an 8-byte big-endian payload length followed by the
    pickled message tuple; a zero length is a heartbeat (no payload).

    ``heartbeat_interval`` (peer side) starts a daemon thread writing
    heartbeat frames on that cadence — frame writes are lock-serialized so
    heartbeats never interleave into a reply.  ``heartbeat_timeout``
    (driver side) bounds how long :meth:`recv` tolerates total silence:
    any received byte (data or heartbeat) renews the deadline, so a worker
    busy with a long collect stays "alive" as long as its heartbeat thread
    does, while a SIGKILLed peer raises through socket EOF immediately and
    a wedged/partitioned one raises :class:`TransportError` at the
    deadline — the same restartable-fault path as pipe EOF.
    """

    kind = "tcp"

    def __init__(
        self,
        sock: socket.socket,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
    ) -> None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not fatal: only a latency optimisation
        self._sock = sock
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self._send_lock = threading.Lock()
        self._heartbeat_thread: Optional[threading.Thread] = None
        self._closed = False

    # -- frames --------------------------------------------------------- #
    def send_encoded(self, frame: bytes) -> None:
        header = _FRAME_HEADER.pack(len(frame))
        try:
            with self._send_lock:
                self._sock.sendall(header)
                self._sock.sendall(frame)
        except _CHANNEL_ERRORS as error:
            raise TransportError(f"tcp peer is gone: {error}") from error
        self._note_sent(len(header) + len(frame))

    def recv(self) -> tuple:
        deadline = self._fresh_deadline()
        while True:
            header, deadline = self._recv_exact(_FRAME_HEADER.size, deadline)
            (length,) = _FRAME_HEADER.unpack(header)
            if length == 0:
                # Heartbeat: the peer is alive (deadline already renewed by
                # the byte arrival inside _recv_exact).
                if _obs_state.enabled:
                    obs.counter("transport.heartbeats_recv", transport=self.kind).inc()
                continue
            frame, _ = self._recv_exact(length, deadline)
            self._note_received(_FRAME_HEADER.size + length)
            return decode_message(frame)

    def _fresh_deadline(self) -> Optional[float]:
        if self.heartbeat_timeout is None:
            return None
        return time.monotonic() + self.heartbeat_timeout

    def _recv_exact(
        self, n_bytes: int, deadline: Optional[float]
    ) -> Tuple[bytes, Optional[float]]:
        """Read exactly ``n_bytes``; every received chunk renews the
        liveness deadline (bytes are proof of life)."""
        buffer = bytearray(n_bytes)
        view = memoryview(buffer)
        got = 0
        while got < n_bytes:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TransportError(
                        f"heartbeat timeout: no bytes from peer for "
                        f"{self.heartbeat_timeout}s"
                    )
                self._sock.settimeout(remaining)
            else:
                self._sock.settimeout(None)
            try:
                chunk = self._sock.recv_into(view[got:], n_bytes - got)
            except socket.timeout:
                continue  # loop re-checks the deadline and raises
            except _CHANNEL_ERRORS as error:
                raise TransportError(f"tcp peer is gone: {error}") from error
            if chunk == 0:
                raise TransportError("tcp peer closed the connection (EOF)")
            got += chunk
            if deadline is not None:
                deadline = time.monotonic() + self.heartbeat_timeout
        return bytes(buffer), deadline

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            ready, _, _ = select.select([self._sock], [], [], timeout)
        except (OSError, ValueError):
            return True  # closed socket: recv() will raise promptly
        return bool(ready)

    def fileno(self) -> int:
        return self._sock.fileno()

    # -- heartbeat sender (peer side) ----------------------------------- #
    def start_heartbeat(self) -> None:
        if not self.heartbeat_interval or self._heartbeat_thread is not None:
            return

        def beat() -> None:
            while not self._closed:
                time.sleep(self.heartbeat_interval)
                try:
                    with self._send_lock:
                        self._sock.sendall(_HEARTBEAT_FRAME)
                except OSError:
                    return
                if _obs_state.enabled:
                    obs.counter("transport.heartbeats_sent", transport=self.kind).inc()

        self._heartbeat_thread = threading.Thread(
            target=beat, name="repro-transport-heartbeat", daemon=True
        )
        self._heartbeat_thread.start()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


# --------------------------------------------------------------------- #
# The one worker-side command loop
# --------------------------------------------------------------------- #
def worker_command_loop(
    transport: Transport,
    handlers: Dict[str, Callable[..., tuple]],
    close_reply: Optional[tuple] = ("ok", None),
) -> None:
    """Serve framed commands until the channel breaks or ``close`` arrives.

    ``handlers`` maps a command name to ``handler(*payload) -> reply
    tuple``; the message's trailing elements are the payload.  The loop
    owns everything each driver's worker loop would otherwise duplicate:

    * a raising handler is answered with ``("error", traceback)`` so the
      driver re-raises it — worker bugs are deterministic, never retried;
    * a broken channel (driver gone) exits the loop; a broken channel
      while replying likewise — there is nobody left to answer;
    * ``close`` answers ``close_reply`` (when not ``None``) and exits;
    * ``__ping__`` control frames are answered with ``__pong__`` (the
      driver-side liveness probe);
    * ``__telemetry__`` control frames are answered with ``("result",
      obs.take_worker_telemetry())`` — the combined metrics+span fold
      payload, available from *every* worker without per-table handlers;
    * a command that arrived inside a trace envelope (see
      :func:`traced_message`) runs under a ``worker.<command>`` span
      parented on the driver-side sender, closed before the reply ships —
      the span reaches the driver in the next telemetry fold;
    * transports with a configured heartbeat start their sender here.
    """
    transport.start_heartbeat()
    try:
        while True:
            try:
                message = transport.recv()
            except TransportError:
                break
            message, trace_id, parent_span_id = untraced_message(message)
            command = message[0]
            if command == "__ping__":
                try:
                    transport.send(("__pong__",))
                except TransportError:
                    break
                continue
            if command == "__telemetry__":
                try:
                    transport.send(("result", obs.take_worker_telemetry()))
                except TransportError:
                    break
                continue
            if command == "close":
                if close_reply is not None:
                    try:
                        transport.send(close_reply)
                    except TransportError:
                        pass
                break
            handler = handlers.get(command)
            try:
                if handler is None:
                    transport.send(("error", f"unknown worker command {command!r}"))
                    continue
                # The span wraps handler execution only (not the reply
                # send): it must be finished before take_worker_telemetry
                # can ship it, and reply I/O time belongs to the driver's
                # recv-side span anyway.
                with obs.remote_span("worker." + str(command), trace_id, parent_span_id):
                    reply = handler(*message[1:])
                transport.send(reply)
            except TransportError:
                break
            except Exception:
                try:
                    transport.send(("error", traceback.format_exc()))
                except TransportError:
                    break
    finally:
        transport.close()


def factory_worker_entry(
    transport: Transport,
    factory: Callable[[int], object],
    worker_index: int,
    make_handlers: Callable[[object], Dict[str, Callable[..., tuple]]],
) -> None:
    """Build a worker's state with ``factory(worker_index)``, then serve
    ``make_handlers(state)`` through :func:`worker_command_loop`."""
    try:
        state = factory(worker_index)
    except Exception:
        # A factory that cannot build its state is a deterministic bug:
        # answer the first command slot with the traceback and exit, so the
        # driver raises instead of restarting forever.
        try:
            transport.send(("error", traceback.format_exc()))
        except TransportError:
            pass
        transport.close()
        return
    worker_command_loop(transport, make_handlers(state))


# --------------------------------------------------------------------- #
# Worker entrypoints (resolved by name so TCP hosts can import them)
# --------------------------------------------------------------------- #
_WORKER_ENTRYPOINTS: Dict[str, str] = {
    "rollout": "repro.distrib.worker:rollout_worker_entry",
    "sweep": "repro.distrib.sweep:sweep_worker_entry",
}


def resolve_worker_entrypoint(name: str) -> Callable[[Transport, object, int], None]:
    try:
        spec = _WORKER_ENTRYPOINTS[name]
    except KeyError:
        raise ValueError(
            f"unknown worker entrypoint {name!r} "
            f"(registered: {sorted(_WORKER_ENTRYPOINTS)})"
        ) from None
    module_name, _, attribute = spec.partition(":")
    return getattr(importlib.import_module(module_name), attribute)


# --------------------------------------------------------------------- #
# Worker factories across the placement boundary
# --------------------------------------------------------------------- #
# Factories that cannot pickle (closures over live censors, test lambdas)
# ride the fork boundary instead: they are parked here under a token, and a
# worker host *forked from this process after the registration* resolves
# the token from its inherited copy of this dict.  Genuinely remote hosts
# never see the tokens — they require picklable factories.
_INHERITED_FACTORIES: Dict[str, object] = {}
_inherit_counter = itertools.count()


def _pack_factory(factory, allow_inherit: bool) -> Tuple[str, object]:
    try:
        return ("pickle", pickle.dumps(factory, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception as error:
        if not allow_inherit:
            raise TypeError(
                "worker factory must be picklable to reach an external worker "
                "host (module-level callables/dataclasses work; closures and "
                f"lambdas do not): {error!r}"
            ) from error
        token = f"{os.getpid()}-{next(_inherit_counter)}"
        _INHERITED_FACTORIES[token] = factory
        return ("inherit", token)


def _unpack_factory(spec: Tuple[str, object]):
    mode, payload = spec
    if mode == "pickle":
        return pickle.loads(payload)
    if mode == "inherit":
        try:
            return _INHERITED_FACTORIES[payload]
        except KeyError:
            raise RuntimeError(
                "fork-inherited worker factory token is not resolvable on this "
                "host — only a worker host forked from the driver process can "
                "run unpicklable factories"
            ) from None
    raise ValueError(f"unknown factory spec mode {mode!r}")


# --------------------------------------------------------------------- #
# Driver-side endpoints and pools
# --------------------------------------------------------------------- #
@dataclass
class WorkerEndpoint:
    """Driver-side handle on one worker: its channel plus a process handle.

    ``process`` quacks like :class:`multiprocessing.Process` (``pid``,
    ``is_alive``, ``terminate``, ``kill``, ``join``) whether the worker is
    a local fork or a worker-host child reached over TCP.
    """

    index: int
    transport: Transport
    process: object

    def close(self) -> None:
        self.transport.close()


class WorkerPool:
    """Places workers somewhere and hands back :class:`WorkerEndpoint`\\ s."""

    kind = "abstract"

    def launch(self, index: int) -> WorkerEndpoint:
        raise NotImplementedError

    def close(self) -> None:
        """Release pool-owned placement resources (not the endpoints)."""


def _fork_worker_main(conn, entry_name: str, factory, worker_index: int) -> None:
    """Forked-child shim: wrap the inherited pipe and run the entrypoint."""
    resolve_worker_entrypoint(entry_name)(
        ForkPipeTransport(conn), factory, worker_index
    )


class ForkWorkerPool(WorkerPool):
    """The original placement: fork one local child per worker.

    Nothing is pickled — the factory (and everything it closes over:
    censor replicas, network architectures, flow pools) is inherited
    copy-on-write, which is why ``fork`` is the only supported start
    method.
    """

    kind = "fork-pipe"

    def __init__(
        self,
        entry: str,
        factory,
        name_prefix: str = "repro-worker",
        daemon: bool = True,
    ) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "the fork-pipe transport requires the 'fork' start method "
                "(POSIX only): workers inherit censor replicas and network "
                "architectures by copy-on-write instead of pickling"
            )
        self._context = multiprocessing.get_context("fork")
        self._entry = entry
        self._factory = factory
        self._name_prefix = name_prefix
        self._daemon = daemon

    def launch(self, index: int) -> WorkerEndpoint:
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_fork_worker_main,
            args=(child_conn, self._entry, self._factory, index),
            name=f"{self._name_prefix}-{index}",
            daemon=self._daemon,
        )
        process.start()
        # The parent must drop its reference to the child end, otherwise a
        # dead worker never produces EOF on the parent's connection.
        child_conn.close()
        return WorkerEndpoint(
            index=index, transport=ForkPipeTransport(parent_conn), process=process
        )


class RemoteWorkerProcess:
    """Process-like handle for a worker living behind a TCP connection.

    On the local host (loopback worker hosts, the common test/CI case) the
    pid from the handshake is real and signalable, so ``terminate``/
    ``kill``/``join`` behave like their :class:`multiprocessing.Process`
    namesakes.  For genuinely remote workers signals cannot cross hosts:
    ``terminate`` is a no-op (closing the transport is what makes the
    remote child exit) and ``join`` returns immediately.
    """

    def __init__(self, pid: int, host: str, local: bool) -> None:
        self.pid = pid
        self.name = f"repro-remote-worker@{host}:{pid}"
        self._local = local

    def is_alive(self) -> bool:
        if not self._local:
            return True  # unknowable without the socket; assume alive
        try:
            os.kill(self.pid, 0)
        except (ProcessLookupError, PermissionError):
            return False
        return True

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def _signal(self, signum: int) -> None:
        if not self._local:
            return
        try:
            os.kill(self.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def join(self, timeout: Optional[float] = None) -> None:
        if not self._local:
            return
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.is_alive():
            if deadline is not None and time.monotonic() >= deadline:
                return
            time.sleep(0.01)


_LOOPBACK_HOSTS = ("127.0.0.1", "localhost", "::1")


class TcpWorkerPool(WorkerPool):
    """Places workers behind TCP worker hosts.

    ``addresses`` lists ``host:port`` worker-host daemons; worker ``i``
    connects to ``addresses[i % len(addresses)]``, so one driver spreads
    its workers round-robin across however many hosts it was given.  With
    ``addresses=None`` the pool forks a private loopback
    :class:`WorkerHostServer` — the zero-configuration path behind
    ``transport="tcp"`` / ``REPRO_TRANSPORT=tcp``, and the only placement
    that accepts unpicklable factories (they ride the fork, see
    ``_pack_factory``).
    """

    kind = "tcp"

    def __init__(
        self,
        entry: str,
        factory,
        addresses: Optional[Sequence[str]] = None,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        name_prefix: str = "repro-worker",
        daemon: bool = True,  # accepted for pool-interface symmetry; placement is host-side
        connect_timeout: float = 10.0,
    ) -> None:
        del daemon
        if heartbeat_interval is not None and heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive (or None)")
        if heartbeat_timeout is None and heartbeat_interval is not None:
            # Several missed beats, never a hair-trigger on scheduler jitter.
            heartbeat_timeout = max(5.0 * heartbeat_interval, 1.0)
        self._entry = entry
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._name_prefix = name_prefix
        self._connect_timeout = connect_timeout
        self._own_host_process = None
        if addresses is None:
            # Order matters: an inherit-token factory must be registered
            # before the host forks, so the host's children inherit it.
            self._factory_spec = _pack_factory(factory, allow_inherit=True)
            address, self._own_host_process = start_local_worker_host()
            self._addresses = [address]
        else:
            self._factory_spec = _pack_factory(factory, allow_inherit=False)
            self._addresses = [self._normalize_address(a) for a in addresses]
            if not self._addresses:
                raise ValueError("TcpWorkerPool needs at least one host address")

    @staticmethod
    def _normalize_address(address: str) -> str:
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(
                f"bad worker-host address {address!r} (expected 'host:port')"
            )
        return f"{host}:{int(port)}"

    @property
    def addresses(self) -> List[str]:
        return list(self._addresses)

    def launch(self, index: int) -> WorkerEndpoint:
        address = self._addresses[index % len(self._addresses)]
        host, _, port = address.rpartition(":")
        try:
            sock = socket.create_connection(
                (host, int(port)), timeout=self._connect_timeout
            )
        except OSError as error:
            raise TransportError(
                f"cannot reach worker host at {address}: {error}"
            ) from error
        sock.settimeout(None)
        # Handshake runs without a liveness deadline (no heartbeats flow
        # yet); the timeout is armed once the worker is up.
        transport = TcpTransport(sock)
        try:
            transport.send(
                (
                    "hello",
                    self._entry,
                    index,
                    self._factory_spec,
                    {"heartbeat_interval": self._heartbeat_interval},
                )
            )
            reply = transport.recv()
        except TransportError:
            transport.close()
            raise
        if not (isinstance(reply, tuple) and reply and reply[0] == "ready"):
            detail = reply[1] if isinstance(reply, tuple) and len(reply) > 1 else reply
            transport.close()
            raise RuntimeError(
                f"worker host at {address} failed to start worker {index}:\n{detail}"
            )
        _, _, pid = reply
        transport.heartbeat_timeout = self._heartbeat_timeout
        process = RemoteWorkerProcess(
            int(pid), host, local=host in _LOOPBACK_HOSTS or self._own_host_process is not None
        )
        return WorkerEndpoint(index=index, transport=transport, process=process)

    def close(self) -> None:
        if self._own_host_process is not None:
            self._own_host_process.terminate()
            self._own_host_process.join(timeout=5)
            self._own_host_process = None
        if self._factory_spec[0] == "inherit":
            _INHERITED_FACTORIES.pop(self._factory_spec[1], None)


# --------------------------------------------------------------------- #
# Worker host daemon
# --------------------------------------------------------------------- #
def _run_worker_connection(sock: socket.socket) -> None:
    """Run one accepted connection to completion (inside a forked child)."""
    transport = TcpTransport(sock)
    try:
        hello = transport.recv()
    except TransportError:
        transport.close()
        return
    if not (isinstance(hello, tuple) and len(hello) == 5 and hello[0] == "hello"):
        try:
            transport.send(("error", f"bad worker-host handshake: {hello!r}"))
        except TransportError:
            pass
        transport.close()
        return
    _, entry_name, worker_index, factory_spec, options = hello
    try:
        entry = resolve_worker_entrypoint(entry_name)
        factory = _unpack_factory(factory_spec)
    except Exception:
        try:
            transport.send(("error", traceback.format_exc()))
        except TransportError:
            pass
        transport.close()
        return
    transport.heartbeat_interval = options.get("heartbeat_interval")
    try:
        transport.send(("ready", worker_index, os.getpid()))
    except TransportError:
        transport.close()
        return
    entry(transport, factory, int(worker_index))


class WorkerHostServer:
    """TCP daemon forking one worker process per accepted connection.

    The cross-host end of :class:`TcpWorkerPool`: run it on each machine
    that should donate cores (``repro-amoeba worker-host --bind
    0.0.0.0:7070``) and point a driver at it with
    ``transport="tcp://host:7070"``.  Each connection performs the
    ``hello`` handshake (entrypoint name, worker index, factory), is
    answered with ``("ready", index, pid)``, and then serves the ordinary
    command loop until its driver closes the channel or the worker dies.
    Children are plain ``os.fork`` processes — no daemon flags, so nested
    pools (a sweep task sharding its own collection) keep working.
    """

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, accept_timeout: float = 0.2
    ) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(64)
        listener.settimeout(accept_timeout)
        self._listener = listener
        self._stop = False
        self._children: List[int] = []

    @property
    def address(self) -> str:
        host, port = self._listener.getsockname()[:2]
        return f"{host}:{port}"

    def serve_forever(self) -> None:
        try:
            while not self._stop:
                self._reap_children()
                try:
                    sock, _peer = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                pid = os.fork()
                if pid == 0:
                    # Worker child: drop the listener, serve this
                    # connection, and never return into the accept loop.
                    exit_code = 0
                    try:
                        # os.fork keeps the host's multiprocessing config;
                        # if the host itself is a daemon (the auto-started
                        # loopback host), the flag would bar the worker
                        # from nesting its own pools — a sweep task
                        # sharding its collection.  Clear it.
                        multiprocessing.current_process()._config.pop(
                            "daemon", None
                        )
                        self._listener.close()
                        _run_worker_connection(sock)
                    except BaseException:
                        exit_code = 1
                    finally:
                        os._exit(exit_code)
                self._children.append(pid)
                sock.close()
        finally:
            self.close()

    def shutdown(self) -> None:
        self._stop = True

    def close(self) -> None:
        self._stop = True
        try:
            self._listener.close()
        except OSError:
            pass
        self._reap_children()

    def _reap_children(self) -> None:
        still_running: List[int] = []
        for pid in self._children:
            try:
                done_pid, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if done_pid == 0:
                still_running.append(pid)
        self._children = still_running


def _local_worker_host_main(conn) -> None:
    server = WorkerHostServer("127.0.0.1", 0)
    conn.send(server.address)
    conn.close()
    server.serve_forever()


def start_local_worker_host() -> Tuple[str, multiprocessing.Process]:
    """Fork a loopback :class:`WorkerHostServer`; returns (address, process).

    The host is a child of the calling process, so factories registered for
    fork-inheritance *before* this call resolve inside its workers.
    """
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe()
    process = context.Process(
        target=_local_worker_host_main,
        args=(child_conn,),
        name="repro-worker-host",
        daemon=True,
    )
    process.start()
    child_conn.close()
    try:
        address = parent_conn.recv()
    finally:
        parent_conn.close()
    return address, process


# --------------------------------------------------------------------- #
# Transport spec resolution
# --------------------------------------------------------------------- #
def _parse_float_param(params: Dict[str, str], key: str) -> Optional[float]:
    if key not in params:
        return None
    try:
        return float(params[key])
    except ValueError:
        raise ValueError(f"transport parameter {key}={params[key]!r} is not a number")


def _parse_tcp_spec(spec: str) -> Tuple[Optional[List[str]], Dict[str, str]]:
    rest = spec[len("tcp") :]
    if rest.startswith("://"):
        rest = rest[3:]
    query = ""
    if "?" in rest:
        rest, query = rest.split("?", 1)
    addresses = [address for address in rest.split(",") if address] or None
    params: Dict[str, str] = {}
    for item in query.split("&"):
        if not item:
            continue
        key, _, value = item.partition("=")
        params[key] = value
    return addresses, params


def make_worker_pool(
    transport: Union[None, str, WorkerPool],
    entry: str,
    factory,
    name_prefix: str = "repro-worker",
    daemon: bool = True,
) -> WorkerPool:
    """Resolve a transport spec into a :class:`WorkerPool`.

    ``transport`` may be ``None`` (fall back to ``$REPRO_TRANSPORT``, then
    ``"fork"``), a spec string, or an already-built pool:

    * ``"fork"`` — local forked workers over duplex pipes (the default);
    * ``"tcp"`` — a private loopback worker host is forked for this pool;
    * ``"tcp://h1:p1,h2:p2"`` — connect to external worker-host daemons,
      round-robin across the listed addresses;
    * either tcp form takes ``?heartbeat=SECONDS`` and
      ``?heartbeat_timeout=SECONDS`` (also ``$REPRO_TRANSPORT_HEARTBEAT``).
    """
    if isinstance(transport, WorkerPool):
        return transport
    spec = transport
    if spec is None:
        spec = os.environ.get("REPRO_TRANSPORT", "").strip() or "fork"
    if spec == "fork":
        return ForkWorkerPool(entry, factory, name_prefix=name_prefix, daemon=daemon)
    if spec == "tcp" or spec.startswith("tcp://") or spec.startswith("tcp?"):
        addresses, params = _parse_tcp_spec(spec)
        heartbeat_interval = _parse_float_param(params, "heartbeat")
        if heartbeat_interval is None:
            env_beat = os.environ.get("REPRO_TRANSPORT_HEARTBEAT", "").strip()
            heartbeat_interval = float(env_beat) if env_beat else None
        return TcpWorkerPool(
            entry,
            factory,
            addresses=addresses,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=_parse_float_param(params, "heartbeat_timeout"),
            name_prefix=name_prefix,
            daemon=daemon,
        )
    raise ValueError(
        f"unknown transport spec {spec!r} "
        "(expected 'fork', 'tcp', or 'tcp://host:port[,host:port...]')"
    )

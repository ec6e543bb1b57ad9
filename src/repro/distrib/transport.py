"""Worker channel: framed command tuples over pipes to forked workers.

The sharded rollout engine talks to its workers through a byte-oriented
protocol: framed command tuples out, framed reply tuples back, with a
broken channel (not an error reply) as the only signal that the worker
*process* died.  This module holds the channel and the generic worker
loop; the rollout command vocabulary and the fork pool live with their one
driver in :mod:`repro.distrib.sharded`.

:class:`Transport`
    One end of a ``multiprocessing`` duplex pipe to a forked worker.
    ``send``/``recv`` move whole pickled frames; ``send_encoded`` ships a
    pre-serialized frame (so a checkpoint broadcast is serialized once, not
    once per worker); ``poll`` bounds a wait; pipe EOF or a broken pipe
    surfaces as :class:`TransportError`, the single restartable-fault
    signal the engine's recovery path keys on.
:func:`worker_command_loop`
    The worker-side loop over a handler table (``command -> callable
    returning the reply tuple``); unknown-command and error-reply handling
    and close semantics live here, in exactly one place.

Workers are local forks of the driver: nothing is pickled at spawn time
(copy-on-write inheritance), so only frames ever cross the pipe, and both
ends are this program.  The tier moves bytes only — it draws no RNG and
touches no numeric path, so the bit-equivalence ladder is indifferent to
whether a rollout was collected in-process or by workers.  A frame is the
bare pickled command or reply tuple and nothing else.
"""

from __future__ import annotations

import pickle
import traceback
from typing import Callable, Dict

__all__ = [
    "TransportError",
    "Transport",
    "worker_command_loop",
    "encode_message",
    "decode_message",
]

# Raw pipe faults, normalised to TransportError.
_CHANNEL_ERRORS = (EOFError, BrokenPipeError, ConnectionResetError, OSError)


class TransportError(ConnectionError):
    """The peer's channel broke: the worker process died or closed its end.

    This is the *restartable-fault* signal of the distributed tier — the
    sharded engine answers it with snapshot-restore + log replay.  Worker
    *bugs* never raise it; they come back as ordinary ``("error",
    traceback)`` replies.
    """


def encode_message(message: tuple) -> bytes:
    """Serialize one command/reply tuple to a frame payload."""
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def decode_message(frame: bytes) -> tuple:
    """Inverse of :func:`encode_message`."""
    return pickle.loads(frame)


# --------------------------------------------------------------------- #
# The channel
# --------------------------------------------------------------------- #
class Transport:
    """One end of a ``multiprocessing`` duplex pipe, moving framed tuples.

    EOF on the pipe — the peer process died — and a broken pipe are the
    restartable-fault signal: both raise :class:`TransportError`.
    """

    def __init__(self, conn) -> None:
        self._conn = conn
        self._closed = False

    def send(self, message: tuple) -> None:
        """Serialize and ship one message tuple."""
        self.send_encoded(encode_message(message))

    def send_encoded(self, frame: bytes) -> None:
        """Ship an already-serialized frame (see engine broadcast reuse)."""
        try:
            self._conn.send_bytes(frame)
        except _CHANNEL_ERRORS as error:
            raise TransportError(f"pipe peer is gone: {error}") from error

    def recv(self) -> tuple:
        """Block for the next message tuple; :class:`TransportError` on a
        broken channel."""
        try:
            frame = self._conn.recv_bytes()
        except _CHANNEL_ERRORS as error:
            raise TransportError(f"pipe peer is gone: {error}") from error
        return decode_message(frame)

    def poll(self, timeout: float = 0.0) -> bool:
        """True when a frame (or EOF) is ready within ``timeout`` seconds."""
        try:
            return self._conn.poll(timeout)
        except _CHANNEL_ERRORS:
            return True  # EOF counts as readable: recv() will raise promptly

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.close()
        except OSError:
            pass


# --------------------------------------------------------------------- #
# The one worker-side command loop
# --------------------------------------------------------------------- #
def worker_command_loop(
    transport: Transport, handlers: Dict[str, Callable[..., tuple]]
) -> None:
    """Serve framed commands until the channel breaks or ``close`` arrives.

    ``handlers`` maps a command name to ``handler(*payload) -> reply
    tuple``; the message's trailing elements are the payload.  The loop
    owns everything a worker's handler table would otherwise duplicate:

    * a raising handler is answered with ``("error", traceback)`` so the
      driver re-raises it — worker bugs are deterministic, never retried;
    * a broken channel (driver gone) exits the loop; a broken channel
      while replying likewise — there is nobody left to answer;
    * ``close`` answers ``("ok", None)`` and exits;
    * any other command without a handler is answered with an
      ``("error", "unknown worker command …")`` reply, and the loop keeps
      serving.
    """
    try:
        while True:
            try:
                message = transport.recv()
            except TransportError:
                break
            command = message[0]
            if command == "close":
                try:
                    transport.send(("ok", None))
                except TransportError:
                    pass
                break
            handler = handlers.get(command)
            try:
                if handler is None:
                    transport.send(("error", f"unknown worker command {command!r}"))
                    continue
                transport.send(handler(*message[1:]))
            except TransportError:
                break
            except Exception:
                try:
                    transport.send(("error", traceback.format_exc()))
                except TransportError:
                    break
    finally:
        transport.close()

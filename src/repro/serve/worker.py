"""Serving worker: handler table around a :class:`PolicyServer`.

Same shared framed protocol as :mod:`repro.distrib.worker` — the loop
itself lives in :func:`repro.distrib.transport.worker_command_loop`; this
module supplies the serving command table:

=================== =========================== ===========================
command             payload                     reply
=================== =========================== ===========================
``open``            (session_id, kwargs)        ``("ok", None)``
``submit_many``     [(sid, size, delay), ...]   ``("result", n_decisions)``
``poll``            —                           ``("result", n_decisions)``
``drain``           —                           ``("result", n_decisions)``
``close_session``   session_id                  ``("result", SessionReport)``
``stats``           —                           ``("result", stats dict)``
``close``           —                           ``("ok", None)``, then exit
=================== =========================== ===========================

Per-worker serving telemetry is folded through the transport loop's
``__telemetry__`` control frame, which never touches session state.

Exceptions inside a command come back as ``("error", traceback)`` so the
driver can re-raise them.  Unlike the rollout tier, serving sessions hold
live connection state that cannot be replayed from a seed tree, so a dead
serving worker — whatever transport carried it — is a hard error rather
than a restartable fault: the driver surfaces it and the operator's load
balancer is expected to re-open the affected flows elsewhere.
"""

from __future__ import annotations

from typing import Callable, Dict

from ..distrib.transport import Transport, factory_worker_entry

__all__ = ["serve_handlers", "serve_worker_entry"]


def serve_handlers(server) -> Dict[str, Callable[..., tuple]]:
    """The serving command table over one :class:`PolicyServer`."""

    def open_session(session_id: str, kwargs: dict) -> tuple:
        server.open_session(session_id, **kwargs)
        return ("ok", None)

    def submit_many(frame) -> tuple:
        for session_id, size, delay_ms in frame:
            server.submit(session_id, size, delay_ms)
        # The outbox is the single counting source: every command drains it,
        # so each decision is reported exactly once even though flush() both
        # returns decisions and outboxes them.
        return ("result", len(server.take_decisions()))

    def poll() -> tuple:
        server.poll()
        return ("result", len(server.take_decisions()))

    def drain() -> tuple:
        server.drain()
        return ("result", len(server.take_decisions()))

    def close_session(session_id: str) -> tuple:
        return ("result", server.close_session(session_id))

    def stats() -> tuple:
        return ("result", server.stats())

    return {
        "open": open_session,
        "submit_many": submit_many,
        "poll": poll,
        "drain": drain,
        "close_session": close_session,
        "stats": stats,
    }


def serve_worker_entry(
    transport: Transport, server_factory: Callable[[int], object], worker_index: int
) -> None:
    """Transport-agnostic entry point of a serving worker."""
    factory_worker_entry(transport, server_factory, worker_index, serve_handlers)

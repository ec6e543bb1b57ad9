"""Continuous-batching scheduler for per-packet policy decisions.

vLLM-style dynamic batching for the serving tier: pending decision requests
from many flow sessions coalesce into single ``act_batch`` forwards.  A
flush happens when the queue reaches ``max_batch`` or the oldest pending
request has waited ``flush_timeout_ms`` (whichever first); sessions whose
packets arrive mid-flight simply join the next batch, so the batch
composition changes continuously with the arrival process.

The scheduler is deliberately policy-free: it only decides *when* to flush
and *which* requests form the batch.  Because all policy and encoder
forwards multiply on the row-consistent :mod:`repro.nn.backend` kernel, a session's
decisions are bit-identical regardless of which batch its requests land in
— ``max_batch=1`` degenerates to the sequential one-session-at-a-time
reference path (``tests/test_serve.py::TestBatchingInvariants`` holds
every batch size to it; ``examples/serve_policy.py`` prints both rates).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional

from ..utils.validation import check_non_negative

__all__ = ["DecisionRequest", "ContinuousBatchScheduler"]


class DecisionRequest(NamedTuple):
    """One pending per-packet decision for one session (a light immutable
    record: the server builds one per decision)."""

    session_id: str
    enqueued_at: float  # server-clock seconds, for latency / timeout tracking


class ContinuousBatchScheduler:
    """FIFO request queue with batch-size and timeout flush triggers.

    Invariants:

    * at most one pending request per session (a follow-up truncation
      decision is only created once the previous decision was applied) —
      the queue does not check it; :meth:`PolicyServer.flush
      <repro.serve.server.PolicyServer.flush>` does, per batch;
    * requests are served strictly FIFO, so a session's decisions happen in
      arrival order and no session starves;
    * ``take_batch`` never returns more than ``max_batch`` requests.
    """

    def __init__(self, max_batch: int = 16, flush_timeout_ms: float = 2.0) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = int(max_batch)
        self.flush_timeout_ms = check_non_negative(flush_timeout_ms, "flush_timeout_ms")
        self._queue: Deque[DecisionRequest] = deque()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def pending(self) -> int:
        return len(self._queue)

    def submit(self, request: DecisionRequest) -> None:
        self._queue.append(request)

    def oldest_age_ms(self, now: float) -> Optional[float]:
        """Age of the oldest pending request, or None when queue is empty."""
        if not self._queue:
            return None
        return (now - self._queue[0].enqueued_at) * 1000.0

    def ready(self, now: float) -> bool:
        """Should the server flush? (full batch, or the oldest waited enough)."""
        if not self._queue:
            return False
        if len(self._queue) >= self.max_batch:
            return True
        age = self.oldest_age_ms(now)
        return age is not None and age >= self.flush_timeout_ms

    def take_batch(self) -> List[DecisionRequest]:
        """Pop up to ``max_batch`` requests, FIFO."""
        popleft = self._queue.popleft
        return [popleft() for _ in range(min(len(self._queue), self.max_batch))]

    def put_back(self, batch: List[DecisionRequest]) -> None:
        """Undo a :meth:`take_batch`: ``batch`` returns to the front of the
        queue in its order (a flush that could not commit)."""
        self._queue.extendleft(reversed(batch))

    def drop_session(self, session_id: str) -> int:
        """Remove pending requests of a session (demotion / close); returns count."""
        kept = [request for request in self._queue if request.session_id != session_id]
        dropped = len(self._queue) - len(kept)
        if dropped:
            self._queue = deque(kept)
        return dropped

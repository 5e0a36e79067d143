"""Admission control — bounded concurrency, bounded waiting, fast reject.

The serving layer must not let a traffic burst queue unboundedly inside
the process: every queued request pins memory and pushes every later
request's latency out, until the service is slow for everyone and fast
for no one.  :class:`AdmissionController` enforces the standard
production discipline instead:

* at most ``max_inflight`` requests execute concurrently;
* at most ``max_waiting`` more may wait for a slot (FIFO);
* anything beyond that is **fast-rejected** with
  :class:`~repro.errors.AdmissionRejected` — a few microseconds of work
  and a ``Retry-After`` hint, instead of minutes of doomed queueing;
* a waiter whose deadline passes while queued fails with
  :class:`~repro.errors.DeadlineExceeded` and frees its queue slot;
* a waiter cancelled while queued (client disconnect) frees its slot —
  and if the slot was handed over in the same event-loop step, hands it
  straight back, so cancellation can never leak capacity.

The controller is event-loop-confined (no locks): every mutation
happens on the loop thread, which is exactly the asyncio serving model.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

from ..errors import AdmissionRejected, DeadlineExceeded

__all__ = ["AdmissionController", "AdmissionSnapshot"]


@dataclass(frozen=True)
class AdmissionSnapshot:
    """One consistent read of the controller's state and counters.

    ``admitted``/``rejected``/``timed_out``/``cancelled`` partition
    every :meth:`AdmissionController.acquire` call that has finished;
    ``released`` counts completed requests, so
    ``admitted - released == inflight`` whenever the loop is quiet —
    the accounting identity the regression gate checks.
    """

    inflight: int
    waiting: int
    max_inflight: int
    max_waiting: int
    admitted: int
    rejected: int
    timed_out: int
    cancelled: int
    released: int
    peak_waiting: int

    @property
    def pressure(self) -> float:
        """Wait-queue occupancy in [0, 1] — the degradation signal."""
        if self.max_waiting <= 0:
            return 1.0 if self.waiting else 0.0
        return self.waiting / self.max_waiting


class AdmissionController:
    """Bounded in-flight slots plus a bounded FIFO wait queue."""

    def __init__(
        self,
        max_inflight: int,
        max_waiting: int,
        *,
        retry_after: float = 0.05,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_waiting < 0:
            raise ValueError(f"max_waiting must be >= 0, got {max_waiting}")
        if retry_after <= 0:
            raise ValueError(f"retry_after must be > 0, got {retry_after}")
        self.max_inflight = max_inflight
        self.max_waiting = max_waiting
        self.retry_after = retry_after
        self._inflight = 0
        self._waiters: deque[asyncio.Future] = deque()
        self.admitted = 0
        self.rejected = 0
        self.timed_out = 0
        self.cancelled = 0
        self.released = 0
        self.peak_waiting = 0

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def waiting(self) -> int:
        return len(self._waiters)

    def snapshot(self) -> AdmissionSnapshot:
        return AdmissionSnapshot(
            inflight=self._inflight,
            waiting=len(self._waiters),
            max_inflight=self.max_inflight,
            max_waiting=self.max_waiting,
            admitted=self.admitted,
            rejected=self.rejected,
            timed_out=self.timed_out,
            cancelled=self.cancelled,
            released=self.released,
            peak_waiting=self.peak_waiting,
        )

    # ------------------------------------------------------------------
    # the slot protocol
    # ------------------------------------------------------------------
    async def acquire(self, deadline: float | None = None) -> None:
        """Take one in-flight slot, waiting (bounded) if none is free.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp.
        Raises :class:`~repro.errors.AdmissionRejected` when the wait
        queue is already full (the fast rejection — no time is spent
        queueing) and :class:`~repro.errors.DeadlineExceeded` when the
        budget runs out while queued.  On success the caller owns one
        slot and must :meth:`release` it exactly once.
        """
        if self._inflight < self.max_inflight and not self._waiters:
            self._inflight += 1
            self.admitted += 1
            return
        if len(self._waiters) >= self.max_waiting:
            self.rejected += 1
            raise AdmissionRejected(
                f"at capacity: {self._inflight}/{self.max_inflight} in "
                f"flight, {len(self._waiters)}/{self.max_waiting} waiting",
                retry_after=self.retry_after,
            )
        slot: asyncio.Future = asyncio.get_running_loop().create_future()
        self._waiters.append(slot)
        self.peak_waiting = max(self.peak_waiting, len(self._waiters))
        timeout = (
            None if deadline is None else deadline - time.monotonic()
        )
        try:
            await asyncio.wait_for(slot, timeout)
        except asyncio.TimeoutError:
            self._discard(slot)
            self.timed_out += 1
            raise DeadlineExceeded(
                "deadline expired while queued for admission"
            ) from None
        except asyncio.CancelledError:
            self._discard(slot)
            self.cancelled += 1
            if slot.done() and not slot.cancelled():
                # The slot was handed over in the same loop step the
                # caller was cancelled — give it to the next waiter (or
                # back to the free pool) instead of leaking it.
                self._handover()
            raise
        else:
            # The releaser transferred its slot: _inflight stays put.
            self.admitted += 1

    def release(self) -> None:
        """Return a slot; hands it to the oldest live waiter if any."""
        self.released += 1
        self._handover()

    def _handover(self) -> None:
        while self._waiters:
            slot = self._waiters.popleft()
            if not slot.done():
                slot.set_result(None)
                return
        if self._inflight > 0:
            self._inflight -= 1

    def _discard(self, slot: asyncio.Future) -> None:
        try:
            self._waiters.remove(slot)
        except ValueError:
            pass

    def drain_waiters(self, exc: BaseException) -> int:
        """Fail every queued waiter (service shutdown); returns count."""
        drained = 0
        while self._waiters:
            slot = self._waiters.popleft()
            if not slot.done():
                slot.set_exception(exc)
                drained += 1
        return drained

"""Request admission: a bounded queue in front of a fixed worker pool.

The service must degrade predictably under load — the partitioned-serving
architectures this layer follows (admission control in front of shared
warm state) reject overload at the door instead of queueing unboundedly.
Concretely:

* at most ``workers`` requests execute concurrently;
* at most ``max_pending`` admitted requests wait in the queue;
* a submission beyond that fails *immediately* with :class:`BusyError` — the
  caller gets a clean ``busy`` response, never a hang;
* :meth:`AdmissionQueue.shutdown` stops admitting, lets every already-admitted
  request finish (the graceful drain), then joins the workers.

Tickets are the completion handles: the connection thread that admitted a
request blocks on its ticket while the worker pool executes it.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Optional

from ..faults import fault_point

__all__ = ["BusyError", "ShuttingDownError", "Ticket", "AdmissionQueue"]


class BusyError(RuntimeError):
    """The admission queue is full; the request was rejected, not queued."""


class ShuttingDownError(RuntimeError):
    """The service no longer admits requests (shutdown in progress)."""


class Ticket:
    """Completion handle of one admitted request."""

    def __init__(self, fn: Callable[[], Any]) -> None:
        self._fn = fn
        self._done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        try:
            self.value = self._fn()
        except BaseException as exc:  # noqa: BLE001 — delivered to the waiter
            self.error = exc
        finally:
            self._done.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the request completed; ``False`` on timeout."""
        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()


class AdmissionQueue:
    """Bounded work queue executed by a fixed set of worker threads."""

    def __init__(self, max_pending: int = 64, workers: int = 4) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.max_pending = max_pending
        self.workers = workers
        self._queue: "queue.Queue[Optional[Ticket]]" = queue.Queue(maxsize=max_pending)
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._closed = False
        self._started = False
        self._in_flight = 0
        self.admitted = 0
        self.rejected = 0
        self.executed = 0
        self.worker_respawns = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._started:
                return
            self._started = True
            self._threads = [
                threading.Thread(target=self._worker_loop, name=f"serve-worker-{i}", daemon=True)
                for i in range(self.workers)
            ]
        for t in self._threads:
            t.start()

    def shutdown(self) -> None:
        """Stop admitting, drain every admitted request, join the workers.

        Sentinels are enqueued *behind* the pending tickets, so workers finish
        everything that was admitted before exiting — the graceful part.
        Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            started = self._started
        if not started:
            return
        for _ in self._threads:
            # The queue is bounded and may be full of pending tickets; a
            # blocking put preserves FIFO order (sentinel after the drain).
            self._queue.put(None)
        for t in self._threads:
            t.join()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[[], Any]) -> Ticket:
        """Admit one request; raises instead of blocking when it cannot."""
        with self._lock:
            if self._closed:
                raise ShuttingDownError("the service is shutting down")
            if not self._started:
                raise RuntimeError("AdmissionQueue.submit before start()")
            ticket = Ticket(fn)
            try:
                self._queue.put_nowait(ticket)
            except queue.Full:
                self.rejected += 1
                raise BusyError(
                    f"admission queue full ({self.max_pending} pending)"
                ) from None
            self.admitted += 1
            return ticket

    @property
    def in_flight(self) -> int:
        """Requests currently executing (not counting the queued ones)."""
        with self._lock:
            return self._in_flight

    @property
    def pending(self) -> int:
        """Admitted requests not yet picked up by a worker."""
        return self._queue.qsize()

    @property
    def alive_workers(self) -> int:
        """Worker threads currently alive."""
        with self._lock:
            return sum(1 for t in self._threads if t.is_alive())

    def respawn_dead(self) -> int:
        """Replace dead worker threads with fresh ones; returns how many.

        A worker thread can only die abnormally (an exception escaping the
        loop — in practice injected by the fault plane, or a bug).  The
        server's supervisor calls this periodically so a lost worker costs
        one ticket, not a permanent slot of the executor.
        """
        with self._lock:
            if self._closed or not self._started:
                return 0
            dead = [i for i, t in enumerate(self._threads) if not t.is_alive()]
            fresh = []
            for i in dead:
                t = threading.Thread(
                    target=self._worker_loop, name=f"serve-worker-{i}r", daemon=True
                )
                self._threads[i] = t
                fresh.append(t)
            self.worker_respawns += len(fresh)
        for t in fresh:
            t.start()
        return len(fresh)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "admitted": self.admitted,
                "rejected": self.rejected,
                "executed": self.executed,
                "in_flight": self._in_flight,
                "pending": self._queue.qsize(),
                "workers_alive": sum(1 for t in self._threads if t.is_alive()),
                "worker_respawns": self.worker_respawns,
            }

    # ------------------------------------------------------------------
    # workers
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is None:
                return
            try:
                fault_point("serve.worker")
            except BaseException as exc:
                # The injected failure stands in for a crashing worker
                # thread: fail the picked-up ticket (its waiter gets an
                # error, not a hang) and let the thread die — the
                # server's supervisor respawns it.
                ticket.error = exc
                ticket._done.set()
                return
            with self._lock:
                self._in_flight += 1
            try:
                ticket.run()
            finally:
                with self._lock:
                    self._in_flight -= 1
                    self.executed += 1

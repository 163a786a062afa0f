"""MPI-like message-passing communicators: the shared machinery and its threaded endpoint.

The paper's experiments ran on the Firefly cluster with a distributed-memory
MPI implementation.  That substrate is unavailable offline, so this module
provides faithful *functional* replacements with MPI-style ``(source, tag)``
matching and mpi4py lower-case semantics (pickle-able Python objects,
buffered ``send`` and blocking ``recv``) — the two operations both parallel
chordal samplers use:

:class:`SimCommWorld` / :class:`SimComm`
    one Python thread per rank, messages through in-process per-rank
    mailboxes (``queue.Queue``) — zero start-up cost, GIL-bound compute;
:class:`~repro.parallel.sock.SockComm`
    the same endpoint API inside a resident worker process, messages routed
    as TCP frames through the socket hub, so communicating rank functions
    execute on real cores.  Built by every ``process*`` backend of
    :func:`repro.parallel.runner.run_spmd`.

Both share the matching implementation (:class:`_MessagingComm`);
only the transport primitives differ.  Every communicator records how many
messages and how many payload items it sent; the scalability cost model
consumes those counters to reproduce the shape of the paper's Figure 10
without real network hardware.
"""

from __future__ import annotations

import os
import queue
from dataclasses import dataclass
from typing import Any

from ..faults import fault_point

__all__ = [
    "CommStats",
    "SimCommWorld",
    "SimComm",
    "ANY_SOURCE",
    "ANY_TAG",
    "watchdog_poll",
]

#: Wildcard source rank for :meth:`SimComm.recv`.
ANY_SOURCE = -1
#: Wildcard tag for :meth:`SimComm.recv`.
ANY_TAG = -1


def watchdog_poll() -> float:
    """Poll period (seconds) of the dead-worker watchdog loops.

    The socket hub wakes at this cadence to check for workers that died
    without reporting.  Configurable via the
    ``REPRO_WATCHDOG_POLL`` environment variable (default 1.0s, floor 10ms)
    — tests that provoke dead ranks lower it so failure detection does not
    dominate their runtime.
    """
    raw = os.environ.get("REPRO_WATCHDOG_POLL")
    if raw:
        try:
            return max(0.01, float(raw))
        except ValueError:
            pass
    return 1.0


def _payload_items(obj: Any) -> int:
    """Best-effort size of a message payload in 'items' (edges, vertices, ...)."""
    try:
        return max(1, len(obj))  # type: ignore[arg-type]
    except TypeError:
        return 1


@dataclass
class CommStats:
    """Per-rank communication counters.

    ``bytes_sent`` / ``bytes_received`` count real transport bytes where the
    transport actually frames them (the socket transport); the threaded
    transport never serializes a message, so it leaves them at zero.
    """

    messages_sent: int = 0
    messages_received: int = 0
    items_sent: int = 0
    items_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0

    def merge(self, other: "CommStats") -> "CommStats":
        """Return element-wise sums of two counter sets."""
        return CommStats(
            messages_sent=self.messages_sent + other.messages_sent,
            messages_received=self.messages_received + other.messages_received,
            items_sent=self.items_sent + other.items_sent,
            items_received=self.items_received + other.items_received,
            bytes_sent=self.bytes_sent + other.bytes_sent,
            bytes_received=self.bytes_received + other.bytes_received,
        )

    def as_dict(self) -> dict[str, int]:
        """Plain-dict form (serve stats, result ``extra`` payloads)."""
        return {
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "items_sent": self.items_sent,
            "items_received": self.items_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


@dataclass
class _Message:
    source: int
    tag: int
    payload: Any


class SimCommWorld:
    """Shared state for a group of :class:`SimComm` endpoints.

    A world owns one mailbox per rank and the global communication
    statistics.  Create one world per SPMD execution; ranks must not be
    reused across concurrent executions.
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        self.size = size
        self._mailboxes: list[queue.Queue[_Message]] = [queue.Queue() for _ in range(size)]
        self._unmatched: list[list[_Message]] = [[] for _ in range(size)]
        self.stats: list[CommStats] = [CommStats() for _ in range(size)]

    def comm(self, rank: int) -> "SimComm":
        """Return the communicator endpoint for ``rank``."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range for size {self.size}")
        return SimComm(rank, self)

    def total_stats(self) -> CommStats:
        """Return the sum of all per-rank counters."""
        total = CommStats()
        for s in self.stats:
            total = total.merge(s)
        return total


class _MessagingComm:
    """Shared matching machinery of the rank endpoints.

    Subclasses supply the transport: :meth:`_put` (deliver a message to a
    destination rank), :meth:`_get` (pull the next message addressed to this
    rank, blocking up to a timeout) and :meth:`_pending` (this rank's
    out-of-order buffer).  Everything above those three primitives —
    ``(source, tag)`` matching and statistics — is identical across the
    threaded and the socket communicator.
    """

    #: Default timeout (seconds) for blocking receives; generous but finite so a
    #: protocol bug surfaces as an error instead of a hung test-suite.
    #: Overridable per endpoint (``recv_timeout`` constructor argument of the
    #: socket communicator) or process-wide via ``REPRO_COMM_TIMEOUT``.
    RECV_TIMEOUT = 60.0

    rank: int

    @property
    def recv_timeout(self) -> float:
        """Effective blocking-receive timeout of this endpoint.

        Resolution order: explicit ``recv_timeout`` constructor argument,
        then the ``REPRO_COMM_TIMEOUT`` environment variable (spawned worker
        processes inherit the environment, so one export covers the whole
        world), then the class default :attr:`RECV_TIMEOUT`.
        """
        explicit = getattr(self, "_recv_timeout", None)
        if explicit is not None:
            return explicit
        env = os.environ.get("REPRO_COMM_TIMEOUT")
        if env:
            try:
                return float(env)
            except ValueError:
                pass
        return self.RECV_TIMEOUT

    @property
    def size(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def stats(self) -> CommStats:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- transport primitives (subclass responsibility) -----------------
    def _put(self, dest: int, msg: _Message) -> None:
        raise NotImplementedError

    def _get(self, timeout: float) -> _Message:
        raise NotImplementedError

    def _pending(self) -> list[_Message]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Send ``obj`` to rank ``dest`` with ``tag`` (buffered, never blocks)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"destination rank {dest} out of range")
        fault_point("comm.send", rank=self.rank, dest=dest, tag=tag)
        self.stats.messages_sent += 1
        self.stats.items_sent += _payload_items(obj)
        self._put(dest, _Message(self.rank, tag, obj))

    # mpi4py-compatible alias: buffered sends make isend identical to send here.
    isend = send

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Receive one message matching ``(source, tag)``; blocks until available."""
        fault_point("comm.recv", rank=self.rank, source=source, tag=tag)
        matched = self._take_matching(source, tag)
        self.stats.messages_received += 1
        self.stats.items_received += _payload_items(matched.payload)
        return matched.payload

    def _take_matching(self, source: int, tag: int) -> _Message:
        def matches(msg: _Message) -> bool:
            return (source == ANY_SOURCE or msg.source == source) and (
                tag == ANY_TAG or msg.tag == tag
            )

        pending = self._pending()
        for i, msg in enumerate(pending):
            if matches(msg):
                return pending.pop(i)
        while True:
            try:
                msg = self._get(timeout=self.recv_timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"rank {self.rank}: no message matching source={source} tag={tag} "
                    f"arrived within {self.recv_timeout}s — likely a protocol deadlock"
                ) from None
            if matches(msg):
                return msg
            pending.append(msg)


class SimComm(_MessagingComm):
    """The per-rank endpoint of a :class:`SimCommWorld` (threaded backend).

    The API mimics mpi4py's pickle-based methods; see the module docstring.
    State (mailboxes, unmatched buffers, statistics) lives in the world, so
    endpoints are cheap throwaway handles.
    """

    def __init__(self, rank: int, world: SimCommWorld) -> None:
        self.rank = rank
        self.world = world

    @property
    def size(self) -> int:
        return self.world.size

    @property
    def stats(self) -> CommStats:
        return self.world.stats[self.rank]

    def _put(self, dest: int, msg: _Message) -> None:
        self.world._mailboxes[dest].put(msg)

    def _get(self, timeout: float) -> _Message:
        return self.world._mailboxes[self.rank].get(timeout=timeout)

    def _pending(self) -> list[_Message]:
        return self.world._unmatched[self.rank]

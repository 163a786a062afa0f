"""Resident socket workers — the one transport of every ``process*`` backend.

The paper's experiments ran on a distributed-memory cluster.  This module
is the runtime's local stand-in for it: the
:class:`~repro.parallel.comm._MessagingComm` matching machinery
(:class:`SockComm` is a sibling of ``SimComm``) over length-prefixed pickle
frames on local socket pairs, in a hub-and-spokes topology:

* the parent process runs a :class:`SockWorkerPool` **hub**: it spawns each
  worker with one end of a fresh :func:`socket.socketpair` and *routes*
  every rank-to-rank message through itself — workers never talk to each
  other directly, so a worker needs exactly one connection no matter the
  world size;
* each **worker** (:class:`_Worker`) is a resident rank executor: it
  announces itself with a hello, then serves SPMD rounds and map tasks
  until told to shut down, so only the first call in a process pays
  interpreter bring-up.

:func:`repro.parallel.runner.run_spmd` and
:func:`~repro.parallel.runner.parallel_map` run ``process`` and its aliases
``process-sock`` and ``process-shm`` on the one hub returned by
:func:`get_sock_pool`; rank payloads and results travel pickled.

Trust model: frames are pickled, and unpickling attacker bytes is arbitrary
code execution.  The hub never listens: every connection is an unnamed
socket pair that the parent creates and hands to the child it spawns, so no
other process can reach the pickle stream, and no handshake is needed.

Failure taxonomy: a worker that dies mid-round surfaces as
:class:`~repro.parallel.runner.DeadRankError` (retryable — the round is a
deterministic unit), mid-map as
:class:`~repro.parallel.runner.WorkerPoolError`; bring-up failures (a new
worker that closes its connection before its hello, or sends none within
:data:`HELLO_TIMEOUT`) raise ``OSError`` and are degradable down the
backend ladder.  Fault sites: ``pool.spawn`` (hub creation and every worker
spawn), ``pool.dispatch`` (each map scatter, supports ``kill_task``),
``comm.connect`` (a worker starting on its connection), ``sock.send`` /
``sock.recv`` (every frame crossing a socket).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import pickle
import queue
import signal
import socket
import struct
import threading
import time
import traceback
from typing import Any, Callable, Iterable, Optional, Sequence

from ..faults import current_plan, fault_point
from .comm import CommStats, _Message, _MessagingComm, watchdog_poll

__all__ = [
    "SockComm",
    "SockWorkerPool",
    "get_sock_pool",
    "shutdown_sock_pool",
    "sock_pool_size",
]

#: Frame header: 8-byte big-endian payload length.
_LEN = struct.Struct(">Q")

#: How long a newly spawned worker has to send its hello before bring-up
#: fails with ``OSError``.
HELLO_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def _send_frame(
    sock_obj: socket.socket,
    obj: Any,
    lock: Optional[threading.Lock] = None,
    raw: Optional[bytes] = None,
) -> int:
    """Pickle ``obj`` (or reuse ``raw``) and write one length-prefixed frame."""
    blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL) if raw is None else raw
    fault_point("sock.send", nbytes=len(blob))
    data = _LEN.pack(len(blob)) + blob
    if lock is None:
        sock_obj.sendall(data)
    else:
        with lock:
            sock_obj.sendall(data)
    return len(blob)


def _recv_exact(sock_obj: socket.socket, n: int) -> bytes:
    parts: list[bytes] = []
    while n:
        chunk = sock_obj.recv(min(n, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        parts.append(chunk)
        n -= len(chunk)
    return b"".join(parts)


def _recv_frame(sock_obj: socket.socket) -> tuple[Any, bytes]:
    """Read one frame; returns ``(object, raw bytes)`` so routers can forward
    the exact wire bytes without a re-pickling pass."""
    (length,) = _LEN.unpack(_recv_exact(sock_obj, _LEN.size))
    blob = _recv_exact(sock_obj, length)
    fault_point("sock.recv", nbytes=length)
    return pickle.loads(blob), blob


def _close_quietly(sock_obj: socket.socket) -> None:
    try:
        sock_obj.close()
    except OSError:  # pragma: no cover - defensive
        pass


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class SockComm(_MessagingComm):
    """A rank endpoint whose transport is the worker's hub connection.

    Lives inside a worker process for the duration of one SPMD round.  All
    three transport primitives route through the worker's single socket (via
    the hub), and — uniquely among the communicators — real wire bytes are
    counted into ``bytes_sent`` / ``bytes_received``, because the transport
    actually frames them.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        channel: "_RoundChannel",
        recv_timeout: Optional[float] = None,
    ) -> None:
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self._size = size
        self._chan = channel
        self._stats = CommStats()
        self._unmatched: list[_Message] = []
        self._recv_timeout = None if recv_timeout is None else float(recv_timeout)

    @property
    def size(self) -> int:
        return self._size

    @property
    def stats(self) -> CommStats:
        return self._stats

    def _put(self, dest: int, msg: _Message) -> None:
        self._stats.bytes_sent += self._chan.send_msg(dest, msg)

    def _get(self, timeout: float) -> _Message:
        msg, nbytes = self._chan.get_msg(timeout)
        self._stats.bytes_received += nbytes
        return msg

    def _pending(self) -> list[_Message]:
        return self._unmatched


#: Queued into a round's message queue when the hub aborts the round; every
#: later receive of that round raises.
_ABORTED = object()


class _RoundChannel:
    """One SPMD round's view of a worker's hub connection."""

    def __init__(self, worker: "_Worker", round_id: int, rank: int) -> None:
        self._worker = worker
        self._round_id = round_id
        self._rank = rank
        self._msgs = worker.round_queue(round_id)

    def send_msg(self, dest: int, msg: _Message) -> int:
        return self._worker.send(
            ("msg", self._round_id, dest, msg.source, msg.tag, msg.payload)
        )

    def get_msg(self, timeout: float) -> tuple[_Message, int]:
        # queue.Empty propagates: _MessagingComm converts it to its timeout error.
        item = self._msgs.get(timeout=timeout)
        if item is _ABORTED:
            self._msgs.put(item)  # keep the round poisoned for every later call
            raise RuntimeError(
                f"rank {self._rank}: SPMD round {self._round_id} was aborted by "
                f"the hub (a peer rank failed)"
            )
        return item


class _Worker:
    """A resident rank executor: one hub connection, one reader thread.

    The reader thread owns the socket's receive side and dispatches frames:
    control frames (``spmd`` / ``task`` / ``shutdown``) into the control
    queue consumed by :meth:`run`, routed ``msg`` frames into per-round
    queues keyed by the hub-assigned round id — so a message forwarded for a
    round this worker has not *started* yet is buffered, not lost, and a
    straggler frame from a finished round cannot contaminate the current
    one.  An ``abort`` frame poisons a round's
    queue, so a rank blocked on a failed peer raises instead of waiting
    out its receive timeout.
    """

    def __init__(self, sock_obj: socket.socket) -> None:
        fault_point("comm.connect")
        self._sock = sock_obj
        self._send_lock = threading.Lock()
        self._ctl: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()
        self._rounds: dict[int, queue.Queue] = {}
        self._rounds_lock = threading.Lock()
        self._reader = threading.Thread(target=self._read_loop, name="sock-reader", daemon=True)
        self._reader.start()

    def send(self, obj: Any) -> int:
        return _send_frame(self._sock, obj, self._send_lock)

    def round_queue(self, round_id: int) -> queue.Queue:
        with self._rounds_lock:
            if round_id not in self._rounds:
                self._rounds[round_id] = queue.Queue()
            return self._rounds[round_id]

    def _drop_rounds_upto(self, round_id: int) -> None:
        with self._rounds_lock:
            for rid in [r for r in self._rounds if r <= round_id]:
                del self._rounds[rid]

    def _read_loop(self) -> None:
        try:
            while True:
                frame, raw = _recv_frame(self._sock)
                kind = frame[0]
                if kind == "msg":
                    _, rid, _dest, src, tag, payload = frame
                    self.round_queue(rid).put((_Message(src, tag, payload), len(raw)))
                elif kind == "abort":
                    # Release a rank blocked on a peer that failed, so this
                    # worker can serve the next round.
                    self.round_queue(frame[1]).put(_ABORTED)
                else:
                    self._ctl.put(frame)
        except Exception:
            # Any transport/deserialization failure is fatal for this worker:
            # a length-prefixed stream cannot carry a per-frame error reply
            # (the frame's round id may itself be unreadable), so close and
            # let the hub observe the EOF as a dead rank.
            _close_quietly(self._sock)
            self._ctl.put(("shutdown",))

    def run(self) -> None:
        try:
            self.send(("hello", os.getpid()))
        except OSError:  # the hub dropped this worker before its hello
            _close_quietly(self._sock)
            return
        while True:
            frame = self._ctl.get()
            kind = frame[0]
            if kind == "shutdown":
                break
            if kind == "spmd":
                self._run_rank(frame)
            elif kind == "task":
                self._run_task(frame)
        _close_quietly(self._sock)

    def _run_rank(self, frame: tuple) -> None:
        _, rid, rank, n_ranks, die, fn, extra, args, kwargs = frame
        if die:
            # The fault plane's kill_rank switch: die exactly like an
            # OOM-killed rank, before touching the communicator.
            os.kill(os.getpid(), signal.SIGKILL)
        comm = SockComm(rank, n_ranks, _RoundChannel(self, rid, rank))
        try:
            value = fn(comm, *extra, *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 — shipped to the hub
            self.send(
                ("result", rid, rank, "error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
        else:
            self.send(("result", rid, rank, "ok", value, comm.stats))
        finally:
            self._drop_rounds_upto(rid)

    def _run_task(self, frame: tuple) -> None:
        _, task_id, fn, item_args = frame
        try:
            value = fn(*item_args)
        except BaseException as exc:  # noqa: BLE001 — shipped to the hub
            self.send(
                ("task_result", task_id, "error", f"{type(exc).__name__}: {exc}", traceback.format_exc())
            )
        else:
            self.send(("task_result", task_id, "ok", value))


def _worker_entry(sock_obj: socket.socket) -> None:  # pragma: no cover - child process
    _Worker(sock_obj).run()


# ----------------------------------------------------------------------
# hub side
# ----------------------------------------------------------------------
class _WorkerConn:
    """Hub-side state of one connected worker."""

    __slots__ = ("sock", "lock", "pid", "alive", "drained", "proc", "name")

    def __init__(self, sock_obj: socket.socket, name: str) -> None:
        self.sock = sock_obj
        self.lock = threading.Lock()
        self.pid: Optional[int] = None  # set by the worker's hello
        self.alive = True
        #: Set when the reader thread has exited: every frame the worker sent
        #: before its EOF has been dispatched, and no further one will come.
        self.drained = False
        self.proc: Optional[Any] = None  # the spawned worker Process
        self.name = name


def _lost(owners: Sequence[_WorkerConn], missing: Iterable[int]) -> list[int]:
    """The missing results (positions into ``owners``) that can never arrive.

    A result is lost once the reader of the conn that owes it has exited.
    Nothing else is: a conn marked dead by a failed send still has its
    reader running, which either dispatches the result or ends at the EOF
    of the broken socket pair.  So a round or map that loses a worker fails
    at that worker's EOF, and the healthy path waits on no timer.  There is
    deliberately *no* cap on healthy compute time either — a live worker may
    run as long as it needs, and protocol deadlocks surface as errors from
    the communicator's own ``RECV_TIMEOUT`` inside the rank.
    """
    return [i for i in missing if owners[i].drained]


class SockWorkerPool:
    """The hub: spawner, router, and lifecycle owner of socket workers.

    One hub per process (see :func:`get_sock_pool`), shared by every
    ``process*`` backend: workers are brought up lazily at the first
    caller's need, grown when a larger round or map arrives, never shrunk,
    and torn down by :func:`shutdown_sock_pool` / interpreter exit.  Rounds are
    serialized — one SPMD round owns the rank→worker mapping at a time —
    while the routing itself runs on the per-connection reader threads.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        self._cv = threading.Condition(self._mu)
        self._workers: list[_WorkerConn] = []  # every conn spawned and not yet dropped
        self._closed = False
        self._round_seq = 0
        self._task_seq = 0
        self._round_ranks: dict[int, list[_WorkerConn]] = {}
        self._round_results: dict[int, dict[int, tuple]] = {}
        self._task_results: dict[int, tuple] = {}
        self._live_tasks: set[int] = set()  # tids whose results anyone still wants
        self._round_mutex = threading.Lock()  # one round / map at a time

    # -- connection management -----------------------------------------
    def _spawn_worker(self) -> _WorkerConn:
        """Start one worker process on a fresh socket pair (under _cv)."""
        hub_end, worker_end = socket.socketpair()
        conn = _WorkerConn(hub_end, f"sock-worker-{len(self._workers)}")
        try:
            conn.proc = multiprocessing.get_context("spawn").Process(
                target=_worker_entry, args=(worker_end,), daemon=True
            )
            conn.proc.start()
        except BaseException:
            _close_quietly(hub_end)
            raise
        finally:
            # The child holds its own duplicate now; keeping the parent's copy
            # open would hide the child's exit from the hub's reader.
            _close_quietly(worker_end)
        self._workers.append(conn)
        threading.Thread(
            target=self._conn_loop, args=(conn,), name=f"{conn.name}-reader", daemon=True
        ).start()
        return conn

    def _conn_loop(self, conn: _WorkerConn) -> None:
        try:
            while True:
                frame, raw = _recv_frame(conn.sock)
                self._dispatch(conn, frame, raw)
        except Exception:
            pass
        with self._cv:
            conn.alive = False
            conn.drained = True
            self._cv.notify_all()

    def _mark_conn_dead(self, conn: _WorkerConn) -> None:
        with self._cv:
            conn.alive = False
            self._cv.notify_all()

    def _dispatch(self, conn: _WorkerConn, frame: tuple, raw: bytes) -> None:
        kind = frame[0]
        if kind == "hello":
            with self._cv:
                conn.pid = frame[1]
                self._cv.notify_all()
        elif kind == "msg":
            _, rid, dest, _src, _tag, _payload = frame
            with self._mu:
                ranks = self._round_ranks.get(rid)
                target = ranks[dest] if ranks is not None and 0 <= dest < len(ranks) else None
            if target is not None:
                # Forward the exact wire bytes — no re-pickling pass.  A send
                # failure means the *destination* died: mark it dead rather
                # than letting the exception escape into this (healthy)
                # sender's _conn_loop and kill the wrong connection.
                try:
                    _send_frame(target.sock, None, target.lock, raw=raw)
                except OSError:
                    self._mark_conn_dead(target)
        elif kind == "result":
            _, rid, rank, status, a, b = frame
            with self._cv:
                results = self._round_results.get(rid)
                if results is not None:
                    results[rank] = (status, a, b)
                    self._cv.notify_all()
        elif kind == "task_result":
            with self._cv:
                # Results of maps that already returned (error fast-path) are
                # dropped, not stored: a long-lived hub must not accumulate
                # stale entries for task ids nobody will ever collect.
                if frame[1] in self._live_tasks:
                    self._task_results[frame[1]] = frame[2:]
                    self._cv.notify_all()

    def _alive_workers(self) -> list[_WorkerConn]:
        return [w for w in self._workers if w.alive and w.pid is not None]

    def ensure_workers(self, n: int) -> list[_WorkerConn]:
        """Bring the pool up to ``n`` live workers, spawning the missing ones.

        Raises ``OSError`` — the degradable bring-up failure — when a new
        worker closes its connection before its hello, or sends none within
        :data:`HELLO_TIMEOUT` seconds.
        """
        with self._cv:
            if self._closed:
                raise OSError("socket worker pool is shut down")
            missing = n - len(self._alive_workers())
            if missing > 0:
                fault_point("pool.spawn", n_workers=n)
                new = [self._spawn_worker() for _ in range(missing)]
                deadline = time.monotonic() + HELLO_TIMEOUT
                while any(w.alive and w.pid is None for w in new):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cv.wait(timeout=min(remaining, watchdog_poll()))
            workers = self._alive_workers()
            if len(workers) >= n:
                return workers[:n]
            failed = self._detach([w for w in self._workers if w not in workers])
        _close_workers(failed)
        raise OSError(
            f"socket worker bring-up failed: {len(workers)} of {n} workers said "
            f"hello (a worker closed its connection first or stayed silent "
            f"for {HELLO_TIMEOUT:g} s)"
        )

    # -- SPMD rounds -----------------------------------------------------
    def run_round(
        self,
        fn: Callable[..., Any],
        n_ranks: int,
        payloads: list[tuple[Any, ...]],
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
        kill_ranks: Optional[set] = None,
    ) -> tuple[list[Any], list[CommStats]]:
        """Execute one SPMD round; returns ``(values, stats)`` in rank order."""
        from .runner import DeadRankError  # lazy: avoid import cycle

        kill_ranks = kill_ranks or set()
        with self._round_mutex:
            conns = self.ensure_workers(n_ranks)
            with self._mu:
                self._round_seq += 1
                rid = self._round_seq
                self._round_ranks[rid] = conns
                results: dict[int, tuple] = {}
                self._round_results[rid] = results
            try:
                for r, conn in enumerate(conns):
                    _send_frame(
                        conn.sock,
                        ("spmd", rid, r, n_ranks, r in kill_ranks, fn, payloads[r], args, kwargs),
                        conn.lock,
                    )
                self._wait_round(rid, conns, results, DeadRankError)
            except BaseException:
                # Surviving ranks may be blocked on a failed peer for their
                # whole receive timeout; abort the round so their resident
                # workers are free for the retry.
                for r, conn in enumerate(conns):
                    if conn.alive and r not in results:
                        try:
                            _send_frame(conn.sock, ("abort", rid), conn.lock)
                        except OSError:
                            self._mark_conn_dead(conn)
                raise
            finally:
                with self._mu:
                    self._round_ranks.pop(rid, None)
                    self._round_results.pop(rid, None)
            values = [None] * n_ranks
            stats = [CommStats() for _ in range(n_ranks)]
            for r in range(n_ranks):
                _status, value, rank_stats = results[r]
                values[r] = value
                stats[r] = rank_stats
            return values, stats

    def _wait_round(
        self,
        rid: int,
        conns: list[_WorkerConn],
        results: dict[int, tuple],
        dead_rank_error: type,
    ) -> None:
        with self._cv:
            while True:
                for rank, item in results.items():
                    if item[0] == "error":
                        _status, message, tb = item
                        raise RuntimeError(
                            f"SPMD rank {rank} failed: {message}\n--- rank traceback ---\n{tb}"
                        )
                if len(results) == len(conns):
                    return
                ranks = _lost(conns, (r for r in range(len(conns)) if r not in results))
                if ranks:
                    lost = self._detach([w for w in self._workers if not w.alive])
                    break
                self._cv.wait(timeout=watchdog_poll())
        _close_workers(lost)
        raise dead_rank_error(
            f"SPMD socket backend: rank(s) {ranks} died without reporting a result"
        )

    def _detach(self, conns: list[_WorkerConn]) -> list[_WorkerConn]:
        """Mark ``conns`` dead and forget them (under _cv).

        Returns ``conns``; the caller reaps them with :func:`_close_workers`
        after releasing the lock, so no reader thread waits out the joins.
        """
        for w in conns:
            w.alive = False
        self._workers = [w for w in self._workers if w not in conns]
        return conns

    # -- map tasks -------------------------------------------------------
    def run_map(self, payloads: Sequence[tuple[Callable[..., Any], tuple[Any, ...]]],
                processes: Optional[int] = None) -> list[Any]:
        """Scatter independent ``fn(*args)`` tasks over the workers (in order)."""
        from .runner import WorkerPoolError  # lazy: avoid import cycle

        if current_plan() is not None:
            # Copy before poisoning so a ``kill_task`` fault is scoped to this
            # scatter: the supervisor's retry resubmits the clean payloads.
            payloads = list(payloads)
            fault_point("pool.dispatch", payloads=payloads)
        n = processes or min(len(payloads), multiprocessing.cpu_count()) or 1
        with self._round_mutex:
            conns = self.ensure_workers(max(1, n))
            with self._mu:
                first = self._task_seq + 1
                self._task_seq += len(payloads)
                task_ids = list(range(first, first + len(payloads)))
                self._live_tasks.update(task_ids)
            error: Optional[tuple[str, str]] = None
            dead: Optional[list[str]] = None
            out: Optional[list[Any]] = None
            owners = [conns[i % len(conns)] for i in range(len(payloads))]
            try:
                for (fn, item_args), tid, conn in zip(payloads, task_ids, owners):
                    _send_frame(conn.sock, ("task", tid, fn, item_args), conn.lock)
                with self._cv:
                    while True:
                        done = [tid for tid in task_ids if tid in self._task_results]
                        for tid in done:
                            item = self._task_results[tid]
                            if item[0] == "error":
                                error = (item[1], item[2])
                                break
                        if error is not None:
                            break
                        if len(done) == len(task_ids):
                            out = [self._task_results.pop(tid)[1] for tid in task_ids]
                            break
                        missing = (
                            i for i, tid in enumerate(task_ids) if tid not in self._task_results
                        )
                        if _lost(owners, missing):
                            dead = [c.name for c in conns if not c.alive]
                            break
                        self._cv.wait(timeout=watchdog_poll())
            finally:
                # Retire this map's task ids no matter how it exits: late
                # results of abandoned tasks (error fast-path, a died worker,
                # a failed scatter) are dropped at dispatch instead of
                # accumulating across a long-lived process's future maps.
                with self._cv:
                    self._live_tasks.difference_update(task_ids)
                    for t in task_ids:
                        self._task_results.pop(t, None)
            if dead is not None:
                # shutdown_sock_pool re-acquires this pool's locks — it must
                # run outside the condition block above.
                shutdown_sock_pool()
                raise WorkerPoolError(
                    f"socket map backend: worker(s) {dead} died mid-map; "
                    f"the pool was shut down and will respawn on the next call"
                )
            if error is not None:
                message, tb = error
                raise RuntimeError(
                    f"socket map task failed: {message}\n--- worker traceback ---\n{tb}"
                )
            return out

    # -- teardown --------------------------------------------------------
    def shutdown(self) -> None:
        """Tell every worker to exit, close every connection, reap the processes."""
        with self._mu:
            if self._closed:
                return
            self._closed = True
            workers = self._workers
            self._workers = []
        for w in workers:
            if w.alive:
                try:
                    _send_frame(w.sock, ("shutdown",), w.lock)
                except OSError:
                    pass
        _close_workers(workers)


def _close_workers(conns: list[_WorkerConn]) -> None:
    """Close each hub end, then join each worker (terminating a stuck one)."""
    for w in conns:
        _close_quietly(w.sock)
    for w in conns:
        if w.proc is not None:
            w.proc.join(timeout=5.0)
            if w.proc.is_alive():  # pragma: no cover - stuck worker
                w.proc.terminate()
                w.proc.join(timeout=5.0)


# ----------------------------------------------------------------------
# process-global pool singleton
# ----------------------------------------------------------------------
_pool: Optional[SockWorkerPool] = None
_pool_lock = threading.Lock()


def get_sock_pool() -> SockWorkerPool:
    """The process-wide socket worker pool, created lazily on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            fault_point("pool.spawn", n_workers=0)
            _pool = SockWorkerPool()
        return _pool


def shutdown_sock_pool() -> None:
    """Tear down the socket pool (idempotent; also runs at interpreter exit)."""
    global _pool
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown()
            _pool = None


def sock_pool_size() -> int:
    """Live workers connected to the current pool (0 when none exists)."""
    with _pool_lock:
        if _pool is None:
            return 0
        with _pool._mu:
            return len(_pool._alive_workers())


atexit.register(shutdown_sock_pool)

"""Socket transport (`repro.parallel.sock`) — the one transport of ``process*``.

The resident-worker hub must keep the runtime's semantics: identical
messaging (send/recv matching by source and tag), identical
``parallel_map`` results, and — the acceptance pin — *bit-identical* filter
outputs across the ordering × partitioner latin square against the serial
reference.  Also covers per-rank :class:`CommStats` with real wire-byte
counters, the configurable receive-timeout resolution order, the hub's
socket-pair bring-up (no listening socket; a worker that closes its
connection before its hello fails bring-up with ``OSError``; lost workers
are reaped outside the hub lock), clean worker exit at shutdown, every
``process*`` backend name riding the hub's workers, and supervised
degradation off the ``process-sock`` rung when the hub cannot come up.

Rank functions live at module level so the spawned worker processes can
unpickle them by import.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.parallel_comm import parallel_chordal_comm_filter
from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter
from repro.faults import FaultPlan, active_plan
from repro.graph.generators import correlation_like_graph
from repro.parallel.runner import (
    DeadRankError,
    WorkerPoolError,
    available_backends,
    configure_supervision,
    parallel_map,
    pop_supervision_events,
    run_spmd,
    supervision_policy,
)
from repro.parallel import sock
from repro.parallel.sock import (
    SockComm,
    SockWorkerPool,
    _WorkerConn,
    get_sock_pool,
    shutdown_sock_pool,
    sock_pool_size,
)

ORDERINGS = ["natural", "high_degree", "low_degree", "rcm"]
PARTITIONERS = ["block", "hash", "bfs", "greedy"]

#: Every ordering and every partitioner appears exactly once.
LATIN_CELLS = list(zip(ORDERINGS, PARTITIONERS))

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method(allow_none=False) is None,
    reason="multiprocessing unavailable",
)


@pytest.fixture(scope="module", autouse=True)
def _sock_pool_teardown():
    yield
    shutdown_sock_pool()


@pytest.fixture(scope="module")
def graph():
    return correlation_like_graph(seed=11, n_modules=3, module_size=7, n_background=90)


def _signature(result):
    """Everything the backends must agree on, order included."""
    return (
        sorted(map(repr, result.graph.iter_edges())),
        result.accepted_border_pairs.tolist(),
        result.duplicate_border_edges,
        [w.border_edges for w in result.rank_work],
    )


def _exchange(comm, obj, tag):
    """Every rank's ``obj`` in rank order, built from ``send``/``recv`` alone."""
    for r in range(comm.size):
        if r != comm.rank:
            comm.send(obj, r, tag=tag)
    return [obj if r == comm.rank else comm.recv(source=r, tag=tag) for r in range(comm.size)]


def _ring_fn(comm, offset):
    """Send to the next rank, receive from the previous, then sum every rank."""
    dest = (comm.rank + 1) % comm.size
    comm.send(comm.rank * 10 + offset, dest, tag=7)
    src = (comm.rank - 1) % comm.size
    received = comm.recv(source=src, tag=7)
    total = sum(_exchange(comm, comm.rank, tag=8))
    return received, total


def _numpy_fn(comm):
    gathered = _exchange(comm, np.full(3, comm.rank, dtype=np.float64), tag=3)
    return float(sum(arr.sum() for arr in gathered))


def _square(x):
    return x * x


class TestSockSpmd:
    def test_ring_round_and_collectives(self):
        report = run_spmd(_ring_fn, 3, rank_args=[(1,), (2,), (3,)], backend="process-sock")
        assert report.backend == "process-sock"
        assert report.n_ranks == 3
        # rank r receives (r-1)*10 + offset_{r-1}; every rank sees sum(0..2).
        assert report.values == [(23, 3), (1, 3), (12, 3)]
        assert sock_pool_size() == 3

    def test_numpy_payloads(self):
        report = run_spmd(_numpy_fn, 2, backend="process-sock")
        assert report.values == [3.0, 3.0]

    def test_per_rank_stats_count_wire_bytes(self):
        report = run_spmd(_ring_fn, 2, rank_args=[(0,), (0,)], backend="process-sock")
        for result in report.results:
            assert result.stats.messages_sent >= 1
            assert result.stats.messages_received >= 1
            # Only the socket transport meters real frame bytes.
            assert result.stats.bytes_sent > 0
            assert result.stats.bytes_received > 0
        total = report.total_stats()
        assert total.bytes_sent == sum(r.stats.bytes_sent for r in report.results)

    def test_backend_registered(self):
        assert "process-sock" in available_backends()


class TestSockMap:
    def test_map_matches_serial(self):
        items = list(range(12))
        got = parallel_map(_square, [(x,) for x in items], backend="process-sock")
        assert got == [x * x for x in items]

    def test_map_leaves_no_task_residue(self):
        # A long-lived hub (repro serve) must not accumulate per-map state.
        parallel_map(_square, [(x,) for x in range(4)], backend="process-sock")
        pool = get_sock_pool()
        with pool._cv:
            assert pool._task_results == {}
            assert pool._live_tasks == set()


def _listening_socket_inodes():
    """Inodes of the sockets this process holds in LISTEN state (TCP or unix)."""
    held = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # closed since the listing
            continue
        if target.startswith("socket:["):
            held.add(target[len("socket:["):-1])
    listening = set()
    for table in ("tcp", "tcp6"):
        try:
            with open(f"/proc/self/net/{table}") as fh:
                rows = fh.read().splitlines()[1:]
        except OSError:  # no such address family here
            continue
        listening.update(row.split()[9] for row in rows if row.split()[3] == "0A")
    with open("/proc/self/net/unix") as fh:
        for row in fh.read().splitlines()[1:]:
            cols = row.split()
            if int(cols[3], 16) & 0x10000:  # __SO_ACCEPTCON: a listening socket
                listening.add(cols[6])
    return held & listening


def _close_before_hello(sock_obj):
    sock_obj.close()


def _silent_worker(sock_obj):
    time.sleep(2.0)


class TestSocketPairBringUp:
    """The hub reaches its workers only through the socket pairs it spawns them on."""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
    def test_hub_opens_no_listening_socket(self):
        before = _listening_socket_inodes()
        pool = SockWorkerPool()
        try:
            assert len(pool.ensure_workers(2)) == 2
            assert _listening_socket_inodes() - before == set()
        finally:
            pool.shutdown()

    def test_worker_closing_before_hello_fails_bringup_fast(self, monkeypatch):
        monkeypatch.setattr(sock, "_worker_entry", _close_before_hello)
        pool = SockWorkerPool()
        try:
            start = time.monotonic()
            with pytest.raises(OSError, match="bring-up failed"):
                pool.ensure_workers(1)
            assert time.monotonic() - start < sock.HELLO_TIMEOUT / 3
            assert pool._alive_workers() == []
            assert pool._workers == []  # the failed worker was dropped and reaped
        finally:
            pool.shutdown()

    def test_silent_worker_fails_bringup_at_the_hello_deadline(self, monkeypatch):
        monkeypatch.setattr(sock, "_worker_entry", _silent_worker)
        monkeypatch.setattr(sock, "HELLO_TIMEOUT", 0.5)
        pool = SockWorkerPool()
        try:
            with pytest.raises(OSError, match="bring-up failed"):
                pool.ensure_workers(1)
            assert pool._workers == []
        finally:
            pool.shutdown()

    def test_shut_down_pool_spawns_nothing(self):
        pool = SockWorkerPool()
        pool.shutdown()
        with pytest.raises(OSError, match="shut down"):
            pool.ensure_workers(1)
        assert pool._workers == []

    def test_lost_workers_are_reaped_outside_the_hub_lock(self, monkeypatch):
        # Joining a lost worker can take seconds; the reader threads must not
        # wait that out behind the hub lock.  Covers both paths that drop
        # workers: a failed bring-up and a rank that died mid-round.
        monkeypatch.setattr(sock, "HELLO_TIMEOUT", 0.5)
        pool = SockWorkerPool()
        locked = []
        close_workers = sock._close_workers

        def recording_close(conns):
            locked.append(pool._mu.locked())
            close_workers(conns)

        monkeypatch.setattr(sock, "_close_workers", recording_close)
        try:
            with pytest.raises(DeadRankError):
                pool.run_round(_ring_fn, 2, [()] * 2, (0,), {}, kill_ranks={1})
            monkeypatch.setattr(sock, "_worker_entry", _silent_worker)
            with pytest.raises(OSError, match="bring-up failed"):
                pool.ensure_workers(2)
            assert locked == [False, False]
        finally:
            pool.shutdown()

    def test_shutdown_lets_every_worker_exit_cleanly(self):
        pool = SockWorkerPool()
        pool.ensure_workers(2)
        procs = [w.proc for w in pool._workers]
        pool.shutdown()
        # Told to exit, not terminated: a terminated worker's exitcode is -SIGTERM.
        assert [p.exitcode for p in procs] == [0, 0]


def _answer_once_then_exit(sock_obj):
    """Worker entry: say hello, answer the first task or rank, close the socket."""
    worker = sock._Worker(sock_obj)
    worker.send(("hello", os.getpid()))
    frame = worker._ctl.get()
    if frame[0] == "spmd":
        worker._run_rank(frame)
    else:
        worker._run_task(frame)
    sock._close_quietly(sock_obj)


def _rank_number(comm):
    return comm.rank


#: Repeats of each lost-worker timing check: a race between the worker's
#: EOF and the hub's wait shows in some runs only.
LOST_WORKER_RUNS = 20


class TestLostWorkerFoundAtEOF:
    """A worker's loss is declared at its EOF, not by a timer."""

    def test_result_sent_before_exit_still_counts_in_a_map(self, monkeypatch):
        monkeypatch.setattr(sock, "_worker_entry", _answer_once_then_exit)
        pool = SockWorkerPool()
        try:
            assert pool.run_map([(_square, (3,)), (_square, (4,))], processes=2) == [9, 16]
        finally:
            pool.shutdown()

    def test_result_sent_before_exit_still_counts_in_a_round(self, monkeypatch):
        monkeypatch.setattr(sock, "_worker_entry", _answer_once_then_exit)
        pool = SockWorkerPool()
        try:
            values, _ = pool.run_round(_rank_number, 2, [()] * 2, (), {})
            assert values == [0, 1]
        finally:
            pool.shutdown()

    # The payloads are builtins, so a worker never imports this module and
    # each of the 20 respawns stays cheap.
    def test_killed_worker_fails_the_map_within_two_seconds(self):
        pool = SockWorkerPool()
        try:
            for _ in range(LOST_WORKER_RUNS):
                (worker,) = pool.ensure_workers(1)
                start = time.monotonic()
                with pytest.raises(WorkerPoolError, match="died mid-map"):
                    pool.run_map([(os.kill, (worker.pid, signal.SIGKILL))], processes=1)
                assert time.monotonic() - start < 2.0
        finally:
            pool.shutdown()

    def test_killed_rank_fails_the_round_within_two_seconds(self):
        pool = SockWorkerPool()
        try:
            for _ in range(LOST_WORKER_RUNS):
                pool.ensure_workers(1)
                start = time.monotonic()
                with pytest.raises(DeadRankError, match="died without reporting"):
                    pool.run_round(print, 1, [()], (), {}, kill_ranks={0})
                assert time.monotonic() - start < 2.0
        finally:
            pool.shutdown()


class TestShutdownDuringHandshake:
    """A worker whose hello has not reached the hub when it shuts down must exit too."""

    def test_worker_whose_hello_is_held_past_shutdown_exits(self):
        pool = SockWorkerPool()
        hub_end, worker_end = socket.socketpair()
        # Spawned but silent: the hub holds the conn, the worker has no pid yet.
        pool._workers.append(_WorkerConn(hub_end, "late"))
        worker = sock._Worker(worker_end)
        pool.shutdown()
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        try:
            assert not thread.is_alive(), "a worker that missed shutdown must still exit"
            assert pool._alive_workers() == []
        finally:
            worker_end.close()


class TestHubForwardIsolation:
    """A dead *destination* must not take the healthy sender's conn down."""

    def _two_conns(self):
        a1, b1 = socket.socketpair()
        a2, b2 = socket.socketpair()
        sender = _WorkerConn(a1, "sender")
        target = _WorkerConn(a2, "target")
        return sender, b1, target, b2

    def test_dead_destination_marks_target_not_sender(self):
        pool = SockWorkerPool()
        sender, sender_peer, target, target_peer = self._two_conns()
        try:
            target.sock.close()  # the destination died
            with pool._mu:
                pool._round_ranks[99] = [sender, target]
            frame = ("msg", 99, 1, 0, 7, None)
            pool._dispatch(sender, frame, pickle.dumps(frame))
            assert target.alive is False
            assert sender.alive is True
        finally:
            for s in (sender.sock, sender_peer, target_peer):
                s.close()
            pool.shutdown()

    def test_stale_task_result_is_dropped(self):
        pool = SockWorkerPool()
        try:
            pool._dispatch(None, ("task_result", 999, "ok", 42), b"")
            with pool._cv:
                assert pool._task_results == {}
        finally:
            pool.shutdown()


class TestCommFilterLatinSquarePin:
    @pytest.mark.parametrize("ordering,partition_method", LATIN_CELLS)
    def test_process_sock_matches_serial(self, graph, ordering, partition_method):
        ref = parallel_chordal_comm_filter(
            graph, 2, ordering=ordering, partition_method=partition_method, backend="serial"
        )
        got = parallel_chordal_comm_filter(
            graph, 2, ordering=ordering, partition_method=partition_method, backend="process-sock"
        )
        assert _signature(got) == _signature(ref)
        assert got.extra["backend"] == "process-sock"

    def test_per_rank_comm_stats_in_extra(self, graph):
        result = parallel_chordal_comm_filter(graph, 2, ordering="rcm", backend="process-sock")
        per_rank = result.extra["comm_stats_per_rank"]
        assert len(per_rank) == 2
        # Lower-rank-sends-first protocol with P=2: rank 0 ships its border
        # verdicts, rank 1 receives them; the wire-byte meters must balance.
        assert per_rank[0]["bytes_sent"] > 0
        assert per_rank[1]["bytes_received"] == per_rank[0]["bytes_sent"]
        assert sum(s["messages_sent"] for s in per_rank) == sum(
            s["messages_received"] for s in per_rank
        )

    def test_nocomm_matches_serial(self, graph):
        ref = parallel_chordal_nocomm_filter(graph, 4, ordering="rcm", backend="serial")
        got = parallel_chordal_nocomm_filter(graph, 4, ordering="rcm", backend="process-sock")
        assert _signature(got) == _signature(ref)


class TestRecvTimeoutConfig:
    def _comm(self, recv_timeout=None):
        # The timeout resolution never touches the round channel.
        return SockComm(0, 1, None, recv_timeout=recv_timeout)

    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_COMM_TIMEOUT", raising=False)
        assert self._comm().recv_timeout == SockComm.RECV_TIMEOUT

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMM_TIMEOUT", "7.5")
        assert self._comm().recv_timeout == 7.5

    def test_ctor_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMM_TIMEOUT", "7.5")
        assert self._comm(recv_timeout=0.25).recv_timeout == 0.25

    def test_bad_env_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMM_TIMEOUT", "not-a-number")
        assert self._comm().recv_timeout == SockComm.RECV_TIMEOUT


class TestSupervisedDegrade:
    def test_hub_bringup_failure_degrades(self):
        # The hub cannot come up → with retries off, the supervised ladder
        # steps process-sock (the process rung) down to thread and the round
        # completes.
        shutdown_sock_pool()
        old = supervision_policy()
        configure_supervision(max_retries=0)
        plan = FaultPlan().fail("pool.spawn", at=1, exc=OSError, message="injected bind failure")
        try:
            with active_plan(plan):
                report = run_spmd(_ring_fn, 2, rank_args=[(0,), (0,)], backend="process-sock")
        finally:
            configure_supervision(max_retries=old.max_retries)
        assert report.backend == "thread"
        assert report.values == [(10, 1), (0, 1)]

    def test_hub_bringup_failure_retries_in_place(self):
        # With the default policy the first attempt's failure is retried on
        # the same rung; the fault budget is spent, so the retry succeeds
        # without ever leaving process-sock.
        shutdown_sock_pool()
        plan = FaultPlan().fail("pool.spawn", at=1, exc=OSError, message="injected bind failure")
        with active_plan(plan):
            report = run_spmd(_ring_fn, 2, rank_args=[(0,), (0,)], backend="process-sock")
        assert report.backend == "process-sock"
        assert report.values == [(10, 1), (0, 1)]


def _arr_sum_rank(comm, arr):
    return float(arr.sum())


class TestHubWorkers:
    """Every ``process*`` backend name runs on the hub's spawned socket workers."""

    def test_process_backends_ride_the_hub_workers(self):
        shutdown_sock_pool()
        report = run_spmd(_ring_fn, 2, rank_args=[(0,), (0,)], backend="process")
        assert report.backend == "process"
        assert report.values == [(10, 1), (0, 1)]
        assert parallel_map(_square, [(3,), (4,)], backend="process") == [9, 16]
        assert sock_pool_size() == 2
        pids = parallel_map(os.getpid, [()] * 2, backend="process")
        assert set(pids) <= {w.pid for w in get_sock_pool()._workers}

    def test_process_shm_alias_rides_the_hub_workers(self):
        shutdown_sock_pool()
        arrays = [(np.arange(8, dtype=np.float64),), (np.ones(8),)]
        pop_supervision_events()
        report = run_spmd(_arr_sum_rank, 2, rank_args=arrays, backend="process-shm")
        assert report.backend == "process-shm"
        assert report.values == [28.0, 8.0]
        assert parallel_map(_square, [(3,), (4,)], backend="process-shm") == [9, 16]
        assert sock_pool_size() == 2
        # The alias runs the process path itself, not a supervised detour.
        assert not pop_supervision_events()

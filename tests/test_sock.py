"""Socket transport (`repro.parallel.sock`) — the one transport of ``process*``.

The resident-worker hub must keep the runtime's semantics: identical
messaging (send/recv matching by source and tag), identical
``parallel_map`` results, and — the acceptance pin — *bit-identical* filter
outputs across the ordering × partitioner latin square against the serial
reference.  Also covers the satellite knobs: per-rank :class:`CommStats`
with real wire-byte counters, the configurable receive-timeout resolution
order, ``TCP_NODELAY`` on both ends of every connection, external-worker
mode (``REPRO_SOCK_SPAWN=0``) serving every process backend name, and
supervised degradation off the ``process-sock`` rung when the hub
cannot come up.

Rank functions live at module level so the spawned worker processes can
unpickle them by import.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.core.parallel_comm import parallel_chordal_comm_filter
from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter
from repro.faults import FaultPlan, active_plan
from repro.graph.generators import correlation_like_graph
from repro.parallel.runner import (
    available_backends,
    parallel_map,
    pop_supervision_events,
    run_spmd,
)
from repro.parallel.sock import (
    SockComm,
    SockWorkerPool,
    _answer_challenge,
    _CHALLENGE,
    _FAILURE,
    _recv_frame,
    _recv_raw,
    _send_frame,
    _send_raw,
    _Worker,
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
        result.accepted_border_edges,
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


class TestAuthHandshake:
    """The hub must never unpickle bytes from an unauthenticated peer."""

    def test_unauthenticated_peer_is_dropped_before_any_frame(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOCK_AUTHKEY", "right-key")
        pool = SockWorkerPool(spawn=False)
        try:
            with socket.create_connection(("127.0.0.1", pool.port), timeout=10) as s:
                s.settimeout(10)
                # The hub speaks first — a challenge, never a frame read.
                blob = _recv_raw(s)
                assert blob.startswith(_CHALLENGE)
                _send_raw(s, b"not-the-right-digest")
                assert _recv_raw(s) == _FAILURE
                # The connection is closed without ever being registered.
                try:
                    leftover = s.recv(1)
                except OSError:
                    leftover = b""
                assert leftover == b""
            assert pool.n_workers() == 0
        finally:
            pool.shutdown()

    def test_shared_env_key_admits_worker(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOCK_AUTHKEY", "right-key")
        pool = SockWorkerPool(spawn=False)
        try:
            with socket.create_connection(("127.0.0.1", pool.port), timeout=10) as s:
                s.settimeout(10)
                _answer_challenge(s)  # same process, same env key
                _send_frame(s, ("hello", 12345))
                deadline = time.monotonic() + 10
                while pool.n_workers() < 1:
                    assert time.monotonic() < deadline, "authenticated hello not registered"
                    time.sleep(0.01)
        finally:
            pool.shutdown()


class TestShutdownDuringHandshake:
    """A worker still in its handshake when the hub shuts down must exit too."""

    def test_worker_whose_hello_is_held_past_shutdown_exits(self):
        pool = SockWorkerPool(spawn=False)
        # Authenticated and accepted, but run() (which sends hello) is held
        # until the hub is already gone.
        worker = _Worker(pool.host, pool.port)
        pool.shutdown()
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive(), "a worker that missed shutdown must still exit"
        assert pool.n_workers() == 0

    def test_hello_after_shutdown_is_told_to_exit_not_registered(self):
        pool = SockWorkerPool(spawn=False)
        hub_end, worker_end = socket.socketpair()
        conn = _WorkerConn(hub_end, "late")
        try:
            pool.shutdown()
            pool._dispatch(conn, ("hello", 4242), b"")
            worker_end.settimeout(10)
            obj, _raw = _recv_frame(worker_end)
            assert obj == ("shutdown",)
            assert worker_end.recv(1) == b""  # and the hub closed its end
            assert pool._workers == []
        finally:
            worker_end.close()
            hub_end.close()


class TestHubForwardIsolation:
    """A dead *destination* must not take the healthy sender's conn down."""

    def _two_conns(self):
        a1, b1 = socket.socketpair()
        a2, b2 = socket.socketpair()
        sender = _WorkerConn(a1, "sender")
        target = _WorkerConn(a2, "target")
        return sender, b1, target, b2

    def test_dead_destination_marks_target_not_sender(self):
        pool = SockWorkerPool(spawn=False)
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
        pool = SockWorkerPool(spawn=False)
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
        plan = FaultPlan().fail("pool.spawn", at=1, exc=OSError, message="injected bind failure")
        with active_plan(plan):
            report = run_spmd(
                _ring_fn, 2, rank_args=[(0,), (0,)], backend="process-sock", max_retries=0
            )
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


@pytest.fixture
def external_hub(monkeypatch):
    """A hub in external-worker mode with two in-test workers (threads of this process)."""
    shutdown_sock_pool()
    monkeypatch.setenv("REPRO_SOCK_SPAWN", "0")
    hub = get_sock_pool()
    assert not hub.spawn
    workers = [_Worker(hub.host, hub.port) for _ in range(2)]
    threads = [threading.Thread(target=w.run, daemon=True) for w in workers]
    for t in threads:
        t.start()
    yield hub, workers
    shutdown_sock_pool()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads), "workers must exit with the hub"


class TestExternalWorkers:
    def test_tcp_nodelay_on_both_ends(self, external_hub):
        hub, workers = external_hub
        assert hub.ensure_workers(2)
        for w in workers:
            assert w._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1
        with hub._mu:
            conns = list(hub._workers)
        assert len(conns) == 2
        for conn in conns:
            assert conn.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) == 1

    def test_process_backends_ride_the_external_workers(self, external_hub):
        report = run_spmd(_ring_fn, 2, rank_args=[(0,), (0,)], backend="process")
        assert report.backend == "process"
        assert report.values == [(10, 1), (0, 1)]
        assert parallel_map(_square, [(3,), (4,)], backend="process") == [9, 16]
        assert sock_pool_size() == 2

    def test_process_shm_alias_rides_the_external_workers(self, external_hub):
        arrays = [(np.arange(8, dtype=np.float64),), (np.ones(8),)]
        pop_supervision_events()
        report = run_spmd(_arr_sum_rank, 2, rank_args=arrays, backend="process-shm")
        assert report.backend == "process-shm"
        assert report.values == [28.0, 8.0]
        assert parallel_map(_square, [(3,), (4,)], backend="process-shm") == [9, 16]
        # The alias runs the process path itself, not a supervised detour.
        assert not pop_supervision_events()

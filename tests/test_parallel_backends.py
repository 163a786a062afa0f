"""Execution-backend equivalence and lifecycle tests.

The execution runtime promises that the choice of backend — ``serial`` /
``thread`` / ``process`` (and its aliases ``process-shm``, ``process-sock``)
— never changes a sampler's output: same kept edge set, same admission
order, same duplicate counts.  This module pins that promise:

* the no-communication sampler across **all orderings × all partitioners**
  on the ``process`` backend against the serial reference (the process
  grid is cheap here because every call reuses the resident workers);
* the with-communication sampler across the full grid on ``thread`` vs
  ``serial``, plus a Latin-square of (ordering, partitioner) cells on the
  real-process backends — every ordering and every partitioner appears in a
  process-backed cell;
* the ``process-shm`` alias: both filters' canonical payloads equal the
  ``process`` ones;
* the ``run_spmd`` process backend itself (send/recv messaging via
  SockComm, statistics, error propagation, resident workers across rounds);
* ``parallel_map`` thread / process backends;
* worker-hub lifecycle: grow requests keep the warm workers, the hub never
  shrinks, shutdown is idempotent and leaves no child process, and a fresh
  hub appears on demand afterwards.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.core.parallel_comm import parallel_chordal_comm_filter
from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter
from repro.graph.generators import correlation_like_graph
from repro.pipeline.workflow import filter_payload
from repro.parallel.runner import (
    available_backends,
    parallel_map,
    run_spmd,
    shutdown_worker_pool,
    worker_pool_size,
)

ORDERINGS = ["natural", "high_degree", "low_degree", "rcm"]
PARTITIONERS = ["block", "hash", "bfs", "greedy"]

#: Every ordering and every partitioner appears exactly once — the grid for
#: the real-process backends.
LATIN_CELLS = list(zip(ORDERINGS, PARTITIONERS))


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


class TestNocommBackendEquivalence:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("partition_method", PARTITIONERS)
    def test_process_matches_serial_full_grid(self, graph, ordering, partition_method):
        ref = parallel_chordal_nocomm_filter(
            graph, 4, ordering=ordering, partition_method=partition_method, backend="serial"
        )
        got = parallel_chordal_nocomm_filter(
            graph, 4, ordering=ordering, partition_method=partition_method, backend="process"
        )
        assert _signature(got) == _signature(ref)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("ordering,partition_method", LATIN_CELLS)
    def test_other_backends_match_serial(self, graph, backend, ordering, partition_method):
        ref = parallel_chordal_nocomm_filter(
            graph, 4, ordering=ordering, partition_method=partition_method, backend="serial"
        )
        got = parallel_chordal_nocomm_filter(
            graph, 4, ordering=ordering, partition_method=partition_method, backend=backend
        )
        assert _signature(got) == _signature(ref)

    def test_empty_partitions_process(self, graph):
        # More partitions than some parts can fill: block partitioning leaves
        # trailing parts empty on a small subgraph; outputs must still match.
        small = correlation_like_graph(seed=5, n_modules=1, module_size=4, n_background=3)
        ref = parallel_chordal_nocomm_filter(small, 9, ordering="natural", backend="serial")
        got = parallel_chordal_nocomm_filter(small, 9, ordering="natural", backend="process")
        assert _signature(got) == _signature(ref)

    def test_unknown_backend_rejected(self, graph):
        with pytest.raises(ValueError, match="process-shm"):
            parallel_chordal_nocomm_filter(graph, 2, backend="gpu")

    def test_backend_recorded_in_extra(self, graph):
        result = parallel_chordal_nocomm_filter(graph, 2, backend="thread")
        assert result.extra["backend"] == "thread"


class TestCommBackendEquivalence:
    @pytest.mark.parametrize("ordering", ORDERINGS)
    @pytest.mark.parametrize("partition_method", PARTITIONERS)
    def test_thread_matches_serial_full_grid(self, graph, ordering, partition_method):
        ref = parallel_chordal_comm_filter(
            graph, 3, ordering=ordering, partition_method=partition_method, backend="serial"
        )
        got = parallel_chordal_comm_filter(
            graph, 3, ordering=ordering, partition_method=partition_method, backend="thread"
        )
        assert _signature(got) == _signature(ref)

    @pytest.mark.parametrize("ordering,partition_method", LATIN_CELLS)
    def test_process_matches_thread(self, graph, ordering, partition_method):
        ref = parallel_chordal_comm_filter(
            graph, 2, ordering=ordering, partition_method=partition_method, backend="thread"
        )
        got = parallel_chordal_comm_filter(
            graph, 2, ordering=ordering, partition_method=partition_method, backend="process"
        )
        assert _signature(got) == _signature(ref)
        assert got.extra["backend"] == "process"

    def test_process_pickled_matches_thread(self, graph):
        ref = parallel_chordal_comm_filter(graph, 2, ordering="rcm", backend="thread")
        got = parallel_chordal_comm_filter(graph, 2, ordering="rcm", backend="process")
        assert _signature(got) == _signature(ref)
        assert got.extra["backend"] == "process"

    def test_default_backend_unchanged(self, graph):
        result = parallel_chordal_comm_filter(graph, 2, ordering="natural")
        assert result.extra["backend"] == "thread"
        single = parallel_chordal_comm_filter(graph, 1, ordering="natural")
        assert single.extra["backend"] == "serial"

    def test_unknown_backend_rejected(self, graph):
        with pytest.raises(ValueError, match="process-shm"):
            parallel_chordal_comm_filter(graph, 2, backend="gpu")


@pytest.mark.parametrize(
    "filter_fn",
    [parallel_chordal_nocomm_filter, parallel_chordal_comm_filter],
    ids=["nocomm", "comm"],
)
def test_process_shm_alias_payload_equals_process(graph, filter_fn):
    process = filter_fn(graph, 2, ordering="rcm", backend="process")
    alias = filter_fn(graph, 2, ordering="rcm", backend="process-shm")
    assert filter_payload(alias) == filter_payload(process)
    assert alias.extra["backend"] == "process-shm"
    assert not alias.extra.get("supervision")


def _ring_rank(comm, offset):
    """Send rank+offset around a ring, then send what arrived to every other rank."""
    right = (comm.rank + 1) % comm.size
    comm.send(comm.rank + offset, dest=right, tag=5)
    received = comm.recv(source=(comm.rank - 1) % comm.size, tag=5)
    for r in range(comm.size):
        if r != comm.rank:
            comm.send(received, dest=r, tag=6)
    return [received if r == comm.rank else comm.recv(source=r, tag=6) for r in range(comm.size)]


def _failing_rank(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    return "ok"


def _sum_with_rank(comm, arr):
    return int(arr.sum()) + comm.rank


def _rank_pid(comm):
    return os.getpid()


def _fail_while_peer_waits(comm):
    if comm.rank == 1:
        raise ValueError("rank 1 exploded")
    return comm.recv(source=1)  # never sent: blocks until the round is aborted


class TestRunSpmdProcessBackend:
    def test_ring_messaging_and_collectives(self):
        report = run_spmd(_ring_rank, 3, args=(100,), backend="process")
        expected = [102, 100, 101]  # each rank receives its left neighbour's value
        assert report.values == [expected] * 3
        assert report.backend == "process"
        total = report.total_stats()
        # 3 ring sends plus 3 x 2 all-to-all sends, every one received.
        assert total.messages_sent == total.messages_received == 9

    def test_error_propagates_with_rank(self):
        with pytest.raises(RuntimeError, match="SPMD rank 1 failed"):
            run_spmd(_failing_rank, 2, backend="process")

    def test_rank_args_with_arrays_process(self):
        rank_args = [(np.arange(4),), (np.arange(4) * 2,)]
        report = run_spmd(_sum_with_rank, 2, rank_args=rank_args, backend="process")
        assert report.values == [6, 13]

    def test_failed_round_frees_a_blocked_peer_for_the_next_round(self):
        first = run_spmd(_rank_pid, 2, backend="process").values
        with pytest.raises(RuntimeError, match="SPMD rank 1 failed"):
            run_spmd(_fail_while_peer_waits, 2, backend="process")
        # Rank 0 was blocked on a receive with a 60 s deadline; the hub
        # aborts the failed round, so the same workers serve the next one
        # right away.
        start = time.monotonic()
        assert run_spmd(_rank_pid, 2, backend="process").values == first
        assert time.monotonic() - start < 20.0

    def test_consecutive_rounds_run_on_the_same_workers(self):
        first = run_spmd(_rank_pid, 2, backend="process").values
        second = run_spmd(_rank_pid, 2, backend="process").values
        assert len(set(first)) == 2 and os.getpid() not in first
        assert second == first
        # process-sock is an alias, and the map backends scatter over the
        # very same resident workers.
        assert run_spmd(_rank_pid, 2, backend="process-sock").values == first
        pids = parallel_map(os.getpid, [()] * 2, backend="process-shm", processes=2)
        assert set(pids) == set(first)


class TestParallelMapBackends:
    def test_thread_backend_matches_serial(self):
        items = [(i, i + 1) for i in range(10)]
        assert parallel_map(lambda a, b: a * b, items, backend="thread") == parallel_map(
            lambda a, b: a * b, items, backend="serial"
        )

    def test_process_routes_arrays(self):
        items = [(np.full(50, i),) for i in range(5)]
        out = parallel_map(_array_sum, items, backend="process")
        assert out == [0, 50, 100, 150, 200]

    def test_empty_items(self):
        for backend in available_backends():
            assert parallel_map(_array_sum, [], backend=backend) == []


def _array_sum(arr):
    return int(np.asarray(arr).sum())


def _worker_pids(n: int) -> set[int]:
    """The pids of the first ``n`` hub workers (one task per worker)."""
    return set(parallel_map(os.getpid, [()] * n, backend="process", processes=n))


class TestWorkerPoolLifecycle:
    def test_grow_reuses_warm_pool(self):
        shutdown_worker_pool()
        warm = _worker_pids(1)
        assert worker_pool_size() == 1
        # A bigger request grows the hub next to the warm worker — no
        # terminate-and-respawn of the interpreter already up.
        grown = _worker_pids(3)
        assert warm < grown and len(grown) == 3
        assert worker_pool_size() == 3
        # A smaller request never shrinks it.
        assert _worker_pids(2) < grown
        assert worker_pool_size() == 3
        # The grown hub still executes work.
        assert parallel_map(_array_sum, [(np.arange(3),)], backend="process") == [3]
        shutdown_worker_pool()

    def test_shutdown_is_idempotent_and_pool_respawns(self):
        before = _worker_pids(1)
        assert worker_pool_size() >= 1
        shutdown_worker_pool()
        assert worker_pool_size() == 0
        assert multiprocessing.active_children() == []
        shutdown_worker_pool()  # second call is a no-op
        assert worker_pool_size() == 0
        # Next request brings up a fresh hub with fresh workers.
        assert parallel_map(_array_sum, [(np.arange(4),)], backend="process") == [6]
        assert worker_pool_size() >= 1
        assert _worker_pids(1).isdisjoint(before)
        shutdown_worker_pool()
        assert worker_pool_size() == 0
        assert multiprocessing.active_children() == []

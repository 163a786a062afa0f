"""Unit tests for the simulated MPI communicator and SPMD runner."""

from __future__ import annotations

import dataclasses

import pytest

from repro.parallel import (
    ANY_SOURCE,
    CommStats,
    SimCommWorld,
    available_backends,
    parallel_map,
    run_spmd,
)
from repro.parallel.runner import _degradation_ladder


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        def rank_fn(comm):
            if comm.rank == 0:
                comm.send({"payload": [1, 2, 3]}, dest=1, tag=5)
                return "sent"
            return comm.recv(source=0, tag=5)

        report = run_spmd(rank_fn, 2)
        assert report.values[0] == "sent"
        assert report.values[1] == {"payload": [1, 2, 3]}

    def test_tag_matching(self):
        def rank_fn(comm):
            if comm.rank == 0:
                comm.send("low", dest=1, tag=1)
                comm.send("high", dest=1, tag=2)
                return None
            high = comm.recv(source=0, tag=2)
            low = comm.recv(source=0, tag=1)
            return (low, high)

        report = run_spmd(rank_fn, 2)
        assert report.values[1] == ("low", "high")

    def test_any_source(self):
        def rank_fn(comm):
            if comm.rank == 0:
                got = [comm.recv(source=ANY_SOURCE) for _ in range(2)]
                return sorted(got)
            comm.send(comm.rank, dest=0)
            return None

        report = run_spmd(rank_fn, 3)
        assert report.values[0] == [1, 2]

    def test_stats_counted(self):
        def rank_fn(comm):
            if comm.rank == 0:
                comm.send([1, 2, 3, 4], dest=1)
            else:
                comm.recv(source=0)
            return None

        report = run_spmd(rank_fn, 2)
        total = report.total_stats()
        assert total.messages_sent == 1
        assert total.messages_received == 1
        assert total.items_sent == 4


class TestWorldAndErrors:
    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            SimCommWorld(0)

    def test_comm_rank_range(self):
        world = SimCommWorld(2)
        with pytest.raises(ValueError):
            world.comm(5)

    def test_send_to_invalid_rank(self):
        world = SimCommWorld(2)
        with pytest.raises(ValueError):
            world.comm(0).send("x", dest=7)

    def test_stats_merge(self):
        a = CommStats(messages_sent=1, items_sent=3)
        b = CommStats(messages_sent=2, bytes_received=5)
        merged = a.merge(b)
        assert merged.messages_sent == 3
        assert merged.items_sent == 3
        assert merged.bytes_received == 5

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(CommStats)])
    def test_merge_sums_every_counter(self, field):
        a, b = CommStats(**{field: 2}), CommStats(**{field: 5})
        assert a.merge(b).as_dict() == {**CommStats().as_dict(), field: 7}

    def test_as_dict_is_exactly_the_counters(self):
        # Serve ``stats["comm"]`` publishes this dict; every key is a live counter.
        assert list(CommStats().as_dict()) == [f.name for f in dataclasses.fields(CommStats)]
        assert set(CommStats().as_dict()) == {
            "messages_sent", "messages_received", "items_sent", "items_received",
            "bytes_sent", "bytes_received",
        }

    def test_threaded_round_counts_messages_and_items(self):
        def rank_fn(comm):
            if comm.rank == 0:
                comm.send([1, 2, 3], dest=1)
            else:
                comm.recv(source=0)
            return comm.rank

        stats = run_spmd(rank_fn, 2, backend="thread").total_stats()
        assert (stats.messages_sent, stats.messages_received) == (1, 1)
        assert (stats.items_sent, stats.items_received) == (3, 3)
        # The in-process transport never frames a message.
        assert stats.bytes_sent == stats.bytes_received == 0


class TestRunner:
    def test_backends_listed(self):
        # The single source of truth for run_spmd AND parallel_map; the
        # process backends joined the list with the shared-memory runtime.
        assert available_backends() == [
            "serial", "thread", "process", "process-shm", "process-sock"
        ]

    @pytest.mark.parametrize(
        "backend,floor,expected",
        [
            ("serial", "serial", ["serial"]),
            ("thread", "serial", ["thread", "serial"]),
            ("process", "serial", ["process", "thread", "serial"]),
            ("process-shm", "serial", ["process-shm", "thread", "serial"]),
            ("process-sock", "thread", ["process-sock", "thread"]),
        ],
        ids=["serial", "thread", "process", "process-shm", "process-sock"],
    )
    def test_degradation_ladder(self, backend, floor, expected):
        # Both aliases step down from the process rung under their own name.
        assert _degradation_ladder(backend, floor=floor) == expected

    def test_unknown_backend_errors_name_the_backends(self):
        with pytest.raises(ValueError, match="process-shm"):
            run_spmd(lambda c: None, 2, backend="mpi")
        with pytest.raises(ValueError, match="process-shm"):
            parallel_map(lambda a: a, [(1,)], backend="cluster")

    def test_serial_backend_for_independent_ranks(self):
        report = run_spmd(lambda comm: comm.rank ** 2, 4, backend="serial")
        assert report.values == [0, 1, 4, 9]
        assert report.backend == "serial"

    def test_rank_args(self):
        report = run_spmd(
            lambda comm, item: (comm.rank, item), 3, rank_args=[("a",), ("b",), ("c",)]
        )
        assert report.values == [(0, "a"), (1, "b"), (2, "c")]

    def test_shared_args_and_kwargs(self):
        report = run_spmd(
            lambda comm, x, y=0: comm.rank + x + y, 2, args=(10,), kwargs={"y": 100}
        )
        assert report.values == [110, 111]

    def test_rank_exception_propagates(self):
        def rank_fn(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            return "ok"

        with pytest.raises(RuntimeError, match="rank 1"):
            run_spmd(rank_fn, 2)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, 0)
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, 2, rank_args=[()])
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, 2, backend="mpi")

    def test_parallel_map_serial(self):
        results = parallel_map(lambda a, b: a * b, [(2, 3), (4, 5)])
        assert results == [6, 20]

    def test_parallel_map_invalid_backend(self):
        with pytest.raises(ValueError):
            parallel_map(lambda a: a, [(1,)], backend="cluster")

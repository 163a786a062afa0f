"""Fault-injection tests for the serving layer and its process substrate.

Covers the failure modes a resident daemon must absorb:

* a pool worker SIGKILLed mid-request → :class:`WorkerPoolError` for that
  request, pool torn down and respawned, daemon keeps serving;
* a stalled peer → the client times out instead of hanging forever;
* repeated serve start/stop cycles → no orphaned worker pool;
* a start that fails (port already bound) → no leaked admission workers,
  and the server reports not running and can be started again.

The worker kill is deterministic: the victim is the pool process executing
the poisoned item, which SIGKILLs itself — no racing an external kill against
scheduler timing.
"""

from __future__ import annotations

import os
import signal
import socket
import threading

import pytest

from repro.parallel.runner import (
    WorkerPoolError,
    parallel_map,
    shutdown_worker_pool,
    worker_pool_size,
)
from repro.serve import ReproServer, ServeClient, ServeError, ServeTimeout

SCALE = 0.02


def _suicide_on_zero(item: int) -> int:
    """Pool-worker payload: the item-0 worker SIGKILLs itself mid-task."""
    if item == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return item * 10


def _well_behaved(item: int) -> int:
    return item + 1


# ----------------------------------------------------------------------
# dead-worker detection in the shared pool
# ----------------------------------------------------------------------
class TestDeadPoolWorker:
    # max_retries=0: these tests pin the *raise* path — retrying a payload
    # that unconditionally SIGKILLs its worker would only repeat the drain.
    def test_killed_worker_raises_instead_of_hanging(self):
        with pytest.raises(WorkerPoolError, match="died"):
            parallel_map(
                _suicide_on_zero, [(i,) for i in range(4)], backend="process", max_retries=0
            )
        # The broken pool was torn down, not left half-dead.
        assert worker_pool_size() == 0

    def test_pool_respawns_after_failure(self):
        with pytest.raises(WorkerPoolError):
            parallel_map(
                _suicide_on_zero, [(i,) for i in range(4)], backend="process", max_retries=0
            )
        # The next call builds a fresh pool and works normally.
        assert parallel_map(_well_behaved, [(i,) for i in range(6)], backend="process") == [
            1, 2, 3, 4, 5, 6,
        ]
        shutdown_worker_pool()


# ----------------------------------------------------------------------
# the daemon survives a killed pool worker
# ----------------------------------------------------------------------
def _faulty_op(params: dict) -> dict:
    """Test-only server op: fans a poisoned map over the process pool."""
    values = parallel_map(
        _suicide_on_zero, [(i,) for i in range(4)], backend="process", max_retries=0
    )
    return {"values": values}


class TestDaemonSurvivesWorkerDeath:
    def test_failed_request_errors_but_daemon_keeps_serving(self):
        with ReproServer(
            default_scale=SCALE, workers=2, extra_handlers={"faulty": _faulty_op}
        ) as srv:
            with ServeClient(port=srv.port, timeout=600.0) as client:
                response = client.request("faulty")
                assert response["ok"] is False
                assert response["error"]["code"] == "internal"
                assert "WorkerPoolError" in response["error"]["message"]
                # Same connection, next request: the daemon is unharmed.
                after = client.request("filter", dataset="CRE", seed=5)
                assert after["ok"] is True
            # A fresh connection works too, and the pool slot is clean.
            with ServeClient(port=srv.port, timeout=600.0) as client:
                assert client.ping()["status"] == "ok"


# ----------------------------------------------------------------------
# client-side timeout against a stalled peer
# ----------------------------------------------------------------------
class TestClientTimeout:
    def test_stalled_socket_times_out_instead_of_hanging(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        held: list[socket.socket] = []
        accepted = threading.Event()

        def hold_open() -> None:
            conn, _ = listener.accept()
            held.append(conn)
            accepted.set()
            # Never read, never respond: a stalled daemon.

        acceptor = threading.Thread(target=hold_open, daemon=True)
        acceptor.start()
        try:
            client = ServeClient(port=port, timeout=0.5)
            assert accepted.wait(30)
            with pytest.raises(ServeTimeout):
                client.request("ping")
            client.close()
        finally:
            for conn in held:
                conn.close()
            listener.close()

    def test_daemon_closing_connection_is_an_error_not_a_hang(self):
        srv = ReproServer(default_scale=SCALE, workers=1)
        srv.start()
        client = ServeClient(port=srv.port, timeout=60.0)
        assert client.ping()["status"] == "ok"
        srv.stop()  # drains, then closes the client's connection
        with pytest.raises((ServeError, OSError)):
            client.request("ping")
        client.close()


# ----------------------------------------------------------------------
# start/stop cycles leak nothing
# ----------------------------------------------------------------------
class TestServeCycleLeaks:
    def test_repeated_start_stop_cycles_leak_no_workers(self):
        for cycle in range(3):
            with ReproServer(default_scale=SCALE, workers=2) as srv:
                with ServeClient(port=srv.port, timeout=600.0) as client:
                    params = {"dataset": "CRE", "partitions": 2, "seed": 700 + cycle}
                    if cycle == 1:
                        # One cycle runs the filter on the resident worker hub.
                        params["backend"] = "process"
                    assert client.result("filter", **params)["edges_kept"] > 0
            assert worker_pool_size() == 0, f"cycle {cycle} leaked"

    def test_failed_start_releases_workers_and_is_not_running(self):
        holder = socket.create_server(("127.0.0.1", 0))
        port = holder.getsockname()[1]
        before = set(threading.enumerate())
        srv = ReproServer(port=port, default_scale=SCALE, workers=2)
        try:
            with pytest.raises(OSError):
                with srv:
                    pass
            leaked = [t.name for t in set(threading.enumerate()) - before if t.is_alive()]
            assert leaked == []
            assert not srv.running
        finally:
            holder.close()
        # The failed start left nothing behind that would make a second
        # start return early without listening.
        srv.start()
        try:
            assert srv.running
            with ServeClient(port=port, timeout=60.0) as client:
                assert client.ping()["status"] == "ok"
        finally:
            srv.stop()

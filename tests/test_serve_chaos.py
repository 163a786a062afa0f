"""Chaos tier for the serving layer: the daemon absorbs injected faults.

Schedules (seeded, ``REPRO_CHAOS_SEED`` varies them in CI) are installed via
the fault plane of :mod:`repro.faults` against a live in-process daemon:

* a crashing admission worker fails exactly one ticket, the supervisor
  respawns the thread, and warm results stay byte-identical across the crash;
* a failed dataset rebuild marks the state *degraded* while the previous
  bundle keeps serving — and a later clean reload restores it;
* an admission-path fault errors one request without taking the daemon down;
* the client's bounded retry knobs cover a daemon that is merely *late*
  (connect retry) or momentarily failing (idempotent request retry).
"""

from __future__ import annotations

import os
import socket
import threading
import time

import pytest

from repro.faults import FaultPlan, active_plan
from repro.parallel import runner
from repro.serve import ReproServer, ServeClient, ServeError
from repro.serve.protocol import error_response, ok_response, read_message, write_message

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "0"))
SCALE = 0.02


#: Every test runs without a plan, with drained events (see ``counter_delta``).
pytestmark = pytest.mark.usefixtures("counter_delta")


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    """Shrink the one retry backoff so client retries resolve quickly."""
    monkeypatch.setattr(runner, "BACKOFF_BASE", 0.01)


def _wait_for(predicate, timeout: float = 10.0, poll: float = 0.02) -> bool:
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return predicate()


# ----------------------------------------------------------------------
# admission-worker crash → supervisor respawn
# ----------------------------------------------------------------------
class TestWorkerSupervisor:
    def test_dead_worker_is_respawned_and_results_stay_identical(self, counter_delta):
        with ReproServer(default_scale=SCALE, workers=2, supervisor_interval=0.05) as srv:
            with ServeClient(port=srv.port, timeout=600.0) as client:
                baseline = client.result("filter", dataset="CRE")
                plan = FaultPlan(CHAOS_SEED).fail("serve.worker", at=1)
                with active_plan(plan):
                    # The worker that picks this ticket up crashes: the
                    # request errors (no hang), the thread dies.
                    response = client.request("filter", dataset="CRE", ordering="rcm")
                    assert response["ok"] is False
                    assert response["error"]["code"] == "internal"
                assert _wait_for(
                    lambda: srv.admission.stats()["worker_respawns"] >= 1
                    and srv.admission.stats()["workers_alive"] == 2
                ), "supervisor did not respawn the dead worker"
                stats = client.result("stats")
                assert stats["admission"]["workers_alive"] == 2
                assert stats["admission"]["worker_respawns"] >= 1
                # The failed request succeeds on retry, and the warm result
                # from before the crash is byte-identical after it.
                assert client.result("filter", dataset="CRE", ordering="rcm")["edges_kept"] > 0
                assert client.result("filter", dataset="CRE") == baseline
        # An admission-thread crash is the serve supervisor's business: the
        # runtime's retry counters do not move.
        assert counter_delta() == {"retries": 0, "degrades": 0}

    def test_supervise_once_reports_respawn_count(self):
        with ReproServer(default_scale=SCALE, workers=2, supervisor_interval=60.0) as srv:
            with ServeClient(port=srv.port, timeout=600.0) as client:
                plan = FaultPlan(CHAOS_SEED).fail("serve.worker", at=1)
                with active_plan(plan):
                    assert client.request("ping")["ok"]  # ping skips admission
                    assert client.request("filter", dataset="CRE")["ok"] is False
                assert _wait_for(lambda: srv.admission.stats()["workers_alive"] == 1)
                assert srv.supervise_once() == 1
                assert srv.admission.stats()["workers_alive"] == 2


# ----------------------------------------------------------------------
# failed rebuild → degraded, not dead
# ----------------------------------------------------------------------
class TestRebuildDegrade:
    def test_failed_reload_degrades_and_old_bundle_keeps_serving(self):
        with ReproServer(default_scale=SCALE, workers=1) as srv:
            with ServeClient(port=srv.port, timeout=600.0) as client:
                baseline = client.result("filter", dataset="CRE", seed=3)
                plan = FaultPlan(CHAOS_SEED).fail("serve.rebuild", at=1)
                with active_plan(plan):
                    with pytest.raises(ServeError, match="injected fault"):
                        client.result("reload", dataset="CRE")
                summary = client.result("datasets")[0]
                assert summary["health"] == "degraded"
                assert "reload failed" in summary["degraded_reason"]
                assert summary["generation"] == 0
                # Degraded ≠ dead: the previous bundle answers byte-identically.
                assert client.result("filter", dataset="CRE", seed=3) == baseline
                # A clean reload restores health and bumps the generation.
                assert client.result("reload", dataset="CRE")["generation"] == 1
                summary = client.result("datasets")[0]
                assert summary["health"] == "healthy"
                assert "degraded_reason" not in summary
                # The rebuild is deterministic: same bytes after the swap.
                assert client.result("filter", dataset="CRE", seed=3) == baseline


# ----------------------------------------------------------------------
# admission-path fault → one error, daemon survives
# ----------------------------------------------------------------------
class TestAdmitFault:
    def test_admit_fault_errors_one_request_only(self):
        with ReproServer(default_scale=SCALE, workers=1) as srv:
            with ServeClient(port=srv.port, timeout=600.0) as client:
                plan = FaultPlan(CHAOS_SEED).fail("serve.admit", at=1)
                with active_plan(plan):
                    response = client.request("filter", dataset="CRE", seed=4)
                    assert response["ok"] is False
                    assert response["error"]["code"] == "internal"
                    assert "injected fault" in response["error"]["message"]
                    # Budget spent: the daemon is unharmed, same connection.
                    assert client.request("filter", dataset="CRE", seed=4)["ok"]

    def test_execute_fault_is_retryable_via_client(self):
        with ReproServer(default_scale=SCALE, workers=1) as srv:
            plan = FaultPlan(CHAOS_SEED).fail("serve.execute", at=1)
            with active_plan(plan):
                with ServeClient(port=srv.port, timeout=600.0, max_retries=2) as client:
                    with pytest.raises(ServeError, match="injected fault"):
                        # "internal" is not a retryable code: a genuine
                        # execution error surfaces on the first attempt.
                        client.result("filter", dataset="CRE", seed=5)
                    # The fault budget is spent; the retry knob is for
                    # transient transport errors, tested below.
                    assert client.result("filter", dataset="CRE", seed=5)["edges_kept"] > 0


# ----------------------------------------------------------------------
# client-side bounded retries
# ----------------------------------------------------------------------
class TestClientRetry:
    def test_connect_retry_waits_for_a_late_daemon(self):
        # Reserve a port, release it, open the listener only after a delay —
        # the race `repro request` runs against `repro serve &`.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        opened = threading.Event()
        held: list[socket.socket] = []

        def late_open() -> None:
            time.sleep(0.3)
            listener = socket.create_server(("127.0.0.1", port))
            held.append(listener)
            opened.set()

        threading.Thread(target=late_open, daemon=True).start()
        try:
            client = ServeClient(port=port, timeout=5.0, connect_retries=20)
            client.close()
            assert opened.is_set()
        finally:
            for sock in held:
                sock.close()

    def test_no_connect_retries_fails_fast(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            ServeClient(port=port, timeout=1.0, connect_retries=0)

    def test_busy_response_is_retried_on_the_same_connection(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def busy_then_ok() -> None:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rf, conn.makefile("wb") as wf:
                first = read_message(rf)
                write_message(wf, error_response(first["id"], "busy", "queue full"))
                second = read_message(rf)
                write_message(wf, ok_response(second["id"], {"answer": 42}))

        server = threading.Thread(target=busy_then_ok, daemon=True)
        server.start()
        try:
            with ServeClient(port=port, timeout=5.0, max_retries=2) as client:
                assert client.result("ping") == {"answer": 42}
            server.join(10)
        finally:
            listener.close()

    def test_dropped_connection_is_retried_with_reconnect(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def drop_then_serve() -> None:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as rf:
                read_message(rf)  # swallow the request, then drop the peer
            conn2, _ = listener.accept()
            with conn2, conn2.makefile("rb") as rf, conn2.makefile("wb") as wf:
                message = read_message(rf)
                write_message(wf, ok_response(message["id"], {"answer": 7}))

        server = threading.Thread(target=drop_then_serve, daemon=True)
        server.start()
        try:
            with ServeClient(port=port, timeout=5.0, max_retries=2, connect_retries=5) as client:
                assert client.result("ping") == {"answer": 7}
            server.join(10)
        finally:
            listener.close()

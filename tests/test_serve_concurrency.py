"""Concurrency tests for the resident service.

Every synchronisation point here is an event, barrier or server hook — no
sleeps-as-synchronisation.  The hooks (:class:`repro.serve.ServerHooks`) are
the deterministic seams: ``before_execute`` parks an executing request (or
holds two at a barrier so they run concurrently), and ``on_enqueued``
establishes the happens-before edge for admission-overflow ordering.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.clustering.mcode import mcode_clusters
from repro.pipeline.workflow import enrichment_payload
from repro.serve import (
    AdmissionQueue,
    BusyError,
    ReproServer,
    ServeClient,
    ServerHooks,
    ShuttingDownError,
)
from repro.serve.handlers import _run_filter, normalize_params
from repro.serve.state import dataset_key

SCALE = 0.02


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# admission queue (unit level)
# ----------------------------------------------------------------------
class TestAdmissionQueue:
    def test_overflow_rejects_immediately(self):
        entered = threading.Event()
        release = threading.Event()

        def blocker():
            entered.set()
            release.wait()
            return "done"

        q = AdmissionQueue(max_pending=1, workers=1)
        q.start()
        try:
            first = q.submit(blocker)
            assert entered.wait(30)  # the worker holds the only slot
            second = q.submit(lambda: "queued")  # fills the bounded queue
            with pytest.raises(BusyError):
                q.submit(lambda: "overflow")
            assert q.stats()["rejected"] == 1
        finally:
            release.set()
            q.shutdown()
        assert first.value == "done"
        assert second.value == "queued"  # graceful drain ran the pending ticket

    def test_submit_after_shutdown_raises(self):
        q = AdmissionQueue(max_pending=2, workers=1)
        q.start()
        q.shutdown()
        with pytest.raises(ShuttingDownError):
            q.submit(lambda: 1)

    def test_ticket_captures_errors(self):
        q = AdmissionQueue(max_pending=2, workers=1)
        q.start()
        try:
            ticket = q.submit(lambda: 1 / 0)
            assert ticket.wait(30)
            assert isinstance(ticket.error, ZeroDivisionError)
        finally:
            q.shutdown()

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_pending=0)
        with pytest.raises(ValueError):
            AdmissionQueue(workers=0)


# ----------------------------------------------------------------------
# multi-client stress with per-client result identity
# ----------------------------------------------------------------------
class TestMultiClientStress:
    N_CLIENTS = 8

    def test_identical_bytes_across_concurrent_clients(self):
        with ReproServer(default_scale=SCALE, workers=4, max_pending=64) as srv:
            barrier = threading.Barrier(self.N_CLIENTS)
            results: list = [None] * self.N_CLIENTS
            errors: list = []

            def worker(i: int) -> None:
                try:
                    with ServeClient(port=srv.port, timeout=600.0) as client:
                        barrier.wait(timeout=120)
                        # Same spec from every client, twice per client: the
                        # response bytes must be identical within a client
                        # (cache hit path == miss path) and across clients.
                        # Between them each client runs a spec of its own (the
                        # random walk keeps its seed), once as a miss and once
                        # as a hit.
                        shared_1 = client.result("filter", dataset="CRE")
                        walk = {"dataset": "CRE", "method": "random_walk", "seed": 1000 + i}
                        own = [client.result("filter", **walk) for _ in range(2)]
                        shared_2 = client.result("filter", dataset="CRE")
                        results[i] = (canonical(shared_1), canonical(shared_2), own)
                except Exception as err:  # noqa: BLE001 — surfaced via the list
                    errors.append((i, repr(err)))

            threads = [
                threading.Thread(target=worker, args=(i,), name=f"stress-{i}")
                for i in range(self.N_CLIENTS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            assert not errors, errors
            assert all(r is not None for r in results)
            shared = {r[0] for r in results} | {r[1] for r in results}
            assert len(shared) == 1  # one byte string across all clients and repeats
            assert all(own[0] == own[1] for _, _, own in results)
            stats = srv.stats()
            assert stats["cache"]["size"] == 1 + self.N_CLIENTS
            assert stats["admission"]["rejected"] == 0
            assert stats["admission"]["executed"] >= self.N_CLIENTS  # misses ran


# ----------------------------------------------------------------------
# bounded admission through the socket
# ----------------------------------------------------------------------
class TestBoundedAdmission:
    def test_overflow_gets_clean_busy_error(self):
        entered = threading.Event()
        release = threading.Event()
        enqueued = threading.Event()

        hooks = ServerHooks(
            before_execute=lambda op, h: (entered.set(), release.wait()),
            on_enqueued=lambda op, h: enqueued.set(),
        )
        with ReproServer(
            default_scale=SCALE, workers=1, max_pending=1, hooks=hooks
        ) as srv:
            responses: dict[str, dict] = {}

            def send(tag: str, seed: int) -> None:
                with ServeClient(port=srv.port, timeout=600.0) as client:
                    responses[tag] = client.request("filter", dataset="CRE", seed=seed)

            # Request A occupies the single worker (parked at the hook)...
            thread_a = threading.Thread(target=send, args=("a", 1))
            thread_a.start()
            assert entered.wait(120)
            # ...request B fills the one queue slot (on_enqueued = the edge
            # proving it was admitted before C is sent)...
            enqueued.clear()
            thread_b = threading.Thread(target=send, args=("b", 2))
            thread_b.start()
            assert enqueued.wait(120)
            # ...so request C must be rejected immediately, not queued.
            with ServeClient(port=srv.port, timeout=600.0) as client:
                busy = client.request("filter", dataset="CRE", seed=3)
            assert busy["ok"] is False
            assert busy["error"]["code"] == "busy"
            release.set()
            thread_a.join(timeout=600)
            thread_b.join(timeout=600)
            assert responses["a"]["ok"] and responses["b"]["ok"]
            assert srv.admission.stats()["rejected"] == 1


# ----------------------------------------------------------------------
# graceful shutdown with in-flight requests
# ----------------------------------------------------------------------
class TestGracefulShutdown:
    def test_in_flight_and_queued_requests_complete(self):
        entered = threading.Event()
        release = threading.Event()
        enqueued = threading.Event()
        hooks = ServerHooks(
            before_execute=lambda op, h: (entered.set(), release.wait()),
            on_enqueued=lambda op, h: enqueued.set(),
        )
        srv = ReproServer(default_scale=SCALE, workers=1, max_pending=4, hooks=hooks)
        srv.start()
        responses: dict[str, dict] = {}

        def send(tag: str, seed: int) -> None:
            with ServeClient(port=srv.port, timeout=600.0) as client:
                responses[tag] = client.request("filter", dataset="CRE", seed=seed)

        thread_a = threading.Thread(target=send, args=("a", 11))
        thread_a.start()
        assert entered.wait(120)  # A is executing (parked)
        enqueued.clear()
        thread_b = threading.Thread(target=send, args=("b", 12))
        thread_b.start()
        assert enqueued.wait(120)  # B is admitted and queued behind A

        stopper = threading.Thread(target=srv.stop)
        stopper.start()
        release.set()  # let the drain finish
        stopper.join(timeout=600)
        thread_a.join(timeout=600)
        thread_b.join(timeout=600)
        assert not stopper.is_alive()
        # Both admitted requests got real responses, not dropped connections.
        assert responses["a"]["ok"] is True
        assert responses["b"]["ok"] is True
        assert canonical(responses["a"]["result"]) == canonical(responses["b"]["result"])
        # The listener is down: new connections are refused outright.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", srv.port), timeout=5)

    def test_stop_is_idempotent(self):
        srv = ReproServer(default_scale=SCALE, workers=1)
        srv.start()
        srv.stop()
        srv.stop()
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", srv.port), timeout=5)

    def test_second_stop_returns_only_after_the_first(self):
        # `repro serve` ends the process when serve_forever's own stop()
        # returns; if that call did not wait for the `shutdown` op's stop,
        # the response still being written would be cut off.
        entered = threading.Event()
        release = threading.Event()
        hooks = ServerHooks(before_execute=lambda op, h: (entered.set(), release.wait()))
        srv = ReproServer(default_scale=SCALE, workers=1, hooks=hooks)
        srv.start()
        responses: dict[str, dict] = {}

        def send() -> None:
            with ServeClient(port=srv.port, timeout=600.0) as client:
                responses["a"] = client.request("filter", dataset="CRE")

        sender = threading.Thread(target=send)
        sender.start()
        first = threading.Thread(target=srv.stop)
        second = threading.Thread(target=srv.stop)
        try:
            assert entered.wait(120)  # the request is executing (parked)
            first.start()
            assert srv._stopped.wait(120)  # the first stop owns the drain
            second.start()
            second.join(timeout=0.5)
            assert second.is_alive()  # still waiting on the first stop's drain
        finally:
            release.set()
        for thread in (first, second, sender):
            thread.join(timeout=600)
            assert not thread.is_alive()
        assert responses["a"]["ok"] is True


# ----------------------------------------------------------------------
# concurrent enrich requests score directly, one pass each
# ----------------------------------------------------------------------
def expected_enrich(state, params: dict) -> dict:
    """The ``enrich`` payload scored straight on the warm bundle's scorer."""
    bundle = state.bundle
    request = normalize_params("enrich", {"dataset": "CRE", **params}, SCALE)
    if request["source"] == "original":
        clusters, source = bundle.original_clusters, "CRE/original"
    else:
        source = f"CRE/{request['method']}/{request['ordering'] or '-'}/{request['partitions']}P"
        result = _run_filter(state, request)
        clusters = mcode_clusters(result.filtered_csr(), source=source)
    return enrichment_payload(clusters, bundle.scorer.cluster_aees(clusters), source)


class TestConcurrentEnrich:
    def test_concurrent_enrich_equals_sequential_and_direct_scoring(self):
        baseline = set(threading.enumerate())
        sources = ("original", "filtered")
        barrier = threading.Barrier(len(sources))
        thread_names: set[str] = set()
        concurrent_round = threading.Event()
        concurrent_round.set()

        def before_execute(op: str, _hash: str) -> None:
            thread_names.update(t.name for t in threading.enumerate())
            if op == "enrich" and concurrent_round.is_set():
                # Both requests are executing before either scores.
                barrier.wait(timeout=120)

        srv = ReproServer(
            default_scale=SCALE, workers=2, hooks=ServerHooks(before_execute=before_execute)
        )
        srv.start()
        try:
            concurrent: dict[str, str] = {}

            def send(source: str) -> None:
                with ServeClient(port=srv.port, timeout=600.0) as client:
                    concurrent[source] = canonical(
                        client.result("enrich", dataset="CRE", source=source)
                    )

            threads = [threading.Thread(target=send, args=(source,)) for source in sources]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            assert set(concurrent) == set(sources)

            concurrent_round.clear()
            # The sequential requests must score again.
            srv.cache.invalidate_dataset(dataset_key("CRE", SCALE))
            with ServeClient(port=srv.port, timeout=600.0) as client:
                sequential = {}
                for source in sources:
                    response = client.request("enrich", dataset="CRE", source=source)
                    assert response["ok"] and not response["cached"]
                    sequential[source] = canonical(response["result"])
                stats = client.result("stats")["enrichment"]
            assert concurrent == sequential

            state = srv.state.get("CRE", SCALE)
            expected = {source: expected_enrich(state, {"source": source}) for source in sources}
            assert concurrent == {source: canonical(expected[source]) for source in sources}
            scored = sum(expected[source]["n_clusters"] for source in sources)
            assert stats == {"batches": 4, "coalesced_requests": 4, "scored_clusters": 2 * scored}
        finally:
            srv.stop()
        assert "serve-enrich-batcher" not in thread_names
        # stop() closed every connection; their reader threads end on EOF.
        for t in threading.enumerate():
            if t.name == "serve-conn":
                t.join(timeout=60)
        assert set(threading.enumerate()) <= baseline

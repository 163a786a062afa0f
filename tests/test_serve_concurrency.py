"""Concurrency tests for the resident service.

Every synchronisation point here is an event, barrier or server hook — no
sleeps-as-synchronisation.  The hooks (:class:`repro.serve.ServerHooks`) are
the deterministic seams: ``before_execute`` parks an executing request,
``on_enqueued`` establishes the happens-before edge for admission-overflow
ordering, and ``batch_gate``/``batch_submit`` pin the enrichment batcher's
drain loop.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.serve import (
    AdmissionQueue,
    BusyError,
    EnrichmentBatcher,
    ReproServer,
    ServeClient,
    ServerHooks,
    ShuttingDownError,
)

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
# enrichment batcher (unit level, deterministic coalescing)
# ----------------------------------------------------------------------
class TestEnrichmentBatcher:
    def test_two_submissions_coalesce_into_one_scorer_pass(self, cre_bundle):
        allow = threading.Event()
        scorer_calls = []
        real = cre_bundle.scorer

        class CountingScorer:
            def cluster_aees(self, graphs):
                scorer_calls.append(len(graphs))
                return real.cluster_aees(graphs)

        batcher = EnrichmentBatcher(CountingScorer(), gate=lambda: allow.wait())
        graphs = [c.subgraph for c in cre_bundle.original_clusters]
        first_half, second_half = graphs[: len(graphs) // 2], graphs[len(graphs) // 2 :]
        try:
            # The drain loop is gated shut, so both submissions pile up and
            # are collected by ONE wake-up once the gate opens.
            item_a = batcher.submit(first_half)
            item_b = batcher.submit(second_half)
            allow.set()
            assert item_a.event.wait(60) and item_b.event.wait(60)
        finally:
            allow.set()
            batcher.stop()
        assert scorer_calls == [len(graphs)]  # one concatenated pass
        stats = batcher.stats()
        assert stats["batches"] == 1
        assert stats["coalesced_requests"] == 2
        assert stats["scored_clusters"] == len(graphs)
        # Batch composition does not change per-cluster scores.
        assert item_a.values == real.cluster_aees(first_half)
        assert item_b.values == real.cluster_aees(second_half)

    def test_batch_error_delivered_to_every_waiter(self):
        class FailingScorer:
            def cluster_aees(self, graphs):
                raise RuntimeError("scorer exploded")

        batcher = EnrichmentBatcher(FailingScorer())
        try:
            with pytest.raises(RuntimeError, match="scorer exploded"):
                batcher.score([object()], timeout=60)
        finally:
            batcher.stop()

    def test_submit_after_stop_raises(self, cre_bundle):
        batcher = EnrichmentBatcher(cre_bundle.scorer)
        batcher.stop()
        with pytest.raises(RuntimeError):
            batcher.submit([])


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
                        shared_1 = client.result("filter", dataset="CRE", seed=900)
                        own = client.result("filter", dataset="CRE", seed=1000 + i)
                        shared_2 = client.result("filter", dataset="CRE", seed=900)
                        results[i] = (canonical(shared_1), canonical(shared_2), canonical(own))
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
            # The seed does not change the chordal filter's output, so the
            # per-client specs are distinct cache entries with equal payloads.
            assert {r[2] for r in results} == shared
            stats = srv.stats()
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
        assert not srv.running

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
# cross-request enrichment coalescing through the socket
# ----------------------------------------------------------------------
class TestServedCoalescing:
    def test_concurrent_enrich_requests_share_one_batch(self):
        allow = threading.Event()
        hooks = ServerHooks(
            batch_gate=lambda: allow.wait(),
            # Opens the gate exactly when the second submission is pending.
            batch_submit=lambda pending: allow.set() if pending >= 2 else None,
        )
        with ReproServer(default_scale=SCALE, workers=2, hooks=hooks) as srv:
            results: dict[str, dict] = {}

            def send(tag: str, **params) -> None:
                with ServeClient(port=srv.port, timeout=600.0) as client:
                    results[tag] = client.result("enrich", dataset="CRE", **params)

            threads = [
                threading.Thread(target=send, args=("original",), kwargs={"source": "original"}),
                threading.Thread(target=send, args=("filtered",), kwargs={"source": "filtered"}),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=600)
            assert set(results) == {"original", "filtered"}
            state = srv.state.get("CRE", SCALE)
            stats = state.batcher.stats()
            assert stats["coalesced_requests"] == 2
            assert stats["batches"] == 1  # both scored in one concatenated pass
            # Coalescing must not change the scores: compare against direct
            # per-request scoring on the same warm bundle.
            expected = state.bundle.scorer.cluster_aees(
                [c.subgraph for c in state.bundle.original_clusters]
            )
            got = [r["aees_hex"] for r in results["original"]["clusters"]]
            assert got == [float(v).hex() for v in expected]

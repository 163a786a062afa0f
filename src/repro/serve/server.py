"""The resident analysis server (``repro serve``).

One :class:`ReproServer` owns the warm state the cold CLI rebuilds on every
invocation — prepared dataset bundles, the worker pool — and serves requests
over a local stream socket with the newline-delimited JSON protocol of
:mod:`repro.serve.protocol`.  The moving parts, one module each:

* admission (:mod:`repro.serve.admission`): a bounded queue in front of a
  fixed worker-thread pool; overload is rejected with a ``busy`` error, never
  queued unboundedly;
* caching (:mod:`repro.serve.cache`): responses of the pure work ops are
  memoised under their spec hash, tagged with the dataset generation;
* warm state (:mod:`repro.serve.state`): per-dataset bundles with a
  drain-then-swap reload discipline.

Threading model: one accept thread, one connection thread per client (it
parses, admits and *waits* — cheap), ``workers`` executor threads (they run
the pipeline).

``hooks`` exist for the concurrency tests: they are synchronisation points
(events/barriers), never sleeps, and all default to no-ops.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..faults import fault_point
from ..parallel.runner import comm_counters, shutdown_worker_pool, supervision_counters
from ..pipeline.experiments import default_scale as _default_scale
from .admission import AdmissionQueue, BusyError, ShuttingDownError
from .cache import ResultCache
from ..incremental import UpdateSpec
from .handlers import (
    CACHEABLE_OPS,
    HANDLERS,
    normalize_dataset_params,
    normalize_params,
    normalize_update_params,
)
from .protocol import (
    ERROR_BAD_REQUEST,
    ERROR_BUSY,
    ERROR_INTERNAL,
    ERROR_SHUTTING_DOWN,
    PROTOCOL_VERSION,
    ProtocolError,
    Request,
    error_response,
    ok_response,
    parse_request,
    read_message,
    spec_hash,
    write_message,
)

__all__ = ["ServerHooks", "ReproServer"]


@dataclass
class ServerHooks:
    """Test-only synchronisation points along the request path (no-ops here).

    ``on_admit(op, spec_hash)`` fires on the connection thread after a work
    request is normalised, before admission; ``on_enqueued(op, spec_hash)``
    right after it was accepted into the admission queue — the happens-before
    edge the bounded-admission tests order their overflow submissions against.
    ``before_execute(op, spec_hash)`` fires on the executor thread after the
    cache miss, before the handler — tests park requests there to pin
    concurrent interleavings.  ``on_reload_drain(dataset_key)`` fires when a
    reload found in-flight requests to wait for.
    """

    on_admit: Optional[Callable[[str, str], None]] = None
    on_enqueued: Optional[Callable[[str, str], None]] = None
    before_execute: Optional[Callable[[str, str], None]] = None
    on_reload_drain: Optional[Callable[[str], None]] = None


class ReproServer:
    """Resident warm-state analysis service over a local socket."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        preload: tuple = (),
        default_scale: Optional[float] = None,
        workers: int = 4,
        max_pending: int = 64,
        cache_size: int = 256,
        hooks: Optional[ServerHooks] = None,
        supervisor_interval: float = 1.0,
    ) -> None:
        self.host = host
        self.port = port
        self.preload = tuple(preload)
        self.default_scale = (
            _default_scale() if default_scale is None else round(float(default_scale), 6)
        )
        self.workers = workers
        self.max_pending = max_pending
        self.cache_size = cache_size
        self.hooks = hooks or ServerHooks()
        self.supervisor_interval = float(supervisor_interval)

        self._lock = threading.Lock()
        self._responding = 0
        self._responding_cv = threading.Condition(self._lock)
        self._started = False
        self._stopped = threading.Event()
        self._stop_done = threading.Event()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._supervisor_thread: Optional[threading.Thread] = None
        self._connections: set[socket.socket] = set()
        self._started_at = 0.0

        self.state = None  # type: ignore[assignment]
        self.cache: Optional[ResultCache] = None
        self.admission: Optional[AdmissionQueue] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ReproServer":
        """Bind, warm the preloaded datasets and begin accepting clients.

        A start that fails (an occupied port, a preload error) releases what
        it brought up and leaves the server not running, so it can be
        started again.
        """
        with self._lock:
            if self._started:
                return self
            self._started = True
        self._started_at = time.time()
        try:
            self._bring_up()
        except BaseException:
            if self.admission is not None:
                self.admission.shutdown()
            self.admission = self.state = self.cache = None
            with self._lock:
                self._started = False
            raise
        return self

    def _bring_up(self) -> None:
        from .state import ServerState  # deferred: keeps module import light

        self.state = ServerState(self.default_scale)
        self.cache = ResultCache(self.cache_size)
        self.admission = AdmissionQueue(max_pending=self.max_pending, workers=self.workers)
        self.admission.start()
        for name in self.preload:
            self.state.get(name)
        listener = socket.create_server((self.host, self.port))
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        self._supervisor_thread = threading.Thread(
            target=self._supervisor_loop, name="serve-supervisor", daemon=True
        )
        self._supervisor_thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: drain admitted requests, then release everything.

        Order matters: the listener closes first (no new clients), the
        admission queue drains (every admitted request completes and its
        connection thread writes the response), and only then is the worker
        pool shut down and are the remaining client sockets closed.  Idempotent: a second caller returns only once the
        first has finished, so ``serve_forever`` (woken by the ``shutdown``
        op's stop) cannot end the process under a connection thread that is
        still writing the ``shutdown`` response.
        """
        with self._lock:
            first = self._started and not self._stopped.is_set()
            self._stopped.set()
        if not first:
            if self._started:
                self._stop_done.wait()
            return
        try:
            self._stop()
        finally:
            self._stop_done.set()

    def _stop(self) -> None:
        if self._listener is not None:
            # shutdown() before close(): close() alone does not wake a thread
            # blocked in accept() on Linux, shutdown() does (accept raises).
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:  # pragma: no cover - defensive
                pass
        if self._accept_thread is not None:
            self._accept_thread.join()
        if self._supervisor_thread is not None:
            self._supervisor_thread.join()
        if self.admission is not None:
            self.admission.shutdown()
        # Connection threads may still be writing the responses of the drained
        # requests; closing their sockets now would eat those responses.
        with self._responding_cv:
            while self._responding > 0:
                self._responding_cv.wait()
        shutdown_worker_pool()
        with self._lock:
            conns = list(self._connections)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - defensive
                pass

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`stop` (Ctrl-C stops too)."""
        try:
            self._stopped.wait()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        self.stop()

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _supervisor_loop(self) -> None:
        while not self._stopped.wait(self.supervisor_interval):
            try:
                self.supervise_once()
            except Exception:  # pragma: no cover - the supervisor must survive
                pass

    def supervise_once(self) -> int:
        """One supervision pass: respawn dead admission workers.

        Runs periodically on the supervisor thread (every
        ``supervisor_interval`` seconds); callable directly by tests.
        Returns how many workers were respawned.
        """
        if self.admission is None or self._stopped.is_set():
            return 0
        return self.admission.respawn_dead()

    # ------------------------------------------------------------------
    # socket plumbing
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed → shutdown
            with self._lock:
                if self._stopped.is_set():
                    conn.close()
                    return
                self._connections.add(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), name="serve-conn", daemon=True
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        rfile = conn.makefile("rb")
        wfile = conn.makefile("wb")
        try:
            while True:
                try:
                    message = read_message(rfile)
                except ProtocolError as err:
                    write_message(wfile, error_response(None, ERROR_BAD_REQUEST, str(err)))
                    continue
                except OSError:
                    return
                if message is None:
                    return  # peer closed cleanly
                req_id = message.get("id") if isinstance(message, dict) else None
                with self._responding_cv:
                    self._responding += 1
                try:
                    try:
                        request = parse_request(message)
                    except ProtocolError as err:
                        write_message(wfile, error_response(req_id, ERROR_BAD_REQUEST, str(err)))
                        continue
                    try:
                        response = self._dispatch(request)
                    except Exception as err:  # noqa: BLE001 — the daemon must survive
                        response = error_response(
                            request.id, ERROR_INTERNAL, f"{type(err).__name__}: {err}"
                        )
                    try:
                        write_message(wfile, response)
                    except OSError:
                        return  # peer went away mid-response
                finally:
                    with self._responding_cv:
                        self._responding -= 1
                        self._responding_cv.notify_all()
        finally:
            with self._lock:
                self._connections.discard(conn)
            for closer in (rfile.close, wfile.close, conn.close):
                try:
                    closer()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, request: Request) -> dict[str, Any]:
        op = request.op
        if op == "ping":
            return ok_response(
                request.id, {"status": "ok", "protocol": PROTOCOL_VERSION, "port": self.port}
            )
        if op == "stats":
            return ok_response(request.id, self.stats())
        if op == "datasets":
            return ok_response(
                request.id, [state.summary() for state in self.state.states()]
            )
        if op == "reload":
            return self._dispatch_reload(request)
        if op == "update":
            return self._dispatch_update(request)
        if op == "shutdown":
            # Respond first; the actual stop runs off-thread because it must
            # not wait on this very connection.
            threading.Thread(target=self.stop, name="serve-stop", daemon=True).start()
            return ok_response(request.id, {"stopping": True})
        if op in HANDLERS:
            return self._dispatch_work(request)
        return error_response(
            request.id, ERROR_BAD_REQUEST, f"unknown op {op!r}"
        )

    def _dispatch_reload(self, request: Request) -> dict[str, Any]:
        try:
            normalized = normalize_dataset_params(dict(request.params), self.default_scale)
        except ValueError as err:
            return error_response(request.id, ERROR_BAD_REQUEST, str(err))
        state = self.state.get(normalized["dataset"], normalized["scale"])
        generation = self.state.reload(state, on_drain=self._on_reload_drain)
        invalidated = self.cache.invalidate_dataset(state.key)
        return ok_response(
            request.id,
            {
                "dataset": state.name,
                "scale": state.scale,
                "generation": generation,
                "invalidated": invalidated,
            },
        )

    def _dispatch_update(self, request: Request) -> dict[str, Any]:
        """Absorb a dataset mutation into the warm state (delta, no cold rebuild).

        Like ``reload`` this runs on the connection thread under the drain
        lock, but unlike ``reload`` it does *not* flush the result cache:
        cached entries are tagged with component generation tokens
        (:meth:`DatasetState.cache_token`), so only responses whose inputs
        the update actually dirtied stop hitting.
        """
        try:
            normalized = normalize_update_params(dict(request.params), self.default_scale)
        except ValueError as err:
            return error_response(request.id, ERROR_BAD_REQUEST, str(err))
        state = self.state.get(normalized["dataset"], normalized["scale"])
        spec = UpdateSpec(
            add_samples=normalized["add_samples"],
            add_genes=normalized["add_genes"],
            add_annotations=normalized["add_annotations"],
            add_terms=normalized["add_terms"],
            seed=normalized["seed"],
        )
        report = self.state.update(state, spec, on_drain=self._on_reload_drain)
        return ok_response(
            request.id,
            {
                "dataset": state.name,
                "scale": state.scale,
                "mode": report.mode,
                "dirty": sorted(report.dirty),
                "reused": sorted(report.reused),
                "counts": report.counts,
                "updates": len(state.update_log),
                "generation": state.generation,
                "network_generation": state.network_generation,
                "ontology_generation": state.ontology_generation,
            },
        )

    def _on_reload_drain(self, dataset_key: str) -> None:
        if self.hooks.on_reload_drain is not None:
            self.hooks.on_reload_drain(dataset_key)

    def _dispatch_work(self, request: Request) -> dict[str, Any]:
        try:
            normalized = normalize_params(request.op, dict(request.params), self.default_scale)
        except ValueError as err:
            return error_response(request.id, ERROR_BAD_REQUEST, str(err))
        request_hash = spec_hash(request.op, normalized)
        if self.hooks.on_admit is not None:
            self.hooks.on_admit(request.op, request_hash)
        fault_point("serve.admit", op=request.op, spec_hash=request_hash)
        try:
            ticket = self.admission.submit(
                lambda: self._execute(request.op, normalized, request_hash)
            )
        except BusyError as err:
            return error_response(request.id, ERROR_BUSY, str(err))
        except ShuttingDownError as err:
            return error_response(request.id, ERROR_SHUTTING_DOWN, str(err))
        if self.hooks.on_enqueued is not None:
            self.hooks.on_enqueued(request.op, request_hash)
        ticket.wait()
        if ticket.error is not None:
            err = ticket.error
            return error_response(request.id, ERROR_INTERNAL, f"{type(err).__name__}: {err}")
        payload, cached = ticket.value
        return ok_response(request.id, payload, cached=cached, request_hash=request_hash)

    # ------------------------------------------------------------------
    # execution (runs on admission worker threads)
    # ------------------------------------------------------------------
    def _execute(
        self, op: str, normalized: dict[str, Any], request_hash: str
    ) -> tuple[dict[str, Any], bool]:
        state = self.state.get(normalized["dataset"], normalized["scale"])
        state.acquire()
        try:
            # Component-scoped token: an update that only touched the
            # ontology leaves filter entries valid (and vice versa).
            generation = state.cache_token(op)
            cacheable = op in CACHEABLE_OPS
            if cacheable:
                hit = self.cache.get(request_hash, generation)
                if hit is not None:
                    return hit, True
            if self.hooks.before_execute is not None:
                self.hooks.before_execute(op, request_hash)
            fault_point("serve.execute", op=op, spec_hash=request_hash)
            payload = HANDLERS[op](state, normalized)
            if cacheable:
                self.cache.put(request_hash, state.key, generation, payload)
            return payload, False
        finally:
            state.release()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        cache = self.cache.stats().as_dict() if self.cache is not None else {}
        if self.cache is not None:
            cache["size"] = len(self.cache)
            cache["capacity"] = self.cache.capacity
        enrichment: dict[str, int] = {"batches": 0, "coalesced_requests": 0, "scored_clusters": 0}
        datasets = []
        if self.state is not None:
            for state in self.state.states():
                datasets.append(state.summary())
                for key, value in state.enrichment_stats().items():
                    enrichment[key] += value
        return {
            "protocol": PROTOCOL_VERSION,
            "host": self.host,
            "port": self.port,
            "uptime_s": round(time.time() - self._started_at, 3),
            "default_scale": self.default_scale,
            "workers": self.workers,
            "max_pending": self.max_pending,
            "admission": self.admission.stats() if self.admission is not None else {},
            "cache": cache,
            "enrichment": enrichment,
            "supervision": supervision_counters(),
            "comm": comm_counters(),
            "datasets": datasets,
        }

"""Client of the resident service.

A thin synchronous wrapper over the line protocol: connect, send one request
object per call, read its response.  Used by ``repro request``, the serving
benchmark and the test tier.  Error responses surface as :class:`ServeError`
(carrying the protocol error code); a socket-level timeout — e.g. against a
stalled daemon — surfaces as :class:`ServeTimeout` instead of hanging the
caller forever.

Two bounded retry knobs make the client robust against a daemon that is
*about* to be available rather than absent:

* ``connect_retries`` — re-attempt a refused connection after the runtime's
  one seeded jittered backoff (:func:`repro.parallel.runner.backoff`), so
  ``repro request`` issued immediately after ``repro serve &`` finds the
  socket once the daemon finishes binding;
* ``max_retries`` — re-issue a request after a transient failure (``busy``
  rejection, timeout, dropped connection), reconnecting first.  Work
  requests are idempotent by construction — the daemon keys them by spec
  hash and the engines are deterministic — so a retried request returns the
  byte-identical payload the lost one would have.

Both default to 0: every existing caller keeps fail-fast semantics unless it
opts in.
"""

from __future__ import annotations

import random
import socket
from typing import Any, Optional

from ..parallel.runner import BACKOFF_SEED, backoff
from .protocol import read_message, write_message

__all__ = ["ServeError", "ServeTimeout", "ServeClient"]


class ServeError(RuntimeError):
    """The daemon answered with an error response."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class ServeTimeout(TimeoutError):
    """No response within the client's timeout (stalled or unreachable daemon)."""


#: ServeError codes worth retrying: the daemon is alive but momentarily
#: unable to take the request, or the connection died under it.
_RETRYABLE_CODES = ("busy", "disconnected")


class ServeClient:
    """One connection to a running :class:`~repro.serve.server.ReproServer`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 60.0,
        connect_retries: int = 0,
        max_retries: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_retries = max(0, int(connect_retries))
        self.max_retries = max(0, int(max_retries))
        self._rng = random.Random(BACKOFF_SEED)
        self._next_id = 0
        self._sock: Optional[socket.socket] = None
        self._connect()

    # ------------------------------------------------------------------
    def _connect(self) -> None:
        """(Re)open the connection, retrying refused attempts when asked to."""
        self._teardown()
        attempt = 0
        while True:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
                break
            except OSError:
                if attempt >= self.connect_retries:
                    raise
                attempt += 1
                backoff(self._rng, attempt)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")

    def _teardown(self) -> None:
        if self._sock is None:
            return
        for closer in (self._rfile.close, self._wfile.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass
        self._sock = None

    # ------------------------------------------------------------------
    def request(self, op: str, **params: Any) -> dict[str, Any]:
        """Send one request and return the raw response object."""
        self._next_id += 1
        req_id = self._next_id
        try:
            write_message(self._wfile, {"id": req_id, "op": op, "params": params})
            response = read_message(self._rfile)
        except socket.timeout:
            raise ServeTimeout(
                f"no response from {self.host}:{self.port} within {self.timeout}s"
            ) from None
        if response is None:
            raise ServeError("disconnected", "the daemon closed the connection")
        return response

    def result(self, op: str, **params: Any) -> Any:
        """Send one request and return its result, raising on error responses.

        With ``max_retries > 0`` transient failures — a ``busy`` rejection, a
        timeout, a dropped connection — are retried with backoff after
        reconnecting; requests are idempotent (spec-hash keyed, deterministic
        engines), so a retry can only return the same payload.
        """
        attempt = 0
        while True:
            try:
                response = self.request(op, **params)
            except ServeError as exc:
                # request() raises this for a dropped connection only.
                if exc.code != "disconnected" or attempt >= self.max_retries:
                    raise
                attempt += 1
                backoff(self._rng, attempt)
                self._reconnect_quietly()
                continue
            except (ServeTimeout, OSError):
                if attempt >= self.max_retries:
                    raise
                attempt += 1
                backoff(self._rng, attempt)
                self._reconnect_quietly()
                continue
            if response.get("ok"):
                return response["result"]
            error = response.get("error") or {}
            code = error.get("code", "internal")
            if code in _RETRYABLE_CODES and attempt < self.max_retries:
                attempt += 1
                backoff(self._rng, attempt)
                if code == "disconnected":
                    self._reconnect_quietly()
                continue
            raise ServeError(code, error.get("message", "unknown error"))

    def _reconnect_quietly(self) -> None:
        """Best-effort reconnect between retries (the retry re-raises on failure)."""
        try:
            self._connect()
        except OSError:
            pass

    def ping(self) -> dict[str, Any]:
        return self.result("ping")

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._teardown()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

"""Wire protocol of the resident analysis service.

Newline-delimited JSON over a local stream socket: one request object per
line, one response object per line, in order.  The framing is deliberately
trivial — the service is a warm-state cache in front of the batched engines,
not a transport project — but the *spec* of a request is rigorous, because it
doubles as the result-cache key:

* :func:`request_spec` reduces ``(op, params)`` to a canonical JSON
  structure (normalised parameters, sorted keys);
* :func:`spec_hash` hashes it with :func:`~repro.canonical.canonical_hash`,
  the batch engine's hash too, so one request names the same work whether
  it arrives over the socket, through ``repro batch`` or from a test.

Requests::

    {"id": 7, "op": "classify", "params": {"dataset": "CRE", ...}}

Responses::

    {"id": 7, "ok": true, "result": {...}, "cached": false, "spec_hash": "…"}
    {"id": 7, "ok": false, "error": {"code": "busy", "message": "…"}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, BinaryIO, Optional

from ..canonical import canonical_hash

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_MESSAGE_BYTES",
    "ERROR_BAD_REQUEST",
    "ERROR_BUSY",
    "ERROR_SHUTTING_DOWN",
    "ERROR_INTERNAL",
    "ProtocolError",
    "Request",
    "parse_request",
    "request_spec",
    "spec_hash",
    "ok_response",
    "error_response",
    "write_message",
    "read_message",
]

PROTOCOL_VERSION = 1

#: Hard cap on one framed message; a peer that exceeds it is malformed, not
#: merely large (the biggest legitimate payload — a full edge list — is MBs).
MAX_MESSAGE_BYTES = 64 * 1024 * 1024

ERROR_BAD_REQUEST = "bad-request"
ERROR_BUSY = "busy"
ERROR_SHUTTING_DOWN = "shutting-down"
ERROR_INTERNAL = "internal"


class ProtocolError(ValueError):
    """A message that does not parse as one request/response line."""


@dataclass(frozen=True)
class Request:
    """One parsed request: client-chosen id, operation name, parameters."""

    id: Any
    op: str
    params: dict[str, Any]


def parse_request(message: Any) -> Request:
    """Validate a decoded message object as a request; raises :class:`ProtocolError`."""
    if not isinstance(message, dict):
        raise ProtocolError(f"request must be a JSON object, got {type(message).__name__}")
    req_id = message.get("id")
    if not (req_id is None or isinstance(req_id, (int, str))):
        raise ProtocolError("request id must be an integer, string or null")
    op = message.get("op")
    if not isinstance(op, str) or not op:
        raise ProtocolError("request must name a non-empty 'op' string")
    params = message.get("params", {})
    if not isinstance(params, dict):
        raise ProtocolError("request 'params' must be a JSON object")
    return Request(id=req_id, op=op, params=params)


def request_spec(op: str, params: dict[str, Any]) -> dict[str, Any]:
    """Canonical (hashable) form of one request: the op plus sorted params."""
    return {"op": op, "params": {k: params[k] for k in sorted(params)}}


def spec_hash(op: str, params: dict[str, Any]) -> str:
    """The request's cache key — the batch engine's spec hashing, reused."""
    return canonical_hash(request_spec(op, params))


def ok_response(
    req_id: Any,
    result: Any,
    cached: Optional[bool] = None,
    request_hash: Optional[str] = None,
) -> dict[str, Any]:
    response: dict[str, Any] = {"id": req_id, "ok": True, "result": result}
    if cached is not None:
        response["cached"] = cached
    if request_hash is not None:
        response["spec_hash"] = request_hash
    return response


def error_response(req_id: Any, code: str, message: str) -> dict[str, Any]:
    return {"id": req_id, "ok": False, "error": {"code": code, "message": message}}


def write_message(stream: BinaryIO, message: Any) -> None:
    """Frame and send one message (object → one JSON line)."""
    blob = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(blob) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(blob)} bytes exceeds {MAX_MESSAGE_BYTES}")
    stream.write(blob + b"\n")
    stream.flush()


def read_message(stream: BinaryIO) -> Optional[Any]:
    """Read one framed message; ``None`` on a cleanly closed peer.

    Raises :class:`ProtocolError` on an oversized or non-JSON line and
    propagates ``OSError``/``socket.timeout`` from the underlying socket.
    """
    line = stream.readline(MAX_MESSAGE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError("incoming message exceeds the frame size cap")
    try:
        return json.loads(line)
    except ValueError as err:
        raise ProtocolError(f"undecodable message: {err}") from None

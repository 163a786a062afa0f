"""Resident warm-state analysis service (``repro serve``).

The cold CLI pays dataset generation, network thresholding, GO-index
construction and cluster discovery on *every* invocation; the serve layer
pays them once.  A :class:`ReproServer` holds prepared dataset bundles (and
the worker pool of the parallel backends) resident and answers ``filter`` /
``classify`` / ``enrich`` requests over a local socket, admission-bounded
and LRU-cached by spec hash.  Responses are byte-identical to a cold
``repro … --json`` run of the same request; the test tier enforces it.
"""

from .._lazy import lazy_exports

__all__ = [
    "AdmissionQueue",
    "BusyError",
    "ShuttingDownError",
    "Ticket",
    "CacheStats",
    "ResultCache",
    "ServeClient",
    "ServeError",
    "ServeTimeout",
    "CACHEABLE_OPS",
    "HANDLERS",
    "normalize_params",
    "ERROR_BAD_REQUEST",
    "ERROR_BUSY",
    "ERROR_INTERNAL",
    "ERROR_SHUTTING_DOWN",
    "MAX_MESSAGE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "Request",
    "error_response",
    "ok_response",
    "parse_request",
    "read_message",
    "request_spec",
    "spec_hash",
    "write_message",
    "ReproServer",
    "ServerHooks",
    "DatasetState",
    "ServerState",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".admission": ("AdmissionQueue", "BusyError", "ShuttingDownError", "Ticket"),
        ".cache": ("CacheStats", "ResultCache"),
        ".client": ("ServeClient", "ServeError", "ServeTimeout"),
        ".handlers": ("CACHEABLE_OPS", "HANDLERS", "normalize_params"),
        ".protocol": (
            "ERROR_BAD_REQUEST",
            "ERROR_BUSY",
            "ERROR_INTERNAL",
            "ERROR_SHUTTING_DOWN",
            "MAX_MESSAGE_BYTES",
            "PROTOCOL_VERSION",
            "ProtocolError",
            "Request",
            "error_response",
            "ok_response",
            "parse_request",
            "read_message",
            "request_spec",
            "spec_hash",
            "write_message",
        ),
        ".server": ("ReproServer", "ServerHooks"),
        ".state": ("DatasetState", "ServerState"),
    },
)

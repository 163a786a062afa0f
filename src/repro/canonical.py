"""The one content hash of the request and run caches.

A leaf module: it imports nothing from :mod:`repro`, so the client side of
the service (``repro request``) can hash a request without loading the
batch engine that shares the convention.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

__all__ = ["canonical_hash"]


def canonical_hash(data: Any) -> str:
    """Stable 16-hex-digit content hash of a JSON-canonicalisable structure.

    The batch engine keys its disk cache with it (via
    :meth:`repro.pipeline.batch.RunSpec.spec_hash`) and the resident service
    (:mod:`repro.serve`) keys its in-memory LRU result cache with it, so one
    spec hashed on either side names the same work.
    """
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]

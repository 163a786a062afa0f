"""LRU result cache of the resident service.

Entries are keyed by the request's spec hash (see
:func:`repro.serve.protocol.spec_hash` — the batch engine's hashing reused)
and tagged with the dataset state's *generation*, so invalidation is
two-layered:

* an explicit reload calls :meth:`ResultCache.invalidate_dataset`, dropping
  every entry of that dataset eagerly;
* a lookup whose entry carries a stale generation is dropped lazily — the
  belt to the reload's braces, covering entries written by requests that were
  already in flight while a reload drained.

All operations are thread-safe; counters are exposed for the ``stats`` op.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Counter snapshot of one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidated: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
        }


@dataclass
class _Entry:
    dataset_key: str
    generation: int
    value: Any


class ResultCache:
    """Bounded LRU mapping ``spec hash → (dataset, generation, payload)``."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        self._stats = CacheStats()

    def get(self, key: str, generation: int) -> Optional[Any]:
        """The cached payload, or ``None`` on a miss.

        An entry whose generation does not match ``generation`` is stale —
        written against a dataset state that has since been reloaded — and is
        dropped, counting as both an invalidation and a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._stats.misses += 1
                return None
            if entry.generation != generation:
                del self._entries[key]
                self._stats.invalidated += 1
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry.value

    def put(self, key: str, dataset_key: str, generation: int, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the least-recently-used over capacity."""
        with self._lock:
            self._entries[key] = _Entry(dataset_key, generation, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    def invalidate_dataset(self, dataset_key: str) -> int:
        """Drop every entry of one dataset state; returns how many were dropped."""
        with self._lock:
            stale = [k for k, e in self._entries.items() if e.dataset_key == dataset_key]
            for k in stale:
                del self._entries[k]
            self._stats.invalidated += len(stale)
            return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """A copy of the current counters (plus ``size`` via :meth:`__len__`)."""
        with self._lock:
            return CacheStats(**self._stats.as_dict())

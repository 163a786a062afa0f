"""Cross-request coalescing of enrichment work.

Enrichment is the service's one stage where batching across *clients* pays:
the scorer's batched engine resolves all edges of all clusters against the
distinct-term-pair memo table in one concatenated pass
(:meth:`~repro.ontology.enrichment.EnrichmentScorer.score_cluster_graphs`),
and the pair dedup across concurrent clients falls out of ``_PairTable`` —
two requests whose clusters share annotation-term pairs score each distinct
pair once.

:class:`EnrichmentBatcher` is the funnel: requests submit their clusters
and block; a single drain thread collects everything pending,
scores it in **one** scorer call and distributes the per-cluster slices back.
Per-cluster results are independent of batch composition (pinned bit-identical
to per-cluster scoring by the enrichment engine's tests), so coalescing never
changes a response — it only removes duplicated passes.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional, Sequence

from ..clustering.cluster import Cluster

__all__ = ["EnrichmentBatcher"]


class _Pending:
    """One submitted scoring request: its clusters and its completion latch."""

    def __init__(self, clusters: Sequence[Cluster]) -> None:
        self.clusters = list(clusters)
        self.event = threading.Event()
        self.values: Optional[list[float]] = None
        self.error: Optional[BaseException] = None


class EnrichmentBatcher:
    """Coalesce concurrent cluster-scoring submissions into single batched passes.

    ``gate`` is a test hook called by the drain loop on every wake-up,
    *before* the pending list is collected — tests block there to force two
    submissions into one deterministic batch (no sleeps).  ``on_submit`` is
    its counterpart on the submission side, called with the pending count
    right after each submission is queued — tests open the gate from there
    once the count they are orchestrating is reached.
    """

    def __init__(
        self,
        scorer,
        gate: Optional[Callable[[], None]] = None,
        on_submit: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._scorer = scorer
        self._gate = gate
        self._on_submit = on_submit
        self._lock = threading.Lock()
        self._pending: list[_Pending] = []
        self._wake = threading.Event()
        self._stop = False
        self.batches = 0
        self.coalesced_requests = 0
        self.scored_clusters = 0
        self._thread = threading.Thread(target=self._loop, name="serve-enrich-batcher", daemon=True)
        self._thread.start()

    # ------------------------------------------------------------------
    # submission side
    # ------------------------------------------------------------------
    def submit(self, clusters: Sequence[Cluster]) -> _Pending:
        """Queue a scoring request; returns its pending handle."""
        item = _Pending(clusters)
        with self._lock:
            if self._stop:
                raise RuntimeError("EnrichmentBatcher is stopped")
            self._pending.append(item)
            pending = len(self._pending)
        self._wake.set()
        if self._on_submit is not None:
            self._on_submit(pending)
        return item

    def score(self, clusters: Sequence[Cluster], timeout: Optional[float] = None) -> list[float]:
        """Submit and block until scored; the AEES of every cluster, in order."""
        item = self.submit(clusters)
        if not item.event.wait(timeout):
            raise TimeoutError("enrichment batch did not complete in time")
        if item.error is not None:
            raise item.error
        assert item.values is not None
        return item.values

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "batches": self.batches,
                "coalesced_requests": self.coalesced_requests,
                "scored_clusters": self.scored_clusters,
            }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Drain what is pending and join the batcher thread (idempotent)."""
        with self._lock:
            if self._stop:
                self._thread.join()
                return
            self._stop = True
        self._wake.set()
        self._thread.join()

    # ------------------------------------------------------------------
    # drain loop
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            self._wake.wait()
            if self._gate is not None:
                self._gate()
            with self._lock:
                batch = self._pending
                self._pending = []
                self._wake.clear()
                stopping = self._stop
            if batch:
                self._run_batch(batch)
            if stopping:
                return

    def _run_batch(self, batch: list[_Pending]) -> None:
        clusters = [c for item in batch for c in item.clusters]
        try:
            values = self._scorer.cluster_aees(clusters)
        except BaseException as exc:  # noqa: BLE001 — delivered to every waiter
            for item in batch:
                item.error = exc
                item.event.set()
            return
        with self._lock:
            self.batches += 1
            self.coalesced_requests += len(batch)
            self.scored_clusters += len(clusters)
        offset = 0
        for item in batch:
            item.values = list(values[offset : offset + len(item.clusters)])
            offset += len(item.clusters)
            item.event.set()

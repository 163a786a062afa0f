"""Warm state of the resident service.

One :class:`DatasetState` per ``(dataset, scale)`` holds everything the CLI
rebuilds from cold on every invocation: the prepared
:class:`~repro.pipeline.workflow.DatasetBundle` (expression study, label +
CSR network views, GO DAG with its interned term index, annotation index,
enrichment scorer with its pair-table memo, original clusters) plus the
service-side machinery — a drain lock for reload, a generation counter for
cache invalidation and the enrichment counters.

Reload discipline: requests hold a *shared* claim on the state while they
execute; ``begin_reload`` blocks new claims, waits for the active ones to
drain, and only then is the bundle swapped and the generation bumped — an
in-flight request never observes a half-swapped state.

The bundle's scorer is wrapped in :class:`_LockedScorer`: worker threads run
requests concurrently, but the scorer's pair-table memo is a mutable shared
structure, so every scorer call is serialised per dataset.  (Scores are
bit-identical either way; the lock only removes the data race.)  A served
``enrich`` scores its clusters in one direct call through that lock.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from collections.abc import Sequence

from ..faults import fault_point
from ..incremental import UpdateReport, UpdateSpec, apply_update, replay_updates
from ..pipeline.workflow import DatasetBundle

__all__ = ["DatasetState", "ServerState"]


class _LockedScorer:
    """Thread-safe proxy around one :class:`EnrichmentScorer`.

    Every callable attribute is executed under one re-entrant lock; plain
    attributes pass through.  The underlying scorer computes exactly what it
    would unlocked, so results are unchanged — only concurrent mutation of
    the pair-table memo is excluded.
    """

    def __init__(self, scorer: Any) -> None:
        self._scorer = scorer
        self._lock = threading.RLock()

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._scorer, name)
        if not callable(attr):
            return attr
        lock = self._lock

        def locked(*args: Any, **kwargs: Any) -> Any:
            with lock:
                return attr(*args, **kwargs)

        locked.__name__ = getattr(attr, "__name__", name)
        return locked


def dataset_key(name: str, scale: float) -> str:
    """Stable identifier of one warm dataset state (cache tagging, stats)."""
    return f"{name.upper()}@{round(float(scale), 6)}"


class DatasetState:
    """One warm ``(dataset, scale)`` slot: bundle + generation + drain lock."""

    def __init__(self, name: str, scale: float, bundle: DatasetBundle) -> None:
        self.name = name.upper()
        self.scale = round(float(scale), 6)
        self.bundle = bundle
        self.generation = 0
        #: Component generations for scoped cache invalidation: an absorbed
        #: update bumps only the tags of the components it dirtied, so cached
        #: responses that cannot have changed keep hitting (e.g. ``filter``
        #: entries survive an annotation-only update).
        self.network_generation = 0
        self.ontology_generation = 0
        #: Spec log of every update absorbed since the cold build (oldest
        #: first) — the replay recipe a full rebuild needs to reach the same
        #: logical dataset (see :mod:`repro.incremental`).
        self.update_log: list[UpdateSpec] = []
        self.created = time.time()
        #: ``"healthy"`` | ``"degraded"`` — a failed reload degrades the
        #: state (the previous bundle keeps serving) instead of killing it.
        self.health = "healthy"
        self.degraded_reason: Optional[str] = None
        #: ``stats["enrichment"]``, whose keys ``perfbench/serve_mixed.py``
        #: reads: every served ``enrich`` is one scorer pass, so ``batches``
        #: and ``coalesced_requests`` both count requests.
        self._enrichment = {"batches": 0, "coalesced_requests": 0, "scored_clusters": 0}
        self._cond = threading.Condition()
        self._active = 0
        self._reloading = False

    @property
    def key(self) -> str:
        return dataset_key(self.name, self.scale)

    # ------------------------------------------------------------------
    # shared claims (request execution)
    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Take a shared claim; blocks while a reload is swapping state."""
        with self._cond:
            while self._reloading:
                self._cond.wait()
            self._active += 1

    def release(self) -> None:
        with self._cond:
            self._active -= 1
            if self._active < 0:  # pragma: no cover - defensive
                raise RuntimeError("DatasetState.release without acquire")
            self._cond.notify_all()

    @property
    def active(self) -> int:
        with self._cond:
            return self._active

    # ------------------------------------------------------------------
    # exclusive claim (reload)
    # ------------------------------------------------------------------
    def begin_reload(self, on_drain: Optional[Callable[[str], None]] = None) -> None:
        """Block new claims, then wait for in-flight requests to drain.

        ``on_drain`` (a non-blocking observer hook) fires once if the reload
        actually had to wait for active requests.
        """
        with self._cond:
            while self._reloading:
                self._cond.wait()
            self._reloading = True
            draining = self._active > 0
        if draining and on_drain is not None:
            on_drain(self.key)
        with self._cond:
            while self._active > 0:
                self._cond.wait()

    def end_reload(self) -> None:
        with self._cond:
            self._reloading = False
            self._cond.notify_all()

    def count_enrichment(self, n_clusters: int) -> None:
        """Record one ``enrich`` scorer pass over ``n_clusters`` clusters."""
        with self._cond:
            self._enrichment["batches"] += 1
            self._enrichment["coalesced_requests"] += 1
            self._enrichment["scored_clusters"] += n_clusters

    def enrichment_stats(self) -> dict[str, int]:
        with self._cond:
            return dict(self._enrichment)

    def mark_degraded(self, reason: str) -> None:
        self.health = "degraded"
        self.degraded_reason = reason

    def mark_healthy(self) -> None:
        self.health = "healthy"
        self.degraded_reason = None

    def cache_token(self, op: str) -> tuple:
        """The generation tag a cached ``op`` response is valid under.

        ``filter`` responses depend only on the network view, so they stay
        valid across ontology/annotation updates; ``classify``/``enrich``
        responses additionally read the ontology state.  Reloads bump the
        base generation, invalidating everything.
        """
        if op == "filter":
            return (self.generation, self.network_generation)
        return (self.generation, self.network_generation, self.ontology_generation)

    def summary(self) -> dict[str, Any]:
        out = {
            "dataset": self.name,
            "scale": self.scale,
            "generation": self.generation,
            "network_generation": self.network_generation,
            "ontology_generation": self.ontology_generation,
            "updates": len(self.update_log),
            "n_vertices": self.bundle.n_vertices,
            "n_edges": self.bundle.n_edges,
            "original_clusters": len(self.bundle.original_clusters),
            "active_requests": self.active,
            "health": self.health,
        }
        if self.degraded_reason is not None:
            out["degraded_reason"] = self.degraded_reason
        return out


class ServerState:
    """All warm dataset states of one server, built lazily and reloadable."""

    def __init__(self, default_scale: float) -> None:
        self.default_scale = round(float(default_scale), 6)
        self._states: dict[str, DatasetState] = {}
        self._lock = threading.Lock()
        self._build_lock = threading.Lock()

    def _build_bundle(
        self, name: str, scale: float, update_log: Sequence[UpdateSpec] = ()
    ) -> DatasetBundle:
        """Build a dataset's bundle cold: preload, ``reload`` and ``update`` fallback.

        A rebuild of a mutated dataset must reach the same logical state the
        warm bundle is in, so the absorbed update log is replayed on the
        primary state and every derived layer is built once
        (:func:`~repro.incremental.replay_updates`, pinned byte-identical to
        the per-step oracle :func:`~repro.incremental.replay_reference`).
        An empty log is exactly ``prepare_dataset``.
        """
        fault_point("serve.rebuild", dataset=name, scale=scale)
        bundle = replay_updates(name, scale, None, update_log)
        # Requests execute on concurrent worker threads; the scorer's memo
        # tables must not race (see _LockedScorer).
        bundle.scorer = _LockedScorer(bundle.scorer)
        return bundle

    def get(self, name: str, scale: Optional[float] = None) -> DatasetState:
        """The warm state for ``(name, scale)``, building it on first use."""
        scale = self.default_scale if scale is None else round(float(scale), 6)
        key = dataset_key(name, scale)
        with self._lock:
            state = self._states.get(key)
        if state is not None:
            return state
        # One bundle builds at a time: concurrent first requests for the same
        # dataset must not both pay the build (or race the install).
        with self._build_lock:
            with self._lock:
                state = self._states.get(key)
            if state is not None:
                return state
            state = DatasetState(name, scale, self._build_bundle(name, scale))
            with self._lock:
                self._states[key] = state
            return state

    def reload(
        self, state: DatasetState, on_drain: Optional[Callable[[str], None]] = None
    ) -> int:
        """Drain, rebuild and swap one dataset state; returns the new generation.

        The new bundle is built *before* anything of the old state is torn
        down: a failed rebuild marks the state degraded and re-raises, while
        the previous bundle keeps serving — a reload can fail, but it can
        never strand the dataset.
        """
        state.begin_reload(on_drain)
        try:
            try:
                bundle = self._build_bundle(
                    state.name, state.scale, update_log=tuple(state.update_log)
                )
            except Exception as exc:
                state.mark_degraded(f"reload failed: {type(exc).__name__}: {exc}")
                raise
            state.bundle = bundle
            state.generation += 1
            state.mark_healthy()
            return state.generation
        finally:
            state.end_reload()

    def update(
        self,
        state: DatasetState,
        spec: UpdateSpec,
        on_drain: Optional[Callable[[str], None]] = None,
    ) -> UpdateReport:
        """Absorb one dataset mutation into a warm state without a cold rebuild.

        The delta path runs under the same drain discipline as ``reload`` (no
        request observes a half-updated bundle) but keeps the scorer and every
        untouched component alive.  Only the generation tags of the
        components the update dirtied are bumped, so cached responses that
        cannot have changed keep hitting.

        If the delta path fails (including an injected ``serve.update`` or
        ``incremental.delta`` fault), the update degrades to a cold rebuild
        (:meth:`_build_bundle`) that replays the whole update log plus this
        spec — same logical state, cold machinery.  Only when that replay
        *also* fails is the state marked degraded (the previous bundle keeps
        serving).
        """
        state.begin_reload(on_drain)
        try:
            try:
                fault_point("serve.update", dataset=state.name, scale=state.scale)
                # fallback=False: the serve layer owns the fallback, so the
                # rebuilt bundle gets its locked scorer from _build_bundle.
                bundle, report = apply_update(
                    state.bundle, spec, history=state.update_log, fallback=False
                )
            except Exception:
                try:
                    bundle = self._build_bundle(
                        state.name,
                        state.scale,
                        update_log=tuple(state.update_log) + (spec,),
                    )
                except Exception as exc:
                    state.mark_degraded(f"update failed: {type(exc).__name__}: {exc}")
                    raise
                # Full rebuild: every component generation is conservatively
                # bumped.
                state.bundle = bundle
                state.update_log.append(spec)
                state.network_generation += 1
                state.ontology_generation += 1
                state.mark_healthy()
                return UpdateReport(
                    mode="rebuild",
                    dirty=frozenset(
                        {"expression", "network", "ontology", "annotations"}
                    ),
                    reused=(),
                    counts=spec.counts(),
                )
            # Delta path: the returned bundle shares the (locked) scorer and
            # the untouched views with the old one.
            state.bundle = bundle
            state.update_log.append(spec)
            if report.dirty & {"expression", "network"}:
                state.network_generation += 1
            if report.dirty & {"ontology", "annotations"}:
                state.ontology_generation += 1
            state.mark_healthy()
            return report
        finally:
            state.end_reload()

    def states(self) -> list[DatasetState]:
        with self._lock:
            return list(self._states.values())

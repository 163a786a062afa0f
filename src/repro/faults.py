"""Deterministic fault-injection plane.

The runtime threads named *injection sites* through its failure-prone
operations — worker-hub bring-up and map dispatch, SPMD rounds,
communicator send/recv, serve admission/execution, batch cache read/write.
Each site is one :func:`fault_point` call; with no plan installed
(production) the call is a module-global ``None`` check and returns
immediately, so the sites cost nothing.  The chaos test tier installs
a seeded :class:`FaultPlan` that schedules faults *by occurrence count* —
"raise ``OSError`` on the first hub spawn", "kill the worker holding a task
of the second dispatch", "SIGKILL rank 1 of the next SPMD round" — so every
failure is reproducible: the same plan against the same workload fires the
same faults at the same points, and once a rule's budget is spent the
workload proceeds cleanly (which is what lets the chaos tier pin that the
*supervised* output is byte-identical to the fault-free run).

Sites (see ``docs/ARCHITECTURE.md`` for the full table):

==================== =========================================================
``pool.spawn``       worker-hub creation and each worker spawn (growth)
``pool.dispatch``    each process-backend map scatter (supports ``kill_task``)
``spmd.ranks``       each SPMD process-backend round (supports ``kill_rank``)
``comm.send``        each communicator send
``comm.recv``        each communicator receive (supports ``hook`` delays)
``comm.connect``     each worker starting on its hub connection
``sock.send``        each frame written (hub routing and worker sends)
``sock.recv``        each frame read off a socket
``serve.admit``      each work-request admission on the daemon
``serve.execute``    each cache-miss execution on an admission worker
``serve.worker``     each ticket pickup by an admission worker thread
``serve.rebuild``    each dataset bundle (re)build on the daemon
``serve.update``     each warm dataset update absorbed on the daemon
``incremental.delta`` each delta-update application (:mod:`repro.incremental`)
``batch.cache_read`` each batch disk-cache entry read
``batch.cache_write`` each batch disk-cache entry write (before the tmp file)
``batch.cache_replace`` the publish step (between tmp write and rename)
==================== =========================================================

Faults only fire in the process that installed the plan.  Failures *inside*
worker processes are injected from the parent side instead: ``kill_task``
poisons one payload of a dispatch so the hub worker executing it SIGKILLs
itself mid-task (deterministically losing that task), and ``kill_rank``
marks one rank of an SPMD round to SIGKILL itself at startup — both without
racing an external kill against scheduler timing.
"""

from __future__ import annotations

import os
import random
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "FaultError",
    "FaultRule",
    "FaultFire",
    "FaultPlan",
    "fault_point",
    "install_plan",
    "clear_plan",
    "active_plan",
    "current_plan",
]


class FaultError(RuntimeError):
    """Default exception raised by an injected ``fail`` rule."""


@dataclass
class FaultRule:
    """One scheduled fault: fire at site ``site`` on hits ``at .. at+times-1``."""

    site: str
    action: str  # "raise" | "kill_task" | "kill_rank" | "hook"
    at: int = 1
    times: int = 1
    exc: type[BaseException] = FaultError
    message: Optional[str] = None
    index: int = 0
    hook: Optional[Callable[[str, dict[str, Any]], None]] = None

    def matches(self, hit: int) -> bool:
        return self.at <= hit < self.at + self.times


@dataclass(frozen=True)
class FaultFire:
    """History record of one fired fault (for test assertions)."""

    site: str
    hit: int
    action: str


class FaultPlan:
    """A seeded, reproducible schedule of faults over named injection sites.

    The plan owns one occurrence counter per site (thread-safe: concurrent
    serve workers may cross the same site) and a list of rules.  ``seed``
    feeds :attr:`rng`, which chaos schedules use to derive *which* occurrence
    or victim to target — the plan itself stays fully deterministic given the
    seed.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.rng = random.Random(self.seed)
        self.rules: list[FaultRule] = []
        self.fires: list[FaultFire] = []
        self._hits: dict[str, int] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # schedule builders (all return self for chaining)
    # ------------------------------------------------------------------
    def fail(
        self,
        site: str,
        at: int = 1,
        times: int = 1,
        exc: type[BaseException] = FaultError,
        message: Optional[str] = None,
    ) -> "FaultPlan":
        """Raise ``exc`` on the ``at``-th (1-based) hit of ``site`` (``times`` hits)."""
        self.rules.append(
            FaultRule(site=site, action="raise", at=at, times=times, exc=exc, message=message)
        )
        return self

    def kill_task(self, site: str = "pool.dispatch", at: int = 1, index: int = 0) -> "FaultPlan":
        """Poison payload ``index`` of the ``at``-th dispatch: its worker SIGKILLs itself."""
        self.rules.append(FaultRule(site=site, action="kill_task", at=at, index=index))
        return self

    def kill_rank(self, site: str = "spmd.ranks", at: int = 1, rank: int = 0) -> "FaultPlan":
        """SIGKILL rank ``rank`` at startup of the ``at``-th SPMD round."""
        self.rules.append(FaultRule(site=site, action="kill_rank", at=at, index=rank))
        return self

    def hook(
        self,
        site: str,
        fn: Callable[[str, dict[str, Any]], None],
        at: int = 1,
        times: int = 1,
    ) -> "FaultPlan":
        """Run ``fn(site, context)`` on matching hits — a deterministic delay/sync point."""
        self.rules.append(FaultRule(site=site, action="hook", at=at, times=times, hook=fn))
        return self

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def hits(self, site: str) -> int:
        """How many times ``site`` has been crossed while this plan was active."""
        with self._lock:
            return self._hits.get(site, 0)

    def fired(self, site: Optional[str] = None) -> list[FaultFire]:
        """The faults fired so far (optionally filtered by site)."""
        with self._lock:
            fires = list(self.fires)
        return fires if site is None else [f for f in fires if f.site == site]

    def exhausted(self) -> bool:
        """``True`` when every rule's budget has been spent."""
        with self._lock:
            fired_by_rule = {}
            for fire in self.fires:
                fired_by_rule[(fire.site, fire.action)] = (
                    fired_by_rule.get((fire.site, fire.action), 0) + 1
                )
        return all(
            sum(1 for f in self.fired(r.site) if f.action == r.action) >= r.times
            for r in self.rules
        )

    # ------------------------------------------------------------------
    # firing (called from fault_point)
    # ------------------------------------------------------------------
    def _trigger(self, site: str, context: dict[str, Any]) -> None:
        with self._lock:
            hit = self._hits.get(site, 0) + 1
            self._hits[site] = hit
            matched = [r for r in self.rules if r.site == site and r.matches(hit)]
            for rule in matched:
                self.fires.append(FaultFire(site=site, hit=hit, action=rule.action))
        for rule in matched:
            self._execute(rule, site, hit, context)

    def _execute(self, rule: FaultRule, site: str, hit: int, context: dict[str, Any]) -> None:
        if rule.action == "raise":
            message = rule.message or f"injected fault at {site!r} (hit {hit})"
            raise rule.exc(message)
        if rule.action == "kill_task":
            payloads = context.get("payloads")
            if payloads:
                idx = rule.index % len(payloads)
                fn, item_args = payloads[idx]
                payloads[idx] = (_die_in_worker, item_args)
            return
        if rule.action == "kill_rank":
            kill_ranks = context.get("kill_ranks")
            if kill_ranks is not None:
                n_ranks = context.get("n_ranks") or 1
                kill_ranks.add(rule.index % n_ranks)
            return
        if rule.action == "hook" and rule.hook is not None:
            rule.hook(site, context)


def _die_in_worker(*_args: Any, **_kwargs: Any) -> None:
    """Poisoned map payload: SIGKILL the executing worker (never returns)."""
    os.kill(os.getpid(), signal.SIGKILL)


# ----------------------------------------------------------------------
# the (single) active plan
# ----------------------------------------------------------------------
_plan: Optional[FaultPlan] = None


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Make ``plan`` the process-wide active plan (returns it)."""
    global _plan
    _plan = plan
    return plan


def clear_plan() -> None:
    """Deactivate fault injection (sites return to their zero-cost path)."""
    global _plan
    _plan = None


def current_plan() -> Optional[FaultPlan]:
    """The active plan, or ``None`` when injection is disabled."""
    return _plan


@contextmanager
def active_plan(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scope ``plan`` to a ``with`` block (always clears, even on error)."""
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()


def fault_point(site: str, **context: Any) -> None:
    """One injection site.  No active plan → a ``None`` check and out.

    ``context`` carries the mutable hooks some actions need (``payloads`` for
    ``kill_task``, ``kill_ranks`` for ``kill_rank``); ``raise`` rules need
    none and simply raise here, in the caller's stack.
    """
    plan = _plan
    if plan is None:
        return
    plan._trigger(site, context)

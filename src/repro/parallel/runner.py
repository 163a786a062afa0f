"""SPMD execution of rank functions — threaded, serial, or on real processes.

``run_spmd`` plays the role of ``mpiexec``: it launches one logical rank per
partition, hands each a communicator endpoint and collects the per-rank
return values.  The backends (see :func:`available_backends`, the single
source of truth shared with :func:`parallel_map`):

``serial``
    ranks executed one after another in rank order — only valid for
    communication-free algorithms, but with zero threading overhead and fully
    deterministic scheduling; the communication-free chordal sampler and the
    random-walk sampler use it by default.
``thread``
    one Python thread per rank with a :class:`~repro.parallel.comm.SimComm`
    endpoint — supports messaging (blocking receives need the peer rank to
    be live concurrently) but compute stays GIL-bound;
``process``
    one OS process per rank with a :class:`~repro.parallel.comm.ProcComm`
    endpoint — messages travel over ``multiprocessing`` queues (pipes), so
    communicating rank functions finally execute on real cores.  Rank
    payloads and results are pickled;
``process-shm``
    the ``process`` transport with rank payloads routed through a
    :class:`~repro.parallel.shm.SharedArena`: every numpy array in
    ``rank_args`` is exported to shared memory once and replaced by an
    :class:`~repro.parallel.shm.ArenaRef`, which the rank process resolves
    back into a zero-copy read-only view.
``process-sock``
    one resident socket worker per rank with a
    :class:`~repro.parallel.sock.SockComm` endpoint — messages travel as
    length-prefixed pickle frames over TCP through a hub in this process,
    so ranks can live on *other hosts* (``repro spmd-worker`` + the
    ``REPRO_SOCK_*`` rendezvous knobs); by default workers are spawned
    locally and the backend behaves like ``process`` with a TCP wire.

``parallel_map`` offers the same backend names for embarrassingly parallel
work items (no communicator).  Its ``process``/``process-shm`` backends keep
one shared ``spawn`` pool alive across calls (spawning a pool per call used
to dominate small runs); the pool is created at the first caller's actual
need and grown **in place** when a larger request arrives — warm
interpreters are never discarded — torn down by
:func:`shutdown_worker_pool` (the batch engine calls it at the end of every
batch / worker group) and cleaned up at interpreter exit.

Failure supervision
-------------------
Both entry points run under a supervising retry policy (see
:class:`SupervisionPolicy` / :func:`configure_supervision`).  Two classes of
*infrastructure* failure are distinguished from ordinary errors in user code,
which always propagate untouched:

* **retryable** — a pool worker or SPMD rank died mid-flight
  (:class:`WorkerPoolError`, :class:`DeadRankError`).  The broken pool is
  torn down and the failed chunk (or the whole deterministic SPMD round) is
  retried on a *fresh* pool, same backend, up to ``max_retries`` times with
  seeded jittered exponential backoff.  These never degrade the backend: a
  payload that kills its worker would take the host process down with it on
  the thread/serial backends.
* **degradable** — the backend's substrate could not be brought up at all
  (pool spawn failure, shared-memory arena creation/export failure, socket
  bind/rendezvous failure).  After
  retries are exhausted the supervisor steps down the degradation ladder
  ``process-sock → process-shm → process → thread → serial`` (stopping at
  ``thread`` for
  SPMD, whose serial backend cannot service blocking receives) and retries
  there; the step-down is recorded in the supervision event log
  (:func:`pop_supervision_events`) and the global counters surfaced by
  ``repro serve`` stats.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import queue
import random
import signal
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..faults import current_plan, fault_point
from .comm import CommStats, ProcComm, SimCommWorld, watchdog_poll
from .shm import ArenaError, export_payload, owned_arena, resolve_payload

__all__ = [
    "RankResult",
    "SpmdReport",
    "WorkerPoolError",
    "DeadRankError",
    "SupervisionPolicy",
    "configure_supervision",
    "supervision_policy",
    "pop_supervision_events",
    "supervision_counters",
    "reset_supervision_counters",
    "comm_counters",
    "reset_comm_counters",
    "run_spmd",
    "parallel_map",
    "available_backends",
    "shutdown_worker_pool",
    "worker_pool_size",
]


class WorkerPoolError(RuntimeError):
    """The shared ``process`` pool lost a worker while a map was in flight.

    ``multiprocessing.Pool`` silently loses the tasks a killed worker was
    holding, so an unchecked ``pool.map`` would block forever — the same
    failure mode :func:`_spawn_and_collect` detects for SPMD ranks.  The
    checked map raises this instead and tears the broken pool down, so the
    caller fails cleanly (or, under the default supervision policy, the map
    is retried on a fresh pool) and the next call respawns a fresh pool.
    """


class DeadRankError(RuntimeError):
    """An SPMD rank process died without reporting a result.

    The process-backend equivalent of :class:`WorkerPoolError`: the rank was
    OOM-killed or segfaulted, so no error payload ever reached the parent.
    Distinct from an ordinary rank *error* (which re-raises the child
    traceback and is never retried): a dead rank is an infrastructure
    failure, and the whole deterministic SPMD round is eligible for retry.
    """


RankFn = Callable[..., Any]

#: How long the parent keeps draining the result queue after every rank
#: process has exited, before declaring the missing results lost.  There is
#: deliberately *no* cap on healthy compute time: a rank that is alive is
#: allowed to run as long as it needs (exactly like the thread backend),
#: and protocol deadlocks surface as errors from the communicator's own
#: ``RECV_TIMEOUT`` inside the rank.
SPMD_DRAIN_TIMEOUT = 10.0


# ----------------------------------------------------------------------
# supervision policy, events and counters
# ----------------------------------------------------------------------
@dataclass
class SupervisionPolicy:
    """Retry/degradation policy applied by :func:`parallel_map` / :func:`run_spmd`.

    ``max_retries`` bounds the *extra* attempts per ladder rung (0 restores
    the pre-supervision fail-fast behaviour).  ``degrade`` enables the
    backend step-down ladder for degradable infrastructure failures.  The
    backoff between attempts is exponential with seeded jitter:
    ``min(backoff_max, backoff_base * backoff_factor**(attempt-1))`` scaled
    by a uniform factor in ``[0.5, 1.0)`` drawn from ``Random(seed)`` — so a
    retry storm from many supervised callers decorrelates, yet any single
    run's schedule is reproducible.
    """

    max_retries: int = 2
    degrade: bool = True
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    seed: int = 0


_policy = SupervisionPolicy()
_policy_lock = threading.Lock()

_supervision_tls = threading.local()
_counters_lock = threading.Lock()
_counters = {"retries": 0, "degrades": 0}


def configure_supervision(
    max_retries: Optional[int] = None,
    degrade: Optional[bool] = None,
    backoff_base: Optional[float] = None,
    backoff_factor: Optional[float] = None,
    backoff_max: Optional[float] = None,
    seed: Optional[int] = None,
) -> SupervisionPolicy:
    """Update the process-wide :class:`SupervisionPolicy` (None = keep current)."""
    global _policy
    with _policy_lock:
        p = _policy
        _policy = SupervisionPolicy(
            max_retries=p.max_retries if max_retries is None else max(0, int(max_retries)),
            degrade=p.degrade if degrade is None else bool(degrade),
            backoff_base=p.backoff_base if backoff_base is None else float(backoff_base),
            backoff_factor=p.backoff_factor if backoff_factor is None else float(backoff_factor),
            backoff_max=p.backoff_max if backoff_max is None else float(backoff_max),
            seed=p.seed if seed is None else int(seed),
        )
        return _policy


def supervision_policy() -> SupervisionPolicy:
    """The current process-wide supervision policy."""
    with _policy_lock:
        return _policy


def pop_supervision_events() -> list[dict[str, Any]]:
    """Drain the calling thread's supervision event log (empty when clean).

    Each event is a dict: ``{"action": "retry"|"degrade", "entry":
    "parallel_map"|"run_spmd", "backend": ..., "error": ...}`` plus
    ``"attempt"`` for retries and ``"to"`` for degrades.  Events accumulate
    per thread so concurrent serve workers don't interleave; callers that
    surface them (the filter engines) drain right after their supervised
    calls return.
    """
    events = getattr(_supervision_tls, "events", None)
    _supervision_tls.events = []
    return events or []


def supervision_counters() -> dict[str, int]:
    """Process-wide totals of supervision actions (for serve ``stats``)."""
    with _counters_lock:
        return dict(_counters)


def reset_supervision_counters() -> None:
    with _counters_lock:
        for key in _counters:
            _counters[key] = 0


_comm_totals_lock = threading.Lock()
_comm_totals = CommStats()


def _accumulate_comm(stats: CommStats) -> None:
    global _comm_totals
    with _comm_totals_lock:
        _comm_totals = _comm_totals.merge(stats)


def comm_counters() -> dict[str, int]:
    """Process-wide communication totals across all SPMD rounds.

    Every :func:`run_spmd` return merges its report's
    :meth:`~SpmdReport.total_stats` here, so a resident server can surface
    cumulative message/byte counters in ``repro serve`` stats without
    threading per-request reports through the handler layer.
    """
    with _comm_totals_lock:
        return _comm_totals.as_dict()


def reset_comm_counters() -> None:
    global _comm_totals
    with _comm_totals_lock:
        _comm_totals = CommStats()


def _record_event(event: dict[str, Any]) -> None:
    events = getattr(_supervision_tls, "events", None)
    if events is None:
        events = _supervision_tls.events = []
    events.append(event)
    counter = "retries" if event["action"] == "retry" else "degrades"
    with _counters_lock:
        _counters[counter] += 1


class _DegradableFailure(Exception):
    """Internal wrapper marking an infrastructure failure as ladder-eligible.

    Raised only around substrate bring-up (pool spawn, arena create/export),
    never around user code — so a user function that happens to raise
    ``OSError`` propagates normally instead of being degraded to serial.
    """

    def __init__(self, original: BaseException) -> None:
        super().__init__(str(original))
        self.original = original


#: Exceptions that mark substrate bring-up as failed (ArenaError covers the
#: shared-memory layer; OSError covers spawn/shm-create syscall failures,
#: including FileNotFoundError from a vanished segment).
_DEGRADABLE_EXC = (ArenaError, OSError)


def _degradation_ladder(backend: str, floor: str = "serial") -> list[str]:
    """The backends to fall through, starting at the requested one."""
    order = available_backends()[::-1]  # process-sock, process-shm, process, thread, serial
    start = order.index(backend)
    stop = order.index(floor)
    return order[start : stop + 1] if stop >= start else [backend]


def _backoff_sleep(rng: random.Random, policy: SupervisionPolicy, attempt: int) -> None:
    delay = min(policy.backoff_max, policy.backoff_base * policy.backoff_factor ** (attempt - 1))
    time.sleep(delay * (0.5 + 0.5 * rng.random()))


def _supervise(
    entry: str,
    backend: str,
    ladder: list[str],
    attempt_fn: Callable[[str], Any],
    max_retries: Optional[int],
    degrade: Optional[bool],
) -> Any:
    """Run ``attempt_fn(backend)`` under the retry/degradation policy.

    Retryable failures (dead worker/rank) retry the same backend only;
    degradable failures (substrate bring-up) retry, then step down the
    ladder.  Everything else — user-code errors, rank errors carrying a
    child traceback — propagates on the first occurrence.
    """
    policy = supervision_policy()
    retries = policy.max_retries if max_retries is None else max(0, int(max_retries))
    degrade_ok = policy.degrade if degrade is None else bool(degrade)
    rng = random.Random(policy.seed)
    idx = 0
    attempts = 0
    while True:
        current = ladder[idx]
        try:
            return attempt_fn(current)
        except (WorkerPoolError, DeadRankError) as exc:
            if attempts >= retries:
                raise
            attempts += 1
            _record_event(
                {
                    "action": "retry",
                    "entry": entry,
                    "backend": current,
                    "attempt": attempts,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
            _backoff_sleep(rng, policy, attempts)
        except _DegradableFailure as exc:
            error = f"{type(exc.original).__name__}: {exc.original}"
            if attempts < retries:
                attempts += 1
                _record_event(
                    {
                        "action": "retry",
                        "entry": entry,
                        "backend": current,
                        "attempt": attempts,
                        "error": error,
                    }
                )
                _backoff_sleep(rng, policy, attempts)
            elif degrade_ok and idx + 1 < len(ladder):
                _record_event(
                    {
                        "action": "degrade",
                        "entry": entry,
                        "backend": current,
                        "to": ladder[idx + 1],
                        "error": error,
                    }
                )
                idx += 1
                attempts = 0
            else:
                raise exc.original from exc.original.__cause__


@dataclass
class RankResult:
    """Return value and communication counters of one rank."""

    rank: int
    value: Any
    stats: CommStats


@dataclass
class SpmdReport:
    """Aggregate result of one SPMD execution."""

    results: list[RankResult]
    n_ranks: int
    backend: str

    @property
    def values(self) -> list[Any]:
        """Per-rank return values in rank order."""
        return [r.value for r in self.results]

    def total_stats(self) -> CommStats:
        total = CommStats()
        for r in self.results:
            total = total.merge(r.stats)
        return total


def available_backends() -> list[str]:
    """Names of the execution backends accepted by :func:`run_spmd` and
    :func:`parallel_map` — the single source of truth for both.

    Ordered cheapest-substrate first; the degradation ladder is this list
    reversed, so ``process-sock`` (TCP transport, cross-host capable) sits
    last and degrades through ``process-shm → process → thread → serial``.
    """
    return ["serial", "thread", "process", "process-shm", "process-sock"]


def _spmd_process_child(
    rank: int,
    n_ranks: int,
    queues: list[Any],
    barrier: Any,
    result_queue: Any,
    fn: RankFn,
    extra: tuple[Any, ...],
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
    die: bool = False,
) -> None:
    """Body of one SPMD rank process: build the comm, run ``fn``, report back.

    ``die`` is the fault plane's ``kill_rank`` switch: the rank SIGKILLs
    itself before touching the communicator, exactly like an OOM-killed rank.
    """
    if die:
        os.kill(os.getpid(), signal.SIGKILL)
    comm = ProcComm(rank, n_ranks, queues, barrier)
    try:
        value = fn(comm, *resolve_payload(extra), *args, **kwargs)
    except BaseException as exc:  # noqa: BLE001 — shipped to the parent
        result_queue.put(("error", rank, f"{type(exc).__name__}: {exc}", traceback.format_exc()))
        return
    result_queue.put(("ok", rank, value, comm.stats))


def _run_spmd_processes(
    fn: RankFn,
    n_ranks: int,
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
    rank_args: Optional[Sequence[Sequence[Any]]],
    use_shm: bool,
) -> tuple[list[Any], list[CommStats]]:
    """Execute the ranks on real processes; returns (values, stats) by rank."""
    payloads: list[tuple[Any, ...]] = [
        tuple(rank_args[r]) if rank_args is not None else () for r in range(n_ranks)
    ]
    if use_shm:
        try:
            arena_ctx = owned_arena()
            arena = arena_ctx.__enter__()
        except _DEGRADABLE_EXC as exc:
            raise _DegradableFailure(exc) from exc
        try:
            try:
                payloads = [export_payload(p, arena) for p in payloads]
            except _DEGRADABLE_EXC as exc:
                raise _DegradableFailure(exc) from exc
            return _spawn_and_collect(fn, n_ranks, args, kwargs, payloads)
        finally:
            arena_ctx.__exit__(None, None, None)
    return _spawn_and_collect(fn, n_ranks, args, kwargs, payloads)


def _spawn_and_collect(
    fn: RankFn,
    n_ranks: int,
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
    payloads: list[tuple[Any, ...]],
) -> tuple[list[Any], list[CommStats]]:
    """Spawn one process per rank and collect (values, stats) in rank order.

    A rank may compute for as long as it stays alive — the failure modes
    detected here are a rank *error* (re-raised with the child traceback)
    and rank *death* without a result (:class:`DeadRankError`); protocol
    deadlocks are converted into errors inside the rank by the
    communicator's ``RECV_TIMEOUT``.
    """
    kill_ranks: set[int] = set()
    fault_point("spmd.ranks", kill_ranks=kill_ranks, n_ranks=n_ranks)
    ctx = multiprocessing.get_context("spawn")
    try:
        queues = [ctx.Queue() for _ in range(n_ranks)]
        result_queue = ctx.Queue()
        barrier = ctx.Barrier(n_ranks)
        procs = [
            ctx.Process(
                target=_spmd_process_child,
                args=(
                    r, n_ranks, queues, barrier, result_queue, fn,
                    payloads[r], args, kwargs, r in kill_ranks,
                ),
                name=f"spmd-rank-{r}",
                daemon=True,
            )
            for r in range(n_ranks)
        ]
    except _DEGRADABLE_EXC as exc:
        raise _DegradableFailure(exc) from exc
    started: list[Any] = []
    try:
        try:
            for p in procs:
                p.start()
                started.append(p)
        except _DEGRADABLE_EXC as exc:
            raise _DegradableFailure(exc) from exc
        values: list[Any] = [None] * n_ranks
        stats: list[CommStats] = [CommStats() for _ in range(n_ranks)]
        reported = [False] * n_ranks
        collected = 0
        while collected < n_ranks:
            try:
                item = result_queue.get(timeout=watchdog_poll())
            except queue.Empty:
                # A live rank may compute for as long as it needs.  The
                # failure signal is a rank that *exited without reporting*
                # (OOM-kill, segfault): its normally-exiting peers would
                # error out via the communicator timeouts, but a peer
                # blocked in a barrier would not — so detect it here, after
                # a drain grace for results still in the pipe.
                dead_unreported = [
                    r for r, p in enumerate(procs) if not p.is_alive() and not reported[r]
                ]
                if not dead_unreported:
                    continue
                try:
                    item = result_queue.get(timeout=SPMD_DRAIN_TIMEOUT)
                except queue.Empty:
                    raise DeadRankError(
                        f"SPMD process backend: rank(s) {dead_unreported} died "
                        f"without reporting a result"
                    ) from None
            if item[0] == "error":
                _, rank, message, tb = item
                raise RuntimeError(
                    f"SPMD rank {rank} failed: {message}\n--- rank traceback ---\n{tb}"
                )
            _, rank, value, rank_stats = item
            values[rank] = value
            stats[rank] = rank_stats
            reported[rank] = True
            collected += 1
    finally:
        for p in started:
            if p.is_alive():
                p.terminate()
        for p in started:
            p.join(timeout=10.0)
    return values, stats


def _run_spmd_sock(
    fn: RankFn,
    n_ranks: int,
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
    rank_args: Optional[Sequence[Sequence[Any]]],
) -> tuple[list[Any], list[CommStats]]:
    """Execute the ranks on socket workers (local or remote) via the hub pool.

    Payloads cross the wire pickled — no arena export, since ``ArenaRef``
    handles are host-local and the transport's point is crossing hosts.
    Bring-up failures (bind, rendezvous timeout) degrade down the ladder;
    a worker dying mid-round raises :class:`DeadRankError` (retryable).
    """
    from .sock import get_sock_pool  # lazy: only sock users pay the import

    payloads: list[tuple[Any, ...]] = [
        tuple(rank_args[r]) if rank_args is not None else () for r in range(n_ranks)
    ]
    kill_ranks: set[int] = set()
    fault_point("spmd.ranks", kill_ranks=kill_ranks, n_ranks=n_ranks)
    try:
        pool = get_sock_pool()
    except _DEGRADABLE_EXC as exc:
        raise _DegradableFailure(exc) from exc
    try:
        return pool.run_round(fn, n_ranks, payloads, args, kwargs, kill_ranks)
    except (WorkerPoolError, DeadRankError, RuntimeError):
        raise
    except _DEGRADABLE_EXC as exc:
        raise _DegradableFailure(exc) from exc


def _run_spmd_backend(
    fn: RankFn,
    n_ranks: int,
    args: tuple[Any, ...],
    kwargs: dict[str, Any],
    rank_args: Optional[Sequence[Sequence[Any]]],
    backend: str,
) -> SpmdReport:
    """One un-supervised SPMD attempt on ``backend`` (see :func:`run_spmd`)."""
    if backend in ("process", "process-shm", "process-sock"):
        if backend == "process-sock":
            values, stats = _run_spmd_sock(fn, n_ranks, args, kwargs, rank_args)
        else:
            values, stats = _run_spmd_processes(
                fn, n_ranks, args, kwargs, rank_args, use_shm=(backend == "process-shm")
            )
        results = [RankResult(rank=r, value=values[r], stats=stats[r]) for r in range(n_ranks)]
        return SpmdReport(results=results, n_ranks=n_ranks, backend=backend)

    world = SimCommWorld(n_ranks)

    def call(rank: int) -> Any:
        comm = world.comm(rank)
        extra = resolve_payload(tuple(rank_args[rank])) if rank_args is not None else ()
        return fn(comm, *extra, *args, **kwargs)

    values: list[Any] = [None] * n_ranks
    errors: list[tuple[int, BaseException]] = []

    if backend == "serial":
        for rank in range(n_ranks):
            values[rank] = call(rank)
    elif backend == "thread":
        def worker(rank: int) -> None:
            try:
                values[rank] = call(rank)
            except BaseException as exc:  # noqa: BLE001 — re-raised below
                errors.append((rank, exc))

        threads = [threading.Thread(target=worker, args=(r,), name=f"spmd-rank-{r}") for r in range(n_ranks)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            rank, exc = errors[0]
            raise RuntimeError(f"SPMD rank {rank} failed: {exc!r}") from exc
    else:
        raise ValueError(f"unknown backend {backend!r}; expected one of {available_backends()}")

    results = [RankResult(rank=r, value=values[r], stats=world.stats[r]) for r in range(n_ranks)]
    return SpmdReport(results=results, n_ranks=n_ranks, backend=backend)


def run_spmd(
    fn: RankFn,
    n_ranks: int,
    args: Optional[Sequence[Any]] = None,
    kwargs: Optional[dict[str, Any]] = None,
    rank_args: Optional[Sequence[Sequence[Any]]] = None,
    backend: str = "thread",
    max_retries: Optional[int] = None,
    degrade: Optional[bool] = None,
) -> SpmdReport:
    """Execute ``fn(comm, *args, **kwargs)`` on ``n_ranks`` simulated ranks.

    Parameters
    ----------
    fn:
        The rank function.  Its first positional argument is the rank's
        communicator endpoint (:class:`SimComm` on the ``serial``/``thread``
        backends, :class:`ProcComm` on the process backends); the remaining
        arguments are ``rank_args[rank]`` (if supplied) followed by the
        shared ``args`` / ``kwargs``.
    rank_args:
        Optional per-rank positional arguments (length must equal ``n_ranks``),
        typically the rank's partition data.  Any
        :class:`~repro.parallel.shm.ArenaRef` inside is resolved to its array
        view in the rank process; with ``backend="process-shm"`` plain numpy
        arrays are additionally exported through a shared arena first.
    backend:
        One of :func:`available_backends`.  ``"serial"`` runs ranks
        sequentially (any blocking receive on a message that was not already
        sent raises); ``"thread"`` (default) supports messaging in-process;
        ``"process"`` / ``"process-shm"`` run each rank on a real core (``fn``,
        payloads and results must be picklable).
    max_retries, degrade:
        Per-call overrides of the process-wide :class:`SupervisionPolicy`.
        A dead rank (:class:`DeadRankError`) retries the whole round — one
        SPMD round is a deterministic unit, so a clean rerun produces the
        identical result; substrate bring-up failures degrade the backend
        down to ``thread`` (never ``serial``: blocking receives need live
        peers).  The report's ``backend`` field records the backend that
        actually ran.

    Returns
    -------
    SpmdReport with per-rank values and communication statistics.

    Raises
    ------
    The first exception raised by any rank is re-raised in the caller after
    all ranks have terminated, so failures in rank code are never swallowed.
    """
    if n_ranks < 1:
        raise ValueError(f"n_ranks must be >= 1, got {n_ranks}")
    if rank_args is not None and len(rank_args) != n_ranks:
        raise ValueError("rank_args must supply one tuple per rank")
    if backend not in available_backends():
        raise ValueError(f"unknown backend {backend!r}; expected one of {available_backends()}")
    args = tuple(args or ())
    kwargs = dict(kwargs or {})

    ladder = _degradation_ladder(backend, floor="thread" if backend != "serial" else "serial")
    report = _supervise(
        "run_spmd",
        backend,
        ladder,
        lambda b: _run_spmd_backend(fn, n_ranks, args, kwargs, rank_args, b),
        max_retries,
        degrade,
    )
    _accumulate_comm(report.total_stats())
    return report


def _call_star(payload: tuple[Callable[..., Any], tuple[Any, ...]]) -> Any:
    fn, item_args = payload
    return fn(*resolve_payload(item_args))


# One shared worker pool for every ``parallel_map(backend="process")`` call.
# Spawning a fresh ``spawn`` pool per call costs hundreds of milliseconds of
# interpreter start-up per worker — more than most rank tasks themselves —
# so the pool is created lazily at the first caller's actual need and then
# **grown in place** when a larger request arrives: the extra workers are
# spawned next to the warm ones instead of paying the old
# terminate-and-respawn (which discarded every warm interpreter).  The pool
# never shrinks; :func:`shutdown_worker_pool` (or interpreter exit) tears it
# down, and the next request spawns a fresh pool.
_worker_pool: Optional[multiprocessing.pool.Pool] = None
_worker_pool_size = 0
_worker_pool_lock = threading.Lock()


def _get_worker_pool(n_workers: int) -> multiprocessing.pool.Pool:
    global _worker_pool, _worker_pool_size
    n_workers = max(n_workers, 1)
    with _worker_pool_lock:
        if _worker_pool is None:
            fault_point("pool.spawn", n_workers=n_workers)
            _worker_pool = multiprocessing.get_context("spawn").Pool(n_workers)
            _worker_pool_size = n_workers
        elif n_workers > _worker_pool_size:
            try:
                # Grow in place: Pool's maintenance thread tops the worker
                # list up to ``_processes`` (the documented-by-implementation
                # repopulation mechanism of CPython 3.10–3.12).
                _worker_pool._processes = n_workers
                _worker_pool._repopulate_pool()
                _worker_pool_size = n_workers
            except AttributeError:  # pragma: no cover - future-python fallback
                # Unknown Pool internals: keep the warm pool and let the
                # extra tasks queue rather than discard live interpreters.
                pass
        return _worker_pool


def worker_pool_size() -> int:
    """Current size of the shared process pool (0 when none is alive)."""
    with _worker_pool_lock:
        return _worker_pool_size if _worker_pool is not None else 0


def shutdown_worker_pool() -> None:
    """Tear down the shared ``process``-backend pool (no-op when none exists).

    Callers that fan out many ``parallel_map`` runs (the batch engine) invoke
    this once at the end of the batch; it is also registered with
    :mod:`atexit` so an interactive session never leaks worker processes.
    Idempotent: repeated calls (and calls racing the atexit hook) are safe.
    """
    global _worker_pool, _worker_pool_size
    with _worker_pool_lock:
        if _worker_pool is not None:
            _worker_pool.terminate()
            _worker_pool.join()
            _worker_pool = None
            _worker_pool_size = 0


atexit.register(shutdown_worker_pool)


def parallel_map(
    fn: Callable[..., Any],
    items: Sequence[Sequence[Any]],
    backend: str = "serial",
    processes: Optional[int] = None,
    max_retries: Optional[int] = None,
    degrade: Optional[bool] = None,
) -> list[Any]:
    """Apply ``fn(*item)`` to every item, optionally in parallel.

    Backends (one of :func:`available_backends`):

    * ``'serial'`` — in-process loop (deterministic, zero overhead);
    * ``'thread'`` — a thread per in-flight item (GIL-bound; useful when the
      items block on I/O or release the GIL);
    * ``'process'`` — the shared :mod:`multiprocessing` pool; ``fn`` and the
      items must be picklable.  An explicit ``processes`` bounds how many
      items are in flight at once (items are submitted in waves of that
      size); the persistent pool itself starts at the first call's need and
      grows in place for larger requests, reused by every later call (see
      :func:`shutdown_worker_pool`);
    * ``'process-shm'`` — the shared pool with every numpy array in the items
      routed through a :class:`~repro.parallel.shm.SharedArena` (the ambient
      one from :func:`~repro.parallel.shm.arena_scope` when present, else a
      private arena unlinked after the call), so workers attach zero-copy
      views instead of unpickling array bytes.

    On every backend, :class:`~repro.parallel.shm.ArenaRef` values inside the
    items are resolved to their arrays before ``fn`` runs.  The result order
    always matches the input order.

    ``max_retries`` / ``degrade`` override the process-wide
    :class:`SupervisionPolicy` for this call: a :class:`WorkerPoolError`
    retries the map on a freshly spawned pool (same backend); pool-spawn or
    arena failures degrade ``process-shm → process → thread → serial``.
    """
    if backend not in available_backends():
        raise ValueError(f"unknown backend {backend!r}; expected one of {available_backends()}")
    payloads = [(fn, tuple(item)) for item in items]
    if backend == "serial":
        return [_call_star(p) for p in payloads]
    if not payloads:
        return []
    return _supervise(
        "parallel_map",
        backend,
        _degradation_ladder(backend),
        lambda b: _map_backend(payloads, b, processes),
        max_retries,
        degrade,
    )


def _map_backend(
    payloads: list[tuple[Callable[..., Any], tuple[Any, ...]]],
    backend: str,
    processes: Optional[int],
) -> list[Any]:
    """One un-supervised map attempt on ``backend``."""
    if backend == "serial":
        return [_call_star(p) for p in payloads]
    if backend == "thread":
        n_threads = processes or min(len(payloads), 32)
        with ThreadPoolExecutor(max_workers=max(1, n_threads)) as pool:
            return list(pool.map(_call_star, payloads))
    if backend == "process-sock":
        from .sock import get_sock_pool  # lazy: only sock users pay the import

        try:
            pool = get_sock_pool()
        except _DEGRADABLE_EXC as exc:
            raise _DegradableFailure(exc) from exc
        try:
            return pool.run_map(payloads, processes)
        except (WorkerPoolError, RuntimeError):
            raise
        except _DEGRADABLE_EXC as exc:
            raise _DegradableFailure(exc) from exc
    n_workers = processes or min(len(payloads), multiprocessing.cpu_count()) or 1
    if backend == "process":
        return _pool_map(payloads, processes, n_workers)
    try:
        arena_ctx = owned_arena()
        arena = arena_ctx.__enter__()
    except _DEGRADABLE_EXC as exc:
        raise _DegradableFailure(exc) from exc
    try:
        try:
            shm_payloads = [(fn, export_payload(item_args, arena)) for fn, item_args in payloads]
        except _DEGRADABLE_EXC as exc:
            raise _DegradableFailure(exc) from exc
        return _pool_map(shm_payloads, processes, n_workers)
    finally:
        arena_ctx.__exit__(None, None, None)


def _pool_map(
    payloads: list[tuple[Callable[..., Any], tuple[Any, ...]]],
    processes: Optional[int],
    n_workers: int,
) -> list[Any]:
    """Map over the shared pool, honouring an explicit concurrency bound.

    When the caller asked for ``processes`` workers, items are submitted in
    waves of that size so at most ``processes`` tasks execute at once —
    callers use the bound to cap resident memory (one sliced subgraph per
    in-flight rank), so it must hold even though the warm pool is larger.
    """
    try:
        pool = _get_worker_pool(n_workers)
    except _DEGRADABLE_EXC as exc:
        raise _DegradableFailure(exc) from exc
    if processes is None or processes >= len(payloads):
        return _map_checked(pool, payloads)
    results: list[Any] = []
    for start in range(0, len(payloads), processes):
        results.extend(_map_checked(pool, payloads[start : start + processes]))
    return results


#: Poll period of the worker-death watchdog while a checked map is in flight.
POOL_DEATH_POLL = 0.05
#: Drain grace after a worker death is noticed: results already in the pipe
#: are still collected before the pool is declared broken.
POOL_DRAIN_TIMEOUT = 5.0


def _map_checked(
    pool: multiprocessing.pool.Pool,
    payloads: list[tuple[Callable[..., Any], tuple[Any, ...]]],
) -> list[Any]:
    """``pool.map`` with dead-worker detection instead of an infinite hang.

    The worker set is snapshotted before submitting (``Pool`` replaces dead
    workers in place, so the snapshot — not the live list — is what witnesses
    a death).  While waiting, any snapshot worker exiting means tasks may have
    been lost: after a drain grace for a map that completes anyway, the pool
    is torn down (so the next call starts fresh) and :class:`WorkerPoolError`
    is raised.
    """
    if current_plan() is not None:
        # Copy before poisoning so a ``kill_task`` fault is scoped to this
        # dispatch: the supervisor's retry resubmits the clean payloads.
        payloads = list(payloads)
        fault_point("pool.dispatch", payloads=payloads)
    try:
        workers = list(pool._pool)
    except AttributeError:  # pragma: no cover - unknown Pool internals
        return pool.map(_call_star, payloads)
    result = pool.map_async(_call_star, payloads)
    while True:
        result.wait(POOL_DEATH_POLL)
        if result.ready():
            return result.get()
        if any(not w.is_alive() for w in workers):
            result.wait(POOL_DRAIN_TIMEOUT)
            if result.ready():
                return result.get()
            dead = [w.name for w in workers if not w.is_alive()]
            shutdown_worker_pool()
            raise WorkerPoolError(
                f"parallel_map process backend: worker(s) {dead} died mid-map; "
                f"the shared pool was shut down and will respawn on the next call"
            )

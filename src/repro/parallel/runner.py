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
    one resident worker process per rank with a
    :class:`~repro.parallel.sock.SockComm` endpoint, served by the
    socket hub in :mod:`repro.parallel.sock` — the hub spawns each worker
    on a local socket pair, and messages travel as length-prefixed pickle
    frames through the hub, so communicating rank functions execute on real
    cores.  The workers stay alive between calls, so only the first call
    pays interpreter bring-up.  Rank payloads and results are pickled;
``process-sock``, ``process-shm``
    aliases of ``process``, kept for existing callers.  They run the same
    code path; reports keep the name the caller asked for.

``parallel_map`` offers the same backend names for embarrassingly parallel
work items (no communicator); its process backends scatter the items over
the same resident workers.  The hub is brought up at the first caller's
actual need and grown when a larger request arrives — warm interpreters are
never discarded — torn down by :func:`shutdown_worker_pool` (the batch
engine calls it at the end of every batch) and cleaned up at
interpreter exit.

Failure supervision
-------------------
Both entry points run under a supervising retry policy (see
:class:`SupervisionPolicy` / :func:`configure_supervision`).  Two classes of
*infrastructure* failure are distinguished from ordinary errors in user code,
which always propagate untouched:

* **retryable** — a worker died mid-map or mid-round
  (:class:`WorkerPoolError`, :class:`DeadRankError`).  A broken map tears
  the hub down, a dead rank drops its worker, and the map (or the whole
  deterministic SPMD round) is retried on fresh workers, same backend, up to
  ``max_retries`` times with seeded jittered exponential backoff.  These
  never degrade the backend: a payload that kills its worker would take the
  host process down with it on the thread/serial backends.
* **degradable** — the backend's substrate could not be brought up at all
  (hub creation, worker spawn or a missing hello).  After retries are
  exhausted the supervisor steps down the degradation ladder ``process →
  thread → serial`` (both aliases sit on the ``process`` rung; SPMD stops
  at ``thread``, whose serial backend cannot service blocking receives) and
  retries there; the step-down is recorded in the supervision event log
  (:func:`pop_supervision_events`) and the global counters surfaced by
  ``repro serve`` stats.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..faults import fault_point
from .comm import CommStats, SimCommWorld

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
    "run_spmd",
    "parallel_map",
    "available_backends",
    "shutdown_worker_pool",
    "worker_pool_size",
]


class WorkerPoolError(RuntimeError):
    """A resident worker died while a map was in flight.

    The tasks the worker held are lost, so waiting for them would block
    forever.  The hub raises this instead and tears itself down, so the
    caller fails cleanly (or, under the default supervision policy, the map
    is retried) and the next call brings up fresh workers.
    """


class DeadRankError(RuntimeError):
    """An SPMD rank's worker died without reporting a result.

    The SPMD equivalent of :class:`WorkerPoolError`: the rank was OOM-killed
    or segfaulted, so no error payload ever reached the hub.  Distinct from
    an ordinary rank *error* (which re-raises the worker traceback and is
    never retried): a dead rank is an infrastructure failure, and the whole
    deterministic SPMD round is eligible for retry.
    """


RankFn = Callable[..., Any]


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

    Raised only around substrate bring-up (hub creation, worker spawn,
    hello), never around user code — so a user function that happens
    to raise ``OSError`` propagates normally instead of being degraded to
    serial.
    """

    def __init__(self, original: BaseException) -> None:
        super().__init__(str(original))
        self.original = original


#: Exceptions that mark substrate bring-up (spawn, hello) as failed.
_DEGRADABLE_EXC = OSError

#: The step-down order for degradable failures, most substrate first.
_LADDER = ("process", "thread", "serial")

#: Backend names that run on the worker hub (the aliases share one path).
_PROCESS_BACKENDS = ("process", "process-shm", "process-sock")


def _degradation_ladder(backend: str, floor: str = "serial") -> list[str]:
    """The backends to fall through, starting at the requested one.

    Both aliases of ``process`` step down from the ``process`` rung.
    """
    start = _LADDER.index("process" if backend in _PROCESS_BACKENDS else backend)
    stop = _LADDER.index(floor)
    return [backend, *_LADDER[start + 1 : stop + 1]]


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

    Ordered cheapest-substrate first.  The three process names are one
    code path (resident socket workers); ``process-shm`` and
    ``process-sock`` are aliases of ``process``.
    """
    return ["serial", "thread", "process", "process-shm", "process-sock"]


def _on_hub(run: Callable[[Any], Any]) -> Any:
    """Call ``run(hub)`` on the resident worker hub.

    Bring-up failures (spawn, hello) are degradable; worker
    deaths and user errors propagate as they are.
    """
    from .sock import get_sock_pool  # lazy: only process-backend users pay the import

    try:
        return run(get_sock_pool())
    except _DEGRADABLE_EXC as exc:  # worker spawn, missing hello or a lost connection
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
    if backend in _PROCESS_BACKENDS:
        payloads = [tuple(rank_args[r]) if rank_args is not None else () for r in range(n_ranks)]
        kill_ranks: set[int] = set()
        fault_point("spmd.ranks", kill_ranks=kill_ranks, n_ranks=n_ranks)
        values, stats = _on_hub(
            lambda hub: hub.run_round(fn, n_ranks, payloads, args, kwargs, kill_ranks)
        )
        results = [RankResult(rank=r, value=values[r], stats=stats[r]) for r in range(n_ranks)]
        return SpmdReport(results=results, n_ranks=n_ranks, backend=backend)

    world = SimCommWorld(n_ranks)

    def call(rank: int) -> Any:
        comm = world.comm(rank)
        extra = tuple(rank_args[rank]) if rank_args is not None else ()
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
        backends, :class:`~repro.parallel.sock.SockComm` on the process
        backends); the remaining
        arguments are ``rank_args[rank]`` (if supplied) followed by the
        shared ``args`` / ``kwargs``.
    rank_args:
        Optional per-rank positional arguments (length must equal ``n_ranks``),
        typically the rank's partition data.
    backend:
        One of :func:`available_backends`.  ``"serial"`` runs ranks
        sequentially (any blocking receive on a message that was not already
        sent raises); ``"thread"`` (default) supports messaging in-process;
        ``"process"`` (aliases ``"process-shm"``, ``"process-sock"``) runs
        each rank on a resident worker process (``fn``, payloads and results
        must be picklable).
    max_retries, degrade:
        Per-call overrides of the process-wide :class:`SupervisionPolicy`.
        A dead rank (:class:`DeadRankError`) retries the whole round — one
        SPMD round is a deterministic unit, so a clean rerun produces the
        identical result; substrate bring-up failures degrade the backend
        down to ``thread`` (never ``serial``: blocking receives need live
        peers).  The report's ``backend`` field records the backend that
        actually ran (an alias keeps its own name).

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
    return fn(*item_args)


def worker_pool_size() -> int:
    """Live workers of the resident worker hub (0 when none is up)."""
    sock = sys.modules.get(f"{__package__}.sock")  # no hub without the module
    return sock.sock_pool_size() if sock is not None else 0


def shutdown_worker_pool() -> None:
    """Tear down the resident worker hub (no-op when none is up).

    Callers that fan out many ``parallel_map`` runs (the batch engine) invoke
    this once at the end of the batch; the hub also tears itself down at
    interpreter exit, so an interactive interpreter never leaks worker
    processes.  Idempotent: repeated calls (and calls racing the exit hook)
    are safe, and the next process-backend call brings up a fresh hub.
    """
    sock = sys.modules.get(f"{__package__}.sock")
    if sock is not None:
        sock.shutdown_sock_pool()


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
    * ``'process'`` (aliases ``'process-shm'``, ``'process-sock'``) — the
      resident workers of the socket hub; ``fn`` and the items must be
      picklable.  The items are scattered over ``processes`` workers
      (default: one per item, at most one per core), each running its share
      in order, so an explicit ``processes`` bounds how many items are in
      flight at once.  The hub
      starts at the first call's need and grows for larger requests, reused
      by every later call (see :func:`shutdown_worker_pool`).

    The result order always matches the input order.

    ``max_retries`` / ``degrade`` override the process-wide
    :class:`SupervisionPolicy` for this call: a :class:`WorkerPoolError`
    retries the map on fresh workers (same backend); hub bring-up failures
    degrade ``process → thread → serial``.
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
    return _on_hub(lambda hub: hub.run_map(payloads, processes))

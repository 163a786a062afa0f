"""Parallel runtime substrate: communicators, SPMD runner, cost model.

The paper's algorithms were written for a distributed-memory MPI machine.
This package substitutes an offline equivalent: the algorithms exchange the
same messages over :class:`SimComm` (threads) or resident worker processes
over TCP (:mod:`repro.parallel.sock`), rank work is measured exactly, and
:class:`CostModel` converts that work into simulated wall-clock times for
the scalability study.
"""

from .._lazy import lazy_exports

__all__ = [
    "SimComm",
    "SimCommWorld",
    "CommStats",
    "ANY_SOURCE",
    "ANY_TAG",
    "run_spmd",
    "parallel_map",
    "available_backends",
    "shutdown_worker_pool",
    "worker_pool_size",
    "DeadRankError",
    "SupervisionPolicy",
    "configure_supervision",
    "supervision_policy",
    "supervision_counters",
    "reset_supervision_counters",
    "pop_supervision_events",
    "RankResult",
    "SpmdReport",
    "CostModel",
    "RankWork",
    "speedup",
    "efficiency",
    "rank_rngs",
    "rank_rng",
    "derive_seed",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".comm": ("ANY_SOURCE", "ANY_TAG", "CommStats", "SimComm", "SimCommWorld"),
        ".rng": ("derive_seed", "rank_rng", "rank_rngs"),
        ".runner": (
            "DeadRankError",
            "RankResult",
            "SpmdReport",
            "SupervisionPolicy",
            "available_backends",
            "configure_supervision",
            "parallel_map",
            "pop_supervision_events",
            "reset_supervision_counters",
            "run_spmd",
            "shutdown_worker_pool",
            "supervision_counters",
            "supervision_policy",
            "worker_pool_size",
        ),
        ".timing": ("CostModel", "RankWork", "efficiency", "speedup"),
    },
)

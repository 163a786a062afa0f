"""High-level sampling-filter API.

The pipeline, examples and benchmarks never call the individual samplers
directly; they go through :func:`apply_filter`, which dispatches on a method
name, normalises the common parameters (ordering, partitions, seeds) and
always returns a :class:`~repro.core.results.FilterResult`.  The registry also
powers the command-line style sweeps in the benchmark harness ("for every
filter in FILTERS …").
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..graph.csr import CSRGraph
from ..graph.graph import Graph
from .parallel_comm import parallel_chordal_comm_filter
from .parallel_nocomm import parallel_chordal_nocomm_filter
from .random_walk import parallel_random_walk_filter
from .results import FilterResult
from .sequential import sequential_chordal_filter, sequential_random_walk_filter

__all__ = ["FILTERS", "filter_names", "apply_filter"]


def _dispatch_chordal(
    graph: "Graph | CSRGraph",
    n_partitions: int,
    ordering: Optional[str],
    **kwargs: Any,
) -> FilterResult:
    """Chordal filter: sequential when ``n_partitions == 1``, no-comm otherwise."""
    kwargs.pop("seed", None)
    if n_partitions <= 1:
        kwargs.pop("partition_method", None)
        kwargs.pop("repair_cycles", None)
        kwargs.pop("backend", None)
        return sequential_chordal_filter(graph, ordering=ordering, **kwargs)
    return parallel_chordal_nocomm_filter(graph, n_partitions, ordering=ordering, **kwargs)


def _dispatch_chordal_comm(
    graph: "Graph | CSRGraph",
    n_partitions: int,
    ordering: Optional[str],
    **kwargs: Any,
) -> FilterResult:
    kwargs.pop("seed", None)
    kwargs.pop("repair_cycles", None)
    if n_partitions <= 1:
        kwargs.pop("partition_method", None)
        kwargs.pop("backend", None)
        return sequential_chordal_filter(graph, ordering=ordering, **kwargs)
    return parallel_chordal_comm_filter(graph, n_partitions, ordering=ordering, **kwargs)


def _dispatch_random_walk(
    graph: "Graph | CSRGraph",
    n_partitions: int,
    ordering: Optional[str],
    **kwargs: Any,
) -> FilterResult:
    kwargs.pop("repair_cycles", None)
    kwargs.pop("backend", None)
    seed = kwargs.pop("seed", 0)
    if n_partitions <= 1:
        kwargs.pop("partition_method", None)
        return sequential_random_walk_filter(graph, seed=seed, **kwargs)
    return parallel_random_walk_filter(graph, n_partitions, seed=seed, **kwargs)


FilterFn = Callable[..., FilterResult]

#: Registry of sampling filters keyed by the names used throughout the repo.
FILTERS: dict[str, FilterFn] = {
    "chordal": _dispatch_chordal,
    "chordal_nocomm": _dispatch_chordal,
    "chordal_comm": _dispatch_chordal_comm,
    "random_walk": _dispatch_random_walk,
}


def filter_names() -> list[str]:
    """Canonical filter names (deduplicated, presentation order)."""
    return ["chordal", "chordal_comm", "random_walk"]


def apply_filter(
    graph: "Graph | CSRGraph",
    method: str = "chordal",
    ordering: Optional[str] = "natural",
    n_partitions: int = 1,
    **kwargs: Any,
) -> FilterResult:
    """Apply a sampling filter to ``graph`` and return its :class:`FilterResult`.

    Parameters
    ----------
    graph:
        The network, as a label :class:`Graph` or a :class:`CSRGraph` (a
        dataset's ``network_csr``).  The filters run on the CSR view either
        way; a CSR input builds no label graph until the result's
        ``original`` or ``graph`` is read.
    method:
        ``"chordal"`` (communication-free parallel / sequential), ``"chordal_comm"``
        (the older with-communication baseline) or ``"random_walk"`` (control).
    ordering:
        Vertex ordering name or paper abbreviation (the result records the
        canonical name); ignored by the random walk.
    n_partitions:
        Number of simulated processors; 1 selects the sequential variants.
    kwargs:
        Forwarded to the underlying sampler: ``seed`` (random walk),
        ``partition_method``, ``backend`` (parallel runs) and
        ``repair_cycles`` (the communication-free filter).
    """
    if method not in FILTERS:
        raise KeyError(f"unknown filter {method!r}; valid: {sorted(FILTERS)}")
    return FILTERS[method](graph, n_partitions, ordering, **kwargs)

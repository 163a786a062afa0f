"""Sequential (single-processor) sampling filters.

These are the reference implementations the parallel algorithms are compared
against: the sequential maximal chordal subgraph filter (the "1P" runs of the
paper's Figure 11) and a sequential random walk.  Both return
:class:`~repro.core.results.FilterResult` objects with single-rank work
counters so they slot into the same cost model as the parallel runs.

Both filters are *index-native*: they read the graph's cached CSR view
(:meth:`CSRGraph.of`), compute the ordering directly on indices
(:func:`repro.graph.ordering.ordering_indices`), run the kernel on plain
integers and return the kept edges as index pairs; the result maps them back
to labels only when its label graph is read.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph, sorted_unique
from ..graph.graph import Graph
from ..graph.ordering import ordering_indices
from ..parallel.timing import RankWork
from .chordal import chordal_subgraph_edge_indices
from .results import FilterResult, as_pairs

__all__ = [
    "sequential_chordal_filter",
    "sequential_random_walk_filter",
    "resolve_order_indices",
    "kernel_priority",
]

Vertex = Hashable

#: How many uniform deviates the random walk draws per RNG call.
RANDOM_WALK_RNG_BATCH = 4096


def resolve_order_indices(
    csr: CSRGraph,
    ordering: Optional[str],
    explicit_order: Optional[Sequence[Vertex]] = None,
) -> tuple[Optional[np.ndarray], Optional[str]]:
    """Resolve an ordering name / explicit order into ``(permutation, name)``.

    The permutation is an ``int64`` array over CSR vertex indices; both are
    ``None`` when neither an ordering nor an explicit order was requested
    (callers then fall back to the natural order).  An ``explicit_order`` is
    given in labels — this is the single place the sampler pipelines
    translate it to indices.
    """
    if explicit_order is not None:
        order = list(explicit_order)
        n = csr.n_vertices
        index = csr.label_index
        if len(order) != n or not all(v in index for v in order):
            raise ValueError("explicit order must be a permutation of the graph's vertex set")
        perm = np.fromiter((index[v] for v in order), dtype=np.int64, count=n)
        if sorted_unique(perm).shape[0] != n:
            raise ValueError("explicit order must be a permutation of the graph's vertex set")
        return perm, ordering or "explicit"
    if ordering is None:
        return None, None
    return ordering_indices(ordering, csr), ordering


def priority_from_permutation(perm: Optional[np.ndarray], n: int) -> Optional[np.ndarray]:
    """Invert an ordering permutation into the per-vertex priority array.

    ``priority[v]`` is the position of vertex ``v`` in the ordering — the form
    the DSW kernel consumes.  ``None`` passes through (natural order).
    """
    if perm is None:
        return None
    priority = np.empty(n, dtype=np.int64)
    priority[perm] = np.arange(n, dtype=np.int64)
    return priority


def kernel_priority(priority: Optional[np.ndarray]) -> Optional[list[int]]:
    """``priority`` in the form the DSW kernel takes: a plain ``list``, or
    ``None`` when it never decreases along the vertex indices — the
    kernel's natural order, which then needs no ranking pass.  A block
    partition lists each part in ordering sequence, so its ranks always
    take the ``None`` form."""
    if priority is None or not (np.diff(priority) < 0).any():
        return None
    return priority.tolist()


def sequential_chordal_filter(
    graph: "Graph | CSRGraph",
    ordering: Optional[str] = "natural",
    explicit_order: Optional[Sequence[Vertex]] = None,
    strict_order: bool = False,
) -> FilterResult:
    """Extract the maximal chordal subgraph of ``graph`` on a single processor.

    Parameters
    ----------
    ordering:
        Name of the vertex ordering (``natural``, ``high_degree``,
        ``low_degree``, ``rcm``) that seeds the Dearing–Shier–Warner
        traversal.  ``None`` uses the natural order.
    explicit_order:
        An explicit vertex permutation overriding ``ordering``.
    strict_order:
        Process vertices exactly in the given order instead of the greedy
        maximum-|S| rule (see :func:`repro.core.chordal.maximal_chordal_subgraph`).
    """
    start = time.perf_counter()
    # One CSR view serves the ordering, the extraction kernel and the work
    # counters; labels reappear only when the result's graph is read.
    csr = CSRGraph.of(graph)
    perm, name = resolve_order_indices(csr, ordering, explicit_order)
    priority = priority_from_permutation(perm, csr.n_vertices)
    pairs = chordal_subgraph_edge_indices(
        csr, priority=kernel_priority(priority), strict_order=strict_order
    )
    wall = time.perf_counter() - start
    work = RankWork(
        edges_examined=csr.n_edges,
        chordality_checks=csr.degree_sum(),
        border_edges=0,
        messages=0,
        items_sent=0,
        max_degree=csr.max_degree(),
    )
    result = FilterResult(
        csr=csr,
        kept=as_pairs(pairs),
        method="chordal_sequential",
        ordering=name or "natural",
        n_partitions=1,
        rank_work=[work],
        wall_time=wall,
        # ``backend`` keeps the execution-layer metadata uniform across the
        # sampler family: the sequential filter is by definition one serial
        # rank (see the backend matrix in docs/ARCHITECTURE.md).
        extra={"strict_order": strict_order, "backend": "serial"},
    )
    result.compute_simulated_time(with_communication=False)
    return result


def sequential_random_walk_filter(
    graph: "Graph | CSRGraph",
    seed: int = 0,
    selection_fraction: float = 0.5,
) -> FilterResult:
    """Sample ``graph`` with the random-walk control filter on a single processor.

    The walk follows the paper's description: from the current vertex one of
    its ``d`` incident edges is chosen with probability ``1/d`` and marked as
    selected; no visited list is kept, so vertices and edges may be selected
    repeatedly.  The walk stops once the number of *selections* (with
    repetition) reaches ``selection_fraction`` × |E|.  Walks restart from a
    uniformly random vertex whenever the current vertex is isolated.

    The walk runs on the CSR view and draws its randomness in batches of
    ``RANDOM_WALK_RNG_BATCH`` uniform deviates (one ``rng.random`` call per
    batch, each step mapping one deviate onto ``0..d-1``) instead of one
    ``rng.integers`` call per step.  **The random stream therefore differs
    from the seed implementation** for the same seed; the result records
    ``extra["rng_stream"] = "batched-uniform-v2"`` and
    ``tests/test_sequential_filters.py::TestBatchedRandomWalkStream`` pins
    the new stream with exact-edge-set regression tests.
    """
    if not 0.0 < selection_fraction <= 1.0:
        raise ValueError("selection_fraction must lie in (0, 1]")
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    csr = CSRGraph.of(graph)
    n = csr.n_vertices
    rows = csr.neighbor_lists()
    kept: set[tuple[int, int]] = set()
    selections = 0
    target = int(selection_fraction * csr.n_edges)
    if n and csr.n_edges:
        batch = rng.random(RANDOM_WALK_RNG_BATCH)
        pos = 0

        def draw() -> float:
            nonlocal batch, pos
            if pos == RANDOM_WALK_RNG_BATCH:
                batch = rng.random(RANDOM_WALK_RNG_BATCH)
                pos = 0
            value = batch[pos]
            pos += 1
            return value

        current = int(draw() * n)
        while selections < target:
            row = rows[current]
            d = len(row)
            if not d:
                current = int(draw() * n)
                continue
            nxt = row[int(draw() * d)]
            kept.add((current, nxt) if current < nxt else (nxt, current))
            selections += 1
            current = nxt
    wall = time.perf_counter() - start
    work = RankWork(
        edges_examined=selections,
        chordality_checks=0,
        border_edges=0,
        messages=0,
        items_sent=0,
        max_degree=csr.max_degree(),
    )
    result = FilterResult(
        csr=csr,
        # Set iteration order is the admission order the label graph keeps.
        kept=as_pairs(list(kept)),
        method="random_walk_sequential",
        ordering=None,
        n_partitions=1,
        rank_work=[work],
        wall_time=wall,
        extra={
            "seed": seed,
            "selection_fraction": selection_fraction,
            "selections": selections,
            "rng_stream": "batched-uniform-v2",
            "rng_batch": RANDOM_WALK_RNG_BATCH,
        },
    )
    result.compute_simulated_time(with_communication=False)
    return result

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
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.graph import Graph
from ..graph.ordering import canonical_ordering_name, ordering_indices
from ..parallel.timing import RankWork
from .chordal import chordal_subgraph_edge_indices
from .results import FilterResult, as_pairs

__all__ = [
    "sequential_chordal_filter",
    "sequential_random_walk_filter",
    "resolve_order_indices",
    "kernel_priority",
]

#: How many uniform deviates the random walk draws per RNG call.
RANDOM_WALK_RNG_BATCH = 4096

#: A random walk stops once its selections (repeats counted) reach this
#: fraction of the walked edges — one half, as in the paper.
SELECTION_FRACTION = 0.5


def resolve_order_indices(csr: CSRGraph, ordering: str) -> tuple[np.ndarray, str]:
    """Resolve an ordering name or paper abbreviation into ``(permutation, name)``.

    The permutation is an ``int64`` array over CSR vertex indices and the
    name is the canonical one (``"hd"`` → ``"high_degree"``), so both
    spellings of one ordering share its memo entries and its payload.
    """
    name = canonical_ordering_name(ordering)
    return ordering_indices(name, csr), name


def priority_from_permutation(perm: np.ndarray, n: int) -> np.ndarray:
    """Invert an ordering permutation into the per-vertex priority array.

    ``priority[v]`` is the position of vertex ``v`` in the ordering — the form
    the DSW kernel consumes.
    """
    priority = np.empty(n, dtype=np.int64)
    priority[perm] = np.arange(n, dtype=np.int64)
    return priority


def kernel_priority(priority: np.ndarray) -> Optional[list[int]]:
    """``priority`` in the form the DSW kernel takes: a plain ``list``, or
    ``None`` when it never decreases along the vertex indices — the
    kernel's natural order, which then needs no ranking pass.  A block
    partition lists each part in ordering sequence, so its ranks always
    take the ``None`` form."""
    if not (np.diff(priority) < 0).any():
        return None
    return priority.tolist()


def sequential_chordal_filter(
    graph: "Graph | CSRGraph", ordering: str = "natural"
) -> FilterResult:
    """Extract the maximal chordal subgraph of ``graph`` on a single processor.

    ``ordering`` names the vertex ordering (``natural``, ``high_degree``,
    ``low_degree``, ``rcm``, or a paper abbreviation) that seeds the
    Dearing–Shier–Warner traversal.
    """
    start = time.perf_counter()
    # One CSR view serves the ordering, the extraction kernel and the work
    # counters; labels reappear only when the result's graph is read.
    csr = CSRGraph.of(graph)
    perm, name = resolve_order_indices(csr, ordering)
    priority = priority_from_permutation(perm, csr.n_vertices)
    pairs = chordal_subgraph_edge_indices(csr, priority=kernel_priority(priority))
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
        ordering=name,
        n_partitions=1,
        rank_work=[work],
        wall_time=wall,
        # ``backend`` keeps the execution-layer metadata uniform across the
        # sampler family: the sequential filter is by definition one serial
        # rank (see the backend matrix in docs/ARCHITECTURE.md).
        extra={"backend": "serial"},
    )
    result.compute_simulated_time(with_communication=False)
    return result


def sequential_random_walk_filter(graph: "Graph | CSRGraph", seed: int = 0) -> FilterResult:
    """Sample ``graph`` with the random-walk control filter on a single processor.

    The walk follows the paper's description: from the current vertex one of
    its ``d`` incident edges is chosen with probability ``1/d`` and marked as
    selected; no visited list is kept, so vertices and edges may be selected
    repeatedly.  The walk stops once the number of *selections* (with
    repetition) reaches :data:`SELECTION_FRACTION` × |E|.  Walks restart from a
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
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    csr = CSRGraph.of(graph)
    n = csr.n_vertices
    rows = csr.neighbor_lists()
    kept: set[tuple[int, int]] = set()
    selections = 0
    target = int(SELECTION_FRACTION * csr.n_edges)
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
            "selections": selections,
            "rng_stream": "batched-uniform-v2",
            "rng_batch": RANDOM_WALK_RNG_BATCH,
        },
    )
    result.compute_simulated_time(with_communication=False)
    return result

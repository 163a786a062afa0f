"""Parallel random-walk sampling — the control filter.

The paper compares its adaptive chordal filter against a standard
structure-agnostic sampler: a random walk.  The parallel variant mirrors the
chordal samplers' structure (partition, local phase, border phase) but every
decision is random:

* **local phase** — each rank performs a random walk on its partition's
  internal edges; at every step one of the ``d`` incident edges of the current
  vertex is selected with probability ``1/d`` (no visited list — vertices and
  edges may repeat); the walk stops once the number of selections reaches half
  of the partition's edge count.
* **border phase** — every border edge is assigned an independent Bernoulli(½)
  value and is kept when the value is 1.  No communication is required, so the
  filter is perfectly scalable and cheaper per edge than the chordal variant.

The rationale quoted by the paper is that tightly connected vertex groups are
revisited often and should therefore survive, but the experiments (and our
reproduction) show the surviving edge set is too thin for MCODE to recover any
cluster — which is precisely the paper's point H0a.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.graph import Graph, edge_key
from ..parallel.rng import rank_rngs
from ..parallel.timing import RankWork
from .parallel_nocomm import resolve_index_partition
from .results import FilterResult, as_pairs
from .sequential import SELECTION_FRACTION

__all__ = ["parallel_random_walk_filter"]

Vertex = Hashable
IndexEdge = tuple[int, int]

#: Probability that a border edge survives: its "binary random value" is a
#: fair coin, as in the paper.
BORDER_KEEP_PROBABILITY = 0.5


def _walk(
    rows: Sequence[Sequence[int]],
    n_edges: int,
    rng: np.random.Generator,
) -> tuple[set[IndexEdge], int]:
    """One random walk over adjacency ``rows``: (selected ``(min, max)`` pairs, n selections).

    The walk stops after :data:`SELECTION_FRACTION` × ``n_edges`` selections
    and restarts at a uniformly random vertex whenever it reaches an
    isolated vertex.  Selection counting includes repeats, per the paper.
    """
    n = len(rows)
    kept: set[IndexEdge] = set()
    selections = 0
    target = int(SELECTION_FRACTION * n_edges)
    if not n or n_edges == 0 or target == 0:
        return kept, 0
    current = int(rng.integers(0, n))
    while selections < target:
        row = rows[current]
        if not row:
            current = int(rng.integers(0, n))
            continue
        nxt = row[int(rng.integers(0, len(row)))]
        kept.add((current, nxt) if current < nxt else (nxt, current))
        selections += 1
        current = nxt
    return kept, selections


def _repr_order(pairs: Sequence[IndexEdge], labels: Sequence[Vertex]) -> list[IndexEdge]:
    """``pairs`` sorted by the ``repr`` of their canonical label edges."""
    return sorted(pairs, key=lambda e: repr(edge_key(labels[e[0]], labels[e[1]])))


def _subgraph_rows(indptr: np.ndarray, indices: np.ndarray) -> list[list[int]]:
    """The adjacency rows ``Graph.subgraph`` builds for the part whose
    induced CSR arrays (:meth:`IndexPartition.part_arrays`) are given.

    ``Graph.subgraph`` adds each edge from whichever endpoint comes first in
    the part, so a row lists its earlier neighbours (in part order) before
    its later ones (in the original row order) — the neighbour order the
    walk draws from.
    """
    flat, bounds = indices.tolist(), indptr.tolist()
    rows: list[list[int]] = [[] for _ in range(len(bounds) - 1)]
    for x in range(len(rows)):
        for y in flat[bounds[x] : bounds[x + 1]]:
            if y > x:
                rows[x].append(y)
                rows[y].append(x)
    return rows


def parallel_random_walk_filter(
    graph: "Graph | CSRGraph",
    n_partitions: int,
    seed: int = 0,
    partition_method: str = "block",
) -> FilterResult:
    """Run the parallel random-walk control filter.

    ``seed`` is the root seed; each rank receives an independent derived
    stream, so the per-rank walks are uncorrelated and reproducible.  Each
    local walk stops after :data:`SELECTION_FRACTION` of its partition's
    edges have been selected (with repetition), and each border edge
    survives with probability :data:`BORDER_KEEP_PROBABILITY`.  A block
    partition lays out the natural order.

    Like the chordal samplers it runs on the graph's cached CSR view and an
    index partition; each rank's walked edges are admitted in the ``repr``
    order of their label form, then the surviving border edges in partition
    order.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    start = time.perf_counter()
    csr = CSRGraph.of(graph)
    ipart = resolve_index_partition(csr, n_partitions, partition_method)

    rngs = rank_rngs(seed, ipart.n_parts + 1)
    border_rng = rngs[-1]
    labels = csr.labels

    walked: list[np.ndarray] = []
    works: list[RankWork] = []
    for rank, (sub_indptr, sub_indices) in enumerate(ipart.part_arrays()):
        rows = _subgraph_rows(sub_indptr, sub_indices)
        n_edges = int(sub_indices.shape[0]) // 2
        pairs, selections = _walk(rows, n_edges, rngs[rank])
        to_global = ipart.part_indices(rank).tolist()
        global_pairs = [
            (a, b) if a < b else (b, a) for a, b in ((to_global[i], to_global[j]) for i, j in pairs)
        ]
        walked.append(as_pairs(_repr_order(global_pairs, labels)))
        works.append(
            RankWork(
                edges_examined=selections,
                chordality_checks=0,
                border_edges=int(ipart.border_edges_of(rank)[0].shape[0]),
                messages=0,
                items_sent=0,
                max_degree=max(int(np.diff(sub_indptr).max(initial=0)), 1),
            )
        )

    border = np.column_stack(ipart.border_edges())
    accepted = border[border_rng.random(border.shape[0]) < BORDER_KEEP_PROBABILITY]
    wall = time.perf_counter() - start

    result = FilterResult(
        csr=csr,
        # Walked edges lie inside one part, border edges cross parts: disjoint.
        kept=np.concatenate(walked + [accepted]),
        method="random_walk",
        ordering=None,
        n_partitions=ipart.n_parts,
        partition_method=partition_method,
        border_pairs=border,
        accepted_border_pairs=accepted,
        duplicate_border_edges=0,
        rank_work=works,
        wall_time=wall,
        extra={"seed": seed},
    )
    result.compute_simulated_time(with_communication=False)
    return result

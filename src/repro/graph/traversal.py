"""BFS level structures and the George–Liu pseudo-peripheral vertex.

These label-graph bodies back the reference Reverse Cuthill–McKee ordering
(:func:`repro.graph.ordering.reference_rcm_order`); the production kernel
:func:`repro.graph.ordering.rcm_order_indices` runs the same search for
every component at once, one multi-source BFS per round.
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Optional

from .graph import Graph

__all__ = ["bfs_levels", "pseudo_peripheral_vertex"]

Vertex = Hashable


def bfs_levels(graph: Graph, source: Vertex) -> list[list[Vertex]]:
    """Return the BFS level structure rooted at ``source``.

    ``result[k]`` contains every vertex at distance exactly ``k`` from the
    source, in deterministic order.
    """
    if source not in graph:
        raise KeyError(f"source vertex {source!r} not in graph")
    visited = {source}
    levels = [[source]]
    frontier = [source]
    while frontier:
        nxt: list[Vertex] = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v not in visited:
                    visited.add(v)
                    nxt.append(v)
        if nxt:
            levels.append(nxt)
        frontier = nxt
    return levels


def pseudo_peripheral_vertex(graph: Graph, start: Optional[Vertex] = None) -> Vertex:
    """Find a pseudo-peripheral vertex using the George–Liu heuristic.

    Used as the RCM starting vertex: repeatedly move to a minimum-degree
    vertex in the last BFS level until the eccentricity stops growing.
    """
    if graph.n_vertices == 0:
        raise ValueError("graph is empty")
    v = start if start is not None else graph.vertices()[0]
    if v not in graph:
        raise KeyError(f"start vertex {v!r} not in graph")
    levels = bfs_levels(graph, v)
    ecc = len(levels) - 1
    while True:
        last = levels[-1]
        candidate = min(last, key=lambda u: (graph.degree(u), str(u)))
        new_levels = bfs_levels(graph, candidate)
        new_ecc = len(new_levels) - 1
        if new_ecc <= ecc:
            return candidate
        v, levels, ecc = candidate, new_levels, new_ecc

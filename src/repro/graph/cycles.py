"""Cycle and triangle utilities.

The chordal filter's correctness arguments revolve around cycles: a chordal
graph has no induced (chordless) cycle longer than a triangle, the parallel
algorithms can create a few long cycles across partition boundaries
("quasi-chordal subgraphs"), and the C3 (triangle) motif is the biological
signal the filter is designed to preserve.  This module provides the
machinery for measuring all of that.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable
from typing import Optional

from .csr import CSRGraph
from .graph import Graph

__all__ = [
    "count_triangles",
    "cycle_basis_sizes",
    "cycle_basis_sizes_csr",
    "find_chordless_cycle",
]

Vertex = Hashable


def count_triangles(graph: Graph) -> int:
    """Return the number of distinct triangles in the graph.

    Uses the standard neighbour-intersection method with degree-based edge
    orientation so every triangle is counted exactly once.
    """
    # Orient each edge from lower-rank to higher-rank endpoint (rank = (degree, label)).
    rank = {v: (graph.degree(v), repr(v)) for v in graph.vertices()}
    higher: dict[Vertex, set[Vertex]] = {v: set() for v in graph.vertices()}
    for u, v in graph.iter_edges():
        if rank[u] <= rank[v]:
            higher[u].add(v)
        else:
            higher[v].add(u)
    total = 0
    for u in graph.vertices():
        hu = higher[u]
        for v in hu:
            total += len(hu & higher[v])
    return total


def cycle_basis_sizes(graph: Graph) -> list[int]:
    """Return the lengths of the cycles in a fundamental cycle basis.

    A spanning forest is built; every non-tree edge closes exactly one
    fundamental cycle whose length is the tree distance between its endpoints
    plus one.  The multiset of lengths gives a quick fingerprint of how far a
    quasi-chordal subgraph is from being triangulated (a chordal graph still
    has cycles, but chordless ones no longer than 3).
    """
    return cycle_basis_sizes_csr(CSRGraph.from_graph(graph))


def cycle_basis_sizes_csr(csr: CSRGraph) -> list[int]:
    """:func:`cycle_basis_sizes` of a CSR view.

    The forest is the breadth-first one grown from vertex ``0, 1, …`` in turn,
    visiting each row in its stored order — for ``CSRGraph.from_graph(g)``
    the forest a traversal of ``g`` in vertex and neighbour insertion order
    grows, so both forms report the same lengths.
    """
    n = csr.n_vertices
    rows = csr.neighbor_lists()
    parent = [-1] * n
    depth = [-1] * n
    for start in range(n):
        if depth[start] >= 0:
            continue
        depth[start] = 0
        queue: deque[int] = deque([start])
        while queue:
            u = queue.popleft()
            for w in rows[u]:
                if depth[w] < 0:
                    depth[w] = depth[u] + 1
                    parent[w] = u
                    queue.append(w)
    sizes: list[int] = []
    for u in range(n):
        for v in rows[u]:
            # Each edge once; in a simple graph {u, v} is a tree edge exactly
            # when one endpoint discovered the other.
            if v < u or parent[v] == u or parent[u] == v:
                continue
            a, b = u, v
            length = 0
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                a = parent[a]
                length += 1
            sizes.append(length + 1)
    return sorted(sizes)


def find_chordless_cycle(graph: Graph) -> Optional[list[Vertex]]:
    """Return one chordless (induced) cycle (length ``>= 4``) or ``None``.

    The search examines, for every edge ``(u, v)``, the shortest alternative
    path from ``u`` to ``v`` in the graph with the edge removed and all common
    neighbours of ``u`` and ``v`` excluded; if such a path exists the edge plus
    the path form a cycle of length ≥ 4 with no chord between ``u`` and the
    path interior adjacent to both endpoints.  The cycle returned is then
    shrunk to an induced cycle by repeatedly short-cutting chords.  This is a
    verification helper for tests (exponential worst cases are avoided because
    it is only used on small graphs / counterexample hunting).
    """
    for u, v in graph.edges():
        banned = (graph.neighbor_set(u) & graph.neighbor_set(v)) | {u, v}
        # BFS from u to v avoiding the edge and common neighbours
        parent: dict[Vertex, Vertex] = {}
        queue: deque[Vertex] = deque()
        for w in graph.neighbors(u):
            if w != v and w not in banned:
                parent[w] = u
                queue.append(w)
        found: Optional[Vertex] = None
        while queue and found is None:
            x = queue.popleft()
            for y in graph.neighbors(x):
                if y == v:
                    found = x
                    break
                if y in banned or y in parent or y == u:
                    continue
                parent[y] = x
                queue.append(y)
        if found is None:
            continue
        path = [found]
        while path[-1] != u:
            path.append(parent[path[-1]])
        cycle = [v] + path  # v, ..., u
        induced = _shrink_to_induced_cycle(graph, cycle)
        if induced is not None:
            return induced
    return None


def _shrink_to_induced_cycle(graph: Graph, cycle: list[Vertex]) -> Optional[list[Vertex]]:
    """Shrink a simple cycle to an induced one by short-cutting across chords."""
    current = list(cycle)
    changed = True
    while changed and len(current) >= 4:
        changed = False
        n = len(current)
        for i in range(n):
            for j in range(i + 2, n):
                if i == 0 and j == n - 1:
                    continue  # consecutive around the cycle
                a, b = current[i], current[j]
                if graph.has_edge(a, b):
                    # keep the shorter arc plus the chord
                    arc1 = current[i : j + 1]
                    arc2 = current[j:] + current[: i + 1]
                    current = arc1 if len(arc1) <= len(arc2) else arc2
                    changed = True
                    break
            if changed:
                break
    return current if len(current) >= 4 else None

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
from collections.abc import Hashable, Iterable
from typing import Optional

from .csr import CSRGraph
from .graph import Graph, edge_key

__all__ = [
    "count_triangles",
    "triangles_of_edge",
    "edge_in_triangle",
    "local_clustering",
    "average_clustering",
    "has_cycle",
    "cycle_basis_sizes",
    "cycle_basis_sizes_csr",
    "find_chordless_cycle",
    "girth_at_least",
    "break_cycles",
]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


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


def triangles_of_edge(graph: Graph, u: Vertex, v: Vertex) -> list[Vertex]:
    """Return the vertices ``w`` such that ``{u, v, w}`` is a triangle."""
    if not graph.has_edge(u, v):
        return []
    nu = graph.neighbor_set(u)
    nv = graph.neighbor_set(v)
    return sorted(nu & nv, key=repr)


def edge_in_triangle(graph: Graph, u: Vertex, v: Vertex) -> bool:
    """Return ``True`` when the edge ``{u, v}`` participates in at least one triangle."""
    if not graph.has_edge(u, v):
        return False
    nu = graph.neighbor_set(u)
    for w in graph.neighbors(v):
        if w in nu:
            return True
    return False


def local_clustering(graph: Graph, v: Vertex) -> float:
    """Return the local clustering coefficient of ``v`` (0.0 for degree < 2)."""
    nbrs = graph.neighbors(v)
    k = len(nbrs)
    if k < 2:
        return 0.0
    links = 0
    nbr_set = set(nbrs)
    for i, a in enumerate(nbrs):
        adj_a = graph.neighbor_set(a)
        for b in nbrs[i + 1 :]:
            if b in adj_a:
                links += 1
    return 2.0 * links / (k * (k - 1))


def average_clustering(graph: Graph) -> float:
    """Return the mean local clustering coefficient over all vertices."""
    n = graph.n_vertices
    if n == 0:
        return 0.0
    return sum(local_clustering(graph, v) for v in graph.vertices()) / n


def has_cycle(graph: Graph) -> bool:
    """Return ``True`` when the graph contains any cycle (i.e. it is not a forest)."""
    visited: set[Vertex] = set()
    for start in graph.vertices():
        if start in visited:
            continue
        parent: dict[Vertex, Optional[Vertex]] = {start: None}
        stack = [start]
        visited.add(start)
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if w not in visited:
                    visited.add(w)
                    parent[w] = u
                    stack.append(w)
                elif parent.get(u) != w:
                    return True
    return False


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


def find_chordless_cycle(graph: Graph, min_length: int = 4) -> Optional[list[Vertex]]:
    """Return one chordless (induced) cycle of length ``>= min_length`` or ``None``.

    The search examines, for every edge ``(u, v)``, the shortest alternative
    path from ``u`` to ``v`` in the graph with the edge removed and all common
    neighbours of ``u`` and ``v`` excluded; if such a path exists the edge plus
    the path form a cycle of length ≥ 4 with no chord between ``u`` and the
    path interior adjacent to both endpoints.  The cycle returned is then
    shrunk to an induced cycle by repeatedly short-cutting chords.  This is a
    verification helper for tests (exponential worst cases are avoided because
    it is only used on small graphs / counterexample hunting).
    """
    if min_length < 4:
        raise ValueError("chordless cycles of interest have length >= 4")
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
        if induced is not None and len(induced) >= min_length:
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


def girth_at_least(graph: Graph, k: int) -> bool:
    """Return ``True`` when the graph has no cycle shorter than ``k``.

    Uses per-vertex BFS truncated at depth ``k // 2``; intended for the small
    graphs used in tests.
    """
    if k <= 3:
        return True
    for s in graph.vertices():
        dist = {s: 0}
        parent = {s: None}
        queue: deque[Vertex] = deque([s])
        while queue:
            u = queue.popleft()
            if dist[u] >= k // 2:
                continue
            for w in graph.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cycle_len = dist[u] + dist[w] + 1
                    if cycle_len < k:
                        return False
    return True


def break_cycles(graph: Graph, protected: Optional[Iterable[Edge]] = None) -> tuple[Graph, list[Edge]]:
    """Return a forest-inducing subgraph obtained by deleting one edge per fundamental cycle.

    ``protected`` edges are never deleted (when possible).  Returns the new
    graph together with the list of removed edges.  Used by the optional
    cycle-repair pass on border-edge-induced subgraphs (Section III.A of the
    paper discusses copying the border subgraph to one processor and deleting
    edges to break the large cycles).
    """
    protected_set = {edge_key(*e) for e in (protected or [])}
    g = graph.copy()
    removed: list[Edge] = []
    while True:
        cycle_edge = _find_cycle_edge(g, protected_set)
        if cycle_edge is None:
            break
        g.remove_edge(*cycle_edge)
        removed.append(cycle_edge)
    return g, removed


def _find_cycle_edge(graph: Graph, protected: set[Edge]) -> Optional[Edge]:
    """Find a non-tree (cycle-closing) edge, preferring unprotected edges.

    The spanning forest is grown depth-first with protected edges explored
    first, so protected edges become tree edges whenever possible and the
    cycle-closing edge reported is unprotected whenever the cycle contains at
    least one unprotected edge.
    """
    visited: set[Vertex] = set()
    parent: dict[Vertex, Optional[Vertex]] = {}
    fallback: Optional[Edge] = None
    for start in graph.vertices():
        if start in visited:
            continue
        stack: list[tuple[Optional[Vertex], Vertex]] = [(None, start)]
        while stack:
            p, u = stack.pop()
            if u in visited:
                # (p, u) closes a cycle unless it is the tree edge seen from the
                # other side.
                if p is None or parent.get(u) == p or parent.get(p) == u:
                    continue
                key = edge_key(p, u)
                if key not in protected:
                    return key
                if fallback is None:
                    fallback = key
                continue
            visited.add(u)
            parent[u] = p
            nbrs = [w for w in graph.neighbors(u) if w != p]
            # LIFO stack: push unprotected edges first so protected edges are
            # explored first and join the spanning tree whenever possible.
            nbrs.sort(key=lambda w: (edge_key(u, w) in protected, repr(w)))
            for w in nbrs:
                stack.append((u, w))
    return fallback

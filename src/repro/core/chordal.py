"""Chordal graph kernels.

A graph is *chordal* (triangulated) when every cycle of length four or more
has a chord, i.e. the longest chordless cycle is a triangle.  The paper's
sampling filter extracts a **maximal chordal subgraph** of a gene correlation
network: a chordal subgraph to which no further original edge can be added
without destroying chordality.  Finding the *maximum* chordal subgraph is
NP-hard; the paper builds on the polynomial-time O(|E|·d) algorithm of
Dearing, Shier & Warner (Discrete Applied Mathematics, 1988).

This module provides

* :func:`maximum_cardinality_search` — the MCS vertex ordering,
* :func:`is_chordal` — the classic Tarjan–Yannakakis recognition test
  (:func:`is_peo_indices` on the reverse MCS order),
* :func:`chordal_subgraph_edge_indices` — the Dearing–Shier–Warner
  construction on the CSR kernel, with the vertex-ordering hooks the
  paper's sensitivity study requires; :func:`maximal_chordal_subgraph` is
  its label-level entry point,
* :func:`edge_insertion_preserves_chordality` — the label two-pair test, the
  reference of the with-communication sampler's receiver,
* :func:`is_maximal_chordal_subgraph` — a brute-force maximality check the
  tests apply to the DSW output,
* the fill-in helper behind the quasi-chordal report.

All functions treat the input graph as read-only.

The hot paths (MCS, the PEO check and the DSW construction) run on the
int-indexed :class:`~repro.graph.csr.CSRGraph` kernel; the samplers call the
``*_indices`` kernels on plain integers.  The original label-and-set
implementations are retained as ``reference_*`` functions; the property
suite asserts that kernel and reference agree edge-for-edge on randomized
graphs, so the CSR port cannot silently drift from the seed semantics.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Sequence
from typing import Optional

from ..graph.csr import CSRGraph
from ..graph.graph import Graph, edge_key

__all__ = [
    "maximum_cardinality_search",
    "is_chordal",
    "fill_in_edges",
    "maximal_chordal_subgraph",
    "chordal_subgraph_edge_indices",
    "mcs_order_indices",
    "is_peo_indices",
    "is_maximal_chordal_subgraph",
    "edge_insertion_preserves_chordality",
    "reference_chordal_subgraph_edges",
    "reference_maximum_cardinality_search",
]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


# ----------------------------------------------------------------------
# recognition
# ----------------------------------------------------------------------
def mcs_order_indices(csr: CSRGraph, start: Optional[int] = None) -> list[int]:
    """Maximum Cardinality Search on the CSR kernel; returns vertex indices.

    Selects, at every step, the unvisited vertex with the most visited
    neighbours, ties broken by the smallest index (= ``Graph`` insertion
    order) — exactly the selection rule of
    :func:`reference_maximum_cardinality_search`, but with a lazy max-heap so
    the whole search is O((V + E) log V) instead of O(V²).
    """
    n = csr.n_vertices
    if n == 0:
        return []
    nbrs = csr.neighbor_lists()
    weight = [0] * n
    visited = bytearray(n)
    order: list[int] = []
    # Entries are (-weight, index); stale entries are skipped on pop.
    heap: list[tuple[int, int]] = []

    def visit(u: int) -> None:
        visited[u] = 1
        order.append(u)
        for w in nbrs[u]:
            if not visited[w]:
                weight[w] += 1
                heapq.heappush(heap, (-weight[w], w))

    if start is not None:
        visit(start)
    # Seed lazily *after* the optional start visit, so the start vertex never
    # sits in the heap as a permanently stale entry; seeding at the current
    # weights leaves the pop sequence — hence the order — unchanged.
    heap.extend((-weight[v], v) for v in range(n) if not visited[v])
    heapq.heapify(heap)
    while len(order) < n:
        neg_w, u = heapq.heappop(heap)
        if visited[u] or -neg_w != weight[u]:
            continue
        visit(u)
    return order


def maximum_cardinality_search(graph: Graph, start: Optional[Vertex] = None) -> list[Vertex]:
    """Return a Maximum Cardinality Search (MCS) ordering of the graph.

    MCS repeatedly selects the unvisited vertex with the most visited
    neighbours (ties broken deterministically by insertion order).  For a
    chordal graph the *reverse* of this ordering is a perfect elimination
    ordering, which is the basis of the chordality test.
    """
    if graph.n_vertices == 0:
        return []
    if start is not None and start not in graph:
        raise KeyError(f"start vertex {start!r} not in graph")
    csr = CSRGraph.from_graph(graph)
    start_idx = None if start is None else csr.index_of(start)
    return csr.to_labels(mcs_order_indices(csr, start_idx))


def is_peo_indices(csr: CSRGraph, order: Sequence[int]) -> bool:
    """Perfect-elimination check on the CSR kernel (``order`` holds indices)."""
    n = csr.n_vertices
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    nbrs = csr.neighbor_lists()
    adj_sets = csr.neighbor_sets()
    for v in order:
        pv = pos[v]
        later = [w for w in nbrs[v] if pos[w] > pv]
        if len(later) <= 1:
            continue
        w = min(later, key=pos.__getitem__)
        w_adj = adj_sets[w]
        for x in later:
            if x != w and x not in w_adj:
                return False
    return True


def is_chordal(graph: Graph) -> bool:
    """Return ``True`` when the graph is chordal (every cycle ≥ 4 has a chord)."""
    if graph.n_vertices <= 3:
        return True
    csr = CSRGraph.from_graph(graph)
    mcs = mcs_order_indices(csr)
    mcs.reverse()
    return is_peo_indices(csr, mcs)


def reference_maximum_cardinality_search(
    graph: Graph, start: Optional[Vertex] = None
) -> list[Vertex]:
    """The seed label-level MCS implementation (O(V²) selection scan).

    Kept verbatim as the behavioural reference for
    :func:`maximum_cardinality_search`; the property suite asserts both
    produce the identical ordering.
    """
    if graph.n_vertices == 0:
        return []
    verts = graph.vertices()
    position = {v: i for i, v in enumerate(verts)}
    if start is not None and start not in graph:
        raise KeyError(f"start vertex {start!r} not in graph")
    weight = {v: 0 for v in verts}
    visited: set[Vertex] = set()
    order: list[Vertex] = []
    for step in range(len(verts)):
        if step == 0 and start is not None:
            u = start
        else:
            u = max(
                (v for v in verts if v not in visited),
                key=lambda v: (weight[v], -position[v]),
            )
        visited.add(u)
        order.append(u)
        for w in graph.neighbors(u):
            if w not in visited:
                weight[w] += 1
    return order


def fill_in_edges(graph: Graph, order: Optional[Sequence[Vertex]] = None) -> list[Edge]:
    """Return the fill-in edges produced by eliminating vertices in ``order``.

    The elimination game: removing a vertex connects all of its remaining
    neighbours.  An empty fill-in certifies that ``order`` is a perfect
    elimination ordering.  Defaults to the reverse MCS order so that the
    result is empty exactly when the graph is chordal.
    """
    if order is None:
        order = list(reversed(maximum_cardinality_search(graph)))
    if len(order) != graph.n_vertices or set(order) != set(graph.vertices()):
        raise ValueError("order must be a permutation of the graph's vertex set")
    work = graph.copy()
    fills: list[Edge] = []
    for v in order:
        nbrs = work.neighbors(v)
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                if not work.has_edge(a, b):
                    work.add_edge(a, b)
                    fills.append(edge_key(a, b))
        work.remove_vertex(v)
    return fills


# ----------------------------------------------------------------------
# Dearing–Shier–Warner maximal chordal subgraph
# ----------------------------------------------------------------------
def chordal_subgraph_edge_indices(
    csr: CSRGraph,
    priority: Optional[Sequence[int]] = None,
    strict_order: bool = False,
    start: Optional[int] = None,
) -> list[tuple[int, int]]:
    """Dearing–Shier–Warner extraction on the CSR kernel.

    ``priority[v]`` is vertex ``v``'s place in the preference order (lower
    = earlier, ties broken by index); ``None`` means natural (index) order.
    Pass a plain ``list``: the kernel reads it once to rank the vertices.
    Returns accepted edges as index pairs, grouped by processing step;
    within a step the pairs are emitted in ascending partner index, so the
    output is deterministic regardless of label types.  The greedy
    selection rule and tie-breaking are identical to
    :func:`reference_chordal_subgraph_edges` — the ranks are unique, so
    both implementations process vertices in the same sequence and accept
    the same edges.

    The greedy selection heap holds one ``int`` per entry,
    ``(n - |S(v)|) * n + rank(v)``: the smallest key is the largest ``S``,
    then the earliest rank, exactly the order of ``(-|S(v)|, priority[v],
    v)`` tuples at a fraction of their comparison cost.
    """
    n = csr.n_vertices
    if n == 0:
        return []
    if priority is None:
        sequence: Sequence[int] = range(n)
        rank: Sequence[int] = sequence
    else:
        sequence = sorted(range(n), key=priority.__getitem__)
        rank = [0] * n
        for r, v in enumerate(sequence):
            rank[v] = r
    if start is None:
        start = sequence[0]
    nbrs = csr.neighbor_lists()

    # S(v): processed accepted-neighbours of v (always a clique in the
    # accepted subgraph); the update rule "u joins S(v) iff S(v) ⊆ S(u)" is
    # the DSW invariant — see reference_chordal_subgraph_edges for the
    # annotated original.
    s: list[set[int]] = [set() for _ in range(n)]
    processed = bytearray(n)
    accepted: list[tuple[int, int]] = []
    heap: list[int] = []
    push = heapq.heappush
    greedy = not strict_order  # strict mode never pops the heap, so skip pushes

    def process(u: int) -> None:
        processed[u] = 1
        su = s[u]
        for w in sorted(su):
            accepted.append((u, w))
        for v in nbrs[u]:
            if processed[v]:
                continue
            sv = s[v]
            if sv <= su:
                sv.add(u)
                if greedy:
                    push(heap, (n - len(sv)) * n + rank[v])

    if strict_order:
        sequence = list(sequence)
        if sequence[0] != start:
            sequence.remove(start)
            sequence.insert(0, start)
        for u in sequence:
            process(u)
    else:
        # Greedy maximum-|S| selection with a lazy min-heap of int keys:
        # every S-growth pushes a fresh key (inside process), stale keys are
        # skipped on pop.  Total pushes are O(E), keeping selection
        # O(E log V).
        process(start)
        heap.extend([(n - len(s[v])) * n + rank[v] for v in range(n) if not processed[v]])
        heapq.heapify(heap)
        pop = heapq.heappop
        n_processed = 1
        while n_processed < n:
            slot, r = divmod(pop(heap), n)
            u = sequence[r]
            if processed[u] or n - slot != len(s[u]):
                continue
            process(u)
            n_processed += 1
    return accepted


def reference_chordal_subgraph_edges(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
    strict_order: bool = False,
    start: Optional[Vertex] = None,
) -> list[Edge]:
    """The seed label-and-set DSW implementation.

    Kept verbatim as the behavioural reference for
    :func:`chordal_subgraph_edge_indices`; the property suite asserts the CSR
    kernel accepts the identical edge set under every ordering.
    """
    verts = graph.vertices()
    n = len(verts)
    if n == 0:
        return []
    if order is None:
        order = verts
    if len(order) != n or set(order) != set(verts):
        raise ValueError("order must be a permutation of the graph's vertex set")
    priority = {v: i for i, v in enumerate(order)}
    if start is None:
        start = order[0]
    elif start not in graph:
        raise KeyError(f"start vertex {start!r} not in graph")

    # S(v): processed G'-neighbours of v (always a clique in the accepted subgraph)
    s: dict[Vertex, set[Vertex]] = {v: set() for v in verts}
    processed: set[Vertex] = set()
    accepted: list[Edge] = []
    # adjacency of the accepted subgraph restricted to processed vertices
    accepted_adj: dict[Vertex, set[Vertex]] = {v: set() for v in verts}

    def process(u: Vertex) -> None:
        processed.add(u)
        for w in s[u]:
            accepted.append(edge_key(u, w))
            accepted_adj[u].add(w)
            accepted_adj[w].add(u)
        for v in graph.neighbors(u):
            if v in processed:
                continue
            # u may join S(v) only if S(v) ∪ {u} stays a clique in the accepted
            # subgraph, i.e. u is accepted-adjacent to every member of S(v).
            # Since u's accepted neighbours are exactly S(u), the condition is
            # S(v) ⊆ S(u) — the Dearing–Shier–Warner update rule.
            if s[v] <= s[u]:
                s[v].add(u)

    if strict_order:
        sequence = list(order)
        if start != sequence[0]:
            sequence.remove(start)
            sequence.insert(0, start)
        for u in sequence:
            process(u)
    else:
        # Greedy maximum-|S| selection with a lazy max-heap: every time a
        # vertex's S grows we push a fresh entry; stale entries are skipped on
        # pop.  Total pushes are bounded by the number of S-updates, i.e. O(E),
        # keeping the selection loop O(E log V) instead of O(V²).
        heap: list[tuple[int, int, Vertex]] = []

        def push(v: Vertex) -> None:
            heapq.heappush(heap, (-len(s[v]), priority[v], v))

        original_process = process

        def process_and_repush(u: Vertex) -> None:
            before = {v: len(s[v]) for v in graph.neighbors(u) if v not in processed}
            original_process(u)
            for v, old_size in before.items():
                if len(s[v]) != old_size:
                    push(v)

        process = process_and_repush  # type: ignore[assignment]
        process(start)
        for v in order:
            if v not in processed:
                push(v)
        n_processed = len(processed)
        while n_processed < n:
            if heap:
                neg_size, _, u = heapq.heappop(heap)
                if u in processed or -neg_size != len(s[u]):
                    continue
            else:  # pragma: no cover - defensive; heap is seeded with all vertices
                u = next(v for v in order if v not in processed)
            process(u)
            n_processed += 1
    return accepted


def maximal_chordal_subgraph(
    graph: Graph,
    order: Optional[Sequence[Vertex]] = None,
    strict_order: bool = False,
    start: Optional[Vertex] = None,
    keep_all_vertices: bool = True,
) -> Graph:
    """Return a maximal chordal subgraph of ``graph`` as a new :class:`Graph`.

    The construction follows Dearing, Shier & Warner (1988).  Vertices are
    added to a processed set ``P`` one at a time; for every unprocessed vertex
    ``v`` the algorithm maintains ``S(v)`` — the set of processed neighbours of
    ``v`` that form a clique in the subgraph built so far.  When ``v`` is
    processed, the edges from ``v`` to every member of ``S(v)`` are accepted.
    Because each accepted neighbourhood is a clique, the reverse processing
    order is a perfect elimination ordering and the result is chordal; the
    greedy selection rule (process the vertex with the largest ``S``) makes it
    maximal.  Complexity is O(|E|·d) where ``d`` is the maximum degree.

    The computation runs on the int-indexed CSR kernel
    (:func:`chordal_subgraph_edge_indices`); labels only appear at this
    boundary.

    Parameters
    ----------
    order:
        A vertex permutation expressing the *preference* order studied in the
        paper (natural / high-degree / low-degree / RCM).  In the default
        greedy mode it breaks ties between vertices with equal ``|S|`` and
        chooses the starting vertex; in ``strict_order`` mode vertices are
        processed exactly in this sequence.
    strict_order:
        Process vertices exactly in ``order`` (still chordal, possibly not
        maximal).  Mirrors the "graph traversal variation" wording of the
        paper when the permutation is imposed directly.
    start:
        Optional starting vertex (defaults to the first vertex of ``order``).
    keep_all_vertices:
        Keep isolated vertices in the result (the sampling convention:
        filters drop edges, never genes).
    """
    csr = CSRGraph.from_graph(graph)
    priority: Optional[list[int]] = None
    if order is not None:
        if len(order) != csr.n_vertices or set(order) != set(csr.labels):
            raise ValueError("order must be a permutation of the graph's vertex set")
        priority = [0] * csr.n_vertices
        for rank, i in enumerate(csr.to_indices(order)):
            priority[i] = rank
    start_idx: Optional[int] = None
    if start is not None:
        if start not in graph:
            raise KeyError(f"start vertex {start!r} not in graph")
        start_idx = csr.index_of(start)
    pairs = chordal_subgraph_edge_indices(
        csr, priority=priority, strict_order=strict_order, start=start_idx
    )
    labels = csr.labels
    edges = [edge_key(labels[i], labels[j]) for i, j in pairs]
    if keep_all_vertices:
        return graph.spanning_subgraph(edges)
    return graph.edge_subgraph(edges)


def edge_insertion_preserves_chordality(chordal_graph: Graph, u: Vertex, v: Vertex) -> bool:
    """Return ``True`` when adding edge ``{u, v}`` to a *chordal* graph keeps it chordal.

    Uses the two-pair characterisation: for non-adjacent vertices ``u`` and
    ``v`` of a chordal graph ``H``, ``H + uv`` is chordal exactly when every
    chordless ``u``–``v`` path in ``H`` has length two, which holds iff ``u``
    and ``v`` are disconnected in ``H − (N(u) ∩ N(v))``.  This is the
    receiver-side admission test of the with-communication parallel sampler —
    it avoids re-running the full recognition algorithm for every candidate
    border edge.

    Endpoints absent from the graph are treated as isolated vertices (adding
    an edge to a new vertex can never create a cycle).  The caller is
    responsible for ``chordal_graph`` actually being chordal; the result is
    meaningless otherwise.
    """
    if u == v:
        raise ValueError("self loops cannot be inserted")
    if not chordal_graph.has_vertex(u) or not chordal_graph.has_vertex(v):
        return True
    if chordal_graph.has_edge(u, v):
        return True
    common = chordal_graph.neighbor_set(u) & chordal_graph.neighbor_set(v)
    # BFS from u avoiding the common neighbourhood; if v is unreachable the
    # pair is a two-pair (or lies in different components) and insertion is safe.
    blocked = common
    stack = [u]
    seen = {u} | blocked
    while stack:
        x = stack.pop()
        for y in chordal_graph.neighbors(x):
            if y == v:
                return False
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return True


def is_maximal_chordal_subgraph(graph: Graph, subgraph: Graph) -> bool:
    """Return ``True`` when ``subgraph`` is chordal and no original edge can be added.

    Used by the test-suite to validate the Dearing–Shier–Warner construction.
    """
    if not is_chordal(subgraph):
        return False
    for u, v in graph.iter_edges():
        if subgraph.has_edge(u, v):
            continue
        trial = subgraph.copy()
        trial.add_vertex(u)
        trial.add_vertex(v)
        trial.add_edge(u, v)
        if is_chordal(trial):
            return False
    return True

"""Vertex orderings studied by the paper.

The size and composition of a *maximal* chordal subgraph depends on the order
in which the extraction algorithm visits vertices.  Section III.A of the paper
evaluates four orderings:

``natural``
    the order vertices appear in the input network (gene nomenclature order),
``high_degree``
    descending degree — hubs are processed first,
``low_degree``
    ascending degree — leaves are processed first,
``rcm``
    Reverse Cuthill–McKee, which numbers closely connected vertices
    consecutively to reduce the bandwidth of the adjacency matrix.

Each ordering is a ``*_order_indices`` function that takes a
:class:`~repro.graph.csr.CSRGraph` and returns an ``int64`` permutation of
``0 .. n-1`` (vectorised ``np.argsort``/``np.lexsort`` for the degree
orders; for RCM a lockstep Cuthill–McKee that numbers every component in one
level-synchronous pass).  A caller holding a label :class:`Graph` maps the
permutation back with :meth:`CSRGraph.to_labels`.  The original
label-and-dict implementations are retained as ``reference_*`` so the
property suite can pin the index kernels to the seed semantics, including
their ``repr``/``str`` tie-breaking.

The label sort ranks and each named ordering depend on the view alone, so
:func:`label_sort_ranks` (for ``repr`` and ``str``) and
:func:`ordering_indices` keep theirs in the view's memo
(:meth:`CSRGraph.memo`): a sweep of filter specs sorts the labels and
computes each ordering once.

Every function returns all vertices of the graph exactly once; callers feed
the order directly to the samplers.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Sequence
from typing import Callable, Optional

import numpy as np

from .csr import CSRGraph, gather_csr_rows, sorted_unique
from .graph import Graph
from .traversal import pseudo_peripheral_vertex

__all__ = [
    "canonical_ordering_name",
    "ordering_names",
    "natural_order_indices",
    "high_degree_order_indices",
    "low_degree_order_indices",
    "rcm_order_indices",
    "ordering_indices",
    "label_sort_ranks",
    "natural_label_ranks",
    "reference_high_degree_order",
    "reference_low_degree_order",
    "reference_rcm_order",
]

Vertex = Hashable
OrderingFn = Callable[[CSRGraph], np.ndarray]


def _stable_key(v: Vertex) -> str:
    """Deterministic tie-break key for vertices of arbitrary type."""
    return repr(v)


def _sort_ranks(labels: Sequence[Vertex], key: Callable[[Vertex], str]) -> np.ndarray:
    """Rank of every label when ``labels`` are sorted by ``key`` (stable)."""
    n = len(labels)
    order = sorted(range(n), key=lambda i: key(labels[i]))
    ranks = np.empty(n, dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
    return ranks


def label_sort_ranks(csr: CSRGraph, key: Callable[[Vertex], str] = repr) -> np.ndarray:
    """Rank of every vertex when the labels are sorted by ``key`` (default ``repr``).

    The seed orderings break degree ties by ``repr`` (and the RCM
    pseudo-peripheral step by ``str``); the index kernels reproduce those
    label-dependent tie-breaks by consuming this precomputed rank array —
    one ``key`` call per vertex at the boundary instead of one per
    comparison inside the loops.  The ``repr`` and ``str`` ranks are kept
    in the view's memo (read-only); any other ``key`` sorts afresh.
    """
    if key is repr or key is str:
        return csr.memo(("label_ranks", key.__name__), lambda: _sort_ranks(csr.labels, key))
    return _sort_ranks(csr.labels, key)


def natural_label_ranks(csr: CSRGraph) -> Optional[np.ndarray]:
    """Ranks of the labels under ``<`` when every label is a ``str``, else ``None``.

    :func:`~repro.graph.graph.edge_key` puts the endpoints of an edge in
    ``<`` order, which for ``str`` labels is their ``str`` order, so these
    ranks (the memoised ``str`` ranks) orient whole edge arrays at once.
    Labels of any other type (a ``str`` subclass included) get ``None``:
    their order is ``edge_key``'s to decide, one edge at a time.
    """
    if not csr.memo(("str_labels",), lambda: all(type(v) is str for v in csr.labels)):
        return None
    return label_sort_ranks(csr, str)


# ----------------------------------------------------------------------
# index-native orderings (CSR in, int64 permutation out)
# ----------------------------------------------------------------------
def natural_order_indices(csr: CSRGraph) -> np.ndarray:
    """Vertices in their insertion ("nomenclature") order: ``0 .. n-1``."""
    return np.arange(csr.n_vertices, dtype=np.int64)


def high_degree_order_indices(csr: CSRGraph) -> np.ndarray:
    """Indices sorted by descending degree (ties broken by label ``repr``)."""
    return np.lexsort((label_sort_ranks(csr), -csr.degrees())).astype(np.int64)


def low_degree_order_indices(csr: CSRGraph) -> np.ndarray:
    """Indices sorted by ascending degree (ties broken by label ``repr``)."""
    return np.lexsort((label_sort_ranks(csr), csr.degrees())).astype(np.int64)


def _component_roots(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Smallest vertex index of every vertex's connected component.

    Min-hooking with pointer jumping: each root hooks onto the smallest root
    across its crossing edges, then every label jumps to its root.  Labels
    only ever decrease, so the fixed point is each component's minimum.
    """
    n = indptr.shape[0] - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    root = np.arange(n, dtype=np.int64)
    while True:
        a, b = root[src], root[indices]
        cross = a != b
        if not cross.any():
            return root
        np.minimum.at(root, a[cross], b[cross])
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]


def _bfs_distances(indptr: np.ndarray, indices: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Multi-source BFS distances (``-1`` where unreached), one gather per level.

    With one source per component each component gets exactly its own
    distances, so every component's search advances in the same pass.
    """
    dist = np.full(indptr.shape[0] - 1, -1, dtype=np.int64)
    frontier, k = sources, 0
    while frontier.size:
        dist[frontier] = k
        nbrs, _ = gather_csr_rows(indptr, indices, frontier)
        frontier = sorted_unique(nbrs[dist[nbrs] < 0])
        k += 1
    return dist


def _last_levels(
    dist: np.ndarray, root: np.ndarray, deg: np.ndarray, str_ranks: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Eccentricity of every component ``dist`` reached (indexed by root) and
    the minimum ``(degree, str-rank)`` vertex of each one's last level, in
    root order — the George–Liu candidates."""
    reached = np.flatnonzero(dist >= 0)
    comp = root[reached]
    ecc = np.zeros(dist.shape[0], dtype=np.int64)
    np.maximum.at(ecc, comp, dist[reached])
    last = reached[dist[reached] == ecc[comp]]
    last = last[np.lexsort((str_ranks[last], deg[last], root[last]))]
    head = np.ones(last.size, dtype=bool)
    head[1:] = root[last[1:]] != root[last[:-1]]
    return ecc, last[head]


def _pseudo_peripheral_sources(
    indptr: np.ndarray,
    indices: np.ndarray,
    root: np.ndarray,
    deg: np.ndarray,
    str_ranks: np.ndarray,
    starts: np.ndarray,
) -> np.ndarray:
    """George–Liu search from ``starts`` (at most one per component) in lockstep.

    Returns ``source`` with ``source[r]`` the pseudo-peripheral vertex found
    for the component rooted at ``r``; every other entry is its own index.
    """
    source = np.arange(indptr.shape[0] - 1, dtype=np.int64)
    ecc, cand = _last_levels(_bfs_distances(indptr, indices, starts), root, deg, str_ranks)
    while cand.size:
        new_ecc, new_cand = _last_levels(
            _bfs_distances(indptr, indices, cand), root, deg, str_ranks
        )
        r = root[cand]
        done = new_ecc[r] <= ecc[r]
        source[r[done]] = cand[done]
        ecc, cand = new_ecc, new_cand[~done]
    return source


def rcm_order_indices(csr: CSRGraph, start: Optional[int] = None) -> np.ndarray:
    """Reverse Cuthill–McKee on the CSR kernel; returns an ``int64`` permutation.

    All components advance together.  The George–Liu pseudo-peripheral search
    runs one multi-source BFS per round from one candidate per still-active
    component (minimum ``(degree, str-rank)`` vertex of its last level) until
    the component's eccentricity stops growing.  Cuthill–McKee then numbers
    every component level by level: a new vertex is claimed by its
    lowest-position parent and each level is ordered by ``(parent position,
    degree, repr-rank)`` — exactly what the classic queue appends.  One stable
    sort by component (numbered by its smallest vertex) concatenates the
    numberings, which are then reversed; an isolated vertex is a one-vertex
    component, so it keeps its natural slot, as in the seed implementation
    (:func:`reference_rcm_order`).  ``start``, when given, is the *index* of a
    preferred starting vertex: it skips the search for its component iff it
    is that component's smallest index (seed semantics).
    """
    n = csr.n_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    indptr, indices = csr.indptr, csr.indices
    deg = csr.degrees()
    repr_ranks = label_sort_ranks(csr, repr)
    str_ranks = label_sort_ranks(csr, str)
    root = _component_roots(indptr, indices)
    roots = np.flatnonzero(root == np.arange(n))
    searched = roots if start is None else roots[roots != start]
    source = _pseudo_peripheral_sources(indptr, indices, root, deg, str_ranks, searched)
    # Cuthill–McKee numbering of every component, one level at a time.
    level = source[roots]
    visited = np.zeros(n, dtype=bool)
    visited[level] = True
    levels = [level]
    while level.size:
        nbrs, counts = gather_csr_rows(indptr, indices, level)
        parent = np.repeat(np.arange(level.size, dtype=np.int64), counts)
        fresh = ~visited[nbrs]
        # np.unique reports first occurrences: the lowest-position parent wins.
        level, first = np.unique(nbrs[fresh], return_index=True)
        parent = parent[fresh][first]
        level = level[np.lexsort((repr_ranks[level], deg[level], parent))]
        visited[level] = True
        levels.append(level)
    cm = np.concatenate(levels)
    return cm[np.argsort(root[cm], kind="stable")][::-1].copy()


#: The orderings evaluated in the paper (CSR in, permutation out), keyed by
#: the short names used in its figures (NO, HD, LD, RCM).
ORDERING_INDEX_FNS: dict[str, OrderingFn] = {
    "natural": natural_order_indices,
    "high_degree": high_degree_order_indices,
    "low_degree": low_degree_order_indices,
    "rcm": rcm_order_indices,
}

#: Abbreviations used in the paper's figures mapped onto registry names.
_ALIASES = {
    "no": "natural",
    "hd": "high_degree",
    "ld": "low_degree",
    "rcm": "rcm",
    "natural_order": "natural",
    "high": "high_degree",
    "low": "low_degree",
}


def canonical_ordering_name(name: str) -> str:
    """The registry name of an ordering name or paper abbreviation
    (case-insensitive): ``"HD"`` and ``"high_degree"`` both give
    ``"high_degree"``.  Raises ``KeyError`` naming the valid names."""
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key not in ORDERING_INDEX_FNS:
        raise KeyError(
            f"unknown ordering {name!r}; valid names: {sorted(ORDERING_INDEX_FNS)} "
            f"and aliases {sorted(_ALIASES)}"
        )
    return key


def ordering_names() -> list[str]:
    """Return the canonical ordering names in the paper's presentation order."""
    return list(ORDERING_INDEX_FNS)


def ordering_indices(name: str, csr: CSRGraph) -> np.ndarray:
    """Compute the named ordering directly on a CSR view (no label round-trip).

    Computed once per view and kept in its memo, so the permutation is
    read-only.  The natural order is the identity, cheaper to rebuild than
    to keep alive, so it is built afresh.
    """
    key = canonical_ordering_name(name)
    if key == "natural":
        return ORDERING_INDEX_FNS[key](csr)
    return csr.memo(("ordering", key), lambda: ORDERING_INDEX_FNS[key](csr))


# ----------------------------------------------------------------------
# seed label-level implementations (behavioural references for the kernels)
# ----------------------------------------------------------------------
def reference_high_degree_order(graph: Graph) -> list[Vertex]:
    """The seed label-level high-degree ordering (reference for the kernel)."""
    return sorted(graph.vertices(), key=lambda v: (-graph.degree(v), _stable_key(v)))


def reference_low_degree_order(graph: Graph) -> list[Vertex]:
    """The seed label-level low-degree ordering (reference for the kernel)."""
    return sorted(graph.vertices(), key=lambda v: (graph.degree(v), _stable_key(v)))


def _cuthill_mckee_component(graph: Graph, start: Vertex) -> list[Vertex]:
    """Cuthill–McKee numbering of the component containing ``start``."""
    order = [start]
    visited = {start}
    queue: deque[Vertex] = deque([start])
    while queue:
        u = queue.popleft()
        nbrs = [v for v in graph.neighbors(u) if v not in visited]
        nbrs.sort(key=lambda v: (graph.degree(v), _stable_key(v)))
        for v in nbrs:
            visited.add(v)
            order.append(v)
            queue.append(v)
    return order


def _component(graph: Graph, v: Vertex) -> list[Vertex]:
    """Vertices of the connected component containing ``v`` (deterministic)."""
    visited = {v}
    order = [v]
    queue: deque[Vertex] = deque([v])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w not in visited:
                visited.add(w)
                order.append(w)
                queue.append(w)
    return order


def reference_rcm_order(graph: Graph, start: Optional[Vertex] = None) -> list[Vertex]:
    """The seed label-level RCM implementation (reference for the kernel)."""
    remaining = set(graph.vertices())
    cm: list[Vertex] = []
    # Process components in natural order of their first vertex for determinism.
    for v in graph.vertices():
        if v not in remaining:
            continue
        if graph.degree(v) == 0:
            cm.append(v)
            remaining.discard(v)
            continue
        component_start: Vertex
        if start is not None and start in remaining and start == v:
            component_start = start
        else:
            component_start = pseudo_peripheral_vertex(graph.subgraph(_component(graph, v)), v)
        comp_order = _cuthill_mckee_component(graph, component_start)
        cm.extend(comp_order)
        remaining.difference_update(comp_order)
    cm.reverse()
    return cm

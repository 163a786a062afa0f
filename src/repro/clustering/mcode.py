"""MCODE clustering (Bader & Hogue 2003), the algorithm behind AllegroMCODE.

The paper identifies clusters with AllegroMCODE 1.0 under default parameters
and keeps every cluster scoring 3.0 or higher.  AllegroMCODE is a
GPU-accelerated port of MCODE, so the clusters it reports are MCODE clusters;
this module reimplements the original three-stage algorithm:

1. **Vertex weighting** — for every vertex the highest *k*-core of its open
   neighbourhood is found; the vertex weight is ``k × density`` of that core
   (the "core-clustering coefficient" scaled by the core number).
2. **Complex prediction** — complexes are seeded from the highest-weighted
   unvisited vertex and grown outward over vertices whose weight is within
   :data:`VERTEX_WEIGHT_PERCENTAGE` of the seed's weight.
3. **Post-processing** — the *haircut* (iteratively strip singly connected
   vertices) and the 2-core requirement, which reach the same fixpoint;
   complexes of at least :data:`MIN_SIZE` vertices are scored
   ``density × size`` and returned sorted by score.

The published MCODE defaults (haircut on, fluff off, VWP = 0.2) are what
"run under default parameters" means, so they are module constants; the
one value a caller sets is the score cut, ``min_score`` (3.0 in the paper,
swept by :func:`repro.pipeline.ablation.mcode_threshold_sweep`).

Since PR 3 the public functions run **index-native on the CSR kernel**: the
graph is converted once (:class:`~repro.graph.csr.CSRGraph`), stage 1 peels
every vertex's neighbourhood at once over array-built local edges (one per
triangle corner), stages 2–3 grow and prune complexes as index sets, and the
final :class:`Cluster` objects stay index-native (member indices, edge pairs
and the CSR); labels reappear as member lists, and as a cluster's label
subgraph only when that is read.  The
seed label-level implementations are retained as ``reference_*`` functions and
the test suite pins cluster member sets, scores and ordering to them
bit-for-bit (``tests/test_csr_analysis.py``), the same discipline PR 1–2
applied to the chordality kernels and the sampler pipeline.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph, gather_csr_rows
from ..graph.graph import Graph
from ..graph.ordering import label_sort_ranks
from .cluster import Cluster

__all__ = [
    "mcode_clusters",
    "mcode_score",
    "mcode_vertex_weights_indices",
    "mcode_clusters_indices",
    "IndexComplex",
    "reference_k_core",
    "reference_highest_k_core",
    "reference_mcode_vertex_weights",
    "reference_mcode_clusters",
]

Vertex = Hashable

#: The paper's score cut: "scores of 2.9 or lower tend to indicate small
#: cliques, or K3 graphs".
MIN_SCORE = 3.0
#: Stage 2 grows a complex over neighbours weighing more than
#: ``(1 - VERTEX_WEIGHT_PERCENTAGE)`` times its seed's weight.
VERTEX_WEIGHT_PERCENTAGE = 0.2
#: Complexes smaller than this after the haircut are dropped.
MIN_SIZE = 3


@dataclass(frozen=True)
class IndexComplex:
    """One MCODE complex on vertex indices (pre-materialisation form)."""

    seed: int
    members: tuple[int, ...]
    score: float


# ----------------------------------------------------------------------
# CSR-native kernels
# ----------------------------------------------------------------------
def _peel_subset(rows: list[list[int]], members: Sequence[int], k: int) -> set[int]:
    """Survivors of ``k``-core peeling restricted to ``members``.

    Iteratively removes members whose degree *within the member set* is below
    ``k``; the fixpoint is the (unique) k-core of the induced subgraph, so
    removal order cannot matter.  ``k = 2`` doubles as MCODE's haircut
    (degree ≤ 1 stripping reaches the same fixpoint).  ``rows`` are the
    CSR's adjacency lists (:meth:`CSRGraph.neighbor_lists`), read against
    the member set.
    """
    alive = set(members)
    deg = {u: len(alive.intersection(rows[u])) for u in alive}
    stack = [u for u, d in deg.items() if d < k]
    while stack:
        u = stack.pop()
        if u not in alive:
            continue
        alive.discard(u)
        for w in rows[u]:
            if w in alive:
                deg[w] -= 1
                if deg[w] == k - 1:  # just crossed below k; queue exactly once
                    stack.append(w)
    return alive


def _subset_edge_count(rows: list[list[int]], members: set[int]) -> int:
    """Number of edges of the subgraph induced by ``members``."""
    return sum(len(members.intersection(rows[u])) for u in members) // 2


def _neighbourhood_edges(csr: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """The edges of every open neighbourhood, as two aligned CSR-slot arrays.

    Slot ``s`` of row ``v`` stands for neighbour ``indices[s]`` inside N(v).
    Each triangle {x, y, z} is listed once and adds one edge to each of N(x),
    N(y) and N(z).  Edges point from lower to higher (degree, index) rank,
    so a triangle is found once, from its lowest-ranked vertex, and no
    vertex has more than √(2m) higher-ranked neighbours to pair up.
    """
    n = csr.n_vertices
    indices = csr.indices
    deg = np.diff(csr.indptr)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    keys = src * n + indices
    order = np.argsort(keys)
    sorted_keys = keys[order]
    reverse = order[np.searchsorted(sorted_keys, indices * n + src)]
    # Up-slots grouped by source, by target rank within a group; every pair
    # (first, second) of one group is a wedge y - x - z with rank y < rank z.
    up = np.flatnonzero(rank[indices] > rank[src])
    up = up[np.lexsort((rank[indices[up]], src[up]))]
    group = src[up]
    pos = np.arange(up.size)
    later = np.searchsorted(group, group, side="right") - pos - 1
    first = np.repeat(pos, later)
    starts = np.cumsum(later) - later
    second = first + 1 + np.arange(first.size) - np.repeat(starts, later)
    s_xy, s_xz = up[first], up[second]
    closing = indices[s_xy] * n + indices[s_xz]
    at = np.minimum(np.searchsorted(sorted_keys, closing), keys.size - 1)
    found = sorted_keys[at] == closing
    s_xy, s_xz, s_yz = s_xy[found], s_xz[found], order[at[found]]
    s_yx, s_zx, s_zy = reverse[s_xy], reverse[s_xz], reverse[s_yz]
    return np.concatenate((s_xy, s_yx, s_zx)), np.concatenate((s_xz, s_yz, s_zy))


def mcode_vertex_weights_indices(csr: CSRGraph) -> np.ndarray:
    """Stage 1 on indices: weight = k × density of each neighbourhood's top core.

    All neighbourhoods are peeled at once, level by level: at level ``k``
    every local vertex (CSR slot) with fewer than ``k`` live local edges
    is removed, repeatedly, across every neighbourhood.  The k-core is
    unique, so the removal order cannot matter.  After each level a
    still non-empty neighbourhood records ``k``, its live vertex count and
    its live edge count; the last record is its highest core.
    """
    n = csr.n_vertices
    weights = np.zeros(n, dtype=np.float64)
    ex, ey = _neighbourhood_edges(csr)
    if ex.size == 0:
        return weights
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(csr.indptr))
    deg = np.bincount(ex, minlength=owner.size) + np.bincount(ey, minlength=owner.size)
    alive = deg > 0
    live = np.flatnonzero(alive)  # every neighbourhood's 1-core
    kmax = np.zeros(n, dtype=np.int64)
    size = np.zeros(n, dtype=np.int64)
    edges = np.zeros(n, dtype=np.int64)
    k = 1
    while live.size:
        counts = np.bincount(owner[live], minlength=n)
        present = counts > 0
        kmax[present] = k
        size[present] = counts[present]
        edges[present] = np.bincount(owner[ex], minlength=n)[present]
        k += 1
        drop = live[deg[live] < k]
        while drop.size:
            alive[drop] = False
            cut = ~(alive[ex] & alive[ey])
            ends, dec = np.unique(np.concatenate((ex[cut], ey[cut])), return_counts=True)
            ex, ey = ex[~cut], ey[~cut]
            deg[ends] -= dec
            ends = ends[alive[ends]]
            drop = ends[deg[ends] < k]
        live = live[alive[live]]
    has = kmax > 0
    s = size[has]
    weights[has] = kmax[has].astype(np.float64) * (2.0 * edges[has] / (s * (s - 1)))
    return weights


def _grow_complex_indices(
    rows: list[list[int]],
    weights: list[float],
    seed: int,
    seen: set[int],
    threshold_fraction: float,
) -> list[int]:
    """Stage 2 growth on indices — mirrors the reference DFS exactly.

    ``rows`` preserve the :class:`Graph` neighbour iteration order (the CSR
    is built in insertion order), so the member list comes out in the same
    sequence as the label reference.
    """
    bar = weights[seed] * (1.0 - threshold_fraction)
    members = [seed]
    in_complex = {seed}
    stack = [seed]
    while stack:
        u = stack.pop()
        for w in rows[u]:
            if w in in_complex or w in seen:
                continue
            if weights[w] > bar:
                in_complex.add(w)
                members.append(w)
                stack.append(w)
    return members


def mcode_clusters_indices(csr: CSRGraph, min_score: float = MIN_SCORE) -> list[IndexComplex]:
    """Run MCODE on a CSR view and return index-level complexes, sorted.

    The result order and scores are exactly those of
    :func:`reference_mcode_clusters` (ties broken by ``repr`` of the vertex
    labels, as in the seed); only the label materialisation is left to the
    caller.
    """
    rows = csr.neighbor_lists()
    weight_array = mcode_vertex_weights_indices(csr)
    weights = weight_array.tolist()
    rank = label_sort_ranks(csr, repr)
    order = np.lexsort((rank, -weight_array))
    seen: set[int] = set()
    raw: list[tuple[int, list[int]]] = []
    for seed in order[: np.count_nonzero(weight_array > 0.0)].tolist():
        if seed in seen:
            continue
        members = _grow_complex_indices(rows, weights, seed, seen, VERTEX_WEIGHT_PERCENTAGE)
        seen.update(members)
        if len(members) >= 2:
            raw.append((seed, members))

    complexes: list[IndexComplex] = []
    for seed, members in raw:
        survivors = _peel_subset(rows, members, 2)
        n_sub = len(survivors)
        if n_sub < MIN_SIZE:
            continue
        density = 2.0 * _subset_edge_count(rows, survivors) / (n_sub * (n_sub - 1))
        score = density * n_sub
        if score < min_score:
            continue
        kept = tuple(u for u in members if u in survivors)
        complexes.append(IndexComplex(seed=seed, members=kept, score=score))
    complexes.sort(key=lambda c: (-c.score, -len(c.members), rank[c.seed]))
    return complexes


# ----------------------------------------------------------------------
# public label-level API (CSR-native, labels only at the boundary)
# ----------------------------------------------------------------------
def _weight_density(core: Graph) -> float:
    """MCODE neighbourhood density: 2·E / (V·(V−1)); 0 for fewer than 2 vertices."""
    n = core.n_vertices
    if n < 2:
        return 0.0
    return 2.0 * core.n_edges / (n * (n - 1))


def mcode_score(subgraph: Graph) -> float:
    """MCODE complex score: density × number of vertices."""
    return _weight_density(subgraph) * subgraph.n_vertices


def _complex_pairs(csr: CSRGraph, complexes: Sequence[IndexComplex]) -> list[np.ndarray]:
    """The induced edges of every complex, as ``(k, 2)`` index pairs.

    One row gather over all members at once: a neighbour ``w`` of member
    ``v`` is kept when it belongs to the same complex and comes later in
    its member order, so each complex lists its edges in the order
    ``Graph.subgraph(members)`` adds them.  The complexes are disjoint (a
    grown vertex is never grown again), so membership is one lookup in a
    per-vertex owner array and member order one in a position array.
    """
    n = csr.n_vertices
    sizes = np.array([len(c.members) for c in complexes], dtype=np.int64)
    flat = np.fromiter(
        (u for c in complexes for u in c.members), dtype=np.int64, count=int(sizes.sum())
    )
    owner = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    vertex_owner = np.full(n, -1, dtype=np.int64)
    vertex_owner[flat] = owner
    position = np.zeros(n, dtype=np.int64)
    position[flat] = np.arange(flat.size, dtype=np.int64)
    values, counts = gather_csr_rows(csr.indptr, csr.indices, flat)
    slot = np.repeat(np.arange(flat.size, dtype=np.int64), counts)
    keep = (vertex_owner[values] == owner[slot]) & (position[values] > slot)
    pairs = np.column_stack((flat[slot[keep]], values[keep]))
    bounds = np.cumsum(np.bincount(owner[slot[keep]], minlength=sizes.size))[:-1]
    return np.split(pairs, bounds)


def mcode_clusters(
    graph: "Graph | CSRGraph",
    min_score: float = MIN_SCORE,
    source: str = "",
) -> list[Cluster]:
    """Run MCODE on ``graph`` and return clusters sorted by descending score.

    Only clusters scoring at least ``min_score`` with :data:`MIN_SIZE` or
    more vertices (after the haircut) are returned; the paper's cut of 3.0
    deliberately discards bare triangles.

    The computation is index-native: ``graph`` is a CSR view (the bundle's
    ``network_csr``, a result's ``filtered_csr()``) or a label graph,
    converted once.  The clusters are index-native too
    (:meth:`Cluster.from_indices`): members, seed, edge pairs and the CSR,
    with each cluster's label subgraph cut from the CSR's label graph only
    when it is read.
    """
    csr = graph if isinstance(graph, CSRGraph) else CSRGraph.from_graph(graph)
    complexes = mcode_clusters_indices(csr, min_score)
    return [
        Cluster.from_indices(
            i,
            csr,
            np.asarray(complex_.members, dtype=np.int64),
            pairs,
            complex_.score,
            complex_.seed,
            source=source,
        )
        for i, (complex_, pairs) in enumerate(zip(complexes, _complex_pairs(csr, complexes)))
    ]


# ----------------------------------------------------------------------
# retained seed implementations (behavioural references)
# ----------------------------------------------------------------------
def reference_k_core(graph: Graph, k: int) -> Graph:
    """Seed k-core: repeated full-vertex rescans on the label graph.

    The reference of :func:`_peel_subset`, the peel the haircut and 2-core
    steps run on indices.
    """
    work = graph.copy()
    changed = True
    while changed:
        changed = False
        for v in list(work.vertices()):
            if work.degree(v) < k:
                work.remove_vertex(v)
                changed = True
    return work


def reference_highest_k_core(graph: Graph) -> tuple[int, Graph]:
    """Seed highest k-core: peel k = 1, 2, … until the core empties
    (the neighbourhood core of :func:`reference_mcode_vertex_weights`)."""
    if graph.n_vertices == 0:
        return 0, graph.copy()
    k = 1
    best_k = 0
    best = graph.copy()
    current = graph.copy()
    while True:
        current = reference_k_core(current, k)
        if current.n_vertices == 0:
            break
        best_k, best = k, current.copy()
        k += 1
    return best_k, best


def reference_mcode_vertex_weights(graph: Graph) -> dict[Vertex, float]:
    """Seed stage 1: per-vertex ``Graph.subgraph`` + iterated label k-cores."""
    weights: dict[Vertex, float] = {}
    for v in graph.vertices():
        nbrs = graph.neighbors(v)
        if len(nbrs) < 2:
            weights[v] = 0.0
            continue
        neighborhood = graph.subgraph(nbrs)
        k, core = reference_highest_k_core(neighborhood)
        weights[v] = float(k) * _weight_density(core)
    return weights


def _grow_complex(
    graph: Graph,
    weights: dict[Vertex, float],
    seed: Vertex,
    seen: set[Vertex],
    threshold_fraction: float,
) -> list[Vertex]:
    """Stage 2 growth: BFS over vertices whose weight clears the seed-derived bar."""
    bar = weights[seed] * (1.0 - threshold_fraction)
    members = [seed]
    in_complex = {seed}
    stack = [seed]
    while stack:
        u = stack.pop()
        for w in graph.neighbors(u):
            if w in in_complex or w in seen:
                continue
            if weights[w] > bar:
                in_complex.add(w)
                members.append(w)
                stack.append(w)
    return members


def _haircut(subgraph: Graph) -> Graph:
    """Iteratively remove vertices of degree ≤ 1 (MCODE's haircut post-processing)."""
    work = subgraph.copy()
    changed = True
    while changed:
        changed = False
        for v in list(work.vertices()):
            if work.degree(v) <= 1:
                work.remove_vertex(v)
                changed = True
    return work


def reference_mcode_clusters(
    graph: Graph,
    min_score: float = MIN_SCORE,
    source: str = "",
) -> list[Cluster]:
    """Seed ``mcode_clusters``: the pure label-level three-stage pipeline."""
    weights = reference_mcode_vertex_weights(graph)
    order = sorted(graph.vertices(), key=lambda v: (-weights[v], repr(v)))
    seen: set[Vertex] = set()
    raw: list[tuple[Vertex, list[Vertex]]] = []
    for seed in order:
        if seed in seen or weights[seed] <= 0.0:
            continue
        members = _grow_complex(graph, weights, seed, seen, VERTEX_WEIGHT_PERCENTAGE)
        seen.update(members)
        if len(members) >= 2:
            raw.append((seed, members))

    clusters: list[Cluster] = []
    for seed, members in raw:
        sub = graph.subgraph(members)
        sub = _haircut(sub)
        sub = reference_k_core(sub, 2)
        if sub.n_vertices < MIN_SIZE:
            continue
        score = mcode_score(sub)
        if score < min_score:
            continue
        kept_members = [v for v in members if sub.has_vertex(v)]
        clusters.append(
            Cluster(
                cluster_id=-1,
                members=kept_members,
                subgraph=sub,
                score=score,
                seed=seed,
                source=source,
            )
        )
    clusters.sort(key=lambda c: (-c.score, -c.n_vertices, repr(c.seed)))
    for i, c in enumerate(clusters):
        c.cluster_id = i
    return clusters

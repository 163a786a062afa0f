"""Graph partitioning for the parallel samplers.

Both parallel algorithms in the paper begin by dividing the network into ``P``
partitions; each processor extracts a subgraph from the edges that lie
entirely inside its partition and then deals with the *border edges* whose
endpoints fall in different partitions.  The quality of the partition controls
how many border edges exist (and hence communication volume / duplicate work),
so the library ships several partitioners:

``block``
    contiguous slices of the vertex ordering — mirrors distributing a sorted
    gene list across MPI ranks, the strategy used by the authors;
``hash``
    vertices assigned by a deterministic hash — a worst-ish case with many
    border edges, useful to stress the border-edge machinery;
``bfs`` (level / geodesic growing)
    breadth-first layers accumulated until the target partition size is
    reached — keeps tightly connected genes together, few border edges;
``greedy_edge_cut``
    a lightweight linear-time greedy assignment that places each vertex in the
    partition where most of its already-placed neighbours live, subject to a
    balance cap (a simplified LDG / Fennel streaming partitioner).

Each partitioner takes a :class:`~repro.graph.csr.CSRGraph` and returns an
:class:`IndexPartition`: a vertex→part assignment array, per-part index
arrays and the border mask over the CSR edge list.  The label partitioners
that return a :class:`Partition` (dicts and per-part edge lists) are kept
only as the behavioural references of the index ones; the property suite
pins each index partitioner to its label twin.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .csr import CSRGraph, gather_csr_rows
from .graph import Graph

__all__ = [
    "Partition",
    "block_partition",
    "hash_partition",
    "bfs_partition",
    "greedy_edge_cut_partition",
    "PARTITIONERS",
    "partition_graph",
    "IndexPartition",
    "block_partition_indices",
    "hash_partition_indices",
    "bfs_partition_indices",
    "greedy_partition_indices",
    "INDEX_PARTITIONERS",
    "index_partition_graph",
]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


@dataclass
class Partition:
    """A label partitioner's result: ``n_parts`` vertex-disjoint parts (reference).

    Attributes
    ----------
    assignment:
        vertex → part index (0-based).
    parts:
        per-part vertex lists, preserving traversal order within each part.
    internal_edges:
        per-part list of edges whose endpoints both lie in that part.
    border_edges:
        edges whose endpoints lie in different parts, in canonical form.
    graph:
        the partitioned graph (kept for convenience; not copied).
    """

    assignment: dict[Vertex, int]
    parts: list[list[Vertex]]
    internal_edges: list[list[Edge]]
    border_edges: list[Edge]
    graph: Graph = field(repr=False)

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    def part_subgraph(self, part: int) -> Graph:
        """Return the subgraph induced by part ``part`` (internal edges only)."""
        return self.graph.subgraph(self.parts[part])

    def border_edges_of(self, part: int) -> list[Edge]:
        """Return the border edges with at least one endpoint in ``part``."""
        a = self.assignment
        return [(u, v) for u, v in self.border_edges if part in (a[u], a[v])]


def _classify_edges(graph: Graph, assignment: dict[Vertex, int], n_parts: int) -> tuple[list[list[Edge]], list[Edge]]:
    """Split the graph's edges into per-part internal lists and global border list."""
    internal: list[list[Edge]] = [[] for _ in range(n_parts)]
    border: list[Edge] = []
    # iter_edges already yields canonical keys; re-canonicalising here would
    # double the edge_key work on the largest loop of every partitioning.
    for u, v in graph.iter_edges():
        pu, pv = assignment[u], assignment[v]
        if pu == pv:
            internal[pu].append((u, v))
        else:
            border.append((u, v))
    return internal, border


def _build_partition(
    graph: Graph,
    assignment: dict[Vertex, int],
    n_parts: int,
    order: Optional[Sequence[Vertex]] = None,
) -> Partition:
    parts: list[list[Vertex]] = [[] for _ in range(n_parts)]
    for v in (order if order is not None else graph.vertices()):
        parts[assignment[v]].append(v)
    internal, border = _classify_edges(graph, assignment, n_parts)
    return Partition(
        assignment=assignment,
        parts=parts,
        internal_edges=internal,
        border_edges=border,
        graph=graph,
    )


def _check_n_parts(graph: object, n_parts: int) -> None:
    if n_parts < 1:
        raise ValueError(f"n_parts must be >= 1, got {n_parts}")


def _fnv1a(text: str, salt: int = 0) -> int:
    """Deterministic FNV-1a hash shared by the label and index hash partitioners."""
    h = 0xCBF29CE484222325 ^ (salt & 0xFFFFFFFF)
    for ch in text:
        h ^= ord(ch)
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def block_partition(
    graph: Graph, n_parts: int, order: Optional[Sequence[Vertex]] = None
) -> Partition:
    """Split the vertex ordering into ``n_parts`` contiguous, balanced blocks.

    ``order`` defaults to the graph's natural order.  Sizes differ by at most
    one vertex.
    """
    _check_n_parts(graph, n_parts)
    verts = list(order) if order is not None else graph.vertices()
    if set(verts) != set(graph.vertices()) or len(verts) != graph.n_vertices:
        raise ValueError("order must be a permutation of the graph's vertices")
    n = len(verts)
    assignment: dict[Vertex, int] = {}
    base, extra = divmod(n, n_parts) if n_parts else (0, 0)
    idx = 0
    for part in range(n_parts):
        size = base + (1 if part < extra else 0)
        for v in verts[idx : idx + size]:
            assignment[v] = part
        idx += size
    return _build_partition(graph, assignment, n_parts, order=verts)


def hash_partition(graph: Graph, n_parts: int, salt: int = 0) -> Partition:
    """Assign each vertex to ``hash(vertex) % n_parts`` using a stable string hash.

    Python's built-in ``hash`` is randomised per process for strings, so a
    deterministic FNV-1a hash over ``repr(vertex)`` is used instead; results
    are identical across runs and processes.
    """
    _check_n_parts(graph, n_parts)
    assignment = {v: _fnv1a(repr(v), salt) % n_parts for v in graph.vertices()}
    return _build_partition(graph, assignment, n_parts)


def bfs_partition(
    graph: Graph, n_parts: int, source: Optional[Vertex] = None
) -> Partition:
    """Grow parts by accumulating BFS layers until the target size is reached.

    Vertices unreachable from the current seed start a new BFS from the first
    unassigned vertex, so disconnected graphs are handled.  The resulting parts
    are contiguous in the BFS geodesic sense, which minimises border edges on
    networks with community structure.
    """
    _check_n_parts(graph, n_parts)
    n = graph.n_vertices
    if n == 0:
        return _build_partition(graph, {}, n_parts)
    target = max(1, -(-n // n_parts))  # ceil division
    assignment: dict[Vertex, int] = {}
    current_part = 0
    count_in_part = 0
    visited: set[Vertex] = set()
    start = source if source is not None and source in graph else graph.vertices()[0]
    pending = deque([start])
    natural_iter = iter(graph.vertices())

    def next_unvisited() -> Optional[Vertex]:
        for v in natural_iter:
            if v not in visited:
                return v
        return None

    while len(visited) < n:
        if not pending:
            nxt = next_unvisited()
            if nxt is None:
                break
            pending.append(nxt)
        u = pending.popleft()
        if u in visited:
            continue
        visited.add(u)
        if count_in_part >= target and current_part < n_parts - 1:
            current_part += 1
            count_in_part = 0
        assignment[u] = current_part
        count_in_part += 1
        for w in graph.neighbors(u):
            if w not in visited:
                pending.append(w)
    return _build_partition(graph, assignment, n_parts)


def greedy_edge_cut_partition(
    graph: Graph,
    n_parts: int,
    order: Optional[Sequence[Vertex]] = None,
    imbalance: float = 1.1,
) -> Partition:
    """Streaming greedy partitioner (linear deterministic greedy).

    Each vertex (in ``order``, default natural) is placed in the part that
    already holds the most of its neighbours, provided the part has not
    exceeded ``imbalance × ideal_size``; ties and full parts fall back to the
    lightest part.  This approximates an edge-cut-minimising partition without
    external dependencies.
    """
    _check_n_parts(graph, n_parts)
    if imbalance < 1.0:
        raise ValueError("imbalance factor must be >= 1.0")
    verts = list(order) if order is not None else graph.vertices()
    if set(verts) != set(graph.vertices()) or len(verts) != graph.n_vertices:
        raise ValueError("order must be a permutation of the graph's vertices")
    n = len(verts)
    cap = max(1, int(imbalance * -(-n // n_parts))) if n else 1
    sizes = [0] * n_parts
    assignment: dict[Vertex, int] = {}
    for v in verts:
        votes = [0] * n_parts
        for nbr in graph.neighbors(v):
            part = assignment.get(nbr)
            if part is not None:
                votes[part] += 1
        # candidate parts under the balance cap, best neighbour count first,
        # then lightest, then lowest index for determinism
        candidates = [p for p in range(n_parts) if sizes[p] < cap]
        if not candidates:
            candidates = list(range(n_parts))
        best = min(candidates, key=lambda p: (-votes[p], sizes[p], p))
        assignment[v] = best
        sizes[best] += 1
    return _build_partition(graph, assignment, n_parts)


PartitionerFn = Callable[..., Partition]

#: Registry of available partitioners keyed by name.
PARTITIONERS: dict[str, PartitionerFn] = {
    "block": block_partition,
    "hash": hash_partition,
    "bfs": bfs_partition,
    "greedy": greedy_edge_cut_partition,
}


def partition_graph(graph: Graph, n_parts: int, method: str = "block", **kwargs) -> Partition:
    """Partition ``graph`` into ``n_parts`` parts using the named label reference."""
    return PARTITIONERS[method](graph, n_parts, **kwargs)


# ======================================================================
# index-native partitioning (CSR in, numpy assignment out)
# ======================================================================
class IndexPartition:
    """An index-native partition of a :class:`~repro.graph.csr.CSRGraph`.

    The parallel samplers only ever need *arrays*: a vertex→part
    ``assignment`` vector, per-part index arrays, and the border mask over
    the CSR edge list.  Everything here is vectorised numpy on the frozen
    CSR view.

    Parameters
    ----------
    csr:
        The partitioned CSR view (kept, not copied).
    assignment:
        ``int64`` array of length ``n_vertices``; ``assignment[i]`` is the
        part of vertex ``i``.
    n_parts:
        Number of parts (``assignment`` values must lie in ``[0, n_parts)``).
    order:
        Optional traversal order (an index permutation); per-part index
        arrays list vertices in this sequence, mirroring how the label
        partitioners preserve traversal order inside each part.
    """

    __slots__ = (
        "csr",
        "assignment",
        "n_parts",
        "order",
        "_parts",
        "_part_arrays",
        "_edge_parts",
        "_border_mask",
    )

    def __init__(
        self,
        csr: CSRGraph,
        assignment: np.ndarray,
        n_parts: int,
        order: Optional[np.ndarray] = None,
    ) -> None:
        assignment = np.ascontiguousarray(assignment, dtype=np.int64)
        if assignment.shape != (csr.n_vertices,):
            raise ValueError("assignment must have one entry per CSR vertex")
        if n_parts < 1:
            raise ValueError(f"n_parts must be >= 1, got {n_parts}")
        if assignment.size and (assignment.min() < 0 or assignment.max() >= n_parts):
            raise ValueError("assignment contains out-of-range part ids")
        self.csr = csr
        self.assignment = assignment
        self.n_parts = n_parts
        self.order = None if order is None else np.ascontiguousarray(order, dtype=np.int64)
        self._parts: Optional[list[np.ndarray]] = None
        self._part_arrays: Optional[list[tuple[np.ndarray, np.ndarray]]] = None
        self._edge_parts: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._border_mask: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # vertex side
    # ------------------------------------------------------------------
    @property
    def parts(self) -> list[np.ndarray]:
        """Per-part vertex index arrays, preserving traversal order (lazy)."""
        parts = self._parts
        if parts is None:
            seq = self.order if self.order is not None else np.arange(
                self.csr.n_vertices, dtype=np.int64
            )
            by_part = self.assignment[seq]
            parts = [seq[by_part == p] for p in range(self.n_parts)]
            self._parts = parts
        return parts

    def settled_state(self) -> tuple:
        """Everything but the view, with the lazy parts and border mask
        built: the form in which a view's memo keeps a partition (see
        :meth:`from_settled_state`), so concurrent readers never fill a lazy
        field.  Keeping the partition itself would reference the view from
        its own memo."""
        return (self.assignment, self.n_parts, self.order, tuple(self.parts), self.border_mask)

    @classmethod
    def from_settled_state(cls, csr: CSRGraph, state: tuple) -> "IndexPartition":
        """The partition of ``csr`` that :meth:`settled_state` captured."""
        assignment, n_parts, order, parts, border_mask = state
        ipart = cls(csr, assignment, n_parts, order=order)
        ipart._parts = parts
        ipart._border_mask = border_mask
        return ipart

    def part_indices(self, part: int) -> np.ndarray:
        """Vertex indices of part ``part`` in traversal order."""
        return self.parts[part]

    def part_arrays(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(indptr, indices)`` of every part's induced subgraph (lazy).

        Part ``p``'s vertices are renumbered ``0 .. k-1`` in
        :meth:`part_indices` order and each row keeps its same-part
        neighbours in their original row order — the arrays
        :meth:`CSRGraph.induced_subgraph` gives for the part — built for
        all parts from one gather over the whole CSR, with no label tuple.
        """
        arrays = self._part_arrays
        if arrays is None:
            csr, parts = self.csr, self.parts
            seq = np.concatenate(parts)
            sizes = [int(p.shape[0]) for p in parts]
            local = np.zeros(csr.n_vertices, dtype=np.int64)
            local[seq] = np.concatenate([np.arange(k, dtype=np.int64) for k in sizes])
            nbrs, counts = gather_csr_rows(csr.indptr, csr.indices, seq)
            row = np.repeat(np.arange(seq.shape[0], dtype=np.int64), counts)
            keep = self.assignment[nbrs] == self.assignment[seq][row]
            kept = np.bincount(row[keep], minlength=seq.shape[0])
            local_nbrs = local[nbrs[keep]]
            arrays = []
            first = edge_start = 0
            for k in sizes:
                indptr = np.zeros(k + 1, dtype=np.int64)
                np.cumsum(kept[first : first + k], out=indptr[1:])
                edge_end = edge_start + int(indptr[-1])
                arrays.append((indptr, local_nbrs[edge_start:edge_end]))
                first, edge_start = first + k, edge_end
            self._part_arrays = arrays
        return arrays

    # ------------------------------------------------------------------
    # edge side
    # ------------------------------------------------------------------
    @property
    def border_mask(self) -> np.ndarray:
        """Boolean mask over :meth:`CSRGraph.edge_array`: ``True`` = border edge.

        One vectorised comparison of the endpoint assignments — the
        index-native replacement for the per-edge dict lookups of
        ``_classify_edges``.
        """
        mask = self._border_mask
        if mask is None:
            eu, ev = self.csr.edge_array()
            mask = self.assignment[eu] != self.assignment[ev]
            self._border_mask = mask
        return mask

    def border_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Border edges as aligned index arrays ``(us, vs)`` with ``us < vs``."""
        eu, ev = self.csr.edge_array()
        mask = self.border_mask
        return eu[mask], ev[mask]

    def internal_edges_of(self, part: int) -> tuple[np.ndarray, np.ndarray]:
        """Edges with both endpoints in ``part``, as aligned index arrays."""
        eu, ev = self.csr.edge_array()
        mask = (self.assignment[eu] == part) & (self.assignment[ev] == part)
        return eu[mask], ev[mask]

    def border_edges_of(self, part: int) -> tuple[np.ndarray, np.ndarray]:
        """Border edges with at least one endpoint in ``part`` (aligned arrays)."""
        eu, ev = self.csr.edge_array()
        mask = self.border_mask & (
            (self.assignment[eu] == part) | (self.assignment[ev] == part)
        )
        return eu[mask], ev[mask]

    @property
    def n_border_edges(self) -> int:
        return int(self.border_mask.sum())

    def validate(self) -> None:
        """Raise ``ValueError`` if the partition is inconsistent with its CSR."""
        counts = np.bincount(self.assignment, minlength=self.n_parts)
        if int(counts.sum()) != self.csr.n_vertices:
            raise ValueError("assignment does not cover the vertex set exactly")
        sizes = sum(p.shape[0] for p in self.parts)
        if sizes != self.csr.n_vertices:
            raise ValueError("per-part index arrays do not cover the vertex set exactly")
        n_internal = sum(
            self.internal_edges_of(p)[0].shape[0] for p in range(self.n_parts)
        )
        if n_internal + self.n_border_edges != self.csr.n_edges:
            raise ValueError("internal + border edge counts do not add up to |E|")


#: The greedy index partitioner caps every part at this multiple of the
#: ideal size ``ceil(n / n_parts)``.
GREEDY_IMBALANCE = 1.1


def block_partition_indices(
    csr: CSRGraph, n_parts: int, order: Optional[np.ndarray] = None
) -> IndexPartition:
    """Index-native :func:`block_partition`: contiguous balanced blocks of
    ``order``, an ``int64`` permutation of the vertex indices (identity if
    ``None``)."""
    _check_n_parts(csr, n_parts)
    n = csr.n_vertices
    if order is None:
        order = np.arange(n, dtype=np.int64)
    else:
        order = np.ascontiguousarray(order, dtype=np.int64)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of the CSR vertex indices")
    base, extra = divmod(n, n_parts)
    sizes = np.full(n_parts, base, dtype=np.int64)
    sizes[:extra] += 1
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.repeat(np.arange(n_parts, dtype=np.int64), sizes)
    return IndexPartition(csr, assignment, n_parts, order=order)


def hash_partition_indices(csr: CSRGraph, n_parts: int) -> IndexPartition:
    """Index-native :func:`hash_partition` (same FNV-1a over label ``repr``)."""
    _check_n_parts(csr, n_parts)
    assignment = np.fromiter(
        (_fnv1a(repr(v)) % n_parts for v in csr.labels),
        dtype=np.int64,
        count=csr.n_vertices,
    )
    return IndexPartition(csr, assignment, n_parts)


def bfs_partition_indices(csr: CSRGraph, n_parts: int) -> IndexPartition:
    """Index-native :func:`bfs_partition`: BFS layers accumulated to target size.

    The traversal starts at vertex 0; it, the restart-at-next-natural vertex
    rule and the part-advance rule replicate the label implementation
    exactly, so both produce the identical assignment.
    """
    _check_n_parts(csr, n_parts)
    n = csr.n_vertices
    assignment = np.zeros(n, dtype=np.int64)
    if n == 0:
        return IndexPartition(csr, assignment, n_parts)
    indptr, indices = csr.indptr, csr.indices
    target = max(1, -(-n // n_parts))  # ceil division
    visited = np.zeros(n, dtype=bool)
    current_part = 0
    count_in_part = 0
    n_visited = 0
    pending: deque[int] = deque([0])
    scan = 0  # persistent natural-order restart pointer
    while n_visited < n:
        if not pending:
            while scan < n and visited[scan]:
                scan += 1
            if scan == n:
                break
            pending.append(scan)
        u = pending.popleft()
        if visited[u]:
            continue
        visited[u] = True
        n_visited += 1
        if count_in_part >= target and current_part < n_parts - 1:
            current_part += 1
            count_in_part = 0
        assignment[u] = current_part
        count_in_part += 1
        row = indices[indptr[u] : indptr[u + 1]]
        pending.extend(row[~visited[row]].tolist())
    return IndexPartition(csr, assignment, n_parts)


def greedy_partition_indices(csr: CSRGraph, n_parts: int) -> IndexPartition:
    """Index-native :func:`greedy_edge_cut_partition` (LDG-style streaming).

    Streams the vertices in natural order under a part-size cap of
    :data:`GREEDY_IMBALANCE` times the ideal size.
    """
    _check_n_parts(csr, n_parts)
    n = csr.n_vertices
    indptr, indices = csr.indptr, csr.indices
    cap = max(1, int(GREEDY_IMBALANCE * -(-n // n_parts))) if n else 1
    sizes = np.zeros(n_parts, dtype=np.int64)
    assignment = np.full(n, -1, dtype=np.int64)
    all_parts = np.arange(n_parts, dtype=np.int64)
    for v in range(n):
        row = indices[indptr[v] : indptr[v + 1]]
        placed = assignment[row]
        votes = np.bincount(placed[placed >= 0], minlength=n_parts)
        under = np.flatnonzero(sizes < cap)
        cand = under if under.size else all_parts
        # min by (-votes, size, part index): lexsort's last key is primary
        best = int(cand[np.lexsort((cand, sizes[cand], -votes[cand]))[0]])
        assignment[v] = best
        sizes[best] += 1
    return IndexPartition(csr, assignment, n_parts)


IndexPartitionerFn = Callable[..., IndexPartition]

#: Index-native counterparts of :data:`PARTITIONERS`, keyed by the same names.
INDEX_PARTITIONERS: dict[str, IndexPartitionerFn] = {
    "block": block_partition_indices,
    "hash": hash_partition_indices,
    "bfs": bfs_partition_indices,
    "greedy": greedy_partition_indices,
}


def index_partition_graph(csr: CSRGraph, n_parts: int, method: str = "block") -> IndexPartition:
    """Partition a CSR view into ``n_parts`` parts using the named method."""
    try:
        fn = INDEX_PARTITIONERS[method]
    except KeyError:
        raise KeyError(
            f"unknown partitioner {method!r}; valid names: {sorted(INDEX_PARTITIONERS)}"
        ) from None
    return fn(csr, n_parts)

"""Compressed sparse row (CSR) graph kernel.

:class:`~repro.graph.graph.Graph` stores adjacency as insertion-ordered
dict-of-dicts keyed by arbitrary hashable labels.  That is the right shape for
building networks (gene identifiers in, deterministic iteration out), but it
is the wrong shape for the chordality hot loops: every neighbour access hashes
a label, every neighbour list is a fresh allocation, and every edge test walks
a dictionary.  On the multi-thousand-vertex correlation networks of the
scalability study those constants dominate the measured time.

:class:`CSRGraph` is the compact counterpart the kernels run on instead:

* vertices are renumbered ``0 .. n-1`` in ``Graph`` insertion order, with the
  original labels retained so results can be mapped back at the boundary;
* adjacency is the classic CSR pair ``(indptr, indices)`` of numpy ``int64``
  arrays — the neighbours of vertex ``i`` are ``indices[indptr[i]:indptr[i+1]]``
  in the same order the :class:`Graph` would iterate them;
* degrees are one vectorised ``diff``, and edge membership is a binary
  search over a packed sorted edge array.

A ``CSRGraph`` is *frozen*: all mutation happens on :class:`Graph`, and code
converts at the boundary.  :meth:`from_graph` is the plain (uncached)
conversion; :meth:`of` returns the one view cached on the graph itself, keyed
by the graph's structural version, so the samplers convert a network they
filter repeatedly only once.  Edge attributes are intentionally not carried
over; a CSR knows its *label graph* instead (:meth:`label_graph`) — the
graph it was converted from, or, for a CSR built from arrays such as a
dataset's network, a builder run on first read.  A filter result keeps
its kept edges as index pairs and re-attaches the attributes
(``Graph.spanning_subgraph`` on that label graph) only when its own label
graph is first read.

A view also carries a small memo (:meth:`CSRGraph.memo`) for what the
filters derive from it alone — label sort ranks, orderings, partitions —
so a sweep of filter specs over one network computes each of them once.
It lives and dies with the view: a structural change to the graph builds
a new view with an empty memo.
"""

from __future__ import annotations

import threading
from collections.abc import Hashable, Iterable, Sequence
from typing import Callable, Optional, TypeVar

import numpy as np

from .graph import Graph

__all__ = ["CSRGraph", "MEMO_ENTRIES", "edge_arrays_csr", "gather_csr_rows", "sorted_unique"]

Vertex = Hashable
T = TypeVar("T")

#: Most entries one view's memo holds; the oldest entry is dropped first.
#: A sweep of the paper's 4 orderings x 2 samplers at one ``P`` (and its
#: payloads) fills 15.
MEMO_ENTRIES = 32

_MISSING = object()
#: Serialises publishing into (and evicting from) any view's memo; builds
#: run outside it, so only the dict update is ever waited for.
_MEMO_LOCK = threading.Lock()


def _read_only(value: object) -> None:
    """Mark every array in ``value`` (nested in tuples, lists and dict
    values) read-only."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    elif isinstance(value, dict):
        for item in value.values():
            _read_only(item)


def gather_csr_rows(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the CSR rows ``rows`` (an int64 array) with one fancy index.

    Returns ``(values, counts)``: the entries of every listed row back to
    back, and each row's length.  Works on any CSR pair without a graph
    object (adjacency, ancestor rows, a packed chordal adjacency); callers
    that need each entry's source row expand it with
    ``np.repeat(np.arange(rows.shape[0]), counts)``, so frontier loops that
    only want the values pay for no extra array.
    """
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), counts
    # out[t] comes from indices[starts[r] + offset-within-row].
    row_base = np.zeros(rows.shape[0], dtype=np.int64)
    np.cumsum(counts[:-1], out=row_base[1:])
    take = np.repeat(starts - row_base, counts) + np.arange(total, dtype=np.int64)
    return indices[take], counts


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of an int64 array by one sort and a neighbour mask.

    Plain ``np.unique`` takes numpy's hash-table path and then sorts its
    output: on 84k packed annotation keys (numpy 2.4, a 2-core x86 VM) that
    took 17 ms against 0.7 ms for this.
    """
    out = np.sort(values)
    keep = np.empty(out.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def edge_arrays_csr(n: int, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, indices)`` of ``n`` vertices and the undirected edges ``(us[k], vs[k])``.

    Each edge must appear exactly once (either orientation) with no self
    loops or duplicates.  Rows come out sorted ascending, from one stable
    ``lexsort`` over the symmetrised arrays — no per-edge Python loop.
    """
    us = np.ascontiguousarray(us, dtype=np.int64)
    vs = np.ascontiguousarray(vs, dtype=np.int64)
    if us.shape != vs.shape or us.ndim != 1:
        raise ValueError("us and vs must be equal-length 1-D arrays")
    if us.size:
        lo, hi = min(us.min(), vs.min()), max(us.max(), vs.max())
        if lo < 0 or hi >= n:
            raise ValueError("edge endpoints contain out-of-range vertex ids")
        if (us == vs).any():
            raise ValueError("self loops are not allowed")
    src = np.concatenate([us, vs])
    dst = np.concatenate([vs, us])
    # Stable sort by (row, column): gives sorted rows and deterministic
    # layout; n_vertices+1 bins keeps searchsorted-free row offsets.
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    if src.size and ((src[1:] == src[:-1]) & (dst[1:] == dst[:-1])).any():
        raise ValueError("duplicate edges in input arrays")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst


class CSRGraph:
    """A frozen, int-indexed CSR view of a simple undirected graph.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; row ``i`` spans
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``int64`` array of neighbour indices (each undirected edge appears in
        both endpoint rows).
    labels:
        The original vertex labels, ``labels[i]`` naming vertex ``i``.
    """

    __slots__ = (
        "indptr",
        "indices",
        "labels",
        "_label_index",
        "_rows",
        "_row_sets",
        "_edge_arr",
        "_graph",
        "_memo",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Sequence[Vertex],
    ) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        labels = tuple(labels)
        n = len(labels)
        if indptr.ndim != 1 or indptr.shape[0] != n + 1:
            raise ValueError(f"indptr must have length n+1 = {n + 1}, got {indptr.shape}")
        if indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if indices.ndim != 1 or indices.shape[0] != int(indptr[-1]):
            raise ValueError("indices length must equal indptr[-1]")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("indices contain out-of-range vertex ids")
        indptr.setflags(write=False)
        indices.setflags(write=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_label_index", None)
        object.__setattr__(self, "_rows", None)
        object.__setattr__(self, "_row_sets", None)
        object.__setattr__(self, "_edge_arr", None)
        object.__setattr__(self, "_graph", None)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CSRGraph is frozen; build a new one instead of mutating")

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Build the CSR view of ``graph``.

        Vertex ``i`` is the ``i``-th vertex of ``graph.vertices()`` and row
        ``i`` lists its neighbours in the graph's (insertion) iteration order,
        so every deterministic traversal of the :class:`Graph` has an exact
        int-indexed counterpart here.  ``graph`` becomes the view's
        :meth:`label_graph`.
        """
        adj = graph._adj  # package-internal fast path; Graph owns the invariants
        labels = tuple(adj)
        index = {v: i for i, v in enumerate(labels)}
        n = len(labels)
        indptr = np.zeros(n + 1, dtype=np.int64)
        flat: list[int] = []
        extend = flat.extend
        lookup = index.__getitem__
        rows: list[list[int]] = []
        for i, v in enumerate(labels):
            row = list(map(lookup, adj[v]))
            rows.append(row)
            indptr[i + 1] = indptr[i] + len(row)
            extend(row)
        csr = cls(indptr, np.asarray(flat, dtype=np.int64), labels)
        object.__setattr__(csr, "_label_index", index)
        object.__setattr__(csr, "_rows", rows)
        object.__setattr__(csr, "_graph", graph)
        return csr

    @classmethod
    def of(cls, graph: "Graph | CSRGraph") -> "CSRGraph":
        """The CSR view of ``graph``, built once and cached on the graph.

        A :class:`CSRGraph` is its own view, so every sampler takes either
        form of a network.

        The cache is keyed by the graph's structural version: any new vertex,
        new edge or removal makes the next call rebuild, while attribute-only
        changes keep the view.  Copies and subgraphs start without one.  Use
        it for networks that are converted again and again (filter inputs);
        a one-off conversion should call :meth:`from_graph`, which pins
        nothing in memory.
        """
        if isinstance(graph, CSRGraph):
            return graph
        view = graph._csr_view
        if view is None or view[0] != graph._version:
            view = (graph._version, cls.from_graph(graph))
            graph._csr_view = view
        return view[1]

    def install_as_view_of(self, graph: Graph) -> None:
        """Make this CSR the view :meth:`of` returns for ``graph``.

        For a CSR built elsewhere from the same data (a dataset's network
        CSR comes straight from the correlation pairs), so one network never
        holds two CSRs.  It must equal ``CSRGraph.from_graph(graph)``; only
        the sizes are checked here.
        """
        if self.n_vertices != graph.n_vertices or self.n_edges != graph.n_edges:
            raise ValueError(
                f"{self!r} cannot be the CSR view of {graph!r}: sizes differ"
            )
        graph._csr_view = (graph._version, self)

    def attach_label_graph(self, source: "Graph | Callable[[], Graph]") -> None:
        """Name the label graph of a CSR built from arrays: the graph, or a
        builder run on the first :meth:`label_graph` read.  It must equal
        :meth:`to_graph` (vertex and neighbour order) and may carry edge
        attributes.
        """
        object.__setattr__(self, "_graph", source)

    def label_graph(self) -> Graph:
        """The label :class:`Graph` this CSR views: the graph :meth:`from_graph`
        converted, or the one :meth:`attach_label_graph` names, or else
        :meth:`to_graph`.  A built graph is cached, with this CSR as its
        :meth:`of` view; pickling drops it.
        """
        graph = self._graph
        if not isinstance(graph, Graph):
            graph = self.to_graph() if graph is None else graph()
            self.install_as_view_of(graph)
            object.__setattr__(self, "_graph", graph)
        return graph

    @classmethod
    def from_edge_sequence(
        cls,
        labels: Sequence[Vertex],
        us: np.ndarray,
        vs: np.ndarray,
    ) -> "CSRGraph":
        """The CSR of a graph whose edges were added in the order given.

        Vertex ``i`` is ``labels[i]`` and row ``i`` lists its neighbours in the
        order its edges appear in ``(us[k], vs[k])`` — exactly what
        :meth:`from_graph` returns for a :class:`Graph` over ``labels`` that
        added these edges one by one.  Each undirected edge must appear once
        (either orientation), without self loops; this is not checked.  One
        stable ``argsort`` over the interleaved half-edges, no Python loop.
        """
        us = np.ascontiguousarray(us, dtype=np.int64)
        vs = np.ascontiguousarray(vs, dtype=np.int64)
        # Half-edges in arrival order: edge k contributes (us[k] -> vs[k])
        # and (vs[k] -> us[k]) at time k, so a stable sort by source row
        # keeps each row in edge order.
        src = np.column_stack([us, vs]).ravel()
        dst = np.column_stack([vs, us]).ravel()
        order = np.argsort(src, kind="stable")
        labels = tuple(labels)
        indptr = np.zeros(len(labels) + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=len(labels)), out=indptr[1:])
        return cls(indptr, dst[order], labels)

    @classmethod
    def from_edge_arrays(
        cls,
        labels: Sequence[Vertex],
        us: np.ndarray,
        vs: np.ndarray,
    ) -> "CSRGraph":
        """Build a CSR graph straight from aligned undirected edge arrays.

        ``us[k]`` and ``vs[k]`` are the endpoint *indices* of edge ``k`` into
        ``labels``; each undirected edge must appear exactly once (either
        orientation) with no self loops or duplicates.  Rows of the result are
        sorted ascending — for an edge list that is globally sorted by
        ``(min, max)`` endpoint this is exactly the CSR that
        :meth:`from_graph` would produce for a :class:`Graph` built by adding
        those edges in order, because each vertex then meets its neighbours in
        ascending-index order (see :func:`edge_arrays_csr`).
        """
        labels = tuple(labels)
        return cls(*edge_arrays_csr(len(labels), us, vs), labels)

    @classmethod
    def from_buffers(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: Optional[Sequence[Vertex]] = None,
    ) -> "CSRGraph":
        """Rebuild a graph around existing CSR buffers **without copying them**.

        The result's ``indptr``/``indices`` are views pinned to the given
        arrays (``np.shares_memory`` holds), so unpickling a graph
        (:meth:`__reduce__`, how process payloads travel) copies nothing.
        Only O(1) shape/dtype consistency is checked — the buffers are
        trusted to describe a valid symmetric CSR (they came out of a
        validated graph); hand-built arrays should go through the validating
        constructor instead.  ``labels`` defaults to ``range(n)``, the
        index-native identity labelling.
        """
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        if (
            indptr.ndim != 1
            or indices.ndim != 1
            or indptr.dtype != np.int64
            or indices.dtype != np.int64
            or not indptr.flags.c_contiguous
            or not indices.flags.c_contiguous
        ):
            # Non-conforming buffers take the validating (copying) path.
            n = max(int(indptr.shape[0]) - 1, 0)
            return cls(indptr, indices, tuple(labels) if labels is not None else range(n))
        if indptr.shape[0] < 1 or int(indptr[0]) != 0 or int(indptr[-1]) != indices.shape[0]:
            raise ValueError("indptr must start at 0 and end at len(indices)")
        n = int(indptr.shape[0]) - 1
        label_tuple = tuple(range(n)) if labels is None else tuple(labels)
        if len(label_tuple) != n:
            raise ValueError(f"labels must have length n = {n}, got {len(label_tuple)}")
        ip = indptr.view()
        ip.setflags(write=False)
        ix = indices.view()
        ix.setflags(write=False)
        csr = object.__new__(cls)
        object.__setattr__(csr, "indptr", ip)
        object.__setattr__(csr, "indices", ix)
        object.__setattr__(csr, "labels", label_tuple)
        object.__setattr__(csr, "_label_index", None)
        object.__setattr__(csr, "_rows", None)
        object.__setattr__(csr, "_row_sets", None)
        object.__setattr__(csr, "_edge_arr", None)
        object.__setattr__(csr, "_graph", None)
        object.__setattr__(csr, "_memo", {})
        return csr

    def to_graph(self) -> Graph:
        """Convert back to a new :class:`Graph`.

        Vertex ``i`` is ``labels[i]`` and its neighbours come in row order,
        so ``CSRGraph.from_graph(csr.to_graph()) == csr`` bit for bit.  Edge
        attributes are not carried by the CSR form at all (see
        :meth:`label_graph`).
        """
        labels = self.labels
        g = Graph()
        # Package-internal fast path: rows in any order are a valid Graph,
        # and ``add_edge`` could not reproduce every neighbour order.
        g._adj = {
            labels[i]: dict.fromkeys(map(labels.__getitem__, row))
            for i, row in enumerate(self.neighbor_lists())
        }
        g._n_edges = self.n_edges
        g._version = self.n_vertices + self.n_edges
        return g

    # ------------------------------------------------------------------
    # label <-> index mapping
    # ------------------------------------------------------------------
    @property
    def label_index(self) -> dict:
        """Mapping label → vertex index (built lazily, then cached)."""
        idx = self._label_index
        if idx is None:
            idx = {v: i for i, v in enumerate(self.labels)}
            object.__setattr__(self, "_label_index", idx)
        return idx

    def index_of(self, label: Vertex) -> int:
        """Return the index of ``label``; raises ``KeyError`` when absent."""
        return self.label_index[label]

    def to_indices(self, labels: Iterable[Vertex]) -> list[int]:
        """Map an iterable of labels to vertex indices."""
        idx = self.label_index
        return [idx[v] for v in labels]

    def to_labels(self, indices: Iterable[int]) -> list[Vertex]:
        """Map an iterable of vertex indices back to labels."""
        labels = self.labels
        return [labels[i] for i in indices]

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        return int(self.indices.shape[0]) // 2

    def degrees(self) -> np.ndarray:
        """All vertex degrees as one vectorised ``int64`` array."""
        return np.diff(self.indptr)

    def degree_sum(self) -> int:
        """``sum(deg(v))`` = ``2 |E|`` (the chordality-check work counter)."""
        return int(self.indices.shape[0])

    def max_degree(self) -> int:
        if self.n_vertices == 0:
            return 0
        return int(self.degrees().max())

    def neighbor_lists(self) -> list[list[int]]:
        """All adjacency rows as plain Python ``list[int]`` (kernel-loop form).

        Built once and cached on the frozen graph, so chained kernels (MCS →
        PEO → DSW) share the rows.  Treat the result as read-only.
        """
        rows = self._rows
        if rows is None:
            flat = self.indices.tolist()
            bounds = self.indptr.tolist()
            rows = [flat[bounds[i] : bounds[i + 1]] for i in range(self.n_vertices)]
            object.__setattr__(self, "_rows", rows)
        return rows

    def neighbor_sets(self) -> list[set[int]]:
        """All adjacency rows as ``set[int]`` (O(1) membership; cached, read-only)."""
        sets = self._row_sets
        if sets is None:
            sets = [set(row) for row in self.neighbor_lists()]
            object.__setattr__(self, "_row_sets", sets)
        return sets

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """All undirected edges as two aligned ``int64`` arrays ``(us, vs)``.

        Each edge appears exactly once with ``us[k] < vs[k]``, row-major by
        the smaller endpoint, which mirrors :meth:`Graph.iter_edges`
        determinism on indices.  Built once and cached; treat the arrays as
        read-only.  A CSR built from a simple :class:`Graph` stores every
        undirected edge in both endpoint rows, so the ``u < v`` mask reports
        each edge once; hand-built non-symmetric ``indptr/indices`` break
        this the same way they already break :attr:`n_edges`.
        """
        cached = self._edge_arr
        if cached is None:
            rows = np.repeat(np.arange(self.n_vertices, dtype=np.int64), self.degrees())
            mask = rows < self.indices
            cached = (rows[mask], self.indices[mask])
            cached[0].setflags(write=False)
            cached[1].setflags(write=False)
            object.__setattr__(self, "_edge_arr", cached)
        return cached

    def gather_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenate the neighbour rows of ``rows`` with one fancy index.

        Returns ``(neighbors, row_of)``: the neighbour indices of every listed
        row back to back, and for each entry the position (into ``rows``) of
        the row it came from.  This is the shared gather behind
        :meth:`induced_subgraph` slicing and frontier-expansion BFS loops.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        values, counts = gather_csr_rows(self.indptr, self.indices, rows)
        return values, np.repeat(np.arange(rows.shape[0], dtype=np.int64), counts)

    def induced_subgraph(self, part_indices: Sequence[int]) -> "CSRGraph":
        """Slice the CSR arrays down to the subgraph induced by ``part_indices``.

        ``part_indices`` must be distinct, in-range vertex indices; the result
        renumbers them ``0 .. k-1`` *in the given order* and keeps each row's
        surviving neighbours in their original row order — exactly the CSR that
        ``CSRGraph.from_graph(graph.subgraph(...))`` would describe, but built
        by pure array slicing so per-rank code never rebuilds a :class:`Graph`
        and re-converts.
        """
        sub = np.ascontiguousarray(part_indices, dtype=np.int64)
        n = self.n_vertices
        k = int(sub.shape[0])
        if k and (sub.min() < 0 or sub.max() >= n):
            raise ValueError("part_indices contain out-of-range vertex ids")
        if sorted_unique(sub).shape[0] != k:
            raise ValueError("part_indices contain duplicates")
        new_id = np.full(n, -1, dtype=np.int64)
        new_id[sub] = np.arange(k, dtype=np.int64)
        neighbors, row_of = self.gather_rows(sub)
        if neighbors.size:
            mapped = new_id[neighbors]
            keep = mapped >= 0
            new_counts = np.bincount(row_of[keep], minlength=k)
            new_indices = mapped[keep]
        else:
            new_counts = np.zeros(k, dtype=np.int64)
            new_indices = np.empty(0, dtype=np.int64)
        new_indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(new_counts, out=new_indptr[1:])
        labels = tuple(map(self.labels.__getitem__, sub.tolist()))
        return CSRGraph(new_indptr, new_indices, labels)

    # ------------------------------------------------------------------
    # memo of derived values
    # ------------------------------------------------------------------
    def memo(self, key: tuple, build: Callable[[], T]) -> T:
        """``build()``, computed once per view and ``key``.

        For values derived from this view alone, named by ``key`` (label
        ranks, an ordering by name, a partition by partitioner, ``P`` and
        ordering name).  Every array in a value is made read-only before it
        is published, and the first value published for a key wins, so
        concurrent callers on one view all get the same complete value.
        At most :data:`MEMO_ENTRIES` entries are kept (the oldest goes
        first).
        """
        memo = self._memo
        value = memo.get(key, _MISSING)
        if value is _MISSING:
            value = build()
            _read_only(value)
            with _MEMO_LOCK:
                value = memo.setdefault(key, value)
                while len(memo) > MEMO_ENTRIES:
                    del memo[next(iter(memo))]
        return value

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.labels == other.labels
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __reduce__(self):
        # The frozen ``__setattr__`` defeats pickle's default slot restore.
        return (CSRGraph.from_buffers, (self.indptr, self.indices, self.labels))

"""Core undirected graph data structure used throughout :mod:`repro`.

The paper's algorithms (maximal chordal subgraph extraction, random-walk
sampling, MCODE clustering) all operate on simple undirected graphs whose
vertices carry stable, hashable labels (gene identifiers).  The standard
library / networkx graphs are convenient but the sampling kernels need a
compact adjacency-set representation with

* deterministic iteration order (insertion order of vertices and neighbours),
  because the paper studies the effect of *vertex orderings* on the filter and
  reproducibility requires that iterating a graph twice yields the same order;
* cheap induced-subgraph and edge-subgraph construction (partitions, border
  edge sets, filtered networks);
* O(1) edge membership tests, used heavily by the chordality kernels.

:class:`Graph` implements exactly that.  It intentionally supports only simple
undirected graphs without self loops — parallel edges and self correlations
are meaningless in a gene correlation network.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any, Optional

__all__ = ["Graph", "edge_key"]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


def edge_key(u: Vertex, v: Vertex) -> Edge:
    """Return a canonical (order independent) key for the undirected edge ``{u, v}``.

    Endpoints that support ``<`` are ordered directly.  Mixed-type endpoints
    (e.g. an int and a string in the same graph) raise ``TypeError`` on ``<``,
    so a fallback total order is used instead.

    **Fallback contract.**  Incomparable endpoints are ordered by the tuple
    ``(type module, type qualname, repr)``.  This is canonical —
    ``edge_key(u, v) == edge_key(v, u)`` — whenever unequal endpoints differ
    in type or in ``repr``, which covers every mixed built-in type (the seed
    implementation compared ``repr`` alone, so two unequal vertices of
    *different* types whose reprs matched would silently produce two distinct
    keys for the same edge).  If unequal endpoints agree on all three
    components the edge has no canonical form and ``ValueError`` is raised
    rather than corrupting attribute lookups: give such vertex classes an
    ordering or a distinguishing ``repr``.

    >>> edge_key("b", "a")
    ('a', 'b')
    >>> edge_key(2, 1)
    (1, 2)
    >>> edge_key(1, "x") == edge_key("x", 1)
    True
    """
    if u == v:
        raise ValueError(f"self loop {u!r} has no canonical edge key")
    try:
        swap = v < u  # type: ignore[operator]
    except TypeError:
        ku = (type(u).__module__, type(u).__qualname__, repr(u))
        kv = (type(v).__module__, type(v).__qualname__, repr(v))
        if ku == kv:
            raise ValueError(
                f"vertices {u!r} and {v!r} are unequal but unorderable and "
                "indistinguishable by (type, repr); no canonical edge key exists"
            )
        swap = kv < ku
    return (v, u) if swap else (u, v)


class Graph:
    """A simple undirected graph with insertion-ordered adjacency sets.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs used to initialise the graph.
    vertices:
        Optional iterable of vertices added (in order) before the edges.

    Notes
    -----
    * Vertices are kept in insertion order; ``graph.vertices()`` therefore
      reflects the *natural order* of the network (the order genes appeared in
      the input data), which is one of the orderings studied by the paper.
    * Neighbour dictionaries preserve insertion order as well, so edge
      iteration is deterministic.
    * Edge attributes (e.g. correlation weight) are stored per canonical edge
      key and survive subgraph extraction.
    * Every structural change (a new vertex, a new edge, a removal) bumps a
      version counter; :meth:`repro.graph.csr.CSRGraph.of` keys its cached
      CSR view on it, so a mutated graph never serves a stale view.
      Attribute-only changes keep the version.
    """

    __slots__ = ("_adj", "_edge_attrs", "_n_edges", "_version", "_csr_view")

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        self._adj: dict[Vertex, dict[Vertex, None]] = {}
        self._edge_attrs: dict[Edge, dict[str, Any]] = {}
        self._n_edges = 0
        self._version = 0
        self._csr_view = None
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, v: Vertex) -> None:
        """Add ``v`` to the graph (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = {}
            self._version += 1

    def add_edge(self, u: Vertex, v: Vertex, **attrs: Any) -> None:
        """Add the undirected edge ``{u, v}``; endpoints are created if needed.

        Self loops are rejected.  Re-adding an existing edge merges the
        supplied attributes into the existing attribute dict.
        """
        if u == v:
            raise ValueError(f"self loops are not allowed: {u!r}")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._adj[u][v] = None
            self._adj[v][u] = None
            self._n_edges += 1
            self._version += 1
        if attrs:
            self._edge_attrs.setdefault(edge_key(u, v), {}).update(attrs)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``.  Raises ``KeyError`` if absent."""
        if not self.has_edge(u, v):
            raise KeyError(f"edge ({u!r}, {v!r}) not in graph")
        del self._adj[u][v]
        del self._adj[v][u]
        self._edge_attrs.pop(edge_key(u, v), None)
        self._n_edges -= 1
        self._version += 1

    def remove_vertex(self, v: Vertex) -> None:
        """Remove ``v`` and every incident edge.  Raises ``KeyError`` if absent."""
        if v not in self._adj:
            raise KeyError(f"vertex {v!r} not in graph")
        for nbr in list(self._adj[v]):
            self.remove_edge(v, nbr)
        del self._adj[v]
        self._version += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_vertex(self, v: Vertex) -> bool:
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        nbrs = self._adj.get(u)
        return nbrs is not None and v in nbrs

    def neighbors(self, v: Vertex) -> list[Vertex]:
        """Return the neighbours of ``v`` in insertion order."""
        return list(self._adj[v])

    def neighbor_set(self, v: Vertex) -> set[Vertex]:
        """Return the neighbours of ``v`` as a set (copy)."""
        return set(self._adj[v])

    def degree(self, v: Vertex) -> int:
        return len(self._adj[v])

    def vertices(self) -> list[Vertex]:
        """Return all vertices in insertion order."""
        return list(self._adj)

    def edges(self) -> list[Edge]:
        """Return every edge exactly once, as canonical keys, deterministically."""
        out: list[Edge] = []
        seen: set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    out.append(key)
        return out

    def iter_edges(self) -> Iterator[Edge]:
        """Iterate over canonical edges without materialising a list."""
        seen: set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v in nbrs:
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield key

    def edge_attr(self, u: Vertex, v: Vertex, name: str, default: Any = None) -> Any:
        """Return attribute ``name`` of edge ``{u, v}`` or ``default``."""
        return self._edge_attrs.get(edge_key(u, v), {}).get(name, default)

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    # ------------------------------------------------------------------
    # dunder protocol
    # ------------------------------------------------------------------
    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __eq__(self, other: object) -> bool:
        """Two graphs are equal when they have the same vertex and edge sets."""
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            set(self._adj) == set(other._adj)
            and set(self.iter_edges()) == set(other.iter_edges())
        )

    # Defining ``__eq__`` without ``__hash__`` leaves graphs unhashable, as
    # mutable containers should be.

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return an independent copy preserving vertex order and edge attributes."""
        g = Graph()
        for v in self._adj:
            g.add_vertex(v)
        for u, v in self.iter_edges():
            g.add_edge(u, v)
        g._edge_attrs = {k: dict(v) for k, v in self._edge_attrs.items()}
        return g

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices`` (attributes preserved)."""
        keep = [v for v in vertices if v in self._adj]
        keep_set = set(keep)
        g = Graph()
        for v in keep:
            g.add_vertex(v)
        for v in keep:
            for nbr in self._adj[v]:
                if nbr in keep_set and not g.has_edge(v, nbr):
                    g.add_edge(v, nbr, **self._edge_attrs.get(edge_key(v, nbr), {}))
        return g

    def edge_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """Return the subgraph containing exactly ``edges`` (and their endpoints).

        Edges absent from the graph are ignored so that callers can pass a
        candidate set without filtering first.
        """
        g = Graph()
        for u, v in edges:
            if self.has_edge(u, v):
                g.add_edge(u, v, **self._edge_attrs.get(edge_key(u, v), {}))
        return g

    def spanning_subgraph(self, edges: Iterable[Edge]) -> "Graph":
        """Like :meth:`edge_subgraph` but keeps *all* vertices of the original graph.

        Sampling filters remove edges, never vertices: an isolated gene is still
        part of the network even if every incident correlation was filtered
        out.  This constructor captures that convention.
        """
        g = Graph()
        for v in self._adj:
            g.add_vertex(v)
        for u, v in edges:
            if self.has_edge(u, v):
                g.add_edge(u, v, **self._edge_attrs.get(edge_key(u, v), {}))
        return g

    # ------------------------------------------------------------------
    # interop
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (edge attributes preserved)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._adj)
        for u, v in self.iter_edges():
            g.add_edge(u, v, **self._edge_attrs.get(edge_key(u, v), {}))
        return g

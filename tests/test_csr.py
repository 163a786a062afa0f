"""CSR kernel tests: Graph ↔ CSRGraph round-trips and seed-vs-CSR equivalence.

The chordality hot paths run on :class:`repro.graph.csr.CSRGraph`; the seed
label-level implementations are retained in :mod:`repro.core.chordal` as
``reference_*``.  These tests pin the two contracts the port relies on:

* the CSR view is a faithful, order-preserving image of the ``Graph``;
* the CSR kernels produce the identical results (same MCS ordering, same
  accepted edge set under every ordering in ``graph/ordering.py``, greedy and
  strict) as the seed implementation, on randomized and on mixed-label graphs.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chordal import (
    chordal_subgraph_edge_indices,
    chordal_subgraph_edges,
    is_chordal,
    is_perfect_elimination_ordering,
    maximum_cardinality_search,
    reference_chordal_subgraph_edges,
    reference_maximum_cardinality_search,
)
from repro.graph import CSRGraph, Graph, erdos_renyi_graph
from repro.graph.ordering import ORDERINGS


@st.composite
def random_graphs(draw, max_vertices: int = 14, max_extra_edges: int = 30, mixed_labels: bool = False):
    """Strategy: small random simple graphs (optionally with mixed int/str labels)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if mixed_labels:
        # Alternate int and string labels; they are unorderable against each
        # other, so every canonical edge key exercises the edge_key fallback.
        vertices = [i if i % 2 == 0 else f"g{i}" for i in range(n)]
    else:
        vertices = [f"n{i}" for i in range(n)]
    g = Graph(vertices=vertices)
    if n >= 2:
        n_edges = draw(st.integers(min_value=0, max_value=max_extra_edges))
        pairs = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
        for _ in range(n_edges):
            i, j = draw(pairs)
            if i != j:
                g.add_edge(vertices[i], vertices[j])
    return g


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(random_graphs())
    def test_round_trip_preserves_graph(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        back = csr.to_graph()
        assert back == g
        assert back.vertices() == g.vertices()

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_round_trip_mixed_labels(self, g: Graph):
        back = CSRGraph.from_graph(g).to_graph()
        assert back == g
        assert back.vertices() == g.vertices()

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_structure_counters_match(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        assert csr.n_vertices == g.n_vertices
        assert csr.n_edges == g.n_edges
        assert csr.max_degree() == g.max_degree()
        degs = csr.degrees()
        for i, v in enumerate(g.vertices()):
            assert csr.degree(i) == g.degree(v) == degs[i]
            assert csr.to_labels(csr.neighbors(i)) == g.neighbors(v)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_edge_membership_matches(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        n = g.n_vertices
        verts = g.vertices()
        for i in range(n):
            for j in range(n):
                assert csr.has_edge(i, j) == g.has_edge(verts[i], verts[j])

    def test_has_edges_vectorized(self):
        g = erdos_renyi_graph(20, 0.3, seed=2)
        csr = CSRGraph.from_graph(g)
        verts = g.vertices()
        rng = np.random.default_rng(0)
        us = rng.integers(0, 20, size=50)
        vs = rng.integers(0, 20, size=50)
        expect = np.array([g.has_edge(verts[u], verts[v]) for u, v in zip(us, vs)])
        assert np.array_equal(csr.has_edges(us, vs), expect)

    def test_frozen(self):
        csr = CSRGraph.from_graph(erdos_renyi_graph(5, 0.5, seed=1))
        with pytest.raises(AttributeError):
            csr.labels = ()
        with pytest.raises(ValueError):
            csr.indices[0] = 0

    def test_label_index_round_trip(self):
        g = Graph(vertices=["a", 7, ("t", 1)])
        g.add_edge("a", 7)
        csr = CSRGraph.from_graph(g)
        for i, v in enumerate(g.vertices()):
            assert csr.index_of(v) == i
            assert csr.label_of(i) == v
            assert v in csr
        assert "missing" not in csr

    def test_validation_rejects_malformed_arrays(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([0]), labels=("a",))
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 1]), np.array([5]), labels=("a",))

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(Graph())
        assert csr.n_vertices == 0
        assert csr.n_edges == 0
        assert csr.to_graph() == Graph()


class TestBuffers:
    """``from_buffers``: the zero-copy rebuild every pickled CSR goes through."""

    def test_from_buffers_is_zero_copy_and_equal(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")])
        csr = CSRGraph.from_graph(g)
        rebuilt = CSRGraph.from_buffers(csr.indptr, csr.indices)
        assert np.shares_memory(rebuilt.indptr, csr.indptr)
        assert np.shares_memory(rebuilt.indices, csr.indices)
        assert np.array_equal(rebuilt.indptr, csr.indptr)
        assert np.array_equal(rebuilt.indices, csr.indices)
        assert rebuilt.labels == tuple(range(csr.n_vertices))
        assert not rebuilt.indptr.flags.writeable

    def test_from_buffers_explicit_labels(self):
        g = Graph(edges=[("x", "y")])
        csr = CSRGraph.from_graph(g)
        rebuilt = CSRGraph.from_buffers(csr.indptr, csr.indices, labels=csr.labels)
        assert rebuilt == csr

    def test_from_buffers_rejects_inconsistent_buffers(self):
        with pytest.raises(ValueError):
            CSRGraph.from_buffers(
                np.asarray([1, 2], dtype=np.int64), np.empty(0, dtype=np.int64)
            )
        with pytest.raises(ValueError):
            CSRGraph.from_buffers(
                np.asarray([0, 3], dtype=np.int64), np.zeros(1, dtype=np.int64)
            )
        with pytest.raises(ValueError):
            CSRGraph.from_buffers(
                np.asarray([0, 1, 1], dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                labels=("only-one-label",),
            )

    def test_empty_graph_round_trip(self):
        csr = CSRGraph.from_graph(Graph())
        rebuilt = CSRGraph.from_buffers(csr.indptr, csr.indices)
        assert rebuilt.n_vertices == 0
        assert rebuilt.n_edges == 0

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(edges=[("a", "b"), ("b", "c"), ("c", "a"), (0, "a"), (1, 2)]),
            Graph(vertices=["lonely", 7]),
            Graph(),
        ],
        ids=["mixed-labels", "no-edges", "empty"],
    )
    def test_pickle_round_trip(self, graph):
        # Process-backend payloads carry CSR graphs pickled: __reduce__
        # rebuilds them through from_buffers.
        csr = CSRGraph.from_graph(graph)
        back = pickle.loads(pickle.dumps(csr))
        assert back == csr
        assert back.labels == csr.labels
        assert np.array_equal(back.indptr, csr.indptr)
        assert np.array_equal(back.indices, csr.indices)
        assert back.indptr.dtype == back.indices.dtype == np.int64

    def test_corpus_pickle_round_trip(self, corpus_graph):
        csr = CSRGraph.from_graph(corpus_graph)
        back = pickle.loads(pickle.dumps(csr))
        assert back == csr and back.labels == csr.labels
        assert back.to_graph() == corpus_graph

    def test_corpus_from_buffers_shares_memory(self, corpus_graph):
        csr = CSRGraph.from_graph(corpus_graph)
        rebuilt = CSRGraph.from_buffers(csr.indptr, csr.indices, csr.labels)
        assert rebuilt == csr
        assert np.shares_memory(rebuilt.indices, csr.indices) or csr.indices.size == 0

    def test_corpus_pickled_rank_subgraph_runs_the_same_kernel(self, corpus_graph):
        # A nocomm rank receives the pickled induced subgraph of its part:
        # the kernel must accept exactly the edges it accepts in the parent.
        csr = CSRGraph.from_graph(corpus_graph)
        part = np.arange(0, csr.n_vertices, 2, dtype=np.int64)
        sub = csr.induced_subgraph(part)
        back = pickle.loads(pickle.dumps(sub))
        assert back == sub
        assert chordal_subgraph_edge_indices(back) == chordal_subgraph_edge_indices(sub)


def _all_orders(g: Graph) -> list:
    """Every ordering of ``graph/ordering.py`` plus reverse and a seeded shuffle."""
    orders = [None]
    if g.n_vertices:
        orders.extend(fn(g) for fn in ORDERINGS.values())
        verts = g.vertices()
        orders.append(verts[::-1])
        orders.append([verts[i] for i in np.random.default_rng(13).permutation(len(verts))])
    return orders


class TestSeedEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_extraction_matches_reference_all_orderings(self, g: Graph):
        for order in _all_orders(g):
            for strict in (False, True):
                new = chordal_subgraph_edges(g, order=order, strict_order=strict)
                ref = reference_chordal_subgraph_edges(g, order=order, strict_order=strict)
                assert set(new) == set(ref)
                assert len(new) == len(set(new))  # no duplicate edges

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_extraction_matches_reference_mixed_labels(self, g: Graph):
        new = chordal_subgraph_edges(g)
        ref = reference_chordal_subgraph_edges(g)
        assert set(new) == set(ref)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_mcs_matches_reference(self, g: Graph):
        assert maximum_cardinality_search(g) == reference_maximum_cardinality_search(g)
        for v in list(g.vertices())[:3]:
            assert maximum_cardinality_search(g, start=v) == reference_maximum_cardinality_search(
                g, start=v
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_extraction_matches_reference_larger_graphs(self, seed):
        g = erdos_renyi_graph(60, 0.12, seed=seed)
        for order in _all_orders(g):
            new = chordal_subgraph_edges(g, order=order)
            ref = reference_chordal_subgraph_edges(g, order=order)
            assert set(new) == set(ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_explicit_start_matches_reference(self, seed):
        g = erdos_renyi_graph(25, 0.2, seed=seed)
        start = g.vertices()[7]
        new = chordal_subgraph_edges(g, start=start)
        ref = reference_chordal_subgraph_edges(g, start=start)
        assert set(new) == set(ref)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_peo_and_chordality_consistency(self, g: Graph):
        order = maximum_cardinality_search(g)
        if order:
            assert is_perfect_elimination_ordering(g, list(reversed(order))) == is_chordal(g)

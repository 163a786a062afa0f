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
    is_chordal,
    is_peo_indices,
    maximum_cardinality_search,
    mcs_order_indices,
    reference_chordal_subgraph_edges,
    reference_maximum_cardinality_search,
)
from repro.graph import CSRGraph, Graph, edge_key, erdos_renyi_graph
from repro.graph.csr import sorted_unique
from repro.graph.ordering import ORDERING_INDEX_FNS


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
        degs = csr.degrees()
        assert csr.max_degree() == max(map(g.degree, g.vertices()), default=0)
        rows = csr.neighbor_lists()
        for i, v in enumerate(g.vertices()):
            assert g.degree(v) == degs[i]
            assert csr.to_labels(rows[i]) == g.neighbors(v)

    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_edge_membership_matches(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        n = g.n_vertices
        verts = g.vertices()
        rows = csr.neighbor_sets()
        for i in range(n):
            for j in range(n):
                assert (j in rows[i]) == g.has_edge(verts[i], verts[j])

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
            assert csr.labels[i] == v
        with pytest.raises(KeyError):
            csr.index_of("missing")

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


def kernel_edges(g: Graph, order=None, strict_order: bool = False, start=None) -> list:
    """The DSW kernel's accepted edges on ``g``'s CSR view, as label pairs."""
    csr = CSRGraph.from_graph(g)
    priority = None
    if order is not None:
        priority = [0] * csr.n_vertices
        for rank, i in enumerate(csr.to_indices(order)):
            priority[i] = rank
    start_idx = None if start is None else csr.index_of(start)
    pairs = chordal_subgraph_edge_indices(
        csr, priority=priority, strict_order=strict_order, start=start_idx
    )
    return [edge_key(csr.labels[i], csr.labels[j]) for i, j in pairs]


def _all_orders(g: Graph) -> list:
    """Every ordering of ``graph/ordering.py`` plus reverse and a seeded shuffle."""
    orders = [None]
    if g.n_vertices:
        csr = CSRGraph.from_graph(g)
        orders.extend(csr.to_labels(fn(csr)) for fn in ORDERING_INDEX_FNS.values())
        verts = g.vertices()
        orders.append(verts[::-1])
        orders.append([verts[i] for i in np.random.default_rng(13).permutation(len(verts))])
    return orders


class TestSeedEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_kernel_matches_reference_chordal_subgraph_edges_all_orderings(self, g: Graph):
        for order in _all_orders(g):
            for strict in (False, True):
                new = kernel_edges(g, order=order, strict_order=strict)
                ref = reference_chordal_subgraph_edges(g, order=order, strict_order=strict)
                assert set(new) == set(ref)
                assert len(new) == len(set(new))  # no duplicate edges

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_kernel_matches_reference_chordal_subgraph_edges_mixed_labels(self, g: Graph):
        new = kernel_edges(g)
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
    def test_kernel_matches_reference_chordal_subgraph_edges_larger_graphs(self, seed):
        g = erdos_renyi_graph(60, 0.12, seed=seed)
        for order in _all_orders(g):
            new = kernel_edges(g, order=order)
            ref = reference_chordal_subgraph_edges(g, order=order)
            assert set(new) == set(ref)

    @pytest.mark.parametrize("seed", range(3))
    def test_explicit_start_matches_reference_chordal_subgraph_edges(self, seed):
        g = erdos_renyi_graph(25, 0.2, seed=seed)
        start = g.vertices()[7]
        new = kernel_edges(g, start=start)
        ref = reference_chordal_subgraph_edges(g, start=start)
        assert set(new) == set(ref)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_peo_and_chordality_consistency(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        if csr.n_vertices:
            assert is_peo_indices(csr, mcs_order_indices(csr)[::-1]) == is_chordal(g)


class TestSortedUnique:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=60))
    def test_equals_np_unique(self, values):
        arr = np.array(values, dtype=np.int64)
        got = sorted_unique(arr)
        want = np.unique(arr)
        assert got.dtype == want.dtype == np.int64
        assert got.tolist() == want.tolist()

    @pytest.mark.parametrize(
        "values", [[], [7], [-3], [-5, -5, -1, 0, -5, 2**40, -(2**40)]], ids=repr
    )
    def test_edge_cases(self, values):
        arr = np.array(values, dtype=np.int64)
        assert sorted_unique(arr).tolist() == np.unique(arr).tolist()

    def test_input_left_unchanged(self):
        arr = np.array([3, 1, 3, -2], dtype=np.int64)
        sorted_unique(arr)
        assert arr.tolist() == [3, 1, 3, -2]

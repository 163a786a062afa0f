"""Unit tests for the vertex orderings (natural, degree-based, RCM)."""

from __future__ import annotations

import hashlib
from collections import Counter

import networkx as nx
import pytest

import repro.graph.ordering as ordering_module
from repro.expression import make_study
from repro.graph import (
    CSRGraph,
    Graph,
    get_ordering,
    high_degree_order,
    low_degree_order,
    natural_order,
    ordering_indices,
    ordering_names,
    path_graph,
    rcm_order,
    rcm_order_indices,
    star_graph,
)
from repro.graph.ordering import (
    reference_high_degree_order,
    reference_low_degree_order,
    reference_rcm_order,
)

REFERENCE_ORDERINGS = {
    "natural": lambda g: g.vertices(),
    "high_degree": reference_high_degree_order,
    "low_degree": reference_low_degree_order,
    "rcm": reference_rcm_order,
}


#: sha256 of the ``rcm`` permutation (little-endian ``int64``) of each study
#: network, pinning the kernel on hundreds of components at once.
#: The network thresholds BLAS-computed correlations, so the digest assumes
#: the OpenBLAS that numpy's wheels bundle, as ``STUDY_DIGESTS`` does.
RCM_DIGESTS = {
    "CRE@0.15": "d9f5b32521f26773e3424dbacd3a011a9b139b3dee9afb71e7324a826c347d78",
}


@pytest.fixture
def sample_graph() -> Graph:
    g = Graph(edges=[("hub", "a"), ("hub", "b"), ("hub", "c"), ("a", "b"), ("d", "e")])
    g.add_vertex("isolated")
    return g


class TestBasicOrderings:
    def test_every_ordering_is_a_permutation(self, sample_graph):
        for name in ordering_names():
            order = get_ordering(name)(sample_graph)
            assert Counter(order) == Counter(sample_graph.vertices()), name

    def test_natural_order_matches_insertion(self, sample_graph):
        assert natural_order(sample_graph) == sample_graph.vertices()

    def test_high_degree_puts_hub_first(self, sample_graph):
        assert high_degree_order(sample_graph)[0] == "hub"

    def test_low_degree_puts_isolated_first(self, sample_graph):
        assert low_degree_order(sample_graph)[0] == "isolated"

    def test_high_and_low_are_reversed_degree_ranks(self, sample_graph):
        high = high_degree_order(sample_graph)
        low = low_degree_order(sample_graph)
        deg_high = [sample_graph.degree(v) for v in high]
        deg_low = [sample_graph.degree(v) for v in low]
        assert deg_high == sorted(deg_high, reverse=True)
        assert deg_low == sorted(deg_low)


class TestRCM:
    def test_rcm_is_permutation(self, sample_graph):
        assert Counter(rcm_order(sample_graph)) == Counter(sample_graph.vertices())

    def test_rcm_reduces_bandwidth_on_path(self):
        # On a path the RCM ordering should number vertices consecutively,
        # i.e. the maximum index difference across an edge (bandwidth) is 1.
        g = path_graph(12)
        order = rcm_order(g)
        pos = {v: i for i, v in enumerate(order)}
        bandwidth = max(abs(pos[u] - pos[v]) for u, v in g.iter_edges())
        assert bandwidth == 1

    def test_rcm_bandwidth_not_worse_than_natural_on_shuffled_path(self):
        import numpy as np

        g = path_graph(30)
        rng = np.random.default_rng(0)
        shuffled = [g.vertices()[i] for i in rng.permutation(30)]
        g2 = Graph(edges=g.iter_edges(), vertices=shuffled)

        def bandwidth(graph, order):
            pos = {v: i for i, v in enumerate(order)}
            return max(abs(pos[u] - pos[v]) for u, v in graph.iter_edges())

        assert bandwidth(g2, rcm_order(g2)) <= bandwidth(g2, natural_order(g2))

    def test_rcm_handles_disconnected_graphs(self):
        g = Graph(edges=[("a", "b"), ("c", "d")])
        g.add_vertex("iso")
        assert Counter(rcm_order(g)) == Counter(g.vertices())

    def test_rcm_star(self):
        g = star_graph(5)
        order = rcm_order(g)
        assert set(order) == set(g.vertices())

    def test_rcm_dispatch_is_independent_of_component_count(self, monkeypatch):
        # 2,000 triangles plus a 200-vertex path: a per-component search
        # gathers rows thousands of times, the lockstep kernel once per BFS
        # level of its deepest component.
        g = Graph()
        for t in range(2000):
            g.add_edges([(f"t{t}a", f"t{t}b"), (f"t{t}b", f"t{t}c"), (f"t{t}c", f"t{t}a")])
        g.add_edges((f"p{i}", f"p{i + 1}") for i in range(199))
        calls = 0
        gather = ordering_module.gather_csr_rows

        def counting_gather(*args):
            nonlocal calls
            calls += 1
            return gather(*args)

        monkeypatch.setattr(ordering_module, "gather_csr_rows", counting_gather)
        csr = CSRGraph.from_graph(g)
        perm = rcm_order_indices(csr)
        assert calls < 1000
        assert csr.to_labels(perm) == reference_rcm_order(g)

    @pytest.mark.parametrize("key", sorted(RCM_DIGESTS))
    def test_rcm_permutation_digest(self, key):
        name, scale = key.split("@")
        csr = CSRGraph.of(make_study(name, scale=float(scale)).network())
        perm = ordering_indices("rcm", csr)
        assert hashlib.sha256(perm.astype("<i8").tobytes()).hexdigest() == RCM_DIGESTS[key]


class TestCorpus:
    def test_index_orderings_match_reference(self, corpus_graph):
        csr = CSRGraph.from_graph(corpus_graph)
        for name, reference in REFERENCE_ORDERINGS.items():
            got = csr.to_labels(ordering_indices(name, csr).tolist())
            assert got == reference(corpus_graph), name
            assert get_ordering(name)(corpus_graph) == got, name

    def test_ordering_structure(self, corpus_graph):
        deg = corpus_graph.degree
        high = [deg(v) for v in high_degree_order(corpus_graph)]
        low = [deg(v) for v in low_degree_order(corpus_graph)]
        assert high == sorted(high, reverse=True)
        assert low == sorted(low)
        # RCM numbers one component at a time: each occupies a contiguous run.
        pos = {v: i for i, v in enumerate(rcm_order(corpus_graph))}
        for comp in nx.connected_components(corpus_graph.to_networkx()):
            span = [pos[v] for v in comp]
            assert max(span) - min(span) == len(span) - 1


class TestRegistry:
    def test_get_ordering_accepts_aliases(self):
        assert get_ordering("HD") is high_degree_order
        assert get_ordering("no") is natural_order
        assert get_ordering("LD") is low_degree_order

    def test_get_ordering_unknown_raises(self):
        with pytest.raises(KeyError):
            get_ordering("bogus")

    def test_ordering_names(self):
        assert ordering_names() == ["natural", "high_degree", "low_degree", "rcm"]

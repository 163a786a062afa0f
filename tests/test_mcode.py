"""Unit tests for the MCODE clustering implementation."""

from __future__ import annotations

import pytest

from repro.clustering import MCODEParams, highest_k_core, k_core, mcode_clusters, mcode_vertex_weights
from repro.clustering.mcode import (
    mcode_score,
    reference_k_core,
    reference_mcode_clusters,
    reference_mcode_vertex_weights,
)
from repro.graph import Graph, complete_graph, cycle_graph, erdos_renyi_graph, path_graph


def two_cliques_with_bridge() -> Graph:
    """Two K6 cliques connected by a 3-vertex path of bridge vertices."""
    g = Graph()
    a = [f"a{i}" for i in range(6)]
    b = [f"b{i}" for i in range(6)]
    for group in (a, b):
        for i in range(6):
            for j in range(i + 1, 6):
                g.add_edge(group[i], group[j])
    g.add_edge(a[0], "bridge1")
    g.add_edge("bridge1", "bridge2")
    g.add_edge("bridge2", b[0])
    return g


class TestKCore:
    def test_k_core_of_clique(self):
        g = complete_graph(5)
        assert k_core(g, 4).n_vertices == 5
        assert k_core(g, 5).n_vertices == 0

    def test_k_core_strips_pendants(self):
        g = complete_graph(4)
        g.add_edge("v0", "pendant")
        core = k_core(g, 2)
        assert not core.has_vertex("pendant")
        assert core.n_vertices == 4

    def test_highest_k_core(self):
        g = complete_graph(6)
        g.add_edge("v0", "tail")
        k, core = highest_k_core(g)
        assert k == 5
        assert core.n_vertices == 6

    def test_highest_k_core_empty_graph(self):
        k, core = highest_k_core(Graph())
        assert k == 0
        assert core.n_vertices == 0


class TestVertexWeights:
    def test_clique_vertices_heavily_weighted(self):
        g = complete_graph(6)
        weights = mcode_vertex_weights(g)
        # neighbourhood of each vertex is K5 => core number 4, density 1 => weight 4
        assert all(w == pytest.approx(4.0) for w in weights.values())

    def test_path_vertices_weight_zero(self):
        weights = mcode_vertex_weights(path_graph(5))
        assert all(w == 0.0 for w in weights.values())

    def test_clique_members_outweigh_bridges(self):
        g = two_cliques_with_bridge()
        weights = mcode_vertex_weights(g)
        assert weights["a1"] > weights["bridge1"]


class TestClusters:
    def test_finds_both_planted_cliques(self):
        g = two_cliques_with_bridge()
        clusters = mcode_clusters(g)
        assert len(clusters) == 2
        member_sets = [c.node_set() for c in clusters]
        assert {f"a{i}" for i in range(6)} in member_sets
        assert {f"b{i}" for i in range(6)} in member_sets

    def test_bridge_vertices_excluded(self):
        g = two_cliques_with_bridge()
        clusters = mcode_clusters(g)
        for c in clusters:
            assert "bridge1" not in c
            assert "bridge2" not in c

    def test_scores_and_ids_ordered(self):
        g = two_cliques_with_bridge()
        clusters = mcode_clusters(g)
        assert [c.cluster_id for c in clusters] == [0, 1]
        assert clusters[0].score >= clusters[1].score
        for c in clusters:
            assert c.score == pytest.approx(mcode_score(c.subgraph))

    def test_no_clusters_in_sparse_graph(self):
        assert mcode_clusters(path_graph(10)) == []
        assert mcode_clusters(cycle_graph(8)) == []

    def test_min_score_threshold_filters_triangles(self):
        # A K3 has score 3.0 exactly under density*size; K3-only graphs are kept
        # only if the threshold allows them.
        g = complete_graph(3)
        default = mcode_clusters(g)
        lenient = mcode_clusters(g, MCODEParams(min_score=2.0))
        assert len(lenient) >= len(default)

    def test_min_size_respected(self):
        g = complete_graph(4)
        clusters = mcode_clusters(g, MCODEParams(min_size=5, min_score=1.0))
        assert clusters == []

    def test_haircut_removes_stragglers(self):
        g = complete_graph(5)
        g.add_edge("v0", "straggler")
        clusters = mcode_clusters(g, MCODEParams(min_score=2.0))
        assert clusters
        assert all("straggler" not in c for c in clusters)

    def test_fluff_can_only_grow_members(self):
        g = two_cliques_with_bridge()
        plain = mcode_clusters(g)
        fluffed = mcode_clusters(g, MCODEParams(fluff=True, fluff_density_threshold=0.1))
        assert sum(c.n_vertices for c in fluffed) >= sum(c.n_vertices for c in plain)

    def test_source_label_propagates(self):
        clusters = mcode_clusters(complete_graph(5), source="unit-test")
        assert clusters[0].source == "unit-test"

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            MCODEParams(vertex_weight_percentage=2.0)
        with pytest.raises(ValueError):
            MCODEParams(min_size=0)

    def test_cluster_helpers(self):
        clusters = mcode_clusters(complete_graph(5))
        c = clusters[0]
        assert c.n_vertices == 5
        assert c.n_edges == 10
        assert c.density == pytest.approx(1.0)
        assert len(c.edge_set()) == 10
        assert len(c) == 5


class TestReferenceEquivalence:
    """The CSR MCODE kernels pinned against the retained seed ``reference_*`` bodies."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernels_match_reference(self, seed):
        g = erdos_renyi_graph(60, 0.12, seed=seed)
        assert mcode_vertex_weights(g) == reference_mcode_vertex_weights(g)
        for params in (MCODEParams(), MCODEParams(fluff=True, min_score=1.0, min_size=2)):
            got = mcode_clusters(g, params)
            expected = reference_mcode_clusters(g, params)
            assert [c.members for c in got] == [c.members for c in expected]
            assert [c.score for c in got] == [c.score for c in expected]
        for k in (2, 3):
            core, ref_core = k_core(g, k), reference_k_core(g, k)
            assert core.vertices() == ref_core.vertices()
            assert sorted(core.edges()) == sorted(ref_core.edges())

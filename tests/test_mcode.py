"""Unit tests for the MCODE clustering implementation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import mcode_clusters
from repro.clustering.mcode import (
    _peel_subset,
    mcode_score,
    mcode_vertex_weights_indices,
    reference_highest_k_core,
    reference_k_core,
    reference_mcode_clusters,
    reference_mcode_vertex_weights,
)
from repro.graph import (
    CSRGraph,
    Graph,
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    star_graph,
)


def vertex_weights(g: Graph) -> dict:
    """The stage-1 kernel's weights on ``g``'s CSR view, keyed by label."""
    csr = CSRGraph.from_graph(g)
    return dict(zip(csr.labels, mcode_vertex_weights_indices(csr).tolist()))


def peeled_core(g: Graph, k: int) -> Graph:
    """The ``k``-core the peeling kernel leaves, as a label subgraph of ``g``."""
    csr = CSRGraph.from_graph(g)
    alive = _peel_subset(csr.neighbor_lists(), range(csr.n_vertices), k)
    return g.subgraph([v for i, v in enumerate(csr.labels) if i in alive])


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
        assert peeled_core(g, 4).n_vertices == 5
        assert peeled_core(g, 5).n_vertices == 0

    def test_k_core_strips_pendants(self):
        g = complete_graph(4)
        g.add_edge("v0", "pendant")
        core = peeled_core(g, 2)
        assert not core.has_vertex("pendant")
        assert core.n_vertices == 4

    def test_highest_k_core(self):
        g = complete_graph(6)
        g.add_edge("v0", "tail")
        k, core = reference_highest_k_core(g)
        assert k == 5
        assert core.n_vertices == 6
        assert peeled_core(g, k) == core
        assert peeled_core(g, k + 1).n_vertices == 0

    def test_highest_k_core_empty_graph(self):
        k, core = reference_highest_k_core(Graph())
        assert k == 0
        assert core.n_vertices == 0


class TestVertexWeights:
    def test_clique_vertices_heavily_weighted(self):
        g = complete_graph(6)
        weights = vertex_weights(g)
        # neighbourhood of each vertex is K5 => core number 4, density 1 => weight 4
        assert all(w == pytest.approx(4.0) for w in weights.values())

    def test_path_vertices_weight_zero(self):
        weights = vertex_weights(path_graph(5))
        assert all(w == 0.0 for w in weights.values())

    def test_clique_members_outweigh_bridges(self):
        g = two_cliques_with_bridge()
        weights = vertex_weights(g)
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
            assert "bridge1" not in c.members
            assert "bridge2" not in c.members

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
        lenient = mcode_clusters(g, 2.0)
        assert len(lenient) >= len(default)

    def test_haircut_removes_stragglers(self):
        g = complete_graph(5)
        g.add_edge("v0", "straggler")
        clusters = mcode_clusters(g, 2.0)
        assert clusters
        assert all("straggler" not in c.members for c in clusters)

    def test_builds_no_neighbour_sets(self):
        """Peeling and edge counts read the CSR's adjacency lists against the
        member set; no per-vertex set outlives the run on the view."""
        csr = CSRGraph.from_graph(two_cliques_with_bridge())
        assert len(mcode_clusters(csr)) == 2
        assert csr._row_sets is None

    def test_source_label_propagates(self):
        clusters = mcode_clusters(complete_graph(5), source="unit-test")
        assert clusters[0].source == "unit-test"

    def test_cluster_helpers(self):
        clusters = mcode_clusters(complete_graph(5))
        c = clusters[0]
        assert c.n_vertices == 5
        assert c.n_edges == 10
        assert len(c.edge_set()) == 10


class TestReferenceEquivalence:
    """The CSR MCODE kernels pinned against the retained seed ``reference_*`` bodies."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kernels_match_reference(self, seed):
        g = erdos_renyi_graph(60, 0.12, seed=seed)
        assert vertex_weights(g) == reference_mcode_vertex_weights(g)
        for min_score in (3.0, 2.0):
            got = mcode_clusters(g, min_score)
            expected = reference_mcode_clusters(g, min_score)
            assert [c.members for c in got] == [c.members for c in expected]
            assert [c.score for c in got] == [c.score for c in expected]
        for k in (2, 3):
            core, ref_core = peeled_core(g, k), reference_k_core(g, k)
            assert core.vertices() == ref_core.vertices()
            assert sorted(core.edges()) == sorted(ref_core.edges())


def weight_bits(graph: Graph) -> tuple[list[int], list[int]]:
    """Stage-1 weights of the batched kernel and of the seed, as float64 bit patterns."""
    csr = CSRGraph.from_graph(graph)
    got = mcode_vertex_weights_indices(csr)
    reference = reference_mcode_vertex_weights(graph)
    expected = np.array([reference[v] for v in csr.labels], dtype=np.float64)
    return got.view(np.int64).tolist(), expected.view(np.int64).tolist()


def edgeless_graph(n: int) -> Graph:
    g = Graph()
    for i in range(n):
        g.add_vertex(i)
    return g


def cliques_sharing_a_vertex() -> Graph:
    """A K5 and a K4 glued at vertex ``hub``."""
    g = Graph()
    for group in (["hub", "a1", "a2", "a3", "a4"], ["hub", "b1", "b2", "b3"]):
        for i, u in enumerate(group):
            for w in group[i + 1 :]:
                g.add_edge(u, w)
    return g


class TestBatchedStageOne:
    """Every neighbourhood peeled at once, pinned bitwise to the per-vertex seed."""

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(),
            edgeless_graph(7),
            star_graph(6),
            complete_graph(3),
            complete_graph(5),
            cliques_sharing_a_vertex(),
            two_cliques_with_bridge(),
            path_graph(6),
            cycle_graph(5),
        ],
        ids=["empty", "edgeless", "star", "triangle", "K5", "cliques-sharing-vertex",
             "cliques-with-bridge", "path", "cycle"],
    )
    def test_small_graphs(self, graph):
        got, expected = weight_bits(graph)
        assert got == expected

    def test_empty_graph_gives_empty_array(self):
        weights = mcode_vertex_weights_indices(CSRGraph.from_graph(Graph()))
        assert weights.dtype == np.float64 and weights.shape == (0,)

    def test_shared_vertex_weight(self):
        # N(hub) is a K4 plus a K3 with no edge between them: top core is the K4.
        weights = vertex_weights(cliques_sharing_a_vertex())
        assert weights["hub"] == 3.0 * 1.0

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_random_graphs(self, seed):
        n = 10 + 7 * seed
        for graph in (
            erdos_renyi_graph(n, 0.08 + 0.04 * (seed % 5), seed=seed),
            barabasi_albert_graph(n, 1 + seed % 4, seed=seed),
        ):
            got, expected = weight_bits(graph)
            assert got == expected

    def test_cre_original_and_filtered_networks(self):
        from repro.core import sequential_chordal_filter
        from repro.expression import make_study

        original = make_study("CRE", scale=0.15).network()
        filtered = sequential_chordal_filter(original).graph
        for graph in (original, filtered):
            got, expected = weight_bits(graph)
            assert got == expected
            assert any(got)

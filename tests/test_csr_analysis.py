"""Property tests pinning the index-native analysis stage to the label seed.

PR 3 moved the analysis half of the workflow — correlation-network
construction, MCODE clustering, k-cores, cluster overlap matching and the
ontology distance engine — onto the CSR substrate.  The seed label-level
implementations are retained (``reference_mcode_clusters``,
``reference_k_core``, ``reference_match_clusters``,
``GODag.reference_term_distance``, …); this suite asserts the index kernels
reproduce them exactly — cluster member lists, scores, ordering, matching
choices and distances — the same discipline ``tests/test_csr.py`` and
``tests/test_index_pipeline.py`` apply to the chordality kernels and the
sampler pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    Cluster,
    MCODEParams,
    highest_k_core,
    k_core,
    match_and_lost_clusters,
    match_clusters,
    lost_clusters,
    mcode_clusters,
    mcode_vertex_weights,
    node_overlap,
    edge_overlap,
    jaccard_node_overlap,
    reference_highest_k_core,
    reference_k_core,
    reference_lost_clusters,
    reference_match_clusters,
    reference_mcode_clusters,
    reference_mcode_vertex_weights,
)
from repro.expression import (
    build_correlation_csr,
    build_correlation_network,
    make_study,
)
from repro.graph import (
    CSRGraph,
    Graph,
    barabasi_albert_graph,
    complete_graph,
    correlation_like_graph,
    cycle_graph,
    erdos_renyi_graph,
    path_graph,
    planted_partition_graph,
    star_graph,
)
from repro.ontology.generator import make_study_ontology


@st.composite
def random_graphs(draw, max_vertices: int = 16, max_extra_edges: int = 36, mixed_labels: bool = False):
    """Strategy: small random simple graphs (optionally with mixed int/str labels)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if mixed_labels:
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


MCODE_PARAM_GRID = [
    MCODEParams(),
    MCODEParams(min_score=0.5, min_size=2),
    MCODEParams(fluff=True, fluff_density_threshold=0.1, min_score=1.0),
    MCODEParams(haircut=False, require_two_core=False, min_score=1.0, min_size=2),
    MCODEParams(haircut=False, require_two_core=True, min_score=0.0, min_size=1),
    MCODEParams(vertex_weight_percentage=0.0, min_score=1.0),
    MCODEParams(fluff=True, haircut=False, require_two_core=False, min_score=0.0, min_size=1),
]

GENERATOR_GRAPHS = [
    erdos_renyi_graph(60, 0.12, seed=1),
    erdos_renyi_graph(80, 0.06, seed=2),
    barabasi_albert_graph(60, 3, seed=3),
    planted_partition_graph([10, 10, 10, 10], 0.8, 0.05, seed=4),
    correlation_like_graph(n_modules=4, module_size=8, n_background=80, seed=5),
    complete_graph(8),
    path_graph(10),
    cycle_graph(9),
    star_graph(7),
]


def assert_clusters_identical(ref: list[Cluster], new: list[Cluster]) -> None:
    assert len(ref) == len(new)
    for r, c in zip(ref, new):
        assert r.members == c.members          # exact member list incl. order
        assert r.score == c.score              # bit-identical float
        assert r.seed == c.seed
        assert r.cluster_id == c.cluster_id
        assert r.subgraph == c.subgraph
        assert r.subgraph.vertices() == c.subgraph.vertices()


class TestCSRKCore:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs(), st.integers(min_value=0, max_value=4))
    def test_k_core_matches_reference(self, g: Graph, k: int):
        ref = reference_k_core(g, k)
        new = k_core(g, k)
        assert ref == new
        assert ref.vertices() == new.vertices()

    @settings(max_examples=40, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_highest_k_core_matches_reference(self, g: Graph):
        k_ref, core_ref = reference_highest_k_core(g)
        k_new, core_new = highest_k_core(g)
        assert k_ref == k_new
        assert core_ref == core_new
        assert core_ref.vertices() == core_new.vertices()

    def test_k_core_keeps_edge_attributes(self):
        g = complete_graph(4)
        g.set_edge_attr("v0", "v1", "rho", 0.97)
        core = k_core(g, 2)
        assert core.edge_attr("v0", "v1", "rho") == 0.97


class TestCSRMCODE:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_vertex_weights_match_reference(self, g: Graph):
        assert reference_mcode_vertex_weights(g) == mcode_vertex_weights(g)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_vertex_weights_match_reference_mixed_labels(self, g: Graph):
        assert reference_mcode_vertex_weights(g) == mcode_vertex_weights(g)

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(), st.sampled_from(MCODE_PARAM_GRID))
    def test_clusters_match_reference(self, g: Graph, params: MCODEParams):
        assert_clusters_identical(
            reference_mcode_clusters(g, params), mcode_clusters(g, params)
        )

    @settings(max_examples=15, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_clusters_match_reference_mixed_labels(self, g: Graph):
        assert_clusters_identical(reference_mcode_clusters(g), mcode_clusters(g))

    @pytest.mark.parametrize("gi", range(len(GENERATOR_GRAPHS)))
    def test_clusters_match_reference_generators(self, gi: int):
        g = GENERATOR_GRAPHS[gi]
        assert reference_mcode_vertex_weights(g) == mcode_vertex_weights(g)
        for params in MCODE_PARAM_GRID[:4]:
            assert_clusters_identical(
                reference_mcode_clusters(g, params), mcode_clusters(g, params)
            )

    def test_prebuilt_csr_shortcut(self):
        g = correlation_like_graph(n_modules=3, module_size=8, n_background=40, seed=9)
        csr = CSRGraph.from_graph(g)
        assert_clusters_identical(mcode_clusters(g), mcode_clusters(csr))


def _random_clusters(g: Graph, rng: np.random.Generator, count: int) -> list[Cluster]:
    verts = g.vertices()
    out = []
    for i in range(count):
        k = int(rng.integers(0, min(8, len(verts)) + 1))
        members = [verts[j] for j in rng.choice(len(verts), size=k, replace=False)]
        out.append(
            Cluster(cluster_id=i, members=members, subgraph=g.subgraph(members), score=1.0)
        )
    return out


class TestCSRMatching:
    @pytest.mark.parametrize("seed", range(8))
    def test_match_clusters_matches_reference(self, seed: int):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(25, 0.2, seed=seed)
        original = _random_clusters(g, rng, int(rng.integers(0, 7)))
        filtered = _random_clusters(g, rng, int(rng.integers(0, 7)))
        for key in (node_overlap, edge_overlap):
            ref = reference_match_clusters(original, filtered, key)
            new = match_clusters(original, filtered, key)
            assert len(ref) == len(new)
            for r, m in zip(ref, new):
                assert r.original is m.original
                assert r.node_overlap == m.node_overlap
                assert r.edge_overlap == m.edge_overlap
            assert reference_lost_clusters(original, filtered, key) == lost_clusters(
                original, filtered, key
            )
            combined_matches, combined_lost = match_and_lost_clusters(
                original, filtered, key
            )
            assert [(m.original, m.node_overlap, m.edge_overlap) for m in combined_matches] == [
                (m.original, m.node_overlap, m.edge_overlap) for m in new
            ]
            assert combined_lost == reference_lost_clusters(original, filtered, key)

    def test_generic_key_falls_back_to_reference(self):
        rng = np.random.default_rng(3)
        g = erdos_renyi_graph(20, 0.25, seed=3)
        original = _random_clusters(g, rng, 4)
        filtered = _random_clusters(g, rng, 4)
        ref = reference_match_clusters(original, filtered, jaccard_node_overlap)
        new = match_clusters(original, filtered, jaccard_node_overlap)
        assert [(m.original, m.node_overlap, m.edge_overlap) for m in ref] == [
            (m.original, m.node_overlap, m.edge_overlap) for m in new
        ]

    def test_no_originals_yields_found_matches(self):
        g = complete_graph(5)
        filtered = _random_clusters(g, np.random.default_rng(0), 3)
        for m in match_clusters([], filtered):
            assert m.original is None and m.is_found
        assert lost_clusters([], filtered) == []

    def test_no_filtered_clusters_loses_everything(self):
        g = complete_graph(5)
        original = _random_clusters(g, np.random.default_rng(1), 3)
        assert lost_clusters(original, []) == list(original)


class TestCorrelationCSRNetwork:
    def test_study_network_csr_equals_graph_view(self):
        study = make_study("YNG", scale=0.03)
        for include_all in (False, True):
            net = study.network(include_all_genes=include_all)
            csr = study.network_csr(include_all_genes=include_all)
            assert csr == CSRGraph.from_graph(net)

    def test_study_csr_cached(self):
        study = make_study("MID", scale=0.03)
        assert study.network_csr() is study.network_csr()

    def test_multi_tile_csr_equals_graph_view(self):
        study = make_study("YNG", scale=0.03)
        net = build_correlation_network(
            study.matrix, block_size=61, include_all_genes=False
        )
        csr = build_correlation_csr(study.matrix, block_size=61, include_all_genes=False)
        assert csr == CSRGraph.from_graph(net)


class TestOntologyDistances:
    def test_term_distance_matches_reference(self):
        study = make_study("YNG", scale=0.02)
        dag, annotations = make_study_ontology(study, depth=6, branching=3)
        rng = np.random.default_rng(0)
        terms = dag.terms()
        picks = rng.integers(0, len(terms), size=(200, 2))
        for a_i, b_i in picks:
            a, b = terms[int(a_i)], terms[int(b_i)]
            assert dag.term_distance(a, b) == dag.reference_term_distance(a, b)

    def test_term_distance_symmetric_and_cached(self):
        study = make_study("YNG", scale=0.02)
        dag, _ = make_study_ontology(study, depth=6, branching=3)
        terms = dag.terms()
        a, b = terms[1], terms[-1]
        assert dag.term_distance(a, b) == dag.term_distance(b, a)

    def test_distance_cache_invalidated_by_growth(self):
        study = make_study("YNG", scale=0.02)
        dag, _ = make_study_ontology(study, depth=6, branching=3)
        terms = dag.terms()
        a, b = terms[1], terms[-1]
        dag.term_distance(a, b)  # warm the cache
        new_term = dag.add_term("GO:TEST_NEW", [a]).term_id
        assert dag.term_distance(new_term, a) == 1
        assert dag.term_distance(new_term, b) == dag.reference_term_distance(new_term, b)


class TestEndToEndWorkflowEquivalence:
    def test_full_analysis_stage_identical_on_study(self):
        """The whole CSR analysis stage reproduces the label seed on one study."""
        study = make_study("UNT", scale=0.03)
        net = study.network()
        csr = study.network_csr()
        ref_orig = reference_mcode_clusters(net, source="orig")
        new_orig = mcode_clusters(csr, source="orig")
        assert_clusters_identical(ref_orig, new_orig)

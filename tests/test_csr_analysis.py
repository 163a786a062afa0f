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

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    Cluster,
    match_and_lost_clusters,
    mcode_clusters,
    reference_k_core,
    reference_lost_clusters,
    reference_match_clusters,
    reference_mcode_clusters,
    reference_mcode_vertex_weights,
)
from repro.expression import (
    correlated_pair_arrays,
    csr_from_pair_arrays,
    make_study,
    network_from_pair_arrays,
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
from repro.clustering.mcode import (
    _complex_pairs,
    _peel_subset,
    mcode_clusters_indices,
    mcode_vertex_weights_indices,
)
from repro.ontology.generator import make_study_ontology
from repro.pipeline.ablation import mcode_threshold_sweep


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


#: The score cut is MCODE's one setting: every cut the threshold ablation
#: sweeps, the paper's 3.0 among them.  A complex that survives the 2-core
#: step scores above 2.0, so lower cuts keep the same clusters as 2.0.
MIN_SCORES = inspect.signature(mcode_threshold_sweep).parameters["thresholds"].default

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
        # An index-native cluster cuts its subgraph from its members, and
        # counts and lists edges from its pairs: compare those too.
        assert r.n_edges == c.n_edges
        assert r.edge_set() == c.edge_set()



def vertex_weights(g: Graph) -> dict:
    """The stage-1 kernel's weights on ``g``'s CSR view, keyed by label."""
    csr = CSRGraph.from_graph(g)
    return dict(zip(csr.labels, mcode_vertex_weights_indices(csr).tolist()))

class TestCSRKCore:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs(), st.integers(min_value=0, max_value=4))
    def test_peel_subset_matches_reference_k_core(self, g: Graph, k: int):
        ref = reference_k_core(g, k)
        csr = CSRGraph.from_graph(g)
        alive = _peel_subset(csr.neighbor_lists(), range(csr.n_vertices), k)
        new = g.subgraph([v for i, v in enumerate(csr.labels) if i in alive])
        assert ref == new
        assert ref.vertices() == new.vertices()


class TestCSRMCODE:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_vertex_weights_match_reference(self, g: Graph):
        assert reference_mcode_vertex_weights(g) == vertex_weights(g)

    @settings(max_examples=30, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_vertex_weights_match_reference_mixed_labels(self, g: Graph):
        assert reference_mcode_vertex_weights(g) == vertex_weights(g)

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(), st.sampled_from(MIN_SCORES))
    def test_clusters_match_reference(self, g: Graph, min_score: float):
        assert_clusters_identical(
            reference_mcode_clusters(g, min_score), mcode_clusters(g, min_score)
        )

    @settings(max_examples=15, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_clusters_match_reference_mixed_labels(self, g: Graph):
        assert_clusters_identical(reference_mcode_clusters(g), mcode_clusters(g))

    def test_clusters_match_reference_on_the_corpus(self, corpus_graph: Graph):
        for min_score in MIN_SCORES:
            assert_clusters_identical(
                reference_mcode_clusters(corpus_graph, min_score),
                mcode_clusters(corpus_graph, min_score),
            )

    def test_complex_pairs_are_each_complex_induced_edges(self, corpus_graph: Graph):
        # Complexes are disjoint, and each lists the edges from a member to
        # a later member, member by member in CSR row order.
        csr = CSRGraph.from_graph(corpus_graph)
        rows = csr.neighbor_lists()
        for min_score in (0.0, *MIN_SCORES):
            complexes = mcode_clusters_indices(csr, min_score)
            members = [u for c in complexes for u in c.members]
            assert len(members) == len(set(members))
            got = _complex_pairs(csr, complexes)
            for complex_, pairs in zip(complexes, got):
                later = {u: set(complex_.members[i + 1 :]) for i, u in enumerate(complex_.members)}
                expected = [(u, w) for u in complex_.members for w in rows[u] if w in later[u]]
                assert pairs.tolist() == [list(p) for p in expected]

    @pytest.mark.parametrize("gi", range(len(GENERATOR_GRAPHS)))
    def test_clusters_match_reference_generators(self, gi: int):
        g = GENERATOR_GRAPHS[gi]
        assert reference_mcode_vertex_weights(g) == vertex_weights(g)
        for min_score in MIN_SCORES:
            assert_clusters_identical(
                reference_mcode_clusters(g, min_score), mcode_clusters(g, min_score)
            )

    def test_prebuilt_csr_shortcut(self):
        g = correlation_like_graph(n_modules=3, module_size=8, n_background=40, seed=9)
        csr = CSRGraph.from_graph(g)
        assert_clusters_identical(mcode_clusters(g), mcode_clusters(csr))


def _random_clusters(index_cluster, g: Graph, rng: np.random.Generator, count: int) -> list[Cluster]:
    """``count`` index-native clusters over ``g``'s view, each an induced subgraph."""
    csr = CSRGraph.of(g)
    verts = g.vertices()
    out = []
    for i in range(count):
        k = int(rng.integers(0, min(8, len(verts)) + 1))
        members = [verts[j] for j in rng.choice(len(verts), size=k, replace=False)]
        pairs = [csr.to_indices(edge) for edge in g.subgraph(members).iter_edges()]
        out.append(index_cluster(csr, i, csr.to_indices(members), pairs, score=1.0))
    return out


class TestCSRMatching:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_match_and_lost_clusters(self, seed: int, index_cluster):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(25, 0.2, seed=seed)
        original = _random_clusters(index_cluster, g, rng, int(rng.integers(0, 7)))
        filtered = _random_clusters(index_cluster, g, rng, int(rng.integers(0, 7)))
        ref = reference_match_clusters(original, filtered)
        new, lost = match_and_lost_clusters(original, filtered)
        assert len(ref) == len(new)
        for r, m in zip(ref, new):
            assert r.original is m.original
            assert r.node_overlap == m.node_overlap
            assert r.edge_overlap == m.edge_overlap
        assert lost == reference_lost_clusters(original, filtered)

    def test_generic_key_falls_back_to_reference(self, index_cluster):
        # Matching ranks by node overlap only; any other key is the business
        # of the reference loops, called by name.
        rng = np.random.default_rng(3)
        g = erdos_renyi_graph(20, 0.25, seed=3)
        original = _random_clusters(index_cluster, g, rng, 4)
        filtered = _random_clusters(index_cluster, g, rng, 4)

        def jaccard(a, b):
            na, nb = a.node_set(), b.node_set()
            return len(na & nb) / len(na | nb) if na | nb else 0.0

        with pytest.raises(TypeError):
            match_and_lost_clusters(original, filtered, jaccard)
        ref = reference_match_clusters(original, filtered, jaccard)
        for fc, m in zip(filtered, ref):
            best = max(range(len(original)), key=lambda r: (jaccard(original[r], fc), -r))
            want = original[best] if jaccard(original[best], fc) > 0.0 else None
            assert m.filtered is fc and m.original is want
        lost = [oc for oc in original if all(jaccard(oc, fc) == 0.0 for fc in filtered)]
        assert reference_lost_clusters(original, filtered, jaccard) == lost

    def test_no_originals_yields_found_matches(self, index_cluster):
        g = complete_graph(5)
        filtered = _random_clusters(index_cluster, g, np.random.default_rng(0), 3)
        matches, lost = match_and_lost_clusters([], filtered)
        for m in matches:
            assert m.original is None and m.is_found
        assert lost == []

    def test_no_filtered_clusters_loses_everything(self, index_cluster):
        g = complete_graph(5)
        original = _random_clusters(index_cluster, g, np.random.default_rng(1), 3)
        assert match_and_lost_clusters(original, [])[1] == list(original)


class TestCorrelationCSRNetwork:
    def test_study_network_csr_equals_graph_view(self):
        study = make_study("YNG", scale=0.03)
        assert study.network_csr() == CSRGraph.from_graph(study.network())

    def test_study_csr_cached(self):
        study = make_study("MID", scale=0.03)
        assert study.network_csr() is study.network_csr()

    def test_multi_tile_csr_equals_graph_view(self):
        study = make_study("YNG", scale=0.03)
        ii, jj, rho = correlated_pair_arrays(study.matrix, block_size=61)
        net = network_from_pair_arrays(study.matrix, ii, jj, rho)
        csr = csr_from_pair_arrays(study.matrix, ii, jj)
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

"""End-to-end integration tests reproducing the paper's hypotheses on tiny data.

Each test corresponds to one of the paper's claims (H0, H0a, H0b, H0c) and
exercises the whole stack: synthetic microarray → correlation network →
filters → MCODE → enrichment → overlap analysis.
"""

from __future__ import annotations

import pytest

from repro.core import apply_filter, is_chordal
from repro.graph import count_triangles
from repro.pipeline import analyze_filter


def density(g) -> float:
    """``2m / (n (n - 1))`` of a label graph; 0.0 below two vertices."""
    n = g.n_vertices
    return 2.0 * g.n_edges / (n * (n - 1)) if n > 1 else 0.0


@pytest.fixture(scope="module")
def bundle(cre_bundle):
    return cre_bundle


class TestH0NoiseRemoval:
    """H0: the maximal chordal subgraph preserves dense subgraphs and removes noise."""

    def test_filter_removes_edges_but_keeps_module_cores(self, bundle):
        result = apply_filter(bundle.network, method="chordal", ordering="natural", n_partitions=1)
        assert 0 < result.n_edges_removed < bundle.n_edges
        # planted modules: the filtered network must retain a dense core for each
        study = bundle.study
        for members in study.modules.values():
            present = [m for m in members if bundle.network.has_vertex(m)]
            if len(present) < 4:
                continue
            original_density = density(bundle.network.subgraph(present))
            filtered_density = density(result.graph.subgraph(present))
            # The module core must survive: the filter may thin a near-clique a
            # little, but not collapse it.
            assert filtered_density >= 0.5 * original_density
            assert filtered_density > 0.2

    def test_triangle_motifs_are_preserved_better_than_random_walk(self, bundle):
        chordal = apply_filter(bundle.network, method="chordal", n_partitions=2)
        walk = apply_filter(bundle.network, method="random_walk", n_partitions=2, seed=1)
        assert count_triangles(chordal.graph) > count_triangles(walk.graph)

    def test_sequential_filter_output_is_chordal(self, bundle):
        result = apply_filter(bundle.network, method="chordal", n_partitions=1)
        assert is_chordal(result.graph)


class TestH0aFilterSelection:
    """H0a: the chordal filter beats the random-walk control at retaining clusters."""

    def test_chordal_retains_clusters_random_walk_does_not(self, bundle):
        chordal = analyze_filter(bundle, method="chordal", ordering="natural", n_partitions=4)
        walk = analyze_filter(bundle, method="random_walk", ordering=None, n_partitions=4, seed=0)
        assert len(chordal.clusters) > 0
        assert len(walk.clusters) < len(chordal.clusters) / 4

    def test_chordal_uncovers_new_clusters(self, bundle):
        chordal = analyze_filter(bundle, method="chordal", ordering="natural", n_partitions=1)
        # "found" clusters may be zero on tiny data, but the machinery must report them
        assert isinstance(chordal.found, list)
        assert len(chordal.found) + len(chordal.matches) >= len(chordal.clusters)


class TestH0bOrderingRobustness:
    """H0b: vertex orderings perturb the subgraph but not the biological conclusions."""

    @pytest.mark.parametrize("ordering", ["natural", "high_degree", "low_degree", "rcm"])
    def test_each_ordering_keeps_relevant_clusters(self, bundle, ordering):
        analysis = analyze_filter(bundle, method="chordal", ordering=ordering, n_partitions=1)
        aees = bundle.scorer.cluster_aees(bundle.original_clusters)
        original_relevant = [a for a in aees if a >= 3.0]
        if original_relevant:
            assert analysis.high_scoring_clusters(), ordering

    def test_subgraph_sizes_vary_only_mildly_across_orderings(self, bundle):
        sizes = []
        for ordering in ("natural", "high_degree", "low_degree", "rcm"):
            result = apply_filter(bundle.network, method="chordal", ordering=ordering, n_partitions=1)
            sizes.append(result.n_edges_kept)
        assert max(sizes) - min(sizes) <= 0.1 * max(sizes)


class TestH0cParallelRobustness:
    """H0c: data distribution / processor count shrink the edge set, not the clusters."""

    def test_more_processors_fewer_edges_same_relevant_clusters(self, bundle):
        one = analyze_filter(bundle, method="chordal", ordering="natural", n_partitions=1)
        many = analyze_filter(bundle, method="chordal", ordering="natural", n_partitions=16)
        assert many.result.n_edges_kept <= one.result.n_edges_kept
        if one.high_scoring_clusters():
            assert many.high_scoring_clusters()

    def test_comm_and_nocomm_agree_on_relevant_clusters(self, bundle):
        comm = analyze_filter(bundle, method="chordal_comm", ordering="natural", n_partitions=4)
        nocomm = analyze_filter(bundle, method="chordal", ordering="natural", n_partitions=4)
        high_comm = {frozenset(c.members) for c in comm.high_scoring_clusters()}
        high_nocomm = {frozenset(c.members) for c in nocomm.high_scoring_clusters()}
        if high_comm and high_nocomm:
            # at least one biologically relevant cluster is common to both variants
            shared = any(a & b for a in high_comm for b in high_nocomm)
            assert shared

    def test_duplicate_border_edges_do_not_appear_in_final_graph(self, bundle):
        result = apply_filter(bundle.network, method="chordal", n_partitions=8, partition_method="hash")
        edges = result.graph.edges()
        assert len(edges) == len(set(edges))

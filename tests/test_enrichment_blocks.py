"""Block boundaries and the memory bound of the enrichment scorer.

The scorer walks its work in bounded blocks: edge ranges of at most
``_EDGE_CANDIDATE_BLOCK`` candidate term pairs, DCP batches of
``_DCP_PAIR_BLOCK`` pairs and bitset BFS sweeps of ``_BITSET_LANE_WORDS``
uint64 words of sources.  These tests pin that no block boundary changes a
bit (against the one-shot kernels and the scalar ``reference_score_edge``)
and that the scorer's traced peak stays under a bound derived from the
block constants on a workload whose one-shot peak is far above it.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.graph import Graph
from repro.ontology import AnnotationTable, EnrichmentScorer, make_go_dag, reference_score_edge
from repro.ontology import enrichment, go_dag
from repro.ontology.go_dag import _bfs_distances, _bitset_distance_queries, dcp_batch_arrays


def tree_with_chords(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays of a random spanning tree on ``n`` vertices plus ``n // 4`` chords."""
    rng = np.random.default_rng(seed)
    rows: list[set[int]] = [set() for _ in range(n)]
    for v in range(1, n):
        u = int(rng.integers(v))
        rows[u].add(v)
        rows[v].add(u)
    for _ in range(n // 4):
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v:
            rows[u].add(v)
            rows[v].add(u)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    indices = np.array([w for r in rows for w in sorted(r)], dtype=np.int64)
    return indptr, indices


class TestBitsetLaneBlocks:
    @pytest.mark.parametrize("lane_words", [1, go_dag._BITSET_LANE_WORDS])
    def test_sources_over_several_blocks_and_a_partial_one(self, monkeypatch, lane_words):
        monkeypatch.setattr(go_dag, "_BITSET_LANE_WORDS", lane_words)
        lanes = lane_words * 64
        n_sources = 2 * lanes + lanes // 2
        n = n_sources + 100
        indptr, indices = tree_with_chords(n, seed=lane_words)
        rng = np.random.default_rng(3)
        # Two queries from each source to vertices above it and one to
        # itself: the sources fill two whole lane blocks and end in a
        # partial third.
        src = np.repeat(np.arange(n_sources, dtype=np.int64), 3)
        dst = src + 1 + rng.integers(n - 1 - src)
        dst[::3] = src[::3]
        assert np.unique(src[src != dst]).size == n_sources and n_sources % lanes
        got = _bitset_distance_queries(indptr, indices, src, dst)
        rows = {s: _bfs_distances(indptr, indices, s) for s in np.unique(src).tolist()}
        assert got.tolist() == [int(rows[s][d]) for s, d in zip(src.tolist(), dst.tolist())]


class TestDcpPairBlocks:
    def test_blocked_equals_one_shot(self, monkeypatch):
        dag = make_go_dag(depth=5, branching=3, extra_parent_fraction=0.15, seed=4)
        index = dag.term_index()
        n_pairs = 2 * go_dag._DCP_PAIR_BLOCK + 123
        rng = np.random.default_rng(5)
        a = rng.integers(index.n_terms, size=n_pairs).astype(np.int64)
        b = rng.integers(index.n_terms, size=n_pairs).astype(np.int64)
        arrays = (index.depths, index.anc_indptr, index.anc_indices)
        blocked = dcp_batch_arrays(a, b, *arrays)
        monkeypatch.setattr(go_dag, "_DCP_PAIR_BLOCK", n_pairs)
        assert np.array_equal(blocked, dcp_batch_arrays(a, b, *arrays))
        for i in rng.integers(n_pairs, size=200).tolist():
            ta, tb = index.terms[a[i]], index.terms[b[i]]
            assert index.terms[blocked[i]] == dag.deepest_common_parent(ta, tb)


def annotated_table(dag, n_genes: int, n_terms: int, seed: int) -> AnnotationTable:
    rng = np.random.default_rng(seed)
    terms = dag.terms()
    table = AnnotationTable(dag)
    for g in range(n_genes):
        picks = rng.choice(len(terms), size=n_terms, replace=False)
        table.annotate(f"g{g}", [terms[int(i)] for i in picks])
    return table


class TestEdgeCandidateBlocks:
    def test_blocks_split_between_edges(self, monkeypatch, score_edges):
        """Ranges of at most 7 candidates: edges of up to 16 candidates are
        ranges of their own, smaller ones share a range, and every range
        ends on an edge boundary."""
        monkeypatch.setattr(enrichment, "_EDGE_CANDIDATE_BLOCK", 7)
        dag = make_go_dag(depth=5, branching=3, extra_parent_fraction=0.15, seed=6)
        rng = np.random.default_rng(6)
        terms = dag.terms()
        table = AnnotationTable(dag)
        for g in range(30):
            picks = rng.integers(len(terms), size=rng.integers(1, 5))
            table.annotate(f"g{g}", [terms[int(i)] for i in picks])
        edges = [
            (f"g{u}", f"g{v}")
            for u, v in rng.integers(34, size=(150, 2)).tolist()  # g30..g33 unannotated
            if u != v
        ]
        scorer = EnrichmentScorer(dag, table)
        got = score_edges(scorer, edges)
        assert got == [reference_score_edge(dag, table, u, v) for u, v in edges]

    def test_one_edge_over_a_whole_block(self, score_edges):
        dag = make_go_dag(depth=5, branching=3, seed=7)
        side = int(np.sqrt(enrichment._EDGE_CANDIDATE_BLOCK)) + 1
        table = annotated_table(dag, n_genes=3, n_terms=side, seed=7)
        edges = [("g0", "g1"), ("g1", "g2"), ("g2", "g0")]
        scorer = EnrichmentScorer(dag, table)
        got = score_edges(scorer, edges)
        assert side * side > enrichment._EDGE_CANDIDATE_BLOCK
        assert got == [reference_score_edge(dag, table, u, v) for u, v in edges]


class TestScorerPeak:
    def test_traced_peak_is_bounded_by_the_blocks(self, monkeypatch, graph_clusters):
        """About 490k candidate pairs over 6,000 edges, against at most
        7,381 distinct term pairs: the candidate scratch of one unblocked
        pass is several times the bound the blocks set."""
        dag = make_go_dag(depth=4, branching=3, seed=8)
        table = annotated_table(dag, n_genes=200, n_terms=9, seed=8)
        rng = np.random.default_rng(8)
        graph = Graph()
        while graph.n_edges < 6000:
            u, v = rng.integers(200, size=2).tolist()
            if u != v:
                graph.add_edge(f"g{u}", f"g{v}")
        clusters = graph_clusters(graph)
        index = dag.term_index()
        n_candidates = 81 * graph.n_edges
        n_pairs = index.n_terms * (index.n_terms + 1) // 2
        max_ancestors = int(np.diff(index.anc_indptr).max())
        n_term_slots = index.n_terms + index.term_indices.shape[0]
        bound = 8 * (
            10 * enrichment._EDGE_CANDIDATE_BLOCK
            + 8 * go_dag._DCP_PAIR_BLOCK * max_ancestors
            + 8 * go_dag._BITSET_LANE_WORDS * n_term_slots
            + 32 * n_pairs
            + 32 * graph.n_edges
        )

        def cold_peak() -> tuple[int, np.ndarray]:
            index._dist_rows.clear()
            scorer = EnrichmentScorer(dag, table)
            scorer._indexes()
            scorer._label_rows(clusters[0].csr.labels, table.indexed())
            tracemalloc.start()
            try:
                aees = scorer.score_cluster_graphs(clusters).aees
                return tracemalloc.get_traced_memory()[1], aees
            finally:
                tracemalloc.stop()

        peak, aees = cold_peak()
        assert peak < bound
        # The same workload in one block of each kind needs far more.
        monkeypatch.setattr(enrichment, "_EDGE_CANDIDATE_BLOCK", n_candidates)
        monkeypatch.setattr(go_dag, "_DCP_PAIR_BLOCK", n_pairs)
        monkeypatch.setattr(go_dag, "_BITSET_LANE_WORDS", index.n_terms // 64 + 1)
        one_shot_peak, one_shot_aees = cold_peak()
        assert one_shot_peak > 2 * bound
        assert np.array_equal(aees, one_shot_aees)

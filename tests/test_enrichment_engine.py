"""Pins for the batched enrichment engine.

The repo convention: when a hot path is rewritten index-native, the seed
implementation is retained as ``reference_*`` and the new path is pinned
**bit-identical** to it.  These tests pin

* the interned term space (``TermIndex`` depths / ancestors / distances
  against the scalar ``GODag`` queries),
* the batched edge scorer against ``reference_score_edge`` — including the
  orientation-sensitive first-pair-wins tie-break — across randomized DAGs
  and annotation tables,
* the whole-bundle array front-end (``score_cluster_graphs``) against
  per-cluster ``reference_score_cluster`` aggregates,
* the edge cases: unannotated endpoints, empty clusters, empty term lists
  and ``dominant_term`` tie-breaking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import Graph
from repro.ontology import (
    AnnotationTable,
    EnrichmentScorer,
    GODag,
    make_go_dag,
    reference_score_cluster,
    reference_score_edge,
    score_cluster,
    score_edge,
)


def random_dag(seed: int, depth: int = 5, branching: int = 3) -> GODag:
    return make_go_dag(depth=depth, branching=branching, extra_parent_fraction=0.15, seed=seed)


def random_annotations(
    dag: GODag, seed: int, n_genes: int = 40, unannotated_fraction: float = 0.2
) -> AnnotationTable:
    """Random gene → term table with some unannotated and empty-list genes."""
    rng = np.random.default_rng(seed)
    terms = dag.terms()
    table = AnnotationTable(dag)
    for g in range(n_genes):
        gene = f"gene{g}"
        if rng.random() < unannotated_fraction:
            if rng.random() < 0.5:
                table.annotate(gene, [])  # annotated gene with an empty term list
            continue
        picks = rng.integers(0, len(terms), size=rng.integers(1, 5))
        table.annotate(gene, [terms[int(i)] for i in picks])
    return table


class TestTermIndex:
    def test_ids_are_sorted_term_order(self):
        dag = random_dag(0)
        index = dag.term_index()
        assert list(index.terms) == sorted(dag.terms())
        # interned comparison == lexical comparison, the tie-break invariant
        for a, b in zip(index.terms, index.terms[1:]):
            assert index.id_of[a] < index.id_of[b] and a < b

    def test_depths_and_ancestors_match_scalar(self):
        dag = random_dag(1)
        index = dag.term_index()
        for t in dag.terms():
            i = index.id_of[t]
            assert int(index.depths[i]) == dag.depth(t)
            ancestors = {index.terms[int(j)] for j in index.ancestors_of(i)}
            assert ancestors == set(dag.ancestors(t))
            row = index.ancestors_of(i)
            assert np.array_equal(row, np.sort(row))

    def test_dcp_and_distance_batches_match_scalar(self):
        dag = random_dag(2)
        index = dag.term_index()
        terms = dag.terms()
        rng = np.random.default_rng(7)
        a = rng.integers(0, len(terms), 200)
        b = rng.integers(0, len(terms), 200)
        a_ids = index.ids_for([terms[int(i)] for i in a])
        b_ids = index.ids_for([terms[int(i)] for i in b])
        dcp = index.dcp_batch(a_ids, b_ids)
        dist = index.distance_batch(a_ids, b_ids)
        for i in range(a.shape[0]):
            ta, tb = terms[int(a[i])], terms[int(b[i])]
            assert index.terms[int(dcp[i])] == dag.deepest_common_parent(ta, tb)
            assert int(dist[i]) == dag.term_distance(ta, tb)

    def test_bitset_and_per_source_distances_agree(self):
        from repro.ontology.go_dag import (
            _BITSET_SOURCE_THRESHOLD,
            _bfs_distances,
            distance_batch_arrays,
        )

        dag = random_dag(3)
        index = dag.term_index()
        n = index.n_terms
        rng = np.random.default_rng(11)
        a = rng.integers(0, n, 400).astype(np.int64)
        b = rng.integers(0, n, 400).astype(np.int64)
        assert np.unique(np.minimum(a, b)).size > _BITSET_SOURCE_THRESHOLD
        csr = index.term_csr
        cold = distance_batch_arrays(a, b, csr.indptr, csr.indices)  # bitset path
        warm = index.distance_batch(a, b)  # row-cache path (sources get cached)
        again = index.distance_batch(a, b)  # pure cache hits
        assert np.array_equal(cold, warm)
        assert np.array_equal(cold, again)
        # One frontier BFS per source: the path small cold batches take.
        per_source = [
            _bfs_distances(csr.indptr, csr.indices, min(x, y))[max(x, y)]
            for x, y in zip(a.tolist(), b.tolist())
        ]
        assert cold.tolist() == per_source

    def test_dcp_batch_arrays_on_raw_arrays(self):
        from repro.ontology.go_dag import dcp_batch_arrays

        # 0 is the root; 1, 2 its children; 3 and 5 are children of both 1
        # and 2; 4 a child of 2.  Rows list each term's ancestors, itself
        # included, sorted.
        depths = np.array([0, 1, 1, 2, 2, 2], dtype=np.int64)
        rows = [[0], [0, 1], [0, 2], [0, 1, 2, 3], [0, 2, 4], [0, 1, 2, 5]]
        anc_indptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int64)
        anc_indices = np.concatenate(rows).astype(np.int64)
        a = np.array([3, 3, 1, 4, 0, 3], dtype=np.int64)
        b = np.array([4, 1, 2, 4, 3, 5], dtype=np.int64)
        got = dcp_batch_arrays(a, b, depths, anc_indptr, anc_indices)
        # (3, 5) share 1 and 2 at depth 1: the tie falls to the larger id.
        assert got.tolist() == [2, 1, 0, 4, 0, 2]

    def test_term_distance_and_distance_batch_share_rows(self, monkeypatch):
        from repro.ontology.go_dag import TermIndex

        dag = random_dag(6)
        index = dag.term_index()
        terms = index.terms
        dag.term_distance(terms[3], terms[1])
        assert list(index._dist_rows) == [1]
        row = index._dist_rows[1]
        index.distance_batch(np.array([5], dtype=np.int64), np.array([1], dtype=np.int64))
        assert list(index._dist_rows) == [1] and index._dist_rows[1] is row
        # One bounded FIFO: the oldest row leaves first.
        monkeypatch.setattr(TermIndex, "_DIST_ROW_LIMIT", 2)
        index.distance_row(2)
        index.distance_batch(np.array([7], dtype=np.int64), np.array([3], dtype=np.int64))
        assert list(index._dist_rows) == [2, 3]

    def test_index_invalidated_on_mutation(self):
        dag = random_dag(4)
        first = dag.term_index()
        dag.add_term("GO:FRESH", [dag.root_id])
        second = dag.term_index()
        assert second is not first
        assert "GO:FRESH" in second.id_of

    def test_annotation_index_rows_sorted_and_rebuilt(self):
        dag = random_dag(5)
        table = random_annotations(dag, 5)
        index = table.indexed()
        assert table.indexed() is index
        for gene in table.genes():
            row = index.terms_of_row(index.row_of(gene))
            assert np.array_equal(row, np.sort(row))
            assert {index.term_index.terms[int(t)] for t in row} == table.terms_of(gene)
        assert index.row_of("nobody") == -1
        table.annotate("late", [dag.root_id])
        assert table.indexed() is not index


class TestBatchedEqualsReference:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_edges_bit_identical(self, seed):
        """Property test: engine == reference on random DAGs and annotations."""
        dag = random_dag(seed)
        table = random_annotations(dag, seed * 13 + 1)
        genes = [f"gene{g}" for g in range(45)]  # includes unannotated names
        rng = np.random.default_rng(seed)
        edges = []
        while len(edges) < 150:
            u = genes[int(rng.integers(len(genes)))]
            v = genes[int(rng.integers(len(genes)))]
            if u != v:
                edges.append((u, v))
        scorer = EnrichmentScorer(dag, table)
        batched = scorer.edge_annotations(edges)
        # Mirror the seed scorer's cache contract: a repeated unordered edge
        # keeps the result of its *first* orientation (the candidate
        # tie-break is orientation-sensitive), keyed by edge_key.
        from repro.graph.graph import edge_key

        expected: dict = {}
        for u, v in edges:
            key = edge_key(u, v)
            if key not in expected:
                expected[key] = reference_score_edge(dag, table, u, v)
        for (u, v), got in zip(edges, batched):
            assert got == expected[edge_key(u, v)]

    def test_orientation_sensitive_tie_break(self):
        """(u, v) and (v, u) can legitimately pick different DCPs on score
        ties; the engine must reproduce the scalar loop's choice for the
        orientation it was asked, like the seed scorer did."""
        dag = GODag()
        dag.add_term("A", [dag.root_id])
        dag.add_term("B", [dag.root_id])
        dag.add_term("A1", ["A"])
        dag.add_term("B1", ["B"])
        table = AnnotationTable(dag, {"g1": ["A1", "B1"], "g2": ["A1", "B1"]})
        forward = score_edge(dag, table, "g1", "g2")
        assert forward == reference_score_edge(dag, table, "g1", "g2")
        # identical term sets, so both orientations agree here — but each
        # must match its own reference run
        backward = score_edge(dag, table, "g2", "g1")
        assert backward == reference_score_edge(dag, table, "g2", "g1")

    def test_module_functions_route_through_engine(self):
        dag = random_dag(6)
        table = random_annotations(dag, 6)
        cluster = Graph(edges=[("gene1", "gene2"), ("gene2", "gene3")])
        assert score_edge(dag, table, "gene1", "gene2") == reference_score_edge(
            dag, table, "gene1", "gene2"
        )
        got = score_cluster(dag, table, cluster)
        ref = reference_score_cluster(dag, table, cluster)
        assert got.edges == ref.edges
        assert got.aees == ref.aees

    @pytest.mark.parametrize("seed", [0, 2, 5])
    def test_score_cluster_graphs_matches_reference_aggregates(self, seed):
        dag = random_dag(seed, depth=4)
        table = random_annotations(dag, seed + 100, n_genes=30)
        rng = np.random.default_rng(seed)
        clusters: list[Graph] = []
        for c in range(10):
            g = Graph()
            members = [f"gene{int(i)}" for i in rng.integers(0, 32, size=6)]
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    if members[i] != members[j] and rng.random() < 0.5:
                        g.add_edge(members[i], members[j])
            clusters.append(g)
        clusters.append(Graph())  # empty cluster
        scorer = EnrichmentScorer(dag, table)
        scores = scorer.score_cluster_graphs(clusters)
        assert len(scores) == len(clusters)
        for i, g in enumerate(clusters):
            ref = reference_score_cluster(dag, table, g)
            assert scores.aees[i] == ref.aees
            assert scores.max_score[i] == ref.max_score
            assert scores.max_depth[i] == ref.max_depth
            assert scores.n_edges[i] == len(ref.edges)
            assert scores.dominant[i] == ref.dominant_term()

    def test_cluster_aees_matches_object_path(self):
        dag = random_dag(7)
        table = random_annotations(dag, 7)
        g = Graph(edges=[("gene1", "gene2"), ("gene3", "gene4"), ("gene2", "gene3")])
        scorer = EnrichmentScorer(dag, table)
        assert scorer.cluster_aees([g, Graph()]) == [scorer.cluster(g).aees, 0.0]

    def test_reference_engine_scorer(self):
        dag = random_dag(8)
        table = random_annotations(dag, 8)
        g = Graph(edges=[("gene1", "gene2"), ("gene2", "gene5")])
        ref_scorer = EnrichmentScorer(dag, table, engine="reference")
        fast_scorer = EnrichmentScorer(dag, table)
        assert ref_scorer.cluster(g).edges == fast_scorer.cluster(g).edges
        assert ref_scorer.cluster_aees([g]) == fast_scorer.cluster_aees([g])
        scores = ref_scorer.score_cluster_graphs([g])
        assert scores.aees[0] == fast_scorer.cluster(g).aees

    def test_invalid_engine_and_backend_rejected(self):
        dag = random_dag(9)
        table = random_annotations(dag, 9)
        with pytest.raises(ValueError):
            EnrichmentScorer(dag, table, engine="nope")


class TestEdgeCases:
    @pytest.fixture
    def dag(self) -> GODag:
        dag = GODag()
        dag.add_term("L1a", [dag.root_id])
        dag.add_term("L1b", [dag.root_id])
        dag.add_term("L2a", ["L1a"])
        dag.add_term("L2b", ["L1a"])
        return dag

    def test_unannotated_endpoints_score_zero(self, dag):
        table = AnnotationTable(dag, {"known": ["L2a"]})
        table.annotate("hollow", [])  # in the table, zero terms
        scorer = EnrichmentScorer(dag, table)
        for u, v in [("known", "ghost"), ("ghost", "known"), ("known", "hollow"), ("x", "y")]:
            ann = scorer.edge(u, v)
            assert ann == reference_score_edge(dag, table, u, v)
            assert ann.dcp is None and ann.score == 0.0

    def test_empty_cluster_scores(self, dag):
        table = AnnotationTable(dag, {"g": ["L2a"]})
        scorer = EnrichmentScorer(dag, table)
        scores = scorer.score_cluster_graphs([Graph(), Graph(vertices=["g"])])
        assert scores.aees.tolist() == [0.0, 0.0]
        assert scores.max_score.tolist() == [0.0, 0.0]
        assert scores.max_depth.tolist() == [0, 0]
        assert scores.dominant == [None, None]
        assert scorer.cluster(Graph()).dominant_term() is None

    def test_all_unannotated_cluster_has_no_dominant_term(self, dag):
        table = AnnotationTable(dag, {"g": ["L2a"]})
        scorer = EnrichmentScorer(dag, table)
        g = Graph(edges=[("u1", "u2"), ("u2", "u3")])
        scores = scorer.score_cluster_graphs([g])
        assert scores.dominant == [None]
        assert scores.aees[0] == 0.0 and scores.n_edges[0] == 2

    def test_dominant_term_count_tie_breaks_lexically(self, dag):
        # two edges with DCP L2a, two with DCP L2b -> tie broken by the
        # lexically larger term id, exactly like Counter + max on (count, id)
        table = AnnotationTable(
            dag, {"a1": ["L2a"], "a2": ["L2a"], "b1": ["L2b"], "b2": ["L2b"]}
        )
        g = Graph(edges=[("a1", "a2"), ("b1", "b2")])
        scorer = EnrichmentScorer(dag, table)
        scores = scorer.score_cluster_graphs([g])
        ref = reference_score_cluster(dag, table, g)
        assert scores.dominant[0] == ref.dominant_term() == "L2b"

    def test_dominant_term_prefers_count_over_lexical(self, dag):
        table = AnnotationTable(
            dag, {"a1": ["L2a"], "a2": ["L2a"], "a3": ["L2a"], "b1": ["L2b"], "b2": ["L2b"]}
        )
        g = Graph(edges=[("a1", "a2"), ("a2", "a3"), ("a1", "a3"), ("b1", "b2")])
        scorer = EnrichmentScorer(dag, table)
        scores = scorer.score_cluster_graphs([g])
        ref = reference_score_cluster(dag, table, g)
        assert scores.dominant[0] == ref.dominant_term() == "L2a"

    def test_edge_cache_normalises_orientation(self, dag):
        table = AnnotationTable(dag, {"g1": ["L2a"], "g2": ["L2b"]})
        scorer = EnrichmentScorer(dag, table)
        scorer.edge("g1", "g2")
        scorer.edge("g2", "g1")
        assert scorer.cache_size == 1
        assert scorer.pair_table_size >= 1

    def test_pair_table_reset_on_dag_mutation(self, dag):
        table = AnnotationTable(dag, {"g1": ["L2a"], "g2": ["L2b"]})
        scorer = EnrichmentScorer(dag, table)
        scorer.edge("g1", "g2")
        assert scorer.pair_table_size >= 1
        dag.add_term("L2c", ["L1a"])
        scorer.edge_annotations([("g1", "g2"), ("g2", "g1")])
        # table rebuilt against the fresh index; cached edge results remain
        assert scorer.cache_size == 1


class TestBitsetBfsEdgeCases:
    def test_trailing_empty_rows_do_not_corrupt_segments(self):
        """Zero-degree trailing vertices must not shift the reduceat segments
        of the last non-empty row (regression: the old start-clipping dropped
        that row's final neighbour)."""
        from repro.ontology.go_dag import (
            _bfs_distances,
            _bitset_distance_queries,
        )

        # path 0-1-...-29 plus chord (0, 29), then an isolated vertex 30
        n = 31
        edges = [(i, i + 1) for i in range(29)] + [(0, 29)]
        indptr = np.zeros(n + 1, dtype=np.int64)
        rows: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            rows[u].append(v)
            rows[v].append(u)
        flat: list[int] = []
        for i, r in enumerate(rows):
            r.sort()
            flat.extend(r)
            indptr[i + 1] = len(flat)
        indices = np.array(flat, dtype=np.int64)
        rng = np.random.default_rng(0)
        src = rng.integers(0, n - 1, 80).astype(np.int64)
        dst = rng.integers(0, n, 80).astype(np.int64)
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
        assert np.unique(src).size > 16
        got = _bitset_distance_queries(indptr, indices, src, dst)
        for i in range(src.shape[0]):
            assert got[i] == _bfs_distances(indptr, indices, int(src[i]))[int(dst[i])]
        # the isolated vertex is unreachable: -1, like the scalar BFS
        iso = _bitset_distance_queries(
            indptr, indices, np.arange(17, dtype=np.int64), np.full(17, 30, dtype=np.int64)
        )
        assert (iso == -1).all()

    def test_tree_with_chords_matches_per_source_bfs(self):
        """A random tree plus chords (connected, irregular levels): the batch
        entry point agrees with one scalar BFS per query on both sides of the
        bitset source-count switch."""
        from repro.ontology.go_dag import (
            _BITSET_SOURCE_THRESHOLD,
            _bfs_distances,
            distance_batch_arrays,
        )

        rng = np.random.default_rng(9)
        n = 80
        rows: list[list[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            u = int(rng.integers(v))
            rows[u].append(v)
            rows[v].append(u)
        for _ in range(40):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and v not in rows[u]:
                rows[u].append(v)
                rows[v].append(u)
        indptr = np.zeros(n + 1, dtype=np.int64)
        for v in range(n):
            indptr[v + 1] = indptr[v] + len(rows[v])
        indices = np.array([w for row in rows for w in sorted(row)], dtype=np.int64)
        for size in (8, 400):
            a = rng.integers(n, size=size).astype(np.int64)
            b = rng.integers(n, size=size).astype(np.int64)
            sources = np.unique(np.minimum(a, b)).size
            assert (sources > _BITSET_SOURCE_THRESHOLD) == (size == 400)
            got = distance_batch_arrays(a, b, indptr, indices)
            expected = [
                _bfs_distances(indptr, indices, min(x, y))[max(x, y)]
                for x, y in zip(a.tolist(), b.tolist())
            ]
            assert got.tolist() == expected

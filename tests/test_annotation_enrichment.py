"""Unit tests for annotation tables and edge-enrichment (AEES) scoring."""

from __future__ import annotations

import pytest

from repro.graph import Graph
from repro.ontology import (
    AnnotationTable,
    EnrichmentScorer,
    GODag,
    score_cluster,
    score_edge,
)


@pytest.fixture
def dag() -> GODag:
    dag = GODag()
    dag.add_term("L1a", [dag.root_id])
    dag.add_term("L1b", [dag.root_id])
    dag.add_term("L2a", ["L1a"])
    dag.add_term("L2b", ["L1a"])
    dag.add_term("L3a", ["L2a"])
    dag.add_term("L3b", ["L2a"])
    dag.add_term("L4a", ["L3a"])
    return dag


@pytest.fixture
def annotations(dag) -> AnnotationTable:
    table = AnnotationTable(dag)
    table.annotate("geneA", ["L3a"])
    table.annotate("geneB", ["L3b"])
    table.annotate("geneC", ["L4a"])
    table.annotate("geneD", ["L1b"])
    table.annotate("geneMulti", ["L1b", "L4a"])
    return table


class TestAnnotationTable:
    def test_annotate_and_query(self, annotations):
        assert annotations.terms_of("geneA") == {"L3a"}
        assert annotations.terms_of("unknown") == set()
        assert annotations.is_annotated("geneA")
        assert not annotations.is_annotated("unknown")

    def test_unknown_term_rejected(self, dag):
        table = AnnotationTable(dag)
        with pytest.raises(KeyError):
            table.annotate("g", ["NOPE"])

    def test_empty_annotation_is_a_no_op(self, dag):
        table = AnnotationTable(dag)
        table.annotate("g", ["L1a"])
        table.annotate("h", ["L2a"])
        index = table.indexed()
        table.annotate("x", [])
        assert "x" not in table
        assert len(table) == 2
        assert table.indexed() is index
        assert table.indexed().rows_for(["g", "h", "x"]).tolist() == [0, 1, -1]

    def test_genes_of_follows_later_annotations(self, dag, annotations):
        assert annotations.genes_of("L1a") == set()
        annotations.annotate("geneE", ["L1a", "L3a"])
        assert annotations.genes_of("L1a") == {"geneE"}
        assert annotations.genes_of("L3a") == {"geneA", "geneE"}

    def test_genes_of_term_and_subtree(self, dag, annotations):
        assert annotations.genes_of("L3a") == {"geneA"}
        assert annotations.genes_of_subtree("L2a") == {"geneA", "geneB", "geneC", "geneMulti"}

    def test_coverage(self, annotations):
        assert annotations.coverage(["geneA", "nobody"]) == pytest.approx(0.5)
        assert annotations.coverage([]) == 0.0

    def test_len_contains_and_counts(self, annotations):
        assert len(annotations) == 5
        assert "geneA" in annotations
        assert annotations.n_annotations() == 6

    def test_merged_with(self, dag, annotations):
        other = AnnotationTable(dag)
        other.annotate("geneZ", ["L1a"])
        merged = annotations.merged_with(other)
        assert merged.is_annotated("geneZ")
        assert merged.is_annotated("geneA")

    def test_merged_with_different_dag_rejected(self, annotations):
        other = AnnotationTable(GODag())
        with pytest.raises(ValueError):
            annotations.merged_with(other)


class TestEdgeScoring:
    def test_sibling_terms_score(self, dag, annotations):
        # L3a and L3b share DCP L2a (depth 2) at breadth 2 -> score 0
        ann = score_edge(dag, annotations, "geneA", "geneB")
        assert ann.dcp == "L2a"
        assert ann.depth == 2
        assert ann.breadth == 2
        assert ann.score == pytest.approx(0.0)

    def test_parent_child_terms_score_high(self, dag, annotations):
        # L3a and L4a: DCP is L3a (depth 3), breadth 1 -> score 2
        ann = score_edge(dag, annotations, "geneA", "geneC")
        assert ann.dcp == "L3a"
        assert ann.score == pytest.approx(2.0)

    def test_unrelated_terms_score_negative(self, dag, annotations):
        # L3a vs L1b: DCP root (depth 0), breadth 4 -> score -4
        ann = score_edge(dag, annotations, "geneA", "geneD")
        assert ann.dcp == dag.root_id
        assert ann.score < 0

    def test_multi_term_gene_takes_best_pair(self, dag, annotations):
        ann = score_edge(dag, annotations, "geneC", "geneMulti")
        assert ann.score == pytest.approx(4.0)  # L4a with itself: depth 4, breadth 0

    def test_unannotated_gene_scores_zero(self, dag, annotations):
        ann = score_edge(dag, annotations, "geneA", "mystery")
        assert ann.dcp is None
        assert ann.score == 0.0


class TestClusterScoring:
    def test_cluster_aees_average(self, dag, annotations):
        cluster = Graph(edges=[("geneA", "geneC"), ("geneA", "geneD")])
        enrichment = score_cluster(dag, annotations, cluster)
        scores = sorted(e.score for e in enrichment.edges)
        assert enrichment.aees == pytest.approx(sum(scores) / 2)
        assert enrichment.max_score == max(scores)

    def test_empty_cluster(self, dag, annotations):
        enrichment = score_cluster(dag, annotations, Graph())
        assert enrichment.aees == 0.0
        assert enrichment.dominant_term() is None

    def test_dominant_term(self, dag, annotations):
        cluster = Graph(edges=[("geneA", "geneC"), ("geneB", "geneA")])
        enrichment = score_cluster(dag, annotations, cluster)
        assert enrichment.dominant_term() in {"L3a", "L2a"}
        freqs = enrichment.term_frequencies()
        assert sum(freqs.values()) == 2

    def test_scorer_caches(self, dag, annotations):
        scorer = EnrichmentScorer(dag, annotations)
        scorer.edge("geneA", "geneC")
        scorer.edge("geneC", "geneA")
        assert scorer.cache_size == 1

    def test_scorer_cluster_matches_direct(self, dag, annotations):
        scorer = EnrichmentScorer(dag, annotations)
        cluster = Graph(edges=[("geneA", "geneB"), ("geneB", "geneC")])
        via_scorer = scorer.cluster(cluster).aees
        direct = score_cluster(dag, annotations, cluster).aees
        assert via_scorer == pytest.approx(direct)

    def test_edge_subset(self, dag, annotations):
        scorer = EnrichmentScorer(dag, annotations)
        enrichment = scorer.edge_subset([("geneA", "geneC")])
        assert len(enrichment.edges) == 1

"""Unit tests for annotation tables and edge-enrichment (AEES) scoring."""

from __future__ import annotations

import pytest

from repro.graph import Graph
from repro.ontology import AnnotationTable, EnrichmentScorer, GODag


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
        assert table.indexed() is index
        assert index.genes == ("g", "h")
        assert table.indexed().rows_for(["g", "h", "x"]).tolist() == [0, 1, -1]

    def test_counts(self, annotations):
        assert len(annotations.indexed().genes) == 5
        assert annotations.n_annotations() == 6


def score_edge(score_edges, dag, annotations, u, v):
    return score_edges(EnrichmentScorer(dag, annotations), [(u, v)])[0]


class TestEdgeScoring:
    def test_sibling_terms_score(self, score_edges, dag, annotations):
        # L3a and L3b share DCP L2a (depth 2) at breadth 2 -> score 0
        ann = score_edge(score_edges, dag, annotations, "geneA", "geneB")
        assert ann.dcp == "L2a"
        assert ann.depth == 2
        assert ann.breadth == 2
        assert ann.score == pytest.approx(0.0)

    def test_parent_child_terms_score_high(self, score_edges, dag, annotations):
        # L3a and L4a: DCP is L3a (depth 3), breadth 1 -> score 2
        ann = score_edge(score_edges, dag, annotations, "geneA", "geneC")
        assert ann.dcp == "L3a"
        assert ann.score == pytest.approx(2.0)

    def test_unrelated_terms_score_negative(self, score_edges, dag, annotations):
        # L3a vs L1b: DCP root (depth 0), breadth 4 -> score -4
        ann = score_edge(score_edges, dag, annotations, "geneA", "geneD")
        assert ann.dcp == dag.root_id
        assert ann.score < 0

    def test_multi_term_gene_takes_best_pair(self, score_edges, dag, annotations):
        ann = score_edge(score_edges, dag, annotations, "geneC", "geneMulti")
        assert ann.score == pytest.approx(4.0)  # L4a with itself: depth 4, breadth 0

    def test_unannotated_gene_scores_zero(self, score_edges, dag, annotations):
        ann = score_edge(score_edges, dag, annotations, "geneA", "mystery")
        assert ann.dcp is None
        assert ann.score == 0.0


class TestClusterScoring:
    def test_cluster_aees_average(self, score_edges, graph_clusters, dag, annotations):
        scorer = EnrichmentScorer(dag, annotations)
        cluster = Graph(edges=[("geneA", "geneC"), ("geneA", "geneD")])
        scores = sorted(e.score for e in score_edges(scorer, list(cluster.iter_edges())))
        enrichment = scorer.score_cluster_graphs(graph_clusters(cluster))
        assert enrichment.aees[0] == pytest.approx(sum(scores) / 2)
        assert enrichment.max_score[0] == max(scores)

    def test_empty_cluster(self, graph_clusters, dag, annotations):
        empty = graph_clusters(Graph(), Graph(vertices=["geneA"]))[:1]
        enrichment = EnrichmentScorer(dag, annotations).score_cluster_graphs(empty)
        assert enrichment.aees[0] == 0.0
        assert enrichment.dominant == [None]

    def test_dominant_term(self, graph_clusters, dag, annotations):
        cluster = Graph(edges=[("geneA", "geneC"), ("geneB", "geneA")])
        enrichment = EnrichmentScorer(dag, annotations).score_cluster_graphs(
            graph_clusters(cluster)
        )
        assert enrichment.dominant[0] in {"L3a", "L2a"}
        assert enrichment.n_edges[0] == 2

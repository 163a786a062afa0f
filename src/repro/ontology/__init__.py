"""Ontology substrate: GO-like DAG, annotations and edge-enrichment scoring.

Used for the paper's orthogonal validation: clusters are scored by the depth
and proximity of their genes' shared functional annotations (AEES), which
separates biologically meaningful clusters from coincidental ones.
"""

from .._lazy import lazy_exports

__all__ = [
    "GODag",
    "GOTerm",
    "TermIndex",
    "AnnotationTable",
    "AnnotationIndex",
    "EdgeAnnotation",
    "ClusterEnrichment",
    "ClusterScores",
    "EnrichmentScorer",
    "reference_score_edge",
    "reference_score_cluster",
    "make_go_dag",
    "annotate_study",
    "make_study_ontology",
]

__getattr__ = lazy_exports(
    __name__,
    {
        ".annotation": ("AnnotationIndex", "AnnotationTable"),
        ".enrichment": (
            "ClusterEnrichment",
            "ClusterScores",
            "EdgeAnnotation",
            "EnrichmentScorer",
            "reference_score_cluster",
            "reference_score_edge",
        ),
        ".generator": ("annotate_study", "make_go_dag", "make_study_ontology"),
        ".go_dag": ("GODag", "GOTerm", "TermIndex"),
    },
)

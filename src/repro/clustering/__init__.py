"""Clustering substrate: MCODE complex detection, overlap and quadrant evaluation."""

from .._lazy import lazy_exports

__all__ = [
    "Cluster",
    "IndexComplex",
    "mcode_clusters",
    "mcode_clusters_indices",
    "mcode_vertex_weights_indices",
    "mcode_score",
    "reference_k_core",
    "reference_highest_k_core",
    "reference_mcode_clusters",
    "reference_mcode_vertex_weights",
    "reference_match_clusters",
    "reference_lost_clusters",
    "node_overlap",
    "edge_overlap",
    "ClusterMatch",
    "match_and_lost_clusters",
    "found_clusters",
    "Quadrant",
    "QuadrantCounts",
    "ScoredMatch",
    "EvaluationThresholds",
    "classify_match",
    "classify_matches",
    "quadrant_counts",
]

__getattr__ = lazy_exports(
    __name__,
    {
        ".cluster": ("Cluster",),
        ".evaluation": (
            "EvaluationThresholds",
            "Quadrant",
            "QuadrantCounts",
            "ScoredMatch",
            "classify_match",
            "classify_matches",
            "quadrant_counts",
        ),
        ".mcode": (
            "IndexComplex",
                    "mcode_clusters",
            "mcode_clusters_indices",
            "mcode_score",
            "mcode_vertex_weights_indices",
            "reference_highest_k_core",
            "reference_k_core",
            "reference_mcode_clusters",
            "reference_mcode_vertex_weights",
        ),
        ".overlap": (
            "ClusterMatch",
            "edge_overlap",
            "found_clusters",
            "match_and_lost_clusters",
            "node_overlap",
            "reference_lost_clusters",
            "reference_match_clusters",
        ),
    },
)

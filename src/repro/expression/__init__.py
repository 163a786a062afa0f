"""Expression-data substrate: microarray matrices, correlation networks, datasets.

The filters operate on gene correlation networks; this package builds those
networks — from synthetic microarray data that mimics the paper's GEO series
(``repro.expression.datasets`` explains the substitution) — via exact Pearson
correlation with significance and magnitude thresholds.
"""

from .._lazy import lazy_exports

__all__ = [
    "ExpressionMatrix",
    "CorrelationThreshold",
    "pearson_correlation_matrix",
    "correlation_p_value",
    "correlation_p_values",
    "critical_correlation",
    "correlated_pairs",
    "correlated_pair_arrays",
    "build_correlation_network",
    "build_correlation_csr",
    "csr_from_pair_arrays",
    "network_from_pair_arrays",
    "StudyConfig",
    "SyntheticStudy",
    "generate_study",
    "make_study",
    "DATASET_CONFIGS",
    "dataset_names",
    "DifferentialExpressionResult",
    "differential_expression_scores",
    "select_differential_genes",
    "apply_differential_filter",
    "write_expression_tsv",
    "read_expression_tsv",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".correlation": (
            "CorrelationThreshold",
            "build_correlation_csr",
            "build_correlation_network",
            "correlated_pair_arrays",
            "correlated_pairs",
            "correlation_p_value",
            "correlation_p_values",
            "critical_correlation",
            "csr_from_pair_arrays",
            "network_from_pair_arrays",
            "pearson_correlation_matrix",
        ),
        ".datasets": (
            "DATASET_CONFIGS",
            "StudyConfig",
            "SyntheticStudy",
            "dataset_names",
            "generate_study",
            "make_study",
        ),
        ".io": ("read_expression_tsv", "write_expression_tsv"),
        ".microarray": ("ExpressionMatrix",),
        ".preprocess": (
            "DifferentialExpressionResult",
            "apply_differential_filter",
            "differential_expression_scores",
            "select_differential_genes",
        ),
    },
)

"""repro — parallel adaptive (chordal-subgraph) sampling for biological networks.

A reproduction of Cooper (Dempsey), Duraisamy, Bhowmick & Ali,
*"The Development of Parallel Adaptive Sampling Algorithms for Analyzing
Biological Networks"* (IPPS/IPDPSW 2012).

The package is organised as one sub-package per subsystem:

``repro.graph``
    graph data structure, generators, vertex orderings, partitioners.
``repro.parallel``
    simulated MPI communicator, SPMD runner, scalability cost model.
``repro.expression``
    synthetic microarray studies and Pearson correlation networks.
``repro.ontology``
    GO-like DAG, annotations and edge-enrichment (AEES) scoring.
``repro.clustering``
    MCODE complex detection, cluster overlap and quadrant evaluation.
``repro.core``
    the paper's contribution — sequential and parallel maximal chordal
    subgraph filters plus the random-walk control, behind ``apply_filter``.
``repro.pipeline``
    end-to-end experiments and the per-figure drivers used by the benchmarks.

The package ``__init__``s are lazy (PEP 562, see :mod:`repro._lazy`): a
public name imports the submodule that defines it on first use.

Quickstart
----------
>>> from repro import make_study, apply_filter, mcode_clusters
>>> study = make_study("CRE", scale=0.05)
>>> network = study.network()
>>> filtered = apply_filter(network, method="chordal", ordering="high_degree", n_partitions=4)
>>> clusters = mcode_clusters(filtered.graph)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Graph",
    "is_chordal",
    "maximal_chordal_subgraph",
    "FilterResult",
    "apply_filter",
    "sequential_chordal_filter",
    "parallel_chordal_nocomm_filter",
    "parallel_chordal_comm_filter",
    "parallel_random_walk_filter",
    "ExpressionMatrix",
    "CorrelationThreshold",
    "build_correlation_network",
    "make_study",
    "GODag",
    "AnnotationTable",
    "EnrichmentScorer",
    "Cluster",
    "mcode_clusters",
    "prepare_dataset",
    "analyze_filter",
    "FaultError",
    "FaultPlan",
    "FaultRule",
    "active_plan",
    "clear_plan",
    "current_plan",
    "fault_point",
    "install_plan",
]

__getattr__ = lazy_exports(
    __name__,
    {
        ".clustering": ("Cluster", "mcode_clusters"),
        ".core": (
            "FilterResult",
            "apply_filter",
            "is_chordal",
            "maximal_chordal_subgraph",
            "parallel_chordal_comm_filter",
            "parallel_chordal_nocomm_filter",
            "parallel_random_walk_filter",
            "sequential_chordal_filter",
        ),
        ".expression": (
            "CorrelationThreshold",
            "ExpressionMatrix",
            "build_correlation_network",
            "make_study",
        ),
        ".faults": (
            "FaultError",
            "FaultPlan",
            "FaultRule",
            "active_plan",
            "clear_plan",
            "current_plan",
            "fault_point",
            "install_plan",
        ),
        ".graph": ("Graph",),
        ".ontology": ("AnnotationTable", "EnrichmentScorer", "GODag"),
        ".pipeline": ("analyze_filter", "prepare_dataset"),
    },
)

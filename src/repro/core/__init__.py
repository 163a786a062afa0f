"""The paper's primary contribution: chordal-graph-based adaptive sampling.

Sub-modules
-----------
``chordal``
    chordality recognition and the Dearing–Shier–Warner maximal chordal
    subgraph construction.
``sequential``
    single-processor chordal and random-walk filters.
``parallel_nocomm``
    the paper's communication-free parallel chordal sampler.
``parallel_comm``
    the earlier with-communication baseline.
``random_walk``
    the parallel random-walk control filter.
``sampling``
    the unified :func:`apply_filter` front-end and filter registry.
``results``
    :class:`FilterResult` provenance container.
"""

from .._lazy import lazy_exports

__all__ = [
    # chordal kernels
    "is_chordal",
    "is_simplicial",
    "find_simplicial_vertex",
    "is_perfect_elimination_ordering",
    "maximum_cardinality_search",
    "fill_in_edges",
    "chordal_subgraph_edges",
    "maximal_chordal_subgraph",
    "augment_to_maximal",
    "is_maximal_chordal_subgraph",
    "edge_insertion_preserves_chordality",
    # filters
    "sequential_chordal_filter",
    "sequential_random_walk_filter",
    "parallel_chordal_nocomm_filter",
    "parallel_chordal_comm_filter",
    "parallel_random_walk_filter",
    "admit_border_edges_no_communication",
    "receiver_admit_border_edges",
    "receiver_admit_border_edges_indices",
    "random_walk_edges",
    # quasi-chordal analysis
    "QuasiChordalReport",
    "quasi_chordal_report",
    "chordality_deficit",
    "long_cycle_census",
    # API
    "FilterResult",
    "FILTERS",
    "apply_filter",
    "filter_names",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".chordal": (
            "augment_to_maximal",
            "chordal_subgraph_edges",
            "edge_insertion_preserves_chordality",
            "fill_in_edges",
            "find_simplicial_vertex",
            "is_chordal",
            "is_maximal_chordal_subgraph",
            "is_perfect_elimination_ordering",
            "is_simplicial",
            "maximal_chordal_subgraph",
            "maximum_cardinality_search",
        ),
        ".parallel_comm": (
            "parallel_chordal_comm_filter",
            "receiver_admit_border_edges",
            "receiver_admit_border_edges_indices",
        ),
        ".parallel_nocomm": (
            "admit_border_edges_no_communication",
            "parallel_chordal_nocomm_filter",
        ),
        ".quasi": (
            "QuasiChordalReport",
            "chordality_deficit",
            "long_cycle_census",
            "quasi_chordal_report",
        ),
        ".random_walk": ("parallel_random_walk_filter", "random_walk_edges"),
        ".results": ("FilterResult",),
        ".sampling": ("FILTERS", "apply_filter", "filter_names"),
        ".sequential": ("sequential_chordal_filter", "sequential_random_walk_filter"),
    },
)

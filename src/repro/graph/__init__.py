"""Graph substrate: data structure, generators, orderings, partitioning.

This package provides everything the sampling algorithms need that is *not*
specific to chordal graphs: the :class:`Graph` container, cycle and triangle
counts, the four vertex orderings studied by the paper, graph partitioners
for the parallel algorithms, synthetic generators and centralities.
"""

from .._lazy import lazy_exports

__all__ = [
    "Graph",
    "CSRGraph",
    "edge_key",
    # centrality
    "degree_centrality",
    "closeness_centrality",
    "betweenness_centrality",
    "top_k_vertices",
    "hub_retention",
    "centrality_spearman",
    # traversal
    "bfs_levels",
    "pseudo_peripheral_vertex",
    # cycles
    "count_triangles",
    "cycle_basis_sizes",
    "find_chordless_cycle",
    # orderings
    "ORDERING_INDEX_FNS",
    "ordering_names",
    "ordering_indices",
    "natural_order_indices",
    "high_degree_order_indices",
    "low_degree_order_indices",
    "rcm_order_indices",
    "label_sort_ranks",
    # partitioning
    "Partition",
    "IndexPartition",
    "PARTITIONERS",
    "INDEX_PARTITIONERS",
    "partition_graph",
    "index_partition_graph",
    "block_partition",
    "hash_partition",
    "bfs_partition",
    "greedy_edge_cut_partition",
    "block_partition_indices",
    "hash_partition_indices",
    "bfs_partition_indices",
    "greedy_partition_indices",
    # generators
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "random_tree",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "planted_partition_graph",
    "correlation_like_graph",
    # io
    "write_edge_list",
    "read_edge_list",
]

__getattr__ = lazy_exports(
    __name__,
    {
        ".centrality": (
            "betweenness_centrality",
            "centrality_spearman",
            "closeness_centrality",
            "degree_centrality",
            "hub_retention",
            "top_k_vertices",
        ),
        ".csr": ("CSRGraph",),
        ".cycles": (
            "count_triangles",
            "cycle_basis_sizes",
            "find_chordless_cycle",
        ),
        ".generators": (
            "barabasi_albert_graph",
            "complete_graph",
            "correlation_like_graph",
            "cycle_graph",
            "erdos_renyi_graph",
            "grid_graph",
            "path_graph",
            "planted_partition_graph",
            "random_tree",
            "star_graph",
        ),
        ".graph": ("Graph", "edge_key"),
        ".io": (
            "read_edge_list",
            "write_edge_list",
        ),
        ".ordering": (
            "ORDERING_INDEX_FNS",
            "high_degree_order_indices",
            "label_sort_ranks",
            "low_degree_order_indices",
            "natural_order_indices",
            "ordering_indices",
            "ordering_names",
            "rcm_order_indices",
        ),
        ".partition": (
            "INDEX_PARTITIONERS",
            "PARTITIONERS",
            "IndexPartition",
            "Partition",
            "bfs_partition",
            "bfs_partition_indices",
            "block_partition",
            "block_partition_indices",
            "greedy_edge_cut_partition",
            "greedy_partition_indices",
            "hash_partition",
            "hash_partition_indices",
            "index_partition_graph",
            "partition_graph",
        ),
        ".traversal": (
            "bfs_levels",
            "pseudo_peripheral_vertex",
        ),
    },
)

"""Unit tests for the index partitioners used by the parallel samplers.

The label partitioners survive only as the oracles of these kernels; the
equality pins live in ``tests/test_index_pipeline.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    INDEX_PARTITIONERS,
    CSRGraph,
    Graph,
    block_partition_indices,
    erdos_renyi_graph,
    greedy_partition_indices,
    hash_partition_indices,
    index_partition_graph,
    path_graph,
    planted_partition_graph,
)
from repro.graph.partition import GREEDY_IMBALANCE


@pytest.fixture
def medium_csr() -> CSRGraph:
    return CSRGraph.from_graph(erdos_renyi_graph(40, 0.12, seed=3))


ALL_METHODS = sorted(INDEX_PARTITIONERS)


def part_sizes(ipart) -> list[int]:
    return np.bincount(ipart.assignment, minlength=ipart.n_parts).tolist()


class TestPartitionInvariants:
    @pytest.mark.parametrize("method", ALL_METHODS)
    @pytest.mark.parametrize("n_parts", [1, 2, 3, 5, 8])
    def test_partition_validates(self, medium_csr, method, n_parts):
        part = index_partition_graph(medium_csr, n_parts, method=method)
        part.validate()
        assert part.n_parts == n_parts

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_edge_accounting(self, medium_csr, method):
        part = index_partition_graph(medium_csr, 4, method=method)
        internal = sum(part.internal_edges_of(p)[0].shape[0] for p in range(4))
        assert internal + part.n_border_edges == medium_csr.n_edges

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_single_partition_has_no_border_edges(self, medium_csr, method):
        part = index_partition_graph(medium_csr, 1, method=method)
        assert part.n_border_edges == 0
        assert part.part_indices(0).shape[0] == medium_csr.n_vertices

    @pytest.mark.parametrize("method", ALL_METHODS)
    def test_invalid_n_parts_rejected(self, medium_csr, method):
        with pytest.raises(ValueError):
            index_partition_graph(medium_csr, 0, method=method)

    def test_unknown_name_lists_valid_names(self, medium_csr):
        with pytest.raises(KeyError) as err:
            index_partition_graph(medium_csr, 2, method="metis")
        for name in ALL_METHODS:
            assert name in str(err.value)


class TestBlockPartition:
    def test_balanced_sizes(self):
        part = block_partition_indices(CSRGraph.from_graph(path_graph(10)), 3)
        assert sorted(part_sizes(part)) == [3, 3, 4]

    @pytest.mark.parametrize("n", [0, 1, 7, 40, 41])
    @pytest.mark.parametrize("n_parts", [1, 2, 3, 6])
    def test_sizes_differ_by_at_most_one(self, n, n_parts):
        part = block_partition_indices(CSRGraph.from_graph(path_graph(n)), n_parts)
        sizes = part_sizes(part)
        assert sum(sizes) == n and max(sizes) - min(sizes) <= 1

    def test_respects_explicit_order(self):
        csr = CSRGraph.from_graph(path_graph(6))
        order = np.arange(6, dtype=np.int64)[::-1].copy()
        part = block_partition_indices(csr, 2, order=order)
        assert part.part_indices(0).tolist() == order[:3].tolist()

    def test_path_block_partition_cut(self):
        # Cutting a path into contiguous blocks cuts exactly n_parts - 1 edges.
        part = block_partition_indices(CSRGraph.from_graph(path_graph(20)), 4)
        assert part.n_border_edges == 3

    @pytest.mark.parametrize("order", [[0, 1], [0, 1, 1, 2], [0, 1, 2, 5]])
    def test_rejects_non_permutation_order(self, order):
        csr = CSRGraph.from_graph(path_graph(4))
        with pytest.raises(ValueError):
            block_partition_indices(csr, 2, order=np.asarray(order, dtype=np.int64))


class TestHashPartition:
    def test_deterministic(self, medium_csr):
        a = hash_partition_indices(medium_csr, 4)
        b = hash_partition_indices(medium_csr, 4)
        assert a.assignment.tolist() == b.assignment.tolist()


class TestCutQuality:
    @pytest.mark.parametrize(
        "method, sizes, p_in, seed",
        [("bfs", [20, 20, 20], 0.5, 5), ("greedy", [25, 25, 25], 0.4, 2)],
    )
    def test_fewer_border_edges_than_hash_on_planted_graph(self, method, sizes, p_in, seed):
        csr = CSRGraph.from_graph(planted_partition_graph(sizes, p_in=p_in, p_out=0.01, seed=seed))
        cut = index_partition_graph(csr, 3, method=method).n_border_edges
        assert cut < index_partition_graph(csr, 3, method="hash").n_border_edges

    def test_bfs_covers_disconnected_graphs(self):
        csr = CSRGraph.from_graph(Graph(edges=[("a", "b"), ("c", "d"), ("e", "f")]))
        index_partition_graph(csr, 3, method="bfs").validate()


class TestGreedyPartition:
    def test_respects_imbalance_cap(self, medium_csr):
        n, n_parts = medium_csr.n_vertices, 4
        part = greedy_partition_indices(medium_csr, n_parts)
        assert GREEDY_IMBALANCE == 1.1
        assert max(part_sizes(part)) <= max(1, int(GREEDY_IMBALANCE * -(-n // n_parts)))


class TestPartitionHelpers:
    def test_part_arrays_hold_only_internal_edges(self, medium_csr):
        part = index_partition_graph(medium_csr, 4, method="block")
        for idx, (indptr, indices) in enumerate(part.part_arrays()):
            members = part.part_indices(idx)
            assert (part.assignment[members[indices]] == idx).all()
            assert indptr[-1] == 2 * part.internal_edges_of(idx)[0].shape[0]

    def test_border_edges_of(self, medium_csr):
        part = index_partition_graph(medium_csr, 4, method="hash")
        for idx in range(part.n_parts):
            us, vs = part.border_edges_of(idx)
            assert ((part.assignment[us] == idx) | (part.assignment[vs] == idx)).all()
            assert (part.assignment[us] != part.assignment[vs]).all()

"""Unit tests for the communication-free parallel chordal sampler."""

from __future__ import annotations

import pytest

from repro.core import chordal_subgraph_edges, is_chordal
from repro.core.parallel_nocomm import (
    admit_border_edges_no_communication,
    parallel_chordal_nocomm_filter,
)
from repro.graph import correlation_like_graph, edge_key, erdos_renyi_graph, partition_graph


@pytest.fixture(scope="module")
def network():
    return correlation_like_graph(n_modules=4, module_size=8, n_background=80, p_noise=0.004, seed=17)


class TestBorderAdmission:
    def test_paper_figure1_example(self):
        """Reproduce the paper's Figure 1 border rule on a hand-built case.

        The bottom partition holds vertices {6, 8} with the chordal edge
        (6, 8); the external vertex 4 has border edges to both, so the pair is
        admitted.  The external vertex 2 only reaches vertex 6, so nothing is
        admitted for it.
        """
        part_vertices = {"6", "8"}
        local_chordal = {edge_key("6", "8")}
        border = [edge_key("4", "6"), edge_key("4", "8"), edge_key("2", "6")]
        admitted = admit_border_edges_no_communication(border, part_vertices, local_chordal)
        assert set(admitted) == {edge_key("4", "6"), edge_key("4", "8")}

    def test_no_triangle_no_admission(self):
        part_vertices = {"2", "4"}
        local_chordal = set()  # (2,4) is NOT a chordal edge
        border = [edge_key("6", "2"), edge_key("6", "4")]
        assert admit_border_edges_no_communication(border, part_vertices, local_chordal) == []

    def test_single_border_edge_never_admitted(self):
        admitted = admit_border_edges_no_communication(
            [edge_key("x", "a")], {"a"}, {edge_key("a", "b")}
        )
        assert admitted == []

    def test_edges_outside_partition_ignored(self):
        admitted = admit_border_edges_no_communication(
            [edge_key("x", "y")], {"a"}, set()
        )
        assert admitted == []


class TestParallelFilter:
    @pytest.mark.parametrize("n_partitions", [1, 2, 4, 8])
    def test_output_is_subgraph(self, network, n_partitions):
        result = parallel_chordal_nocomm_filter(network, n_partitions)
        for u, v in result.graph.iter_edges():
            assert network.has_edge(u, v)
        assert set(result.graph.vertices()) == set(network.vertices())

    def test_single_partition_matches_sequential_kernel(self, network):
        result = parallel_chordal_nocomm_filter(network, 1)
        assert is_chordal(result.graph)
        assert result.n_border_edges == 0
        assert result.duplicate_border_edges == 0

    def test_local_edges_within_partitions_are_chordal(self, network):
        result = parallel_chordal_nocomm_filter(network, 4, partition_method="block")
        # restricting the filtered graph to any single partition must be chordal:
        # border edges are the only possible source of long cycles.
        part = partition_graph(network, 4, method="block", order=result.graph.vertices())
        for idx in range(4):
            sub = result.graph.subgraph(part.parts[idx])
            assert is_chordal(sub)

    def test_duplicates_bounded_by_border_edges(self, network):
        result = parallel_chordal_nocomm_filter(network, 8, partition_method="hash")
        assert 0 <= result.duplicate_border_edges <= result.n_border_edges

    def test_accepted_border_edges_are_border_edges(self, network):
        result = parallel_chordal_nocomm_filter(network, 4, partition_method="hash")
        border = set(result.border_edges)
        for e in result.accepted_border_edges:
            assert e in border

    def test_more_partitions_keep_fewer_or_equal_edges(self, network):
        few = parallel_chordal_nocomm_filter(network, 2)
        many = parallel_chordal_nocomm_filter(network, 16)
        assert many.n_edges_kept <= few.n_edges_kept + 5  # small slack for border re-adds

    def test_repair_cycles_removes_long_border_cycles(self, network):
        raw = parallel_chordal_nocomm_filter(network, 6, partition_method="hash", repair_cycles=False)
        repaired = parallel_chordal_nocomm_filter(network, 6, partition_method="hash", repair_cycles=True)
        raw_sizes = raw.extra["border_cycle_sizes"]
        repaired_sizes = repaired.extra["border_cycle_sizes"]
        assert repaired.n_edges_kept <= raw.n_edges_kept
        if raw_sizes and max(raw_sizes) > 3:
            assert not repaired_sizes or max(repaired_sizes) <= max(raw_sizes)

    def test_rank_work_per_partition(self, network):
        result = parallel_chordal_nocomm_filter(network, 4)
        assert len(result.rank_work) == 4
        assert all(w.messages == 0 for w in result.rank_work)

    def test_invalid_partition_count(self, network):
        with pytest.raises(ValueError):
            parallel_chordal_nocomm_filter(network, 0)

    def test_explicit_partition_object(self, network):
        part = partition_graph(network, 3, method="bfs")
        result = parallel_chordal_nocomm_filter(network, 3, partition=part)
        assert result.n_partitions == 3

    def test_simulated_time_positive_and_decreasing_with_partitions(self, network):
        one = parallel_chordal_nocomm_filter(network, 1)
        eight = parallel_chordal_nocomm_filter(network, 8)
        assert one.simulated_time > 0
        assert eight.simulated_time < one.simulated_time

    @pytest.mark.parametrize("seed", range(3))
    def test_random_graph_edge_superset_of_partition_chordal(self, seed):
        g = erdos_renyi_graph(40, 0.15, seed=seed)
        result = parallel_chordal_nocomm_filter(g, 4, partition_method="hash")
        # every partition-internal chordal edge must appear in the result
        part = partition_graph(g, 4, method="hash")
        for idx in range(4):
            for e in chordal_subgraph_edges(part.part_subgraph(idx)):
                assert result.graph.has_edge(*e)

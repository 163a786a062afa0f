"""Unit tests for the with-communication parallel chordal sampler (baseline)."""

from __future__ import annotations

import pytest

from repro.core import is_chordal
from repro.core.parallel_comm import parallel_chordal_comm_filter, receiver_admit_border_edges
from repro.graph import Graph, complete_graph, correlation_like_graph, edge_key, partition_graph


@pytest.fixture(scope="module")
def network():
    return correlation_like_graph(n_modules=3, module_size=8, n_background=60, p_noise=0.004, seed=23)


class TestReceiverAdmission:
    def test_admits_triangle_closing_edge(self):
        local = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        accepted, checks = receiver_admit_border_edges(local, [edge_key("a", "x"), edge_key("b", "x")])
        assert set(accepted) == {edge_key("a", "x"), edge_key("b", "x")}
        assert checks == 2

    def test_rejects_edge_closing_long_cycle(self):
        # local path a-b-c-d; adding a-d would close a chordless C4
        local = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d")])
        accepted, _ = receiver_admit_border_edges(local, [edge_key("a", "d")])
        assert accepted == []

    def test_receiver_graph_stays_chordal_and_grows(self):
        local = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        candidates = [edge_key("a", "x"), edge_key("x", "c"), edge_key("x", "b")]
        accepted, _ = receiver_admit_border_edges(local, candidates)
        assert is_chordal(local)
        for e in accepted:
            assert local.has_edge(*e)

    def test_existing_edges_skipped(self):
        local = complete_graph(3)
        accepted, _ = receiver_admit_border_edges(local, [edge_key("v0", "v1")])
        assert accepted == []


class TestParallelCommFilter:
    @pytest.mark.parametrize("n_partitions", [2, 3, 4, 8])
    def test_output_is_subgraph(self, network, n_partitions):
        result = parallel_chordal_comm_filter(network, n_partitions)
        for u, v in result.graph.iter_edges():
            assert network.has_edge(u, v)
        assert set(result.graph.vertices()) == set(network.vertices())

    def test_method_and_provenance(self, network):
        result = parallel_chordal_comm_filter(network, 4)
        assert result.method == "chordal_comm"
        assert result.n_partitions == 4
        assert "comm_stats" in result.extra
        assert result.simulated_time is not None

    def test_messages_were_exchanged(self, network):
        result = parallel_chordal_comm_filter(network, 4, partition_method="hash")
        stats = result.extra["comm_stats"]
        if result.n_border_edges:
            assert stats.messages_sent > 0
            assert stats.messages_received > 0
            assert stats.items_sent > 0

    def test_accepted_border_edges_subset_of_border(self, network):
        result = parallel_chordal_comm_filter(network, 4, partition_method="hash")
        border = set(map(tuple, result.border_pairs.tolist()))
        assert all(tuple(e) in border for e in result.accepted_border_pairs.tolist())

    def test_receiver_side_has_no_duplicates(self, network):
        # unlike the no-communication variant, each border edge is judged by a
        # single receiver, so duplicates should not occur.
        result = parallel_chordal_comm_filter(network, 6, partition_method="hash")
        assert result.duplicate_border_edges == 0

    def test_local_partitions_of_result_remain_chordal(self, network):
        result = parallel_chordal_comm_filter(network, 4, partition_method="block")
        part = partition_graph(network, 4, method="block", order=network.vertices())
        for idx in range(4):
            assert is_chordal(result.graph.subgraph(part.parts[idx]))

    def test_single_partition_falls_back_to_serial(self, network):
        result = parallel_chordal_comm_filter(network, 1)
        assert is_chordal(result.graph)
        assert result.n_border_edges == 0

    def test_invalid_partition_count(self, network):
        with pytest.raises(ValueError):
            parallel_chordal_comm_filter(network, 0)

    def test_rank_work_records_border_edges(self, network):
        result = parallel_chordal_comm_filter(network, 4, partition_method="hash")
        assert len(result.rank_work) == 4
        assert sum(w.border_edges for w in result.rank_work) >= result.n_border_edges

    def test_comm_simulated_time_not_cheaper_than_nocomm(self, network):
        from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter

        comm = parallel_chordal_comm_filter(network, 4, partition_method="hash")
        nocomm = parallel_chordal_nocomm_filter(network, 4, partition_method="hash")
        assert comm.simulated_time >= nocomm.simulated_time

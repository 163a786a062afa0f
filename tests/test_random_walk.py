"""Unit tests for the parallel random-walk control filter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.random_walk import _walk, parallel_random_walk_filter
from repro.graph import CSRGraph, Graph, complete_graph, correlation_like_graph, path_graph
from repro.parallel.rng import rank_rngs


@pytest.fixture(scope="module")
def network():
    return correlation_like_graph(n_modules=3, module_size=8, n_background=60, seed=29)


def walk_graph(g: Graph, rng: np.random.Generator):
    """One walk of the rank kernel over ``g``'s CSR rows: (label edges, selections)."""
    csr = CSRGraph.from_graph(g)
    kept, selections = _walk(csr.neighbor_lists(), csr.n_edges, rng)
    return [(csr.labels[i], csr.labels[j]) for i, j in kept], selections


class TestWalkKernel:
    def test_selected_edges_belong_to_graph(self):
        g = complete_graph(8)
        edges, selections = walk_graph(g, np.random.default_rng(0))
        assert selections == int(0.5 * g.n_edges)
        for u, v in edges:
            assert g.has_edge(u, v)

    def test_unique_edges_at_most_selections(self):
        g = complete_graph(10)
        edges, selections = walk_graph(g, np.random.default_rng(1))
        assert len(edges) <= selections

    def test_empty_graph(self):
        edges, selections = walk_graph(Graph(), np.random.default_rng(0))
        assert edges == [] and selections == 0

    def test_walk_restarts_from_isolated_vertices(self):
        g = path_graph(4)
        g.add_vertex("island")
        edges, _ = walk_graph(g, np.random.default_rng(3))
        for u, v in edges:
            assert "island" not in (u, v)


class TestParallelRandomWalk:
    def test_result_structure(self, network):
        result = parallel_random_walk_filter(network, 4, seed=0)
        assert result.method == "random_walk"
        assert result.n_partitions == 4
        assert len(result.rank_work) == 4
        assert result.simulated_time is not None

    def test_output_is_subgraph_with_all_vertices(self, network):
        result = parallel_random_walk_filter(network, 4, seed=0)
        for u, v in result.graph.iter_edges():
            assert network.has_edge(u, v)
        assert set(result.graph.vertices()) == set(network.vertices())

    def test_reproducible(self, network):
        a = parallel_random_walk_filter(network, 4, seed=5)
        b = parallel_random_walk_filter(network, 4, seed=5)
        assert a.graph == b.graph

    def test_seed_changes_output(self, network):
        a = parallel_random_walk_filter(network, 4, seed=1)
        b = parallel_random_walk_filter(network, 4, seed=2)
        assert a.graph != b.graph

    @pytest.mark.parametrize("seed", [0, 7])
    def test_border_edges_kept_by_a_fair_coin(self, network, seed):
        # Each border edge survives when the last of the P + 1 rank streams
        # draws below one half, in partition order.
        result = parallel_random_walk_filter(network, 4, seed=seed)
        border = result.border_pairs
        coin = rank_rngs(seed, 5)[-1].random(border.shape[0]) < 0.5
        assert 0 < coin.sum() < border.shape[0]
        assert result.accepted_border_pairs.tolist() == border[coin].tolist()

    def test_invalid_parameters(self, network):
        with pytest.raises(ValueError):
            parallel_random_walk_filter(network, 0)

    def test_removes_more_edges_than_chordal(self, network):
        from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter

        walk = parallel_random_walk_filter(network, 4, seed=0)
        chordal = parallel_chordal_nocomm_filter(network, 4)
        assert walk.n_edges_kept < chordal.n_edges_kept

    def test_faster_than_chordal_in_cost_model(self, network):
        from repro.core.parallel_nocomm import parallel_chordal_nocomm_filter

        walk = parallel_random_walk_filter(network, 4, seed=0)
        chordal = parallel_chordal_nocomm_filter(network, 4)
        assert walk.simulated_time <= chordal.simulated_time

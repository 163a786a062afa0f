"""Unit tests for the synthetic graph generators."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graph import (
    barabasi_albert_graph,
    complete_graph,
    correlation_like_graph,
    count_triangles,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    planted_partition_graph,
    random_tree,
    star_graph,
)


def density(g) -> float:
    """``2m / (n (n - 1))`` of a label graph; 0.0 below two vertices."""
    n = g.n_vertices
    return 2.0 * g.n_edges / (n * (n - 1)) if n > 1 else 0.0


class TestDeterministicShapes:
    def test_path_graph(self):
        g = path_graph(5)
        assert g.n_vertices == 5
        assert g.n_edges == 4
        assert nx.is_forest(g.to_networkx())

    def test_cycle_graph(self):
        g = cycle_graph(6)
        assert g.n_edges == 6
        assert all(g.degree(v) == 2 for v in g.vertices())

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_complete_graph(self):
        g = complete_graph(6)
        assert g.n_edges == 15
        assert count_triangles(g) == 20

    def test_star_graph(self):
        g = star_graph(7)
        assert g.degree("v0") == 7
        assert g.n_edges == 7

    def test_grid_graph(self):
        g = grid_graph(3, 4)
        assert g.n_vertices == 12
        assert g.n_edges == 3 * 3 + 2 * 4  # horizontal + vertical edges

    def test_random_tree(self):
        g = random_tree(20, seed=4)
        assert g.n_edges == 19
        assert nx.is_connected(g.to_networkx())
        assert nx.is_forest(g.to_networkx())


class TestRandomGenerators:
    def test_erdos_renyi_seeded(self):
        a = erdos_renyi_graph(30, 0.2, seed=9)
        b = erdos_renyi_graph(30, 0.2, seed=9)
        assert a == b

    def test_erdos_renyi_p_zero_and_one(self):
        assert erdos_renyi_graph(10, 0.0, seed=1).n_edges == 0
        assert erdos_renyi_graph(10, 1.0, seed=1).n_edges == 45

    def test_erdos_renyi_invalid_p(self):
        with pytest.raises(ValueError):
            erdos_renyi_graph(10, 1.5)

    def test_barabasi_albert_edge_count(self):
        g = barabasi_albert_graph(50, 2, seed=0)
        assert g.n_vertices == 50
        # star on m+1 vertices plus m edges per new vertex
        assert g.n_edges == 2 + (50 - 3) * 2
        assert nx.is_connected(g.to_networkx())

    def test_barabasi_albert_invalid_params(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(3, 3)

    def test_barabasi_albert_has_hubs(self):
        g = barabasi_albert_graph(120, 2, seed=1)
        degrees = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        assert degrees[0] >= 3 * degrees[len(degrees) // 2]


class TestPlantedPartition:
    def test_modules_denser_than_background(self):
        g = planted_partition_graph([15, 15], p_in=0.8, p_out=0.02, seed=3)
        module_a = [f"g{i}" for i in range(15)]
        module_b = [f"g{i}" for i in range(15, 30)]
        internal = g.subgraph(module_a).n_edges + g.subgraph(module_b).n_edges
        cross = g.n_edges - internal
        assert internal > cross

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            planted_partition_graph([5, 5], p_in=0.1, p_out=0.5)

    def test_vertex_count(self):
        g = planted_partition_graph([4, 6, 8], p_in=0.5, p_out=0.0, seed=0)
        assert g.n_vertices == 18


class TestCorrelationLikeGraph:
    def test_contains_dense_modules(self):
        g = correlation_like_graph(n_modules=3, module_size=8, n_background=40, seed=2)
        module0 = [f"gene{i}" for i in range(8)]
        sub = g.subgraph(module0)
        assert density(sub) > 0.5

    def test_reproducible(self):
        a = correlation_like_graph(seed=5)
        b = correlation_like_graph(seed=5)
        assert a == b

    def test_sparse_overall(self):
        g = correlation_like_graph(seed=1)
        assert density(g) < 0.1

"""Unit tests for the sequential chordal and random-walk filters."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    FilterResult,
    is_chordal,
    sequential_chordal_filter,
    sequential_random_walk_filter,
)
from repro.core.sequential import resolve_order_indices
from repro.graph import (
    CSRGraph,
    complete_graph,
    correlation_like_graph,
    cycle_graph,
    erdos_renyi_graph,
)


@pytest.fixture(scope="module")
def network():
    return correlation_like_graph(n_modules=4, module_size=8, n_background=60, seed=9)


class TestSequentialChordal:
    def test_result_structure(self, network):
        result = sequential_chordal_filter(network, ordering="natural")
        assert isinstance(result, FilterResult)
        assert result.method == "chordal_sequential"
        assert result.ordering == "natural"
        assert result.n_partitions == 1
        assert result.n_border_edges == 0
        assert result.simulated_time is not None and result.simulated_time > 0
        assert result.wall_time is not None

    def test_filtered_graph_is_chordal_subgraph(self, network):
        result = sequential_chordal_filter(network)
        assert is_chordal(result.graph)
        for u, v in result.graph.iter_edges():
            assert network.has_edge(u, v)
        assert set(result.graph.vertices()) == set(network.vertices())

    def test_noise_free_input_keeps_all_edges(self):
        clique = complete_graph(8)
        result = sequential_chordal_filter(clique)
        assert result.edge_reduction == 0.0
        assert result.n_edges_removed == 0

    def test_noisy_input_reduces_edges(self):
        result = sequential_chordal_filter(cycle_graph(10))
        assert result.n_edges_removed == 1
        assert result.edge_reduction == pytest.approx(0.1)

    @pytest.mark.parametrize("ordering", ["natural", "high_degree", "low_degree", "rcm"])
    def test_all_orderings_supported(self, network, ordering):
        result = sequential_chordal_filter(network, ordering=ordering)
        assert result.ordering == ordering
        assert is_chordal(result.graph)

    def test_explicit_order(self, network):
        order = list(reversed(network.vertices()))
        result = sequential_chordal_filter(network, ordering=None, explicit_order=order)
        assert result.ordering == "explicit"
        assert is_chordal(result.graph)

    def test_summary_keys(self, network):
        summary = sequential_chordal_filter(network).summary()
        for key in ("method", "edges_kept", "edge_reduction", "simulated_time"):
            assert key in summary


class TestResolveOrder:
    def test_none_passthrough(self, network):
        order, name = resolve_order_indices(CSRGraph.of(network), None)
        assert order is None and name is None

    def test_named_ordering(self, network):
        csr = CSRGraph.of(network)
        order, name = resolve_order_indices(csr, "high_degree")
        assert name == "high_degree"
        assert order.dtype == np.int64
        assert sorted(order.tolist()) == list(range(csr.n_vertices))

    def test_explicit_order_validated(self, network):
        with pytest.raises(ValueError):
            resolve_order_indices(
                CSRGraph.of(network), None, explicit_order=network.vertices()[:3]
            )

    def test_duplicated_explicit_order_rejected(self, network):
        verts = network.vertices()
        duplicated = verts[:-1] + verts[:1]  # right length, one vertex twice
        with pytest.raises(ValueError):
            resolve_order_indices(CSRGraph.of(network), None, explicit_order=duplicated)


class TestSequentialRandomWalk:
    def test_result_structure(self, network):
        result = sequential_random_walk_filter(network, seed=4)
        assert result.method == "random_walk_sequential"
        assert result.ordering is None
        assert result.extra["seed"] == 4

    def test_is_subgraph(self, network):
        result = sequential_random_walk_filter(network, seed=1)
        for u, v in result.graph.iter_edges():
            assert network.has_edge(u, v)

    def test_reproducible_for_seed(self, network):
        a = sequential_random_walk_filter(network, seed=7)
        b = sequential_random_walk_filter(network, seed=7)
        assert a.graph == b.graph

    def test_different_seeds_differ(self, network):
        a = sequential_random_walk_filter(network, seed=1)
        b = sequential_random_walk_filter(network, seed=2)
        assert a.graph != b.graph

    def test_keeps_at_most_selection_fraction_unique_edges(self, network):
        result = sequential_random_walk_filter(network, seed=3, selection_fraction=0.5)
        assert result.graph.n_edges <= int(0.5 * network.n_edges)

    def test_selection_fraction_validated(self, network):
        with pytest.raises(ValueError):
            sequential_random_walk_filter(network, selection_fraction=0.0)

    def test_empty_graph(self):
        from repro.graph import Graph

        result = sequential_random_walk_filter(Graph())
        assert result.graph.n_edges == 0

    def test_random_walk_keeps_fewer_triangle_edges_than_chordal(self):
        g = erdos_renyi_graph(40, 0.2, seed=2)
        chordal = sequential_chordal_filter(g)
        walk = sequential_random_walk_filter(g, seed=0)
        from repro.graph import count_triangles

        assert count_triangles(chordal.graph) >= count_triangles(walk.graph)


class TestBatchedRandomWalkStream:
    """Regression pins for the batched RNG stream of the sequential walk.

    The CSR port draws uniform deviates in batches (one ``rng.random`` call
    per ``RANDOM_WALK_RNG_BATCH`` steps) instead of one ``rng.integers`` call
    per step, so for the same seed the walk differs from the seed
    implementation.  The change is declared in ``extra["rng_stream"]`` and the
    exact outputs below pin the *new* stream: any further change to how the
    walk consumes randomness must update these values consciously.
    """

    def test_stream_is_documented_in_extra(self, network):
        result = sequential_random_walk_filter(network, seed=0)
        assert result.extra["rng_stream"] == "batched-uniform-v2"
        assert result.extra["rng_batch"] == 4096

    def test_pinned_edges_small_graph(self):
        from repro.graph import path_graph

        g = path_graph(8)
        g.add_edge("v0", "v7")
        g.add_edge("v2", "v5")
        result = sequential_random_walk_filter(g, seed=11)
        assert sorted(result.graph.iter_edges()) == [
            ("v0", "v1"),
            ("v0", "v7"),
            ("v5", "v6"),
            ("v6", "v7"),
        ]
        assert result.extra["selections"] == 4

    def test_pinned_edge_count_network(self, network):
        # network: correlation_like_graph(n_modules=4, module_size=8,
        # n_background=60, seed=9) -> 182 edges; walk seed 7 keeps exactly 55.
        result = sequential_random_walk_filter(network, seed=7)
        assert network.n_edges == 182
        assert result.graph.n_edges == 55

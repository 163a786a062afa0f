"""Unit tests for triangle counts, cycle bases and chordless cycles."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graph import (
    complete_graph,
    count_triangles,
    cycle_basis_sizes,
    cycle_graph,
    find_chordless_cycle,
    path_graph,
)


class TestTriangles:
    def test_triangle_count_k4(self):
        assert count_triangles(complete_graph(4)) == 4

    def test_triangle_count_k5(self):
        assert count_triangles(complete_graph(5)) == 10

    def test_no_triangles_in_cycle4(self):
        assert count_triangles(cycle_graph(4)) == 0

    def test_no_triangles_in_path(self):
        assert count_triangles(path_graph(6)) == 0

    def test_triangle_count_matches_networkx(self, corpus_graph):
        per_vertex = nx.triangles(corpus_graph.to_networkx())
        assert count_triangles(corpus_graph) == sum(per_vertex.values()) // 3


class TestCycles:
    def test_cycle_basis_sizes_cycle(self):
        assert cycle_basis_sizes(cycle_graph(7)) == [7]

    def test_cycle_basis_sizes_tree_empty(self):
        assert cycle_basis_sizes(path_graph(5)) == []

    def test_cycle_basis_count_matches_formula(self):
        g = complete_graph(5)
        # |cycles in basis| = E - V + components
        assert len(cycle_basis_sizes(g)) == g.n_edges - g.n_vertices + 1

    def test_cycle_basis_is_cyclomatic_on_corpus(self, corpus_graph):
        nxg = corpus_graph.to_networkx()
        sizes = cycle_basis_sizes(corpus_graph)
        rank = corpus_graph.n_edges - corpus_graph.n_vertices + nx.number_connected_components(nxg)
        assert len(sizes) == rank
        assert all(size >= 3 for size in sizes)


class TestChordlessCycles:
    def test_square_is_chordless(self):
        cycle = find_chordless_cycle(cycle_graph(4))
        assert cycle is not None
        assert len(cycle) == 4

    def test_complete_graph_has_none(self):
        assert find_chordless_cycle(complete_graph(6)) is None

    def test_long_cycle_found(self):
        cycle = find_chordless_cycle(cycle_graph(8))
        assert cycle is not None
        assert len(cycle) == 8

    def test_chorded_cycle_reduced(self):
        g = cycle_graph(6)
        g.add_edge("v0", "v3")  # chord splits C6 into two C4s
        cycle = find_chordless_cycle(g)
        assert cycle is not None
        assert len(cycle) == 4

    def test_chordless_cycle_found_iff_not_chordal(self, corpus_graph):
        cycle = find_chordless_cycle(corpus_graph)
        assert (cycle is None) == nx.is_chordal(corpus_graph.to_networkx())
        if cycle is not None:
            # An induced cycle: consecutive vertices adjacent, no chords.
            n = len(cycle)
            assert n >= 4 and len(set(cycle)) == n
            for i in range(n):
                for j in range(i + 1, n):
                    consecutive = j == i + 1 or (i == 0 and j == n - 1)
                    assert corpus_graph.has_edge(cycle[i], cycle[j]) == consecutive

    def test_min_length_refused(self):
        # Every cycle it returns is chordless, so of length >= 4 already.
        with pytest.raises(TypeError):
            find_chordless_cycle(cycle_graph(5), min_length=4)

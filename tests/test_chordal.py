"""Unit tests for the chordal-graph kernels (recognition + DSW construction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.chordal import (
    augment_to_maximal,
    chordal_subgraph_edge_indices,
    chordal_subgraph_edges,
    edge_insertion_preserves_chordality,
    fill_in_edges,
    find_simplicial_vertex,
    is_chordal,
    is_maximal_chordal_subgraph,
    is_perfect_elimination_ordering,
    is_simplicial,
    maximal_chordal_subgraph,
    maximum_cardinality_search,
    mcs_order_indices,
    reference_chordal_subgraph_edges,
    reference_maximum_cardinality_search,
)
from repro.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.csr import CSRGraph


class TestRecognition:
    def test_small_graphs_are_chordal(self):
        assert is_chordal(Graph())
        assert is_chordal(complete_graph(3))
        assert is_chordal(path_graph(2))

    def test_trees_are_chordal(self):
        assert is_chordal(path_graph(10))
        assert is_chordal(star_graph(6))

    def test_complete_graphs_are_chordal(self):
        assert is_chordal(complete_graph(6))

    def test_cycles_longer_than_three_are_not_chordal(self):
        for n in (4, 5, 6, 9):
            assert not is_chordal(cycle_graph(n)), n

    def test_chorded_cycle_is_chordal(self):
        g = cycle_graph(5)
        g.add_edge("v0", "v2")
        g.add_edge("v0", "v3")
        assert is_chordal(g)

    def test_grid_is_not_chordal(self):
        assert not is_chordal(grid_graph(3, 3))

    def test_disconnected_chordality(self):
        g = Graph(edges=[("a", "b"), ("c", "d"), ("d", "e"), ("e", "c")])
        assert is_chordal(g)
        g2 = Graph(edges=list(cycle_graph(4).iter_edges()) + [("x", "y")])
        assert not is_chordal(g2)


class TestMCS:
    def test_mcs_is_permutation(self):
        g = erdos_renyi_graph(20, 0.2, seed=1)
        order = maximum_cardinality_search(g)
        assert sorted(map(str, order)) == sorted(map(str, g.vertices()))

    def test_mcs_start_vertex(self):
        g = path_graph(5)
        assert maximum_cardinality_search(g, start="v3")[0] == "v3"

    def test_mcs_unknown_start_raises(self):
        with pytest.raises(KeyError):
            maximum_cardinality_search(path_graph(3), "zzz")

    def test_reverse_mcs_is_peo_for_chordal_graph(self):
        g = complete_graph(4)
        g.add_edge("v0", "leaf")
        order = maximum_cardinality_search(g)
        assert is_perfect_elimination_ordering(g, list(reversed(order)))

    def test_empty_graph(self):
        assert maximum_cardinality_search(Graph()) == []

    def test_mcs_start_vertex_not_left_stale_in_heap(self):
        """With ``start`` given, the heap is seeded after the visit — and the
        produced orders match the seed reference exactly (the fix must not move
        any pin)."""
        for seed in range(6):
            g = erdos_renyi_graph(25, 0.15, seed=seed)
            csr = CSRGraph.from_graph(g)
            for start in (None, 0, 7, 24):
                start_label = None if start is None else csr.labels[start]
                expected = reference_maximum_cardinality_search(g, start_label)
                assert maximum_cardinality_search(g, start_label) == expected
                order = mcs_order_indices(csr, start)
                assert sorted(order) == list(range(csr.n_vertices))
                if start is not None:
                    assert order[0] == start


class TestPEO:
    def test_path_any_leaf_first_order(self):
        g = path_graph(4)
        assert is_perfect_elimination_ordering(g, ["v0", "v1", "v2", "v3"])

    def test_cycle_has_no_peo(self):
        g = cycle_graph(4)
        assert not is_perfect_elimination_ordering(g, g.vertices())

    def test_rejects_non_permutation(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            is_perfect_elimination_ordering(g, ["v0", "v1"])


class TestSimplicial:
    def test_clique_vertices_are_simplicial(self):
        g = complete_graph(4)
        assert all(is_simplicial(g, v) for v in g.vertices())

    def test_cycle_has_no_simplicial_vertex(self):
        assert find_simplicial_vertex(cycle_graph(5)) is None

    def test_chordal_graph_has_simplicial_vertex(self):
        g = complete_graph(4)
        g.add_edge("v0", "pendant")
        assert find_simplicial_vertex(g) is not None

    def test_degree_one_vertex_is_simplicial(self):
        g = path_graph(3)
        assert is_simplicial(g, "v0")
        assert not is_simplicial(g, "v1")


class TestFillIn:
    def test_chordal_graph_has_empty_fill_in(self):
        g = complete_graph(5)
        assert fill_in_edges(g) == []

    def test_cycle_fill_in_nonempty(self):
        assert len(fill_in_edges(cycle_graph(5))) > 0

    def test_explicit_bad_order_on_path_creates_fill(self):
        g = path_graph(3)
        # eliminating the middle vertex first connects its two neighbours
        fills = fill_in_edges(g, order=["v1", "v0", "v2"])
        assert fills == [("v0", "v2")]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            fill_in_edges(path_graph(3), order=["v0"])


class TestDearingShierWarner:
    @pytest.mark.parametrize("n", [4, 5, 6, 8])
    def test_cycle_loses_exactly_one_edge(self, n):
        g = cycle_graph(n)
        sub = maximal_chordal_subgraph(g)
        assert sub.n_edges == n - 1
        assert is_chordal(sub)

    def test_complete_graph_fully_kept(self):
        g = complete_graph(6)
        sub = maximal_chordal_subgraph(g)
        assert sub.n_edges == g.n_edges

    def test_chordal_input_unchanged(self):
        g = complete_graph(4)
        g.add_edge("v0", "x")
        g.add_edge("v1", "x")
        assert is_chordal(g)
        sub = maximal_chordal_subgraph(g)
        assert sub.n_edges == g.n_edges

    @pytest.mark.parametrize("seed", range(6))
    def test_random_graphs_chordal_and_maximal(self, seed):
        g = erdos_renyi_graph(22, 0.25, seed=seed)
        sub = maximal_chordal_subgraph(g)
        assert is_chordal(sub)
        assert is_maximal_chordal_subgraph(g, sub)

    def test_result_is_subgraph_of_original(self):
        g = erdos_renyi_graph(25, 0.2, seed=10)
        sub = maximal_chordal_subgraph(g)
        for u, v in sub.iter_edges():
            assert g.has_edge(u, v)

    def test_keep_all_vertices_flag(self):
        g = cycle_graph(4)
        g.add_vertex("isolated")
        sub = maximal_chordal_subgraph(g, keep_all_vertices=True)
        assert sub.has_vertex("isolated")
        sub2 = maximal_chordal_subgraph(g, keep_all_vertices=False)
        assert not sub2.has_vertex("isolated")

    def test_ordering_changes_result_size_or_content(self):
        # Orderings may change which maximal subgraph is found; the result
        # must stay chordal either way and cover the same vertex set.
        g = erdos_renyi_graph(30, 0.2, seed=3)
        natural = maximal_chordal_subgraph(g, order=g.vertices())
        reverse = maximal_chordal_subgraph(g, order=list(reversed(g.vertices())))
        assert is_chordal(natural)
        assert is_chordal(reverse)
        assert set(natural.vertices()) == set(reverse.vertices())

    def test_strict_order_is_chordal(self):
        g = erdos_renyi_graph(25, 0.25, seed=5)
        sub = maximal_chordal_subgraph(g, order=g.vertices(), strict_order=True)
        assert is_chordal(sub)

    def test_explicit_start_vertex(self):
        g = cycle_graph(5)
        edges = chordal_subgraph_edges(g, start="v3")
        assert len(edges) == 4

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            chordal_subgraph_edges(path_graph(3), order=["v0", "v1"])

    def test_bad_start_rejected(self):
        with pytest.raises(KeyError):
            chordal_subgraph_edges(path_graph(3), start="nope")

    def test_empty_graph(self):
        assert chordal_subgraph_edges(Graph()) == []


class TestCSRKernelsMatchReference:
    """The CSR kernels pinned against the retained seed ``reference_*`` bodies."""

    @pytest.mark.parametrize("seed", range(4))
    def test_mcs_order_matches_reference(self, seed):
        g = erdos_renyi_graph(40, 0.15, seed=seed)
        csr = CSRGraph.from_graph(g)
        for start in (None, 3):
            start_label = None if start is None else csr.labels[start]
            got = [csr.labels[i] for i in mcs_order_indices(csr, start)]
            assert got == reference_maximum_cardinality_search(g, start_label)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("strict", [False, True])
    def test_dsw_matches_reference_under_priorities(self, seed, strict):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(40, 0.15, seed=seed)
        csr = CSRGraph.from_graph(g)
        n = csr.n_vertices
        labels = csr.labels
        priorities = [
            np.arange(n, dtype=np.int64),
            rng.permutation(n).astype(np.int64),
            rng.permutation(n).astype(np.int64) * 3 + 5,  # sparse, non-dense ranks
            np.arange(n, dtype=np.int64) // 4,  # ties: index breaks them
        ]
        for priority in priorities:
            order = [labels[i] for i in sorted(range(n), key=lambda i: (priority[i], i))]
            for start in (None, int(rng.integers(n))):
                start_label = None if start is None else labels[start]
                got = chordal_subgraph_edge_indices(
                    csr, priority=priority, strict_order=strict, start=start
                )
                expected = reference_chordal_subgraph_edges(
                    g, order=order, strict_order=strict, start=start_label
                )
                assert {frozenset((labels[i], labels[j])) for i, j in got} == {
                    frozenset(e) for e in expected
                }

    def test_chordal_edges_match_reference_seed_body(self):
        g = erdos_renyi_graph(20, 0.15, seed=5)
        expected = sorted(reference_chordal_subgraph_edges(g))
        assert sorted(chordal_subgraph_edges(g)) == expected
        assert sorted(maximal_chordal_subgraph(g).edges()) == expected


class TestAugmentAndMaximality:
    def test_augment_reaches_maximality(self):
        g = cycle_graph(6)
        partial = g.spanning_subgraph([("v0", "v1"), ("v2", "v3")])
        augmented = augment_to_maximal(g, partial)
        assert is_chordal(augmented)
        assert is_maximal_chordal_subgraph(g, augmented)

    def test_is_maximal_rejects_non_chordal(self):
        g = cycle_graph(4)
        assert not is_maximal_chordal_subgraph(g, g)

    def test_is_maximal_rejects_extendable(self):
        g = complete_graph(4)
        partial = g.spanning_subgraph([("v0", "v1")])
        assert not is_maximal_chordal_subgraph(g, partial)


class TestEdgeInsertion:
    def test_two_pair_insertion_allowed(self):
        # a-b-c path: adding a-c creates a triangle, stays chordal
        g = path_graph(3)
        assert edge_insertion_preserves_chordality(g, "v0", "v2")

    def test_insertion_closing_long_cycle_rejected(self):
        g = path_graph(4)
        assert not edge_insertion_preserves_chordality(g, "v0", "v3")

    def test_insertion_between_components_allowed(self):
        g = Graph(edges=[("a", "b"), ("c", "d")])
        assert edge_insertion_preserves_chordality(g, "a", "c")

    def test_insertion_with_new_vertex_allowed(self):
        g = complete_graph(3)
        assert edge_insertion_preserves_chordality(g, "v0", "newcomer")

    def test_existing_edge_is_trivially_fine(self):
        g = complete_graph(3)
        assert edge_insertion_preserves_chordality(g, "v0", "v1")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            edge_insertion_preserves_chordality(complete_graph(3), "v0", "v0")

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_on_random_chordal_graphs(self, seed):
        base = erdos_renyi_graph(14, 0.3, seed=seed)
        chordal = maximal_chordal_subgraph(base)
        missing = [e for e in base.iter_edges() if not chordal.has_edge(*e)]
        for u, v in missing:
            fast = edge_insertion_preserves_chordality(chordal, u, v)
            trial = chordal.copy()
            trial.add_edge(u, v)
            assert fast == is_chordal(trial)

"""Unit tests for the chordal-graph kernels (recognition + DSW construction)."""

from __future__ import annotations

import hashlib

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
from repro.core.sequential import priority_from_permutation
from repro.expression import make_study
from repro.graph import (
    Graph,
    barabasi_albert_graph,
    complete_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    star_graph,
)
from repro.graph.csr import CSRGraph
from repro.graph.ordering import ordering_indices


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


#: sha256 of the kernel's pair list (little-endian ``int64``, in output
#: order) for every ordering, greedy/strict selection and default/explicit
#: start on seeded ER and BA graphs and the CRE 0.05 network.  The set
#: pins above check which edges are accepted; ``merge_rank_outputs`` and the
#: filtered CSR also depend on the order they come out in, so these pin
#: that.  The CRE network thresholds BLAS-computed correlations, so its
#: digests assume the OpenBLAS that numpy's wheels bundle, as
#: ``STUDY_DIGESTS`` does.
DSW_ORDER_DIGESTS = {
    "er80/natural/greedy": "b2092596606a2899fa5635a870ff73935d13e1e0e0355463eb9d081ec88eaf94",
    "er80/natural/greedy@start": "f725a1b2a9f0f40dc44618075846a1ea867a3468c978bc2179056a7deadf6d24",
    "er80/natural/strict": "90714cf0effd71ed579fc1b3b3b7134030b580c61270c6181e9406adca73ac05",
    "er80/natural/strict@start": "ebb09e66cb2686487f13397012b149404bbf7b154953d5c1d74ea1d59e84374c",
    "er80/high_degree/greedy": "920d2c300d8c17f5875b004be1a184540b09eccaf387c5552a481fc720da3d8d",
    "er80/high_degree/greedy@start": "5d941ae4ce08bb23345afa07e40bbe4460a97783b6c3bac789dbf3189f71a87d",
    "er80/high_degree/strict": "dc75472a247ac8474916f0bd2fb8a455c1732b221fb9aa11e4ea0f6c14cbf1ed",
    "er80/high_degree/strict@start": "55b0a69f8ab0c70474a2402579fbb57a5e4418c8e8b94abc5cb5ce5cb2ade224",
    "er80/low_degree/greedy": "baf4dd25bdf8f9a5eaff8c92a094dbfebdb8696b24fab4a32868c7e92656fd33",
    "er80/low_degree/greedy@start": "cd981b22eeeb578db214dbe4d60b969edf50a6722fb5355be7f124bff63b2067",
    "er80/low_degree/strict": "000e750600c2ddfc5ef84431faa9b6df693d881d14757e07872f5d01706b6df7",
    "er80/low_degree/strict@start": "2a7ec0500fcb2eaefac56b21c601e7f2cc9ac49f2183da937ea64b0d9d2b9a56",
    "er80/rcm/greedy": "87661f1eab2cb4360156b60d9cea0690c9d381163ac866183882bc3bfab899a8",
    "er80/rcm/greedy@start": "20f539d0aa7d0301396aea930e362b567f6d994a2b6321c0c2cd3086565b5dd7",
    "er80/rcm/strict": "9dec63b818490dd6d1966bbf1a04d497b3ba9d93cea4b600b7a93bc1f3f7c6bf",
    "er80/rcm/strict@start": "b03e67d5b72bc5f9dc41c8fe4ef27013ba422229d088b4b11aaf033605dd516f",
    "ba120/natural/greedy": "9e5f626afc5fc5ba275ab0df366ba25df580acab89a7fbb16935293883182e3e",
    "ba120/natural/greedy@start": "dcc018783269e938b4a459b345060b24f01beffc4ba162da18db37544c478c8c",
    "ba120/natural/strict": "0a20b69a7f4c4b47651180fea0f10f4a11919f13b0b98e27cfb18d6797c84f0c",
    "ba120/natural/strict@start": "9379ee4eb008e20c8906ab3a0bac416199d7696810438f990facdef6161280ba",
    "ba120/high_degree/greedy": "d74ca4e0ebd6eb5b599203396fd558c226e57c6fad42f1e2c00028de15c3c73c",
    "ba120/high_degree/greedy@start": "91ec40d115ac23d8a288dfc19383821719e29483e220319f7120676b3e106b3b",
    "ba120/high_degree/strict": "86e3db4e821e272f9875b5c8989f69c751629af477293b35eabb65b136b8035f",
    "ba120/high_degree/strict@start": "76b5b9011555b2dc8db38859387400b9d9f8e02b1000cf710997b1bdabcdf8e4",
    "ba120/low_degree/greedy": "62766a603a639a41523836d03654eed05a3ca0b7c0cc22f7a6cf410c0fd779c7",
    "ba120/low_degree/greedy@start": "2be2b33c378bc63f5e2394ec652fcfa9e6190d4aca20724d0d8f47a3146b3008",
    "ba120/low_degree/strict": "a1f6215464db11ccc80b92ede603b18bdc3ba8b41d64f463829db1e036bb4984",
    "ba120/low_degree/strict@start": "35e7e863c821af29684c87d0c40408474063dc1756dace4acc5f20a08baa0563",
    "ba120/rcm/greedy": "2a89cd122006d01508d5c43fa8c7cdb276c3c3c9cc129fc363620ed87045476e",
    "ba120/rcm/greedy@start": "a7e320b079723a395071c4d04709aa3ba1057aa9b2bd1d22cf37e0db712f06b2",
    "ba120/rcm/strict": "7d9aae4802e69a17c96c93ef3d65b6c0c0a6d24bafa9b3b6a1b1d31f25380115",
    "ba120/rcm/strict@start": "6db2b742bd79b06d9c85927db8aa6c55434904c5fe4d6013fd3a90432069ae5f",
    "cre0.05/natural/greedy": "f1c7395af0f280cbe9e6044a595dff00e37ca683059315262c1c9c05a416f9bf",
    "cre0.05/natural/greedy@start": "513889fa18cc01c9d5d26f999d3a02af206a78e8b8e781c511d0a316ef1e9cce",
    "cre0.05/natural/strict": "2669295a6e53a1f6585fff37d5b1c446a93eae61d10da5fee2e4e50893ec4fa8",
    "cre0.05/natural/strict@start": "95eea1d68d0c245e472310fcd6b6a9e34dd844f09e060fe18667f7b54ee9c928",
    "cre0.05/high_degree/greedy": "6f91de36fcd5e0ae93e3363920e7738beb4860a398e580a1e75087562d514b29",
    "cre0.05/high_degree/greedy@start": "83e186755674cf4a4bf72d0afbe1c377eb524e2258b5ad62f857d39deda22303",
    "cre0.05/high_degree/strict": "1ae8a54ee98cb7ea47e1a8ded95cfcb084b6aa7dda3b3b5c50a507e2a2f7e7b2",
    "cre0.05/high_degree/strict@start": "1ae8a54ee98cb7ea47e1a8ded95cfcb084b6aa7dda3b3b5c50a507e2a2f7e7b2",
    "cre0.05/low_degree/greedy": "0a1bfe1793c0498b2e648b628b2bc4c6a993ca28701f1fa2918fd649c2e90961",
    "cre0.05/low_degree/greedy@start": "9e6399c2d0bec630a85cda29ecf57e01599ed4829777a88af9a9be3c7b5d4769",
    "cre0.05/low_degree/strict": "9182c587ec13d49c86630a467150a45ff86d0c558f447d26f63f5c54d898b5a2",
    "cre0.05/low_degree/strict@start": "97168a3671a3a73f2a07671d7a008b2368d6ad1d8ea96393b629eb24270360af",
    "cre0.05/rcm/greedy": "b1dadc5e02eac8e3a6e9d74909d216eb714ce0cb46a5b3ead1a2768f893d5bc8",
    "cre0.05/rcm/greedy@start": "2aea386d808e5f74100d2b28266a846ec94f78eab793597893e955adf5d625ea",
    "cre0.05/rcm/strict": "7967f4a638ff0831495f86b48487daee5f6eecc12b6dd557135a849a5a6dd7ae",
    "cre0.05/rcm/strict@start": "1d9ec4fbf1a3ed16a0aa26f74495004c2d5a0a09f6f2ae15f4d1ee0e5e50ae45",
}

DSW_GRID_GRAPHS = {
    "er80": lambda: erdos_renyi_graph(80, 0.1, seed=3),
    "ba120": lambda: barabasi_albert_graph(120, 3, seed=4),
    "cre0.05": lambda: make_study("CRE", scale=0.05).network(),
}


class TestKernelOrderPin:
    @pytest.mark.parametrize("graph_name", sorted(DSW_GRID_GRAPHS))
    def test_pair_lists_reproduce_their_digests(self, graph_name):
        csr = CSRGraph.of(DSW_GRID_GRAPHS[graph_name]())
        n = csr.n_vertices
        for ordering in ("natural", "high_degree", "low_degree", "rcm"):
            priority = priority_from_permutation(ordering_indices(ordering, csr), n).tolist()
            for strict in (False, True):
                for start in (None, n // 3):
                    pairs = chordal_subgraph_edge_indices(
                        csr, priority=priority, strict_order=strict, start=start
                    )
                    digest = hashlib.sha256(np.asarray(pairs, dtype="<i8").tobytes()).hexdigest()
                    mode = ("strict" if strict else "greedy") + ("" if start is None else "@start")
                    key = f"{graph_name}/{ordering}/{mode}"
                    assert digest == DSW_ORDER_DIGESTS[key], key

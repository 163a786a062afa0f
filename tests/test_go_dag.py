"""Unit tests for the GO-like DAG."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ontology import GODag, TermIndex
from repro.ontology.generator import make_go_dag


def make_dag() -> GODag:
    """A small hand-built DAG:

        ROOT
        ├── bio (B)
        │   ├── metab (M)
        │   │   └── glycolysis (G)
        │   └── signaling (S)
        └── other (O)
            └── transport (T) — also child of signaling (two parents)
    """
    dag = GODag()
    dag.add_term("B", [dag.root_id], name="biological regulation")
    dag.add_term("O", [dag.root_id], name="other")
    dag.add_term("M", ["B"], name="metabolic process")
    dag.add_term("S", ["B"], name="signaling")
    dag.add_term("G", ["M"], name="glycolysis")
    dag.add_term("T", ["O"], name="transport")
    dag.add_parent("T", "S")
    return dag


def assert_links_mirrored(dag: GODag) -> None:
    """Every parent link has its child link and back; every term reaches the root."""
    for t in dag.terms():
        term = dag.term(t)
        assert all(t in dag.children(p) for p in term.parents)
        assert all(t in dag.term(c).parents for c in dag.children(t))
        assert bool(term.parents) == (t != dag.root_id)
        assert dag.path_to_root(t)[-1] == dag.root_id


class TestConstruction:
    def test_root_exists(self):
        dag = GODag()
        assert dag.root_id in dag
        assert dag.depth(dag.root_id) == 0
        assert len(dag) == 1

    def test_add_term_requires_existing_parent(self):
        dag = GODag()
        with pytest.raises(KeyError):
            dag.add_term("X", ["missing"])

    def test_add_term_requires_some_parent(self):
        dag = GODag()
        with pytest.raises(ValueError):
            dag.add_term("X", [])

    def test_duplicate_term_rejected(self):
        dag = make_dag()
        with pytest.raises(ValueError):
            dag.add_term("B", [dag.root_id])

    def test_add_parent_cycle_rejected(self):
        dag = make_dag()
        with pytest.raises(ValueError):
            dag.add_parent("B", "G")  # G is a descendant of B

    def test_add_parent_idempotent(self):
        dag = make_dag()
        dag.add_parent("T", "S")
        assert dag.term("T").parents.count("S") == 1

    def test_links_are_mirrored(self):
        assert_links_mirrored(make_dag())

    def test_links_stay_mirrored_after_a_leaf_append(self):
        dag = make_dag()
        dag.append_leaf_terms([("L1", ["G", "T"]), ("L2", ["L1"])])
        assert_links_mirrored(dag)
        assert set(dag.children("G")) == {"L1"}

    @pytest.mark.parametrize("seed", [1, 9])
    def test_generated_dag_links_are_mirrored(self, seed):
        assert_links_mirrored(make_go_dag(depth=4, branching=3, extra_parent_fraction=0.2, seed=seed))


class TestDepthAndAncestry:
    def test_depths(self):
        dag = make_dag()
        assert dag.depth("B") == 1
        assert dag.depth("M") == 2
        assert dag.depth("G") == 3
        assert dag.max_depth() == 3

    def test_multi_parent_depth_is_longest_path(self):
        dag = make_dag()
        # T has parents O (depth 1) and S (depth 2) -> depth 3
        assert dag.depth("T") == 3

    def test_ancestors(self):
        dag = make_dag()
        assert dag.ancestors("G") == frozenset({"G", "M", "B", dag.root_id})

    def test_ancestors_always_include_the_term(self):
        # The DCP and breadth queries read ancestor sets that contain the term
        # itself; there is no switch to leave it out.
        with pytest.raises(TypeError):
            make_dag().ancestors("G", include_self=False)

    def test_root_is_fixed(self):
        for dag in (GODag(), make_go_dag(depth=2, branching=2)):
            assert dag.root_id == "GO:ROOT"
            assert dag.term(dag.root_id).name == "biological_process"
        with pytest.raises(TypeError):
            GODag(root_id="GO:0008150")
        with pytest.raises(TypeError):
            GODag(root_name="molecular_function")
        with pytest.raises(TypeError):
            make_go_dag(depth=2, branching=2, root_name="molecular_function")

    def test_ancestors_multi_parent(self):
        dag = make_dag()
        anc = dag.ancestors("T")
        assert {"O", "S", "B", dag.root_id} <= anc

    def test_unknown_term_raises(self):
        dag = make_dag()
        with pytest.raises(KeyError):
            dag.depth("nope")
        with pytest.raises(KeyError):
            dag.ancestors("nope")

    def test_subtree(self):
        dag = make_dag()
        assert dag.subtree("B") == {"B", "M", "S", "G", "T"}
        assert dag.subtree("G") == {"G"}

    def test_children(self):
        dag = make_dag()
        assert dag.children("G") == []
        assert set(dag.children("B")) == {"M", "S"}


class TestDeepestCommonParent:
    def test_siblings(self):
        dag = make_dag()
        assert dag.deepest_common_parent("M", "S") == "B"

    def test_ancestor_descendant_pair(self):
        dag = make_dag()
        assert dag.deepest_common_parent("M", "G") == "M"

    def test_same_term(self):
        dag = make_dag()
        assert dag.deepest_common_parent("G", "G") == "G"

    def test_unrelated_terms_meet_at_root_or_shared_parent(self):
        dag = make_dag()
        assert dag.deepest_common_parent("G", "O") == dag.root_id

    def test_multi_parent_gives_deeper_dcp(self):
        dag = make_dag()
        # T and G share ancestor B (depth 1) through the S parent, deeper than ROOT
        assert dag.deepest_common_parent("T", "G") == "B"


class TestDistances:
    def test_distance_zero_for_same_term(self):
        dag = make_dag()
        assert dag.term_distance("M", "M") == 0

    def test_sibling_distance(self):
        dag = make_dag()
        assert dag.term_distance("M", "S") == 2

    def test_parent_child_distance(self):
        dag = make_dag()
        assert dag.term_distance("M", "G") == 1

    def test_distance_symmetric(self):
        dag = make_dag()
        assert dag.term_distance("G", "T") == dag.term_distance("T", "G")

    def test_distance_uses_cross_links(self):
        dag = make_dag()
        # T-S edge makes the S↔T distance 1 even though their tree paths are longer
        assert dag.term_distance("S", "T") == 1

    def test_path_to_root(self):
        dag = make_dag()
        path = dag.path_to_root("G")
        assert path[0] == "G"
        assert path[-1] == dag.root_id
        assert len(path) == 4


class TestScopedInvalidation:
    """add_parent / append_leaf_terms invalidate by scope, not wholesale."""

    def _reference_ancestors(self, dag, term_id):
        seen = {term_id}
        frontier = [term_id]
        while frontier:
            nxt = []
            for t in frontier:
                for p in dag.term(t).parents:
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
            frontier = nxt
        return frozenset(seen)

    def test_add_parent_scopes_ancestor_invalidation_to_subtree(self):
        dag = make_dag()
        for term in list(dag._terms):
            dag.ancestors(term)  # warm every cache entry
        cached_before = dict(dag._ancestor_cache)
        dag.add_parent("M", "O")  # M (and G below it) gain O as ancestor
        subtree = dag.subtree("M")
        for term in list(dag._terms):
            if term in subtree:
                assert term not in dag._ancestor_cache
            else:
                # untouched entries survive as the same objects
                assert dag._ancestor_cache[term] is cached_before[term]
        # and every recomputed/retained answer matches a direct traversal
        for term in list(dag._terms):
            assert dag.ancestors(term) == self._reference_ancestors(dag, term)
        assert "O" in dag.ancestors("G")

    def test_add_parent_after_leaf_append_stays_correct(self):
        dag = make_dag()
        for term in list(dag._terms):
            dag.ancestors(term)
        dag.append_leaf_terms([("L1", ["G"]), ("L2", ["L1", "S"])])
        dag.add_parent("L1", "T")
        for term in list(dag._terms):
            assert dag.ancestors(term) == self._reference_ancestors(dag, term)

    def test_append_leaf_terms_extends_index_bit_identically(self):
        import itertools

        dag = make_dag()
        dag.term_distance("G", "T")  # warm a distance row of the term index
        delta = dag.append_leaf_terms([("L1", ["G"]), ("L2", ["S"])])
        assert delta.distances_safe
        rebuilt = make_dag()
        rebuilt.add_term("L1", ["G"])
        rebuilt.add_term("L2", ["S"])
        for a, b in itertools.combinations(sorted(dag._terms), 2):
            assert dag.term_distance(a, b) == rebuilt.term_distance(a, b), (a, b)

    @pytest.mark.parametrize(
        "parents, safe",
        [(["M", "S"], True), (["G", "O"], False)],
        ids=["parents-2-apart", "parents-4-apart"],
    )
    def test_leaf_append_keeps_the_distance_cache_exact(self, parents, safe):
        import itertools

        dag = make_dag()
        index = dag.term_index()
        dag.term_distance("G", "T")  # warm rows through the scalar query...
        ids = index.ids_for(sorted(dag._terms))
        index.distance_batch(ids[:3], ids[3:6])  # ...and through the batch path
        assert len(index._dist_rows) > 1
        delta = dag.append_leaf_terms([("L", parents)])
        assert delta.distances_safe is safe
        # A safe batch carries the warm rows over; an unsafe one drops them.
        assert bool(dag.term_index()._dist_rows) is safe
        rebuilt = make_dag()
        rebuilt.add_term("L", parents)
        a, b = zip(*itertools.combinations(sorted(dag._terms), 2))
        new = dag.term_index()
        batch = new.distance_batch(new.ids_for(a), new.ids_for(b)).tolist()
        for x, y, d in zip(a, b, batch):
            expect = dag.reference_term_distance(x, y)
            assert d == dag.term_distance(x, y) == expect == rebuilt.term_distance(x, y), (x, y)


class TestTermIndexAncestors:
    """The level-built ancestor CSR equals the per-term ancestor sets."""

    @staticmethod
    def assert_rows_are_ancestor_sets(dag, index):
        assert index.anc_indptr[-1] == index.anc_indices.shape[0]
        for term in dag.terms():
            i = index.id_of[term]
            row = index.anc_indices[index.anc_indptr[i] : index.anc_indptr[i + 1]]
            assert np.all(np.diff(row) > 0), term  # sorted, no repeats
            assert {index.terms[int(t)] for t in row} == dag.ancestors(term), term

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_generated_dags(self, seed):
        dag = make_go_dag(depth=5, branching=3, extra_parent_fraction=0.2, seed=seed)
        self.assert_rows_are_ancestor_sets(dag, dag.term_index())

    def test_hand_built_dag_with_late_cross_link(self):
        dag = make_dag()
        dag.add_parent("G", "O")  # G gets a second lineage after construction
        self.assert_rows_are_ancestor_sets(dag, dag.term_index())

    def test_after_append_leaf_terms(self):
        dag = make_go_dag(depth=4, branching=3, extra_parent_fraction=0.2, seed=5)
        dag.term_index()
        leaves = [t for t in dag.terms() if not dag.children(t)]
        dag.append_leaf_terms(
            [
                ("GO:NEW1", [leaves[0]]),
                ("GO:NEW2", [leaves[1], leaves[-1]]),
                ("GO:NEW3", ["GO:NEW1"]),
            ]
        )
        extended = dag.term_index()
        self.assert_rows_are_ancestor_sets(dag, extended)
        cold = TermIndex(dag)
        assert np.array_equal(cold.anc_indptr, extended.anc_indptr)
        assert np.array_equal(cold.anc_indices, extended.anc_indices)

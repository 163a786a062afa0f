"""Unit tests for cluster overlap matching and the quadrant evaluation."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from repro.clustering import (
    Cluster,
    ClusterMatch,
    EvaluationThresholds,
    Quadrant,
    classify_match,
    classify_matches,
    edge_overlap,
    found_clusters,
    match_and_lost_clusters,
    node_overlap,
    quadrant_counts,
    reference_lost_clusters,
    reference_match_clusters,
)
from repro.clustering import overlap
from repro.clustering.overlap import _index_incidences, _overlap_entries, _shared_counts
from repro.graph import CSRGraph, Graph, complete_graph
from repro.ontology import AnnotationTable, EnrichmentScorer, GODag


def make_cluster(members, edges, cluster_id=0, score=4.0) -> Cluster:
    g = Graph(vertices=members, edges=edges)
    return Cluster(cluster_id=cluster_id, members=list(members), subgraph=g, score=score)


@pytest.fixture
def deep_dag() -> GODag:
    dag = GODag()
    parent = dag.root_id
    for i in range(6):
        dag.add_term(f"D{i}", [parent])
        parent = f"D{i}"
    dag.add_term("shallow", [dag.root_id])
    return dag


def scorer_for(dag: GODag, genes: list[str], deep: bool) -> EnrichmentScorer:
    table = AnnotationTable(dag)
    for g in genes:
        table.annotate(g, ["D5"] if deep else ["shallow"])
    return EnrichmentScorer(dag, table)


class TestOverlapMeasures:
    def test_identical_clusters(self):
        a = make_cluster(["x", "y", "z"], [("x", "y"), ("y", "z")])
        assert node_overlap(a, a) == 1.0
        assert edge_overlap(a, a) == 1.0

    def test_partial_overlap(self):
        original = make_cluster(["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")])
        candidate = make_cluster(["a", "b", "x"], [("a", "b")])
        assert node_overlap(original, candidate) == pytest.approx(0.5)
        assert edge_overlap(original, candidate) == pytest.approx(1 / 3)

    def test_disjoint_clusters(self):
        a = make_cluster(["a", "b"], [("a", "b")])
        b = make_cluster(["x", "y"], [("x", "y")])
        assert node_overlap(a, b) == 0.0
        assert edge_overlap(a, b) == 0.0

    def test_overlap_is_relative_to_original(self):
        original = make_cluster(["a", "b"], [("a", "b")])
        bigger = make_cluster(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        assert node_overlap(original, bigger) == 1.0  # all of the original is covered


class TestMatching:
    def test_best_match_selected(self, graph_clusters):
        orig1, orig2, filtered = graph_clusters(
            Graph(vertices=["a", "b", "c"], edges=[("a", "b"), ("b", "c")]),
            Graph(vertices=["x", "y", "z"], edges=[("x", "y"), ("y", "z")]),
            Graph(vertices=["x", "y", "q"], edges=[("x", "y")]),
        )
        matches, _ = match_and_lost_clusters([orig1, orig2], [filtered])
        assert len(matches) == 1
        assert matches[0].original is orig2
        assert matches[0].node_overlap == pytest.approx(2 / 3)

    def test_found_clusters_have_no_match(self, graph_clusters):
        orig, new = graph_clusters(Graph(edges=[("a", "b")]), Graph(edges=[("p", "q")]))
        matches, _ = match_and_lost_clusters([orig], [new])
        assert matches[0].original is None
        assert matches[0].is_found
        assert found_clusters(matches) == [new]

    def test_lost_clusters(self, graph_clusters):
        orig_kept, orig_lost, filtered = graph_clusters(
            Graph(edges=[("a", "b")]), Graph(edges=[("m", "n")]), Graph(edges=[("a", "b")])
        )
        assert match_and_lost_clusters([orig_kept, orig_lost], [filtered])[1] == [orig_lost]

    def test_no_filtered_clusters_all_lost(self, graph_clusters):
        (orig,) = graph_clusters(Graph(edges=[("a", "b")]))
        assert match_and_lost_clusters([orig], []) == ([], [orig])


class TestQuadrants:
    def test_quadrant_assignment(self, deep_dag, graph_clusters):
        genes = complete_graph(4).vertices()
        deep_scorer = scorer_for(deep_dag, genes, deep=True)
        shallow_scorer = scorer_for(deep_dag, genes, deep=False)
        filtered, original_same, original_other = graph_clusters(
            complete_graph(4), complete_graph(4), Graph(vertices=["z1", "z2", "z3", "z4"])
        )

        high_overlap = ClusterMatch(filtered, original_same, node_overlap=1.0, edge_overlap=1.0)
        low_overlap = ClusterMatch(filtered, original_other, node_overlap=0.0, edge_overlap=0.0)

        assert classify_match(high_overlap, deep_scorer).quadrant is Quadrant.TRUE_POSITIVE
        assert classify_match(high_overlap, shallow_scorer).quadrant is Quadrant.FALSE_POSITIVE
        assert classify_match(low_overlap, deep_scorer).quadrant is Quadrant.FALSE_NEGATIVE
        assert classify_match(low_overlap, shallow_scorer).quadrant is Quadrant.TRUE_NEGATIVE

    def test_overlap_attr_validation(self, deep_dag, graph_clusters):
        genes = complete_graph(3).vertices()
        scorer = scorer_for(deep_dag, genes, deep=True)
        match = ClusterMatch(graph_clusters(complete_graph(3))[0], None, 0.0, 0.0)
        with pytest.raises(ValueError):
            classify_match(match, scorer, overlap_attr="volume_overlap")

    def test_counts_and_rates(self, deep_dag, graph_clusters):
        genes = complete_graph(4).vertices()
        deep_scorer = scorer_for(deep_dag, genes, deep=True)
        filtered, original = graph_clusters(complete_graph(4), complete_graph(4))
        matches = [
            ClusterMatch(filtered, original, node_overlap=1.0, edge_overlap=1.0),
            ClusterMatch(filtered, original, node_overlap=0.1, edge_overlap=0.1),
        ]
        scored = classify_matches(matches, deep_scorer)
        counts = quadrant_counts(scored)
        assert counts.tp == 1 and counts.fn == 1
        assert counts.sensitivity == pytest.approx(0.5)
        assert counts.specificity == 0.0
        assert counts.tp + counts.fp + counts.fn + counts.tn == 2
        d = counts.as_dict()
        assert d["TP"] == 1

    def test_custom_thresholds(self, deep_dag, graph_clusters):
        genes = complete_graph(4).vertices()
        scorer = scorer_for(deep_dag, genes, deep=True)
        filtered, original = graph_clusters(complete_graph(4), complete_graph(4))
        match = ClusterMatch(filtered, original, node_overlap=0.6, edge_overlap=0.6)
        strict = EvaluationThresholds(aees_threshold=100.0, overlap_threshold=0.5)
        assert classify_match(match, scorer, strict).quadrant is Quadrant.FALSE_POSITIVE


# ----------------------------------------------------------------------
# sparse intersection counts pinned to the set-based reference loops
# ----------------------------------------------------------------------
def index_space(n_nodes: int) -> CSRGraph:
    """The complete graph over labels ``n0..``: every member pair is an edge."""
    us, vs = np.triu_indices(n_nodes, k=1)
    return CSRGraph.from_edge_arrays([f"n{i}" for i in range(n_nodes)], us, vs)


def random_clusters(index_cluster, rng, n, csr, lo, n_nodes=24, max_size=8):
    """``n`` index-native clusters over ``csr`` vertices ``lo..lo+n_nodes``:
    overlapping, some empty."""
    clusters = []
    for cid in range(n):
        size = rng.choice([0, 1, 2, 3, max_size, rng.randrange(max_size)])
        members = rng.sample(range(lo, lo + n_nodes), size)
        pairs = [(u, v) for k, u in enumerate(members) for v in members[k + 1 :]]
        edges = [e for e in pairs if rng.random() < 0.5]
        clusters.append(index_cluster(csr, cid, members, edges))
    return clusters


def match_signature(matches):
    return [
        (id(m.filtered), id(m.original), m.node_overlap.hex(), m.edge_overlap.hex())
        for m in matches
    ]


#: (case, n original, n filtered, first original index, first filtered index)
#: over one 48-vertex CSR; "disjoint universes" draws the two sides from
#: disjoint index ranges.
CASES = [
    ("overlapping", 9, 7, 0, 0),
    ("disjoint universes", 6, 5, 0, 24),
    ("no originals", 0, 6, 0, 0),
    ("no filtered", 6, 0, 0, 0),
    ("both empty", 0, 0, 0, 0),
]


class TestSparseOverlapCounts:
    @pytest.mark.parametrize("key", [node_overlap, edge_overlap], ids=lambda k: k.__name__)
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_matches_reference_loops(self, case, key, index_cluster):
        # Matching ranks by node overlap; the sparse entries of each measure
        # must also equal the set-based ``key`` on every pair, zeros absent.
        _, n_orig, n_filt, orig_lo, filt_lo = case
        csr = index_space(48)
        for seed in range(25):
            rng = random.Random(seed)
            original = random_clusters(index_cluster, rng, n_orig, csr, orig_lo)
            filtered = random_clusters(index_cluster, rng, n_filt, csr, filt_lo)
            want_matches = reference_match_clusters(original, filtered)
            want_lost = reference_lost_clusters(original, filtered)
            matches, lost = match_and_lost_clusters(original, filtered)
            assert match_signature(matches) == match_signature(want_matches), seed
            assert [id(c) for c in lost] == [id(c) for c in want_lost], seed
            rows, cols, values = _overlap_entries(
                original, filtered, key is edge_overlap, csr.n_vertices
            )
            got = {(r, c): v.hex() for r, c, v in zip(rows.tolist(), cols.tolist(), values.tolist())}
            want = {
                (r, c): key(oc, fc).hex()
                for r, oc in enumerate(original)
                for c, fc in enumerate(filtered)
                if key(oc, fc) != 0.0
            }
            assert got == want, seed

    def test_count_entries_are_exact_float64(self, index_cluster):
        rng = random.Random(3)
        csr = index_space(24)
        original = random_clusters(index_cluster, rng, 11, csr, 0)
        filtered = random_clusters(index_cluster, rng, 9, csr, 0)
        orig_el, orig_row, _ = _index_incidences(original, True, csr.n_vertices)
        filt_el, filt_row, _ = _index_incidences(filtered, True, csr.n_vertices)
        rows, cols, counts = _shared_counts(orig_el, orig_row, filt_el, filt_row, len(filtered))
        assert rows.dtype == np.int64 and cols.dtype == np.int64
        assert counts.dtype == np.float64
        assert rows.shape == cols.shape == counts.shape
        keys = rows * len(filtered) + cols
        assert (np.diff(keys) > 0).all()  # row-major, one entry per pair
        assert (rows < len(original)).all() and (cols < len(filtered)).all()
        dense = np.zeros((len(original), len(filtered)))
        dense[rows, cols] = counts
        want = [[len(a.edge_set() & b.edge_set()) for b in filtered] for a in original]
        assert dense.tolist() == want
        assert (counts > 0).all()

    def test_paper_sized_matching_memory_is_bounded(self, index_cluster):
        # ~1,700 × 1,700 clusters over a ~50k-edge universe: dense membership
        # matrices over that universe would need several hundred MB.
        rng = random.Random(0)

        def member_lists(n, shift):
            out = []
            for cid in range(n):
                base = cid * 9 + shift
                members = list(range(base, base + 12))
                edges = rng.sample(
                    [(u, v) for k, u in enumerate(members) for v in members[k + 1 :]], 30
                )
                out.append((members, edges))
            return out

        sides = [member_lists(1700, 0), member_lists(1700, 4)]
        n_nodes = 1700 * 9 + 16
        packed = np.unique(
            [u * n_nodes + v for side in sides for _, edges in side for u, v in edges]
        )
        assert packed.size > 45_000
        csr = CSRGraph.from_edge_arrays(range(n_nodes), packed // n_nodes, packed % n_nodes)
        original, filtered = (
            [index_cluster(csr, cid, m, e) for cid, (m, e) in enumerate(side)] for side in sides
        )
        tracemalloc.start()
        try:
            matches, lost = match_and_lost_clusters(original, filtered)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(matches) == 1700 and not lost
        assert peak < 32 * 2**20, peak / 2**20


class TestMatchDispatch:
    """Only index-native clusters over one label space are matched; the
    reference loops are never reached from the product entry point."""

    @pytest.fixture
    def reference_calls(self, monkeypatch):
        calls = []
        for name in ("reference_match_clusters", "reference_lost_clusters"):
            original = getattr(overlap, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(overlap, name, counted)
        return calls

    def sides(self, index_cluster, original_csr, filtered_csr):
        rng = random.Random(5)
        return (
            random_clusters(index_cluster, rng, 7, original_csr, 0),
            random_clusters(index_cluster, rng, 6, filtered_csr, 0),
        )

    def test_one_label_tuple_takes_the_sparse_join(self, reference_calls, index_cluster):
        # Two CSR objects whose label tuples are equal share one index space.
        original, filtered = self.sides(index_cluster, index_space(24), index_space(24))
        assert original[0].csr.labels is not filtered[0].csr.labels
        matches, lost = match_and_lost_clusters(original, filtered)
        assert reference_calls == []
        assert match_signature(matches) == match_signature(
            reference_match_clusters(original, filtered)
        )
        assert lost == reference_lost_clusters(original, filtered)

    def test_other_inputs_are_refused(self, reference_calls, index_cluster):
        other_labels = CSRGraph.from_edge_arrays(
            [f"m{i}" for i in range(24)], *np.triu_indices(24, k=1)
        )
        original, filtered = self.sides(index_cluster, index_space(24), other_labels)
        hand_built = make_cluster(["n0", "n1", "n2"], [("n0", "n1"), ("n1", "n2")])
        for orig, filt in (
            (original, filtered),
            (original, [*filtered[:3], hand_built]),
            ([hand_built], []),
        ):
            with pytest.raises(ValueError, match="reference_match_clusters"):
                match_and_lost_clusters(orig, filt)
        with pytest.raises(TypeError):
            match_and_lost_clusters(original, filtered, node_overlap)
        assert reference_calls == []

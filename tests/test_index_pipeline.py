"""Property tests pinning the index-native pipeline to the label-level seed.

PR 2 moved orderings, partitioning, per-rank subgraph construction and border
admission from the label-keyed ``Graph`` onto the CSR kernel.  The label-level
implementations are retained (as ``reference_*`` orderings, the label
partitioners, and the label admission rule); this suite asserts the index
kernels reproduce them exactly — the same pattern ``tests/test_csr.py`` uses
for the chordality kernels — so the perf rewrite cannot silently change any
filter output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chordal import is_chordal, reference_chordal_subgraph_edges
from repro.core.parallel_comm import (
    parallel_chordal_comm_filter,
    receiver_admit_border_edges,
    receiver_admit_border_edges_indices,
)
from repro.core.parallel_nocomm import (
    _admit_border_keys,
    admit_border_edges_no_communication,
    parallel_chordal_nocomm_filter,
)
from repro.core.sampling import apply_filter
from repro.graph import CSRGraph, Graph, erdos_renyi_graph, partition_graph
from repro.graph.graph import edge_key
from repro.graph.ordering import (
    ORDERING_INDEX_FNS,
    ordering_indices,
    rcm_order_indices,
    reference_high_degree_order,
    reference_low_degree_order,
    reference_rcm_order,
)
from repro.graph.partition import (
    INDEX_PARTITIONERS,
    block_partition_indices,
    index_partition_graph,
)

ORDERING_NAMES = list(ORDERING_INDEX_FNS)
PARTITIONER_NAMES = sorted(INDEX_PARTITIONERS)

REFERENCE_ORDERINGS = {
    "natural": lambda g: g.vertices(),
    "high_degree": reference_high_degree_order,
    "low_degree": reference_low_degree_order,
    "rcm": reference_rcm_order,
}


@st.composite
def random_graphs(draw, max_vertices: int = 16, max_extra_edges: int = 36, mixed_labels: bool = False):
    """Strategy: small random simple graphs (optionally with mixed int/str labels)."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    if mixed_labels:
        vertices = [i if i % 2 == 0 else f"g{i}" for i in range(n)]
    else:
        vertices = [f"n{i}" for i in range(n)]
    g = Graph(vertices=vertices)
    if n >= 2:
        n_edges = draw(st.integers(min_value=0, max_value=max_extra_edges))
        pairs = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        )
        for _ in range(n_edges):
            i, j = draw(pairs)
            if i != j:
                g.add_edge(vertices[i], vertices[j])
    return g


@st.composite
def component_unions(draw, max_components: int = 40):
    """Strategy: disjoint unions of 1-40 small pieces in shuffled insertion order.

    Pieces are isolated vertices, single edges, paths and small random graphs
    (which may split further).  Vertex ``k`` is labelled ``k`` or ``str(k)``,
    so the ``repr`` and ``str`` rank orders disagree (``10`` vs ``"9"``).
    """
    pieces = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_components))):
        kind = draw(st.sampled_from(("isolated", "edge", "path", "random")))
        if kind == "isolated":
            pieces.append((1, []))
        elif kind == "edge":
            pieces.append((2, [(0, 1)]))
        elif kind == "path":
            size = draw(st.integers(min_value=3, max_value=8))
            pieces.append((size, [(i, i + 1) for i in range(size - 1)]))
        else:
            size = draw(st.integers(min_value=2, max_value=8))
            pair = st.tuples(st.integers(0, size - 1), st.integers(0, size - 1))
            pieces.append((size, [(i, j) for i, j in draw(st.lists(pair, max_size=16)) if i != j]))
    n = sum(size for size, _ in pieces)
    as_str = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    labels = [str(k) if text else k for k, text in enumerate(as_str)]
    g = Graph(vertices=[labels[k] for k in draw(st.permutations(range(n)))])
    offset = 0
    for size, edges in pieces:
        for i, j in edges:
            g.add_edge(labels[offset + i], labels[offset + j])
        offset += size
    return g


def label_view(csr: CSRGraph, us, vs) -> set:
    """Canonical label edge set of aligned index arrays."""
    labels = csr.labels
    return {edge_key(labels[int(u)], labels[int(v)]) for u, v in zip(us, vs)}


class TestIndexOrderings:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_orderings_match_reference_orderings(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        for name in ORDERING_NAMES:
            perm = ordering_indices(name, csr)
            assert perm.dtype == np.int64
            assert sorted(perm.tolist()) == list(range(g.n_vertices))
            assert csr.to_labels(perm) == REFERENCE_ORDERINGS[name](g), name

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_orderings_match_reference_orderings_mixed_labels(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        for name in ORDERING_NAMES:
            assert csr.to_labels(ordering_indices(name, csr)) == REFERENCE_ORDERINGS[name](g), name

    @settings(max_examples=40, deadline=None)
    @given(component_unions())
    def test_rcm_matches_reference_rcm_order_on_many_components(self, g: Graph):
        # Every component's George–Liu search and Cuthill–McKee numbering
        # advance in the same pass; each must still come out as the seed's.
        csr = CSRGraph.from_graph(g)
        assert csr.to_labels(ordering_indices("rcm", csr)) == reference_rcm_order(g)

    @pytest.mark.parametrize("seed", range(3))
    def test_rcm_start_vertex_matches_reference_rcm_order(self, seed):
        g = erdos_renyi_graph(30, 0.1, seed=seed)
        csr = CSRGraph.from_graph(g)
        for start in (0, 7):
            got = csr.to_labels(rcm_order_indices(csr, start=start))
            assert got == reference_rcm_order(g, start=g.vertices()[start])


class TestIndexPartitioners:
    @settings(max_examples=25, deadline=None)
    @given(random_graphs(), st.integers(min_value=1, max_value=5))
    def test_partitioners_match_label_partitioners(self, g: Graph, n_parts: int):
        csr = CSRGraph.from_graph(g)
        labels = csr.labels
        for method in PARTITIONER_NAMES:
            lp = partition_graph(g, n_parts, method=method)
            ip = index_partition_graph(csr, n_parts, method=method)
            ip.validate()
            assert {labels[i]: int(p) for i, p in enumerate(ip.assignment)} == lp.assignment, method
            # per-part traversal order (not just membership) must agree: the
            # DSW kernel's natural-order fallback depends on it
            for p in range(n_parts):
                assert [labels[int(i)] for i in ip.part_indices(p)] == lp.parts[p], method
            assert label_view(csr, *ip.border_edges()) == set(lp.border_edges), method
            for p in range(n_parts):
                assert label_view(csr, *ip.border_edges_of(p)) == set(lp.border_edges_of(p))
                assert label_view(csr, *ip.internal_edges_of(p)) == set(lp.internal_edges[p])

    @settings(max_examples=15, deadline=None)
    @given(random_graphs(), st.integers(min_value=1, max_value=4))
    def test_part_arrays_match_reference_part_subgraph(self, g: Graph, n_parts: int):
        csr = CSRGraph.from_graph(g)
        lp = partition_graph(g, n_parts, method="hash")
        ip = index_partition_graph(csr, n_parts, method="hash")
        for p, (indptr, indices) in enumerate(ip.part_arrays()):
            sub = CSRGraph(indptr, indices, csr.to_labels(ip.part_indices(p).tolist()))
            assert sub.to_graph() == lp.part_subgraph(p)
            assert list(sub.labels) == lp.part_subgraph(p).vertices()

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(), st.integers(min_value=1, max_value=5), st.randoms())
    def test_part_arrays_equal_per_part_induced_subgraphs(self, g: Graph, n_parts: int, rnd):
        csr = CSRGraph.from_graph(g)
        order = list(range(csr.n_vertices))
        rnd.shuffle(order)
        iparts = [index_partition_graph(csr, n_parts, method=m) for m in PARTITIONER_NAMES]
        iparts.append(block_partition_indices(csr, n_parts, order=np.asarray(order)))
        for ip in iparts:
            arrays = ip.part_arrays()
            assert len(arrays) == n_parts
            for p, (indptr, indices) in enumerate(arrays):
                sub = csr.induced_subgraph(ip.part_indices(p))
                assert indptr.dtype == indices.dtype == np.int64
                assert indptr.tolist() == sub.indptr.tolist()
                assert indices.tolist() == sub.indices.tolist()

    def test_induced_subgraph_rejects_bad_indices(self):
        csr = CSRGraph.from_graph(erdos_renyi_graph(6, 0.5, seed=0))
        with pytest.raises(ValueError):
            csr.induced_subgraph([0, 0, 1])
        with pytest.raises(ValueError):
            csr.induced_subgraph([0, 99])

    @pytest.mark.parametrize("method", ["block", "greedy"])
    def test_explicit_order_parts_match_label_partitioners(self, method):
        # The label block partitioner lists parts in the given order, the
        # label greedy partitioner in *natural* order even when streaming in
        # a custom order — the index views must mirror both conventions.
        from repro.graph.partition import (
            block_partition,
            block_partition_indices,
            greedy_edge_cut_partition,
            greedy_partition_indices,
        )

        g = erdos_renyi_graph(25, 0.15, seed=4)
        csr = CSRGraph.from_graph(g)
        perm = np.arange(25, dtype=np.int64)[::-1].copy()
        label_order = [csr.labels[int(i)] for i in perm]
        if method == "block":
            lp = block_partition(g, 3, order=label_order)
            ip = block_partition_indices(csr, 3, order=perm)
        else:
            lp = greedy_edge_cut_partition(g, 3, order=label_order)
            ip = greedy_partition_indices(csr, 3, order=perm)
        assert {csr.labels[i]: int(p) for i, p in enumerate(ip.assignment)} == lp.assignment
        for p in range(3):
            assert [csr.labels[int(i)] for i in ip.part_indices(p)] == lp.parts[p]


def local_chordal_edges(part_graph: Graph, order=None) -> list:
    """One rank's local chordal edges under the global ``order`` restricted to
    its part, from the seed DSW body."""
    if order is not None:
        order = [v for v in order if v in part_graph]
    return reference_chordal_subgraph_edges(part_graph, order=order)


class TestBorderAdmission:
    @settings(max_examples=25, deadline=None)
    @given(
        random_graphs(),
        st.integers(min_value=2, max_value=5),
        st.sampled_from(PARTITIONER_NAMES),
    )
    def test_index_admission_matches_admit_border_edges_no_communication(self, g: Graph, n_parts: int, method: str):
        # The array admission the rank body runs, pinned straight to the
        # label-level triangle rule on the same partition.
        csr = CSRGraph.from_graph(g)
        labels, index = csr.labels, csr.label_index
        lp = partition_graph(g, n_parts, method=method)
        ip = index_partition_graph(csr, n_parts, method=method)
        for rank in range(n_parts):
            local_edges = local_chordal_edges(lp.part_subgraph(rank))
            ref = admit_border_edges_no_communication(
                lp.border_edges_of(rank), set(lp.parts[rank]), set(local_edges)
            )
            pairs = np.array(
                [sorted((index[a], index[b])) for a, b in local_edges], dtype=np.int64
            ).reshape(-1, 2)
            bu, bv = ip.border_edges_of(rank)
            us, vs = _admit_border_keys(
                bu, bv, ip.assignment[bu] == rank, ip.assignment[bv] == rank,
                pairs[:, 0], pairs[:, 1],
            )
            got = list(zip(us.tolist(), vs.tolist()))
            assert got == sorted(set(got))
            assert {edge_key(labels[i], labels[j]) for i, j in got} == set(ref)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_arrays_match_admit_border_edges_no_communication(self, seed):
        # Arbitrary border and chordal edge arrays over one consistent part:
        # repeated border edges, edges with no endpoint inside, chordal edges
        # that touch no border pair.
        rng = np.random.default_rng(seed)
        n, n_border, n_chordal = 20, 60, 50
        part = set(np.flatnonzero(rng.random(n) < 0.5).tolist())
        inside = np.array([v in part for v in range(n)])
        bu = rng.integers(0, n, n_border).astype(np.int64)
        bv = rng.integers(0, n, n_border).astype(np.int64)
        loop = bu == bv
        bv[loop] = (bv[loop] + 1) % n
        cu = rng.integers(0, n, n_chordal).astype(np.int64)
        cv = rng.integers(0, n, n_chordal).astype(np.int64)
        keep = cu != cv
        packed = np.unique(np.minimum(cu, cv)[keep] * n + np.maximum(cu, cv)[keep])
        cu, cv = packed // n, packed % n
        ref = admit_border_edges_no_communication(
            list(zip(bu.tolist(), bv.tolist())), part, set(zip(cu.tolist(), cv.tolist()))
        )
        us, vs = _admit_border_keys(bu, bv, inside[bu], inside[bv], cu, cv)
        got = list(zip(us.tolist(), vs.tolist()))
        assert ref and got == sorted(set(got))
        assert set(got) == set(ref)

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        empty_bool = np.empty(0, dtype=bool)
        us, vs = _admit_border_keys(empty, empty, empty_bool, empty_bool, empty, empty)
        assert us.size == 0 and vs.size == 0

    def test_receiver_admission_matches_receiver_admit_border_edges(self):
        # Admission is order-dependent: feed both implementations the same
        # candidate sequence and require identical accept/reject decisions.
        g = erdos_renyi_graph(18, 0.2, seed=3)
        csr = CSRGraph.from_graph(g)
        local = Graph(vertices=g.vertices()[:9])
        chordal_edges = [e for e in g.iter_edges() if e[0] in set(local.vertices()) and e[1] in set(local.vertices())][:6]
        for u, v in chordal_edges:
            local.add_edge(u, v)
        candidates = [e for e in g.iter_edges() if not local.has_edge(*e)][:12]
        index = csr.label_index
        adj: dict[int, set[int]] = {index[v]: set() for v in local.vertices()}
        for u, v in local.iter_edges():
            adj[index[u]].add(index[v])
            adj[index[v]].add(index[u])
        ref_accepted, ref_checks = receiver_admit_border_edges(local, candidates)
        got, checks = receiver_admit_border_edges_indices(
            adj, [(index[u], index[v]) for u, v in candidates]
        )
        labels = csr.labels
        assert [edge_key(labels[i], labels[j]) for i, j in got] == ref_accepted
        assert checks == ref_checks


def reference_nocomm_kept(graph: Graph, n_parts: int, ordering, method: str):
    """The PR1 label pipeline recomposed from its retained reference pieces."""
    order = REFERENCE_ORDERINGS[ordering](graph) if ordering else None
    if method == "block" and order is not None:
        part = partition_graph(graph, n_parts, method="block", order=order)
    else:
        part = partition_graph(graph, n_parts, method=method)
    kept = set()
    for rank in range(part.n_parts):
        local = local_chordal_edges(part.part_subgraph(rank), order)
        kept.update(local)
        kept.update(
            admit_border_edges_no_communication(
                part.border_edges_of(rank), set(part.parts[rank]), set(local)
            )
        )
    return kept


class TestFilterEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(random_graphs(max_vertices=14), st.integers(min_value=1, max_value=4))
    def test_nocomm_filter_matches_label_pipeline(self, g: Graph, n_parts: int):
        for ordering in ORDERING_NAMES:
            for method in PARTITIONER_NAMES:
                res = parallel_chordal_nocomm_filter(
                    g, n_parts, ordering=ordering, partition_method=method
                )
                assert set(res.graph.iter_edges()) == reference_nocomm_kept(
                    g, n_parts, ordering, method
                ), (ordering, method)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("ordering", ORDERING_NAMES)
    def test_nocomm_filter_matches_label_pipeline_larger(self, seed, ordering):
        g = erdos_renyi_graph(40, 0.12, seed=seed)
        for method in PARTITIONER_NAMES:
            res = parallel_chordal_nocomm_filter(g, 6, ordering=ordering, partition_method=method)
            assert set(res.graph.iter_edges()) == reference_nocomm_kept(g, 6, ordering, method)

    @pytest.mark.parametrize("seed", range(2))
    def test_comm_filter_output_is_chordal_superset_of_locals(self, seed):
        # The comm filter's full reference run needs the SPMD substrate; pin
        # the cheap invariant here (per-part chordality is covered by
        # tests/test_parallel_comm.py on the rewritten path).
        g = erdos_renyi_graph(36, 0.15, seed=seed)
        res = parallel_chordal_comm_filter(g, 4, ordering="rcm")
        order = reference_rcm_order(g)
        part = partition_graph(g, 4, method="block", order=order)
        for rank in range(4):
            for e in local_chordal_edges(part.part_subgraph(rank), order):
                assert res.graph.has_edge(*e)


class TestApplyFilterGrid:
    """The public ``apply_filter`` entry point over ordering × partitioner.

    The communication-free filter (and every single-partition run) must equal
    the label pipeline recomposed from its reference pieces; the comm filter
    keeps every rank's local chordal subgraph and leaves each part chordal.
    """

    @pytest.mark.parametrize("method", ["chordal", "chordal_comm"])
    @pytest.mark.parametrize("ordering", ["natural", "high_degree", "rcm"])
    @pytest.mark.parametrize("partitioning", [(1, "block"), (4, "block"), (4, "bfs")])
    def test_filter_matches_reference_pieces(self, method, ordering, partitioning):
        n_parts, partition_method = partitioning
        g = erdos_renyi_graph(48, 0.12, seed=11)
        kwargs = {"partition_method": partition_method} if n_parts > 1 else {}
        res = apply_filter(g, method=method, ordering=ordering, n_partitions=n_parts, **kwargs)
        assert res.graph.vertices() == g.vertices()
        kept = set(res.graph.iter_edges())
        assert kept <= set(g.iter_edges())
        if method == "chordal" or n_parts == 1:
            assert kept == reference_nocomm_kept(g, n_parts, ordering, partition_method)
            return
        order = REFERENCE_ORDERINGS[ordering](g)
        if partition_method == "block":
            part = partition_graph(g, n_parts, method="block", order=order)
        else:
            part = partition_graph(g, n_parts, method=partition_method)
        for rank in range(part.n_parts):
            assert set(local_chordal_edges(part.part_subgraph(rank), order)) <= kept
            assert is_chordal(res.graph.subgraph(part.parts[rank]))


class TestCSREdgeHelpers:
    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_edge_array_matches_iter_edges(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        labels = csr.labels
        us, vs = csr.edge_array()
        assert (us < vs).all()
        got = [edge_key(labels[i], labels[j]) for i, j in zip(us.tolist(), vs.tolist())]
        assert sorted(map(repr, got)) == sorted(map(repr, g.edges()))
        assert len(got) == g.n_edges  # each edge exactly once, no dedup set

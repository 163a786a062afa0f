"""Property tests pinning the index-native pipeline to the label-level seed.

PR 2 moved orderings, partitioning, per-rank subgraph construction and border
admission from the label-keyed ``Graph`` onto the CSR kernel.  The label-level
implementations are retained (as ``reference_*`` orderings, the label
partitioners, and the label admission helpers); this suite asserts the index
kernels reproduce them exactly — the same pattern ``tests/test_csr.py`` uses
for the chordality kernels — so the perf rewrite cannot silently change any
filter output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.chordal import is_chordal
from repro.core.parallel_comm import (
    parallel_chordal_comm_filter,
    receiver_admit_border_edges,
    receiver_admit_border_edges_indices,
)
from repro.core.parallel_nocomm import (
    admit_border_edges_no_communication,
    admit_border_edges_no_communication_indices,
    local_chordal_phase,
    parallel_chordal_nocomm_filter,
)
from repro.core.sampling import apply_filter
from repro.graph import CSRGraph, Graph, erdos_renyi_graph, partition_graph
from repro.graph.graph import edge_key
from repro.graph.ordering import (
    ORDERING_INDEX_FNS,
    get_ordering,
    ordering_indices,
    rcm_order,
    reference_high_degree_order,
    reference_low_degree_order,
    reference_rcm_order,
)
from repro.graph.partition import (
    INDEX_PARTITIONERS,
    IndexPartition,
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


def label_view(csr: CSRGraph, us, vs) -> set:
    """Canonical label edge set of aligned index arrays."""
    labels = csr.labels
    return {edge_key(labels[int(u)], labels[int(v)]) for u, v in zip(us, vs)}


class TestIndexOrderings:
    @settings(max_examples=40, deadline=None)
    @given(random_graphs())
    def test_orderings_match_reference(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        for name in ORDERING_NAMES:
            perm = ordering_indices(name, csr)
            assert perm.dtype == np.int64
            assert sorted(perm.tolist()) == list(range(g.n_vertices))
            assert csr.to_labels(perm) == REFERENCE_ORDERINGS[name](g), name

    @settings(max_examples=25, deadline=None)
    @given(random_graphs(mixed_labels=True))
    def test_orderings_match_reference_mixed_labels(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        for name in ORDERING_NAMES:
            assert csr.to_labels(ordering_indices(name, csr)) == REFERENCE_ORDERINGS[name](g), name

    @settings(max_examples=20, deadline=None)
    @given(random_graphs())
    def test_label_wrappers_equal_reference(self, g: Graph):
        for name in ORDERING_NAMES:
            assert get_ordering(name)(g) == REFERENCE_ORDERINGS[name](g), name

    @pytest.mark.parametrize("seed", range(3))
    def test_rcm_start_vertex_matches_reference(self, seed):
        g = erdos_renyi_graph(30, 0.1, seed=seed)
        for start in (g.vertices()[0], g.vertices()[7]):
            assert rcm_order(g, start=start) == reference_rcm_order(g, start=start)


class TestIndexPartitioners:
    @settings(max_examples=25, deadline=None)
    @given(random_graphs(), st.integers(min_value=1, max_value=5))
    def test_partitioners_match_reference(self, g: Graph, n_parts: int):
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
    def test_induced_subgraph_matches_graph_subgraph(self, g: Graph, n_parts: int):
        csr = CSRGraph.from_graph(g)
        lp = partition_graph(g, n_parts, method="hash")
        ip = index_partition_graph(csr, n_parts, method="hash")
        for p in range(n_parts):
            sub = ip.part_csr(p)
            assert sub.to_graph() == lp.part_subgraph(p)
            assert list(sub.labels) == lp.part_subgraph(p).vertices()

    @settings(max_examples=15, deadline=None)
    @given(random_graphs(), st.integers(min_value=1, max_value=4))
    def test_partition_round_trips(self, g: Graph, n_parts: int):
        csr = CSRGraph.from_graph(g)
        lp = partition_graph(g, n_parts, method="greedy")
        ip = IndexPartition.from_partition(lp, csr)
        assert label_view(csr, *ip.border_edges()) == set(lp.border_edges)
        back = ip.to_partition(g)
        back.validate()
        assert back.assignment == lp.assignment
        assert back.parts == lp.parts

    def test_induced_subgraph_rejects_bad_indices(self):
        csr = CSRGraph.from_graph(erdos_renyi_graph(6, 0.5, seed=0))
        with pytest.raises(ValueError):
            csr.induced_subgraph([0, 0, 1])
        with pytest.raises(ValueError):
            csr.induced_subgraph([0, 99])

    @pytest.mark.parametrize("method", ["block", "greedy"])
    def test_explicit_order_parts_match_reference(self, method):
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

    def test_from_partition_rejects_incomplete_partition(self):
        g = erdos_renyi_graph(8, 0.3, seed=1)
        csr = CSRGraph.from_graph(g)
        lp = partition_graph(g, 2, method="block")
        missing = g.vertices()[0]
        del lp.assignment[missing]
        with pytest.raises(ValueError):
            IndexPartition.from_partition(lp, csr)


class TestBorderAdmission:
    @settings(max_examples=25, deadline=None)
    @given(random_graphs(), st.integers(min_value=2, max_value=5))
    def test_index_admission_matches_reference(self, g: Graph, n_parts: int):
        csr = CSRGraph.from_graph(g)
        labels = csr.labels
        ip = index_partition_graph(csr, n_parts, method="hash")
        lp = partition_graph(g, n_parts, method="hash")
        for rank in range(n_parts):
            local_edges, _ = local_chordal_phase(lp.part_subgraph(rank))
            ref = admit_border_edges_no_communication(
                lp.border_edges_of(rank), set(lp.parts[rank]), set(local_edges)
            )
            index = csr.label_index
            chordal_adj: dict[int, set[int]] = {}
            for a, b in local_edges:
                ia, ib = index[a], index[b]
                chordal_adj.setdefault(ia, set()).add(ib)
                chordal_adj.setdefault(ib, set()).add(ia)
            bu, bv = ip.border_edges_of(rank)
            got = admit_border_edges_no_communication_indices(
                bu, bv, ip.assignment[bu] == rank, ip.assignment[bv] == rank, chordal_adj
            )
            assert {edge_key(labels[i], labels[j]) for i, j in got} == set(ref)

    def test_receiver_admission_matches_reference_sequence(self):
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
    order = get_ordering(ordering)(graph) if ordering else None
    if method == "block" and order is not None:
        part = partition_graph(graph, n_parts, method="block", order=order)
    else:
        part = partition_graph(graph, n_parts, method=method)
    kept = set()
    for rank in range(part.n_parts):
        local, _ = local_chordal_phase(part.part_subgraph(rank), order=order)
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
        part = partition_graph(g, 4, method="block", order=rcm_order(g))
        for rank in range(4):
            local, _ = local_chordal_phase(part.part_subgraph(rank), order=rcm_order(g))
            for e in local:
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
        order = get_ordering(ordering)(g)
        if partition_method == "block":
            part = partition_graph(g, n_parts, method="block", order=order)
        else:
            part = partition_graph(g, n_parts, method=partition_method)
        for rank in range(part.n_parts):
            local, _ = local_chordal_phase(part.part_subgraph(rank), order=order)
            assert set(local) <= kept
            assert is_chordal(res.graph.subgraph(part.parts[rank]))


class TestCSREdgeHelpers:
    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_edge_indices_matches_iter_edges(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        labels = csr.labels
        got = [edge_key(labels[i], labels[j]) for i, j in csr.edge_indices()]
        assert sorted(map(repr, got)) == sorted(map(repr, g.edges()))
        assert len(got) == g.n_edges  # each edge exactly once, no dedup set

    @settings(max_examples=30, deadline=None)
    @given(random_graphs())
    def test_edge_array_matches_edge_indices(self, g: Graph):
        csr = CSRGraph.from_graph(g)
        us, vs = csr.edge_array()
        assert (us < vs).all()
        assert list(zip(us.tolist(), vs.tolist())) == [
            (min(i, j), max(i, j)) for i, j in csr.edge_indices()
        ]

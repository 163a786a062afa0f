"""Rank-based label order: the array forms of ``repr``/``edge_key`` label order.

With every label a ``str``, the with-communication sampler orders each
mutual border list by a ``lexsort`` on the ``repr`` ranks of the
``edge_key``-oriented endpoints, and the no-communication sampler orients
accepted border edges by ``str`` rank.  Both stand in for per-edge label
work (``repr(edge_key(u, v))``, ``edge_key``), so these properties pin them
to it on labels chosen to stress ``repr``: quotes, backslashes, commas,
parentheses, NUL and non-ASCII characters.  Any other label type takes the
per-edge path.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.parallel_comm as parallel_comm
import repro.core.parallel_nocomm as parallel_nocomm
from repro.core.sampling import apply_filter
from repro.graph import CSRGraph, Graph, cycle_basis_sizes, edge_key
from repro.graph.ordering import natural_label_ranks
from repro.graph.partition import block_partition_indices
from repro.pipeline.workflow import _canonical_edges, filter_payload

TRICKY = ["'", '"', "\\", ",", "(", ")", " ", "\x00", "\n", "a", "b", "é", "ß", "漢", " "]
str_label = st.text(alphabet=st.sampled_from(TRICKY) | st.characters(), max_size=5)
mixed_label = st.one_of(str_label, st.integers(-5, 50))


@st.composite
def labelled_graphs(draw, label=str_label):
    labels = draw(st.lists(label, min_size=4, max_size=14, unique=True))
    if label is mixed_label and all(type(v) is str for v in labels):
        labels[draw(st.integers(0, len(labels) - 1))] = draw(st.integers(100, 200))
    n = len(labels)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=40, unique=True))
    g = Graph()
    for v in labels:
        g.add_vertex(v)
    for i, j in chosen:
        if draw(st.booleans()):
            i, j = j, i
        g.add_edge(labels[i], labels[j])
    perm = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    n_parts = draw(st.integers(2, 3))
    return g, perm, n_parts


def reference_border_lists(csr, ipart):
    """The per-edge ``repr(edge_key(...))`` sort, grouped by rank pair."""
    labels = csr.labels
    bu, bv = ipart.border_edges()
    lists = [dict() for _ in range(ipart.n_parts)]
    for u, v in sorted(
        zip(bu.tolist(), bv.tolist()),
        key=lambda e: (repr(edge_key(labels[e[0]], labels[e[1]])), e),
    ):
        pu, pv = int(ipart.assignment[u]), int(ipart.assignment[v])
        lists[pu].setdefault(pv, []).append((u, v))
        lists[pv].setdefault(pu, []).append((u, v))
    return lists


def as_lists(lists):
    return [{peer: [tuple(e) for e in edges.tolist()] for peer, edges in d.items()} for d in lists]


class TestCommBorderOrder:
    @settings(max_examples=150, deadline=None)
    @given(labelled_graphs())
    def test_str_labels_rank_order_equals_repr_edge_key_sort(self, case):
        g, perm, n_parts = case
        csr = CSRGraph.from_graph(g)
        assert natural_label_ranks(csr) is not None
        ipart = block_partition_indices(csr, n_parts, order=perm)
        assert as_lists(parallel_comm._comm_border_lists(csr, ipart)) == reference_border_lists(
            csr, ipart
        )
        if n_parts == 2:
            # One list holds every border edge: the whole order is the sort.
            labels = csr.labels
            border = [(labels[u], labels[v]) for u, v in zip(*ipart.border_edges())]
            got = parallel_comm._comm_border_lists(csr, ipart)[0].get(1, np.empty((0, 2)))
            assert [(labels[u], labels[v]) for u, v in got.tolist()] == sorted(
                border, key=lambda e: repr(edge_key(*e))
            )

    @settings(max_examples=100, deadline=None)
    @given(labelled_graphs())
    def test_str_rank_orientation_equals_edge_key(self, case):
        g, _, _ = case
        csr = CSRGraph.from_graph(g)
        natural = natural_label_ranks(csr)
        labels = csr.labels
        for u, v in zip(*(a.tolist() for a in csr.edge_array())):
            expected = edge_key(labels[u], labels[v])
            got = (labels[u], labels[v]) if natural[u] < natural[v] else (labels[v], labels[u])
            assert got == expected

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(labelled_graphs(), labelled_graphs(label=mixed_label)))
    def test_border_cycle_sizes_equal_the_label_graph(self, case):
        g, _, _ = case
        csr = CSRGraph.from_graph(g)
        pairs = np.column_stack(csr.edge_array())
        labels = csr.labels
        label_graph = Graph(edges=[edge_key(labels[i], labels[j]) for i, j in pairs.tolist()])
        assert parallel_nocomm._border_cycle_sizes(csr, pairs) == cycle_basis_sizes(label_graph)

    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs(label=mixed_label))
    def test_mixed_labels_take_the_repr_path(self, case):
        g, perm, n_parts = case
        csr = CSRGraph.from_graph(g)
        assert natural_label_ranks(csr) is None
        ipart = block_partition_indices(csr, n_parts, order=perm)
        assert as_lists(parallel_comm._comm_border_lists(csr, ipart)) == reference_border_lists(
            csr, ipart
        )


def run_all(g, n_parts):
    """chordal and chordal_comm on a fresh view of ``g``, over two orderings."""
    out = []
    for method in ("chordal", "chordal_comm"):
        for ordering in ("high_degree", "rcm"):
            result = apply_filter(
                CSRGraph.from_graph(g),
                method=method,
                ordering=ordering,
                n_partitions=n_parts,
                backend="serial",
            )
            out.append(
                (
                    result.kept.tolist(),
                    result.accepted_border_pairs.tolist(),
                    result.extra.get("border_cycle_sizes"),
                    filter_payload(result)["edges_sha256"],
                )
            )
    return out


class TestFilterResultsAcrossPaths:
    @settings(max_examples=40, deadline=None)
    @given(labelled_graphs())
    def test_str_rank_path_equals_forced_repr_path(self, case):
        g, _, n_parts = case
        fast = run_all(g, n_parts)
        with mock.patch.object(parallel_comm, "natural_label_ranks", lambda csr: None), \
                mock.patch.object(parallel_nocomm, "natural_label_ranks", lambda csr: None):
            slow = run_all(g, n_parts)
        assert fast == slow

    @settings(max_examples=40, deadline=None)
    @given(labelled_graphs(label=mixed_label))
    def test_mixed_labels_identical_on_fresh_and_memoised_views(self, case):
        g, _, n_parts = case
        csr = CSRGraph.from_graph(g)
        first = [
            apply_filter(csr, method=m, ordering="rcm", n_partitions=n_parts, backend="serial")
            for m in ("chordal", "chordal_comm")
        ]
        again = [
            apply_filter(csr, method=m, ordering="rcm", n_partitions=n_parts, backend="serial")
            for m in ("chordal", "chordal_comm")
        ]
        for a, b in zip(first, again):
            assert a.kept.tolist() == b.kept.tolist()
            assert a.extra.get("border_cycle_sizes") == b.extra.get("border_cycle_sizes")
        assert run_all(g, n_parts) == run_all(g, n_parts)

    @settings(max_examples=60, deadline=None)
    @given(labelled_graphs(label=mixed_label))
    def test_payload_edges_equal_the_label_oracle(self, case):
        g, _, n_parts = case
        result = apply_filter(g, method="chordal_comm", ordering="rcm", n_partitions=n_parts)
        edges = filter_payload(result, include_edges=True)["edges"]
        assert edges == _canonical_edges(result.graph)

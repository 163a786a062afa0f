"""Parallel chordal sampling *with* border-edge communication (baseline).

This is the authors' earlier algorithm (HPCS'11 / ICCS'11, summarised in
Section III.A of the paper), reimplemented here as the comparison baseline for
the scalability study:

1. Partition the network into ``P`` parts; each rank extracts the maximal
   chordal subgraph of its internal edges.
2. For every pair of ranks that share border edges, one rank is designated the
   **sender** and the other the **receiver** of those mutual border edges
   (by convention the lower rank sends to the higher rank).
3. The receiver decides which of the received border edges can be *retained
   while maintaining the chordality of its own subgraph*; it inserts the
   accepted edges into its local view and reports them in the merged result.
   The sender never learns which edges were accepted — which is exactly why a
   few long cycles can appear on the sender's side ("quasi-chordal
   subgraphs").

The communication volume per processor grows with the number of border edges
``b`` and the receiver-side admission work is O(b²/d), which is the term that
makes this variant lose scalability on small graphs with many processors
(paper Figure 10, YNG at 32+ processors).

**Index-native pipeline.**  As in the no-communication sampler, the filter
reads the graph's cached CSR view; ordering, partitioning, per-rank subgraphs
and the receiver-side two-pair admission test all run on ``int64`` indices
(the mutable local view is a plain ``dict[int, set[int]]``), and the merge
both samplers share (:func:`repro.core.parallel_nocomm.merge_rank_outputs`)
returns index arrays that the result maps to labels only when read.  Mutual
border-edge lists are sorted by the ``repr`` of their label form so
receivers admit candidates in the identical sequence as the label-level
pipeline — admission is order-dependent, and the filter's output must not
drift.  For ``str`` labels that order is a ``lexsort`` on label ranks (see
:func:`_comm_border_lists`), and the lists of a named partition are kept in
the view's memo.  The label-level :func:`receiver_admit_border_edges` is
retained as the behavioural reference.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.graph import Graph, edge_key
from ..graph.ordering import label_sort_ranks, natural_label_ranks
from ..graph.partition import IndexPartition
from ..parallel.comm import SimComm
from ..parallel.runner import available_backends, pop_supervision_events, run_spmd
from ..parallel.timing import RankWork
from .chordal import chordal_subgraph_edge_indices, edge_insertion_preserves_chordality
from .parallel_nocomm import merge_rank_outputs, partition_memo_key, resolve_index_partition
from .results import FilterResult, as_pairs
from .sequential import kernel_priority, priority_from_permutation, resolve_order_indices

__all__ = [
    "parallel_chordal_comm_filter",
    "receiver_admit_border_edges",
    "receiver_admit_border_edges_indices",
]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]
IndexEdge = tuple[int, int]

_BORDER_TAG = 7


def receiver_admit_border_edges(
    local_graph: Graph, candidate_edges: Sequence[Edge]
) -> tuple[list[Edge], int]:
    """Admit candidate border edges one at a time while keeping ``local_graph`` chordal.

    ``local_graph`` is mutated: every accepted edge (and any previously unseen
    endpoint) is inserted so later candidates are checked against the updated
    subgraph.  Returns the accepted edges and the number of chordality checks
    performed (for the cost model).  This is the label-level reference; the
    filter's rank function runs :func:`receiver_admit_border_edges_indices`.
    """
    accepted: list[Edge] = []
    checks = 0
    for u, v in candidate_edges:
        checks += 1
        if local_graph.has_edge(u, v):
            continue
        if edge_insertion_preserves_chordality(local_graph, u, v):
            local_graph.add_edge(u, v)
            accepted.append(edge_key(u, v))
    return accepted, checks


# ----------------------------------------------------------------------
# index-native admission
# ----------------------------------------------------------------------
def _insertion_preserves_chordality_indices(
    adj: dict[int, set[int]], u: int, v: int
) -> bool:
    """Two-pair test on an int adjacency dict (mirror of the label version).

    For non-adjacent ``u``/``v`` of a chordal graph, inserting ``{u, v}``
    keeps it chordal iff ``u`` and ``v`` are disconnected once the common
    neighbourhood is removed.  Endpoints absent from ``adj`` are isolated —
    always safe.
    """
    au = adj.get(u)
    av = adj.get(v)
    if au is None or av is None:
        return True
    if v in au:
        return True
    common = au & av
    seen = {u} | common
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y == v:
                return False
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return True


def receiver_admit_border_edges_indices(
    adj: dict[int, set[int]], candidate_edges: Sequence[IndexEdge]
) -> tuple[list[IndexEdge], int]:
    """Index-native receiver admission; mutates ``adj`` like the label version.

    ``adj`` maps vertex index → neighbour set for the rank's current chordal
    view; accepted candidates are inserted (creating unseen endpoints) so the
    admission sequence matches :func:`receiver_admit_border_edges` decision
    for decision.
    """
    accepted: list[IndexEdge] = []
    checks = 0
    for u, v in candidate_edges:
        checks += 1
        nbrs = adj.get(u)
        if nbrs is not None and v in nbrs:
            continue
        if _insertion_preserves_chordality_indices(adj, u, v):
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
            accepted.append((u, v) if u < v else (v, u))
    return accepted, checks


def _rank_function(
    comm: SimComm,
    sub_indptr: np.ndarray,
    sub_indices: np.ndarray,
    part_idx: np.ndarray,
    border_by_peer: dict[int, np.ndarray],
    local_priority: Optional[list[int]],
) -> tuple[np.ndarray, np.ndarray, RankWork]:
    """SPMD body executed by every rank of the with-communication sampler.

    Runs entirely on vertex indices: the local DSW kernel on the sliced CSR
    arrays, then peer-wise exchange of the mutual border edges (one ``(m, 2)``
    index array per peer; lower rank sends, higher rank receives and admits
    with the int two-pair test).  Returns
    ``(local_edges, accepted_border, work)`` — the rank-output shape of the
    no-communication task, so both samplers share one merge.
    """
    k = int(part_idx.shape[0])
    sub = CSRGraph(sub_indptr, sub_indices, labels=range(k))
    pairs = chordal_subgraph_edge_indices(sub, priority=local_priority)
    part_list = part_idx.tolist()
    local_edges: list[IndexEdge] = []
    # Mutable view of this rank's accepted subgraph for admission tests.
    local_view: dict[int, set[int]] = {i: set() for i in part_list}
    for i, j in pairs:
        gi, gj = part_list[i], part_list[j]
        local_edges.append((gi, gj) if gi < gj else (gj, gi))
        local_view[gi].add(gj)
        local_view[gj].add(gi)

    work = RankWork(
        edges_examined=sub.n_edges,
        chordality_checks=sub.degree_sum(),
        border_edges=sum(len(v) for v in border_by_peer.values()),
        messages=0,
        items_sent=0,
        max_degree=max(sub.max_degree(), 1),
    )

    accepted_border: list[IndexEdge] = []
    # Deterministic peer traversal: lower rank sends, higher rank receives.
    for peer in sorted(border_by_peer):
        mutual = border_by_peer[peer]
        if comm.rank < peer:
            comm.send(mutual, dest=peer, tag=_BORDER_TAG)
            work.messages += 1
            work.items_sent += len(mutual)
        else:
            received = comm.recv(source=peer, tag=_BORDER_TAG)
            admitted, checks = receiver_admit_border_edges_indices(
                local_view, received.tolist()
            )
            work.chordality_checks += checks
            accepted_border.extend(admitted)

    return as_pairs(local_edges), as_pairs(accepted_border), work


def _comm_border_lists(csr: CSRGraph, ipart: IndexPartition) -> list[dict[int, np.ndarray]]:
    """Every rank's mutual border edges, per peer, in admission order.

    ``lists[rank][peer]`` is the ``(m, 2)`` array of the border edges
    between the two ranks (``u < v`` index pairs, one array shared by both
    sides), sorted by ``repr(edge_key(label_u, label_v))`` — the candidate
    sequence of the label-level pipeline, on which admission order (and
    hence the output edge set) depends.  For ``str`` labels that sort is a
    ``lexsort`` on the ``repr`` ranks of the ``edge_key``-oriented
    endpoints: the ``repr`` of a ``str`` is never a proper prefix of
    another's, so two edge-key reprs compare as their first endpoints'
    reprs, then their second's.  Other label types sort by the reprs
    themselves.
    """
    bu, bv = ipart.border_edges()
    natural = natural_label_ranks(csr)
    if natural is not None:
        repr_ranks = label_sort_ranks(csr, repr)
        flip = natural[bu] > natural[bv]
        first, second = np.where(flip, bv, bu), np.where(flip, bu, bv)
        order = np.lexsort((repr_ranks[second], repr_ranks[first]))
    else:
        labels = csr.labels
        keyed = sorted(
            (repr(edge_key(labels[u], labels[v])), u, v, k)
            for k, (u, v) in enumerate(zip(bu.tolist(), bv.tolist()))
        )
        order = np.asarray([k for *_, k in keyed], dtype=np.int64)
    # Group the sorted edges by their (lower, higher) rank pair; a stable
    # sort keeps each group in admission order.
    a, b = ipart.assignment[bu], ipart.assignment[bv]
    pair = np.minimum(a, b) * ipart.n_parts + np.maximum(a, b)
    grouped = order[np.argsort(pair[order], kind="stable")]
    lists: list[dict[int, np.ndarray]] = [{} for _ in range(ipart.n_parts)]
    for chunk in np.split(grouped, np.flatnonzero(np.diff(pair[grouped])) + 1):
        if chunk.size:
            low, high = divmod(int(pair[chunk[0]]), ipart.n_parts)
            lists[low][high] = lists[high][low] = np.column_stack([bu[chunk], bv[chunk]])
    return lists


def parallel_chordal_comm_filter(
    graph: "Graph | CSRGraph",
    n_partitions: int,
    ordering: str = "natural",
    partition_method: str = "block",
    backend: Optional[str] = None,
) -> FilterResult:
    """Run the with-communication parallel chordal filter (the older baseline).

    Parameters mirror
    :func:`repro.core.parallel_nocomm.parallel_chordal_nocomm_filter`.
    Because the ranks exchange messages the execution runs through
    :func:`repro.parallel.runner.run_spmd`: ``backend=None`` (default) keeps
    the historical choice — threaded SPMD for ``P > 1``, serial for ``P = 1``
    — while ``process`` (and its aliases) runs each rank on a real core
    with pickled payloads.  (``"serial"`` works for any ``P`` here: the
    lower-rank-sends-first protocol never receives a message that an earlier
    rank has not already buffered.)  Every backend produces the identical
    kept edge set in the identical admission order.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    if backend is not None and backend not in available_backends():
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {available_backends()}"
        )
    start = time.perf_counter()
    csr = CSRGraph.of(graph)
    perm, ordering_name = resolve_order_indices(csr, ordering)
    ipart = resolve_index_partition(csr, n_partitions, partition_method, perm, ordering_name)
    # The lists are a function of the partition, so they share its key.
    key = partition_memo_key(n_partitions, partition_method, ordering_name)
    by_peer_per_rank = csr.memo(
        ("comm_border", *key[1:]), lambda: _comm_border_lists(csr, ipart)
    )
    position = priority_from_permutation(perm, csr.n_vertices)

    rank_args = []
    for rank, (sub_indptr, sub_indices) in enumerate(ipart.part_arrays()):
        part_idx = ipart.part_indices(rank)
        rank_args.append(
            (
                sub_indptr,
                sub_indices,
                part_idx,
                by_peer_per_rank[rank],
                kernel_priority(position[part_idx]),
            )
        )
    resolved_backend = backend or ("thread" if ipart.n_parts > 1 else "serial")
    report = run_spmd(_rank_function, ipart.n_parts, rank_args=rank_args, backend=resolved_backend)
    local, accepted, border, duplicates, works = merge_rank_outputs(report.values, ipart)
    wall = time.perf_counter() - start

    supervision = pop_supervision_events()
    result = FilterResult(
        csr=csr,
        # Local edges stay inside a part and accepted ones cross parts: disjoint.
        kept=np.concatenate([local, accepted]),
        method="chordal_comm",
        ordering=ordering_name,
        n_partitions=ipart.n_parts,
        partition_method=partition_method,
        border_pairs=border,
        accepted_border_pairs=accepted,
        duplicate_border_edges=duplicates,
        rank_work=works,
        wall_time=wall,
        extra={
            "comm_stats": report.total_stats(),
            "comm_stats_per_rank": [r.stats.as_dict() for r in report.results],
            "backend": resolved_backend,
            # Supervision events (retries/degrades) ride in ``extra`` only:
            # the canonical filter payload excludes ``extra``, so a faulted
            # run that recovered stays byte-identical to a clean one.
            **({"supervision": supervision} if supervision else {}),
        },
    )
    result.compute_simulated_time(with_communication=True)
    return result

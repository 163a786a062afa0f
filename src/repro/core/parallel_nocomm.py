"""Communication-free parallel maximal chordal subgraph sampling.

This is the paper's improved algorithm (Section III.A, Figure 1):

1. **Partition** the network into ``P`` parts.
2. **Local phase** — every rank extracts the maximal chordal subgraph of the
   edges whose endpoints both lie inside its partition (the *chordal edges*)
   using the Dearing–Shier–Warner construction; edges crossing partitions are
   set aside as *border edges*.
3. **Border phase (no communication)** — instead of exchanging border edges,
   each rank simply compares them against its own chordal edges: a *pair* of
   border edges sharing an external endpoint is admitted when the third edge
   closing the triangle is one of the rank's local chordal edges.  In the
   paper's Figure 1, edges (4,6) and (4,8) are admitted by the bottom
   partition because (6,8) is a chordal edge there, whereas (2,6) and (4,6)
   are rejected by the top partition because (2,4) is not.

Because two ranks can admit the same border edge independently, duplicates
may appear; they are removed during the (sequential) merge, and their count is
reported — the paper bounds it by ``b``, the number of border edges.  Border
edges can also close a few long cycles across partitions, producing a
*quasi-chordal subgraph* (QCS); an optional repair pass deletes border edges
until no fundamental cycle longer than a triangle survives among them.

**Index-native pipeline.**  The filter converts the graph to CSR exactly once;
ordering (:func:`repro.graph.ordering.ordering_indices`), partitioning
(:class:`repro.graph.partition.IndexPartition`), per-rank subgraphs (one
gather for all ranks, :meth:`IndexPartition.part_arrays`) and border
admission all run on ``int64`` vertex indices.  The ordering and the
partition depend on the network alone, so they are kept in the CSR view's
memo (:meth:`CSRGraph.memo`) and a sweep of specs over one network computes
each once.  Rank payloads are plain numpy arrays — cheap to
pickle for the ``process`` backend — and the merge (:func:`merge_rank_outputs`, which
the with-communication sampler shares) stays on index arrays too: the
:class:`FilterResult` maps them to labels only when its label views are read.
The filter reads the graph's cached CSR view (:meth:`CSRGraph.of`), so
filtering one network again converts nothing.  The label-level
:func:`admit_border_edges_no_communication` is retained as the behavioural
reference; the property suite pins the index admission to it.
"""

from __future__ import annotations

import time
from collections.abc import Hashable, Sequence
from itertools import chain
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph, gather_csr_rows, sorted_unique
from ..graph.cycles import cycle_basis_sizes, cycle_basis_sizes_csr
from ..graph.graph import Graph, edge_key
from ..graph.ordering import natural_label_ranks
from ..graph.partition import IndexPartition, block_partition_indices, index_partition_graph
from ..parallel.runner import available_backends, parallel_map, pop_supervision_events
from ..parallel.timing import RankWork
from .chordal import chordal_subgraph_edge_indices
from .results import FilterResult, as_pairs
from .sequential import kernel_priority, priority_from_permutation, resolve_order_indices

__all__ = [
    "parallel_chordal_nocomm_filter",
    "admit_border_edges_no_communication",
]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


# ----------------------------------------------------------------------
# label-level reference helper (seed semantics, the admission oracle)
# ----------------------------------------------------------------------
def admit_border_edges_no_communication(
    rank_border_edges: Sequence[Edge],
    part_vertices: set[Vertex],
    local_chordal_edges: set[Edge],
) -> list[Edge]:
    """Apply the triangle rule to one rank's border edges (label-level reference).

    ``rank_border_edges`` are the border edges with at least one endpoint in
    this rank's partition.  For every *external* vertex ``x`` the rank looks at
    the border edges ``(x, b)`` with ``b`` inside the partition; a pair
    ``(x, b1)``, ``(x, b2)`` is admitted when ``(b1, b2)`` is one of the rank's
    local chordal edges.  Only local information is consulted — hence no
    communication.
    """
    # external endpoint -> internal endpoints reachable over border edges
    by_external: dict[Vertex, list[Vertex]] = {}
    for u, v in rank_border_edges:
        if u in part_vertices and v not in part_vertices:
            by_external.setdefault(v, []).append(u)
        elif v in part_vertices and u not in part_vertices:
            by_external.setdefault(u, []).append(v)
        # edges with both endpoints outside the partition are not this rank's business
    # Adjacency view of the local chordal edges: the O(b²) pair loop below
    # then tests membership directly instead of canonicalising an edge key
    # for every candidate pair.
    chordal_adj: dict[Vertex, set[Vertex]] = {}
    for a, b in local_chordal_edges:
        chordal_adj.setdefault(a, set()).add(b)
        chordal_adj.setdefault(b, set()).add(a)
    empty: set[Vertex] = set()
    admitted: set[Edge] = set()
    for external, internals in by_external.items():
        n = len(internals)
        if n < 2:
            continue
        for i in range(n):
            a = internals[i]
            a_adj = chordal_adj.get(a, empty)
            for j in range(i + 1, n):
                b = internals[j]
                if b in a_adj:
                    admitted.add(edge_key(external, a))
                    admitted.add(edge_key(external, b))
    return sorted(admitted, key=repr)


# ----------------------------------------------------------------------
# index-native rank path
# ----------------------------------------------------------------------
_EMPTY_EDGES = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _admit_border_keys(
    border_u: np.ndarray,
    border_v: np.ndarray,
    u_internal: np.ndarray,
    v_internal: np.ndarray,
    chordal_u: np.ndarray,
    chordal_v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Triangle-rule border admission on vertex indices (the production path).

    ``border_u/border_v`` are this rank's border edges (global indices);
    ``u_internal/v_internal`` are aligned booleans marking which endpoint lies
    inside the partition, and ``chordal_u/chordal_v`` are the rank's local
    chordal edges.  The scalar rule — admit the border pair ``(x, b1), (x,
    b2)`` when ``(b1, b2)`` is a local chordal edge — is reformulated over
    packed edge keys: every border pair ``(external e, internal i)`` is
    expanded by ``i``'s chordal neighbours ``j``, and the expansion survives
    when ``(e, j)`` is itself one of the rank's border pairs, which closes the
    triangle ``e–i–j``.  Returns the admitted edges as canonical ``(us, vs)``
    arrays in lexicographic order — the edge set of the label-level
    reference :func:`admit_border_edges_no_communication`, to which the
    property suite pins it.
    """
    one_internal = u_internal ^ v_internal
    if not one_internal.any() or chordal_u.shape[0] == 0:
        return _EMPTY_EDGES
    ext = np.where(u_internal, border_v, border_u)[one_internal]
    internal = np.where(u_internal, border_u, border_v)[one_internal]
    # Work in a compact id space over the vertices this rank actually sees,
    # so allocations scale with the local part, not the global vertex count
    # (block partitions hand the last rank ids near N).  ``ids`` is sorted,
    # so the compact↔global mapping is monotonic and preserves the
    # lexicographic output order.
    ids = sorted_unique(np.concatenate([ext, internal, chordal_u, chordal_v]))
    n = int(ids.shape[0])
    ext = np.searchsorted(ids, ext)
    internal = np.searchsorted(ids, internal)
    chordal_u = np.searchsorted(ids, chordal_u)
    chordal_v = np.searchsorted(ids, chordal_v)
    packed_border = np.sort(ext * n + internal)
    # Chordal adjacency in CSR form over the packed id range (both
    # orientations), built with one bincount + argsort.
    src = np.concatenate([chordal_u, chordal_v])
    dst = np.concatenate([chordal_v, chordal_u])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    adj_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=adj_indptr[1:])
    nbrs, counts = gather_csr_rows(adj_indptr, dst, internal)
    if nbrs.size == 0:
        return _EMPTY_EDGES
    e_exp = np.repeat(ext, counts)
    i_exp = np.repeat(internal, counts)
    cand = e_exp * n + nbrs
    pos = np.searchsorted(packed_border, cand)
    pos_clip = np.minimum(pos, packed_border.shape[0] - 1)
    hit = (pos < packed_border.shape[0]) & (packed_border[pos_clip] == cand)
    if not hit.any():
        return _EMPTY_EDGES
    eh, ih, nh = e_exp[hit], i_exp[hit], nbrs[hit]
    first = np.minimum(eh, ih) * n + np.maximum(eh, ih)
    second = np.minimum(eh, nh) * n + np.maximum(eh, nh)
    keys = sorted_unique(np.concatenate([first, second]))
    return ids[keys // n], ids[keys % n]


def _rank_task_indices(
    sub_indptr: np.ndarray,
    sub_indices: np.ndarray,
    part_idx: np.ndarray,
    border_u: np.ndarray,
    border_v: np.ndarray,
    u_internal: np.ndarray,
    v_internal: np.ndarray,
    local_priority: Optional[list[int]],
    strict_order: bool,
) -> tuple[np.ndarray, np.ndarray, RankWork]:
    """The full per-rank computation on CSR arrays (local phase + admission).

    The arguments are numpy arrays, the kernel's priority list (or
    ``None``) and one bool, so the ``process`` backend pickles compact
    buffers instead of ``Graph`` objects.  Returns the kept local
    chordal edges (kernel acceptance order) and the admitted border edges
    (sorted) as ``(k, 2)`` arrays of canonical global-index pairs, plus the
    work counters — the exact sequences :func:`merge_rank_outputs` depends
    on.
    """
    k = int(part_idx.shape[0])
    sub = CSRGraph(sub_indptr, sub_indices, labels=range(k))
    pairs = chordal_subgraph_edge_indices(sub, priority=local_priority, strict_order=strict_order)
    m = len(pairs)
    if m:
        flat = np.fromiter(chain.from_iterable(pairs), dtype=np.int64, count=2 * m)
        endpoints = part_idx[flat].reshape(-1, 2)
        chordal_u = np.minimum(endpoints[:, 0], endpoints[:, 1])
        chordal_v = np.maximum(endpoints[:, 0], endpoints[:, 1])
    else:
        chordal_u, chordal_v = _EMPTY_EDGES
    admitted_u, admitted_v = _admit_border_keys(
        border_u, border_v, u_internal, v_internal, chordal_u, chordal_v
    )
    n_border = int(border_u.shape[0])
    work = RankWork(
        # Admission examines each border edge; count them as extra examined
        # edges for the cost model (mirrors the label-level pipeline).
        edges_examined=sub.n_edges + n_border,
        chordality_checks=sub.degree_sum(),
        border_edges=n_border,
        messages=0,
        items_sent=0,
        max_degree=max(sub.max_degree(), 1),
    )
    return (
        np.column_stack([chordal_u, chordal_v]),
        np.column_stack([admitted_u, admitted_v]),
        work,
    )


def _first_occurrences(pairs: np.ndarray, n_vertices: int) -> np.ndarray:
    """``pairs`` with every repeat of an earlier pair dropped, order kept."""
    _, first = np.unique(pairs[:, 0] * n_vertices + pairs[:, 1], return_index=True)
    return pairs[np.sort(first)]


def merge_rank_outputs(
    rank_outputs: Sequence[tuple[np.ndarray, np.ndarray, RankWork]],
    ipart: IndexPartition,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, list[RankWork]]:
    """The sequential merge shared by both parallel samplers.

    ``rank_outputs`` holds one ``(local_edges, accepted_border, work)`` per
    rank, in rank order, with the edges as canonical index pairs.  Local
    edges are deduplicated keeping their first occurrence; a border edge
    admitted by several ranks is kept once (first rank wins) and every repeat
    is counted as a duplicate.  Returns ``(local_edges, accepted_border,
    border_edges, duplicates, works)`` with the edges as ``(k, 2)`` index
    arrays; nothing here touches a label.
    """
    n = ipart.csr.n_vertices
    local = _first_occurrences(np.concatenate([as_pairs(out[0]) for out in rank_outputs]), n)
    admitted = np.concatenate([as_pairs(out[1]) for out in rank_outputs])
    accepted = _first_occurrences(admitted, n)
    duplicates = int(admitted.shape[0] - accepted.shape[0])
    border = np.column_stack(ipart.border_edges())
    return local, accepted, border, duplicates, [out[2] for out in rank_outputs]


def partition_memo_key(
    n_partitions: int,
    partition_method: str,
    perm: Optional[np.ndarray],
    ordering: Optional[str],
) -> Optional[tuple]:
    """The view-memo key of the partition :func:`resolve_index_partition`
    picks, or ``None`` when no key can name it: a block layout of a
    permutation without an ordering name (an explicit order)."""
    if partition_method == "block" and perm is not None:
        if ordering is None:
            return None
        return ("partition", partition_method, n_partitions, ordering)
    return ("partition", partition_method, n_partitions, None)


def resolve_index_partition(
    csr: CSRGraph,
    n_partitions: int,
    partition_method: str,
    perm: Optional[np.ndarray],
    ordering: Optional[str] = None,
) -> IndexPartition:
    """Choose the index partition for a parallel filter run.

    A block partition follows the ordering permutation when one was
    requested; any other method runs index-native directly.  ``ordering``
    names the ordering ``perm`` was computed from (``None`` for an explicit
    order); a partition that :func:`partition_memo_key` names is built once
    per view and kept, settled and read-only, in its memo.
    """

    def build() -> tuple:
        if partition_method == "block" and perm is not None:
            ipart = block_partition_indices(csr, n_partitions, order=perm)
        else:
            ipart = index_partition_graph(csr, n_partitions, method=partition_method)
        return ipart.settled_state()

    key = partition_memo_key(n_partitions, partition_method, perm, ordering)
    return IndexPartition.from_settled_state(csr, csr.memo(key, build))


def parallel_chordal_nocomm_filter(
    graph: "Graph | CSRGraph",
    n_partitions: int,
    ordering: Optional[str] = "natural",
    explicit_order: Optional[Sequence[Vertex]] = None,
    partition_method: str = "block",
    strict_order: bool = False,
    repair_cycles: bool = False,
    backend: Optional[str] = None,
    processes: Optional[int] = None,
) -> FilterResult:
    """Run the communication-free parallel chordal filter.

    Parameters
    ----------
    graph:
        The network to sample (a label graph or its CSR view).
    n_partitions:
        Number of simulated processors ``P``.
    ordering / explicit_order:
        Vertex ordering used both to lay out the block partition and to drive
        every rank's local Dearing–Shier–Warner traversal.
    partition_method:
        Partitioner name (``block``, ``hash``, ``bfs``, ``greedy``).
    repair_cycles:
        Run the optional cycle-repair pass on the border-edge-induced subgraph
        (deletes admitted border edges until no fundamental cycle among them
        survives), as discussed in Section III.A.
    backend:
        One of :func:`repro.parallel.runner.available_backends`; ``None``
        (the default) selects this filter's own default, ``"serial"``.  The
        ranks are independent, so every backend runs the same per-rank
        argument tuples through :func:`repro.parallel.parallel_map`:
        ``process`` (and its aliases) pickles the CSR-array payloads to
        the resident workers.  All backends produce the identical kept edge
        set in the identical admission order.
    """
    if n_partitions < 1:
        raise ValueError(f"n_partitions must be >= 1, got {n_partitions}")
    backend = backend or "serial"
    if backend not in available_backends():
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {available_backends()}"
        )
    start = time.perf_counter()
    csr = CSRGraph.of(graph)
    perm, ordering_name = resolve_order_indices(csr, ordering, explicit_order)
    # A memo key cannot name an explicit order, so its partition is not kept.
    memo_name = None if explicit_order is not None else ordering_name
    ipart = resolve_index_partition(csr, n_partitions, partition_method, perm, memo_name)
    position = priority_from_permutation(perm, csr.n_vertices)

    assignment = ipart.assignment
    items = []
    for rank, (sub_indptr, sub_indices) in enumerate(ipart.part_arrays()):
        part_idx = ipart.part_indices(rank)
        bu, bv = ipart.border_edges_of(rank)
        items.append(
            (
                sub_indptr,
                sub_indices,
                part_idx,
                bu,
                bv,
                assignment[bu] == rank,
                assignment[bv] == rank,
                None if position is None else kernel_priority(position[part_idx]),
                strict_order,
            )
        )
    rank_outputs = parallel_map(_rank_task_indices, items, backend=backend, processes=processes)
    local, accepted, border, duplicates, works = merge_rank_outputs(rank_outputs, ipart)

    removed_for_cycles: list[Edge] = []
    if repair_cycles and accepted.shape[0]:
        accepted, removed_for_cycles = _repair_border_cycles(csr.labels, local, accepted)

    # Local edges lie inside one part and accepted border edges cross parts,
    # so the two lists are disjoint.
    kept = np.concatenate([local, accepted])
    wall = time.perf_counter() - start

    supervision = pop_supervision_events()
    result = FilterResult(
        csr=csr,
        kept=kept,
        method="chordal_nocomm",
        ordering=ordering_name,
        n_partitions=ipart.n_parts,
        partition_method=partition_method,
        border_pairs=border,
        accepted_border_pairs=accepted,
        duplicate_border_edges=duplicates,
        rank_work=works,
        wall_time=wall,
        extra={
            "strict_order": strict_order,
            "repair_cycles": repair_cycles,
            "cycles_removed_edges": removed_for_cycles,
            "border_cycle_sizes": _border_cycle_sizes(csr, accepted),
            "backend": backend,
            # Supervision events (retries/degrades) ride in ``extra`` only:
            # the canonical filter payload excludes ``extra``, so a faulted
            # run that recovered stays byte-identical to a clean one.
            **({"supervision": supervision} if supervision else {}),
        },
    )
    result.compute_simulated_time(with_communication=False)
    return result


def _border_cycle_sizes(csr: CSRGraph, accepted: np.ndarray) -> list[int]:
    """:func:`cycle_basis_sizes` of the graph of the accepted border edges.

    That graph (``Graph(edges=<canonical label edges>)``) numbers its
    vertices in order of first appearance along the edges, each oriented as
    :func:`edge_key` orders its labels; the same numbering is rebuilt here on
    indices.  ``str`` labels are oriented by their ranks; only other label
    types call ``edge_key`` per edge.
    """
    if not accepted.shape[0]:
        return []
    natural = natural_label_ranks(csr)
    if natural is not None:
        flip = natural[accepted[:, 0]] > natural[accepted[:, 1]]
    else:
        labels = csr.labels
        # ``edge_key`` returns its own arguments, so identity tells a swap.
        flip = np.fromiter(
            (edge_key(labels[i], labels[j])[0] is not labels[i] for i, j in accepted.tolist()),
            dtype=bool,
            count=accepted.shape[0],
        )
    oriented = np.where(flip[:, None], accepted[:, ::-1], accepted).ravel()
    _, first, inverse = np.unique(oriented, return_index=True, return_inverse=True)
    position = np.empty(first.shape[0], dtype=np.int64)
    position[np.argsort(first)] = np.arange(first.shape[0], dtype=np.int64)
    local = position[inverse].reshape(-1, 2)
    sub = CSRGraph.from_edge_sequence(range(first.shape[0]), local[:, 0], local[:, 1])
    return cycle_basis_sizes_csr(sub)


def _repair_border_cycles(
    labels: Sequence[Vertex], local: np.ndarray, accepted: np.ndarray
) -> tuple[np.ndarray, list[Edge]]:
    """Delete admitted border edges that close cycles longer than a triangle.

    The repair follows the paper's sketch: copy the subgraph induced by the
    border edges (plus the local chordal edges among their endpoints, which
    are protected) to one processor and delete border edges until every
    fundamental cycle in that subgraph is a triangle.  The loop runs on
    labels; returns the surviving accepted pairs and the removed label edges.
    """
    accepted_border = [edge_key(labels[i], labels[j]) for i, j in accepted.tolist()]
    inside = np.isin(local, accepted).all(axis=1)
    protected = [edge_key(labels[i], labels[j]) for i, j in local[inside].tolist()]
    check_graph = Graph(edges=accepted_border + protected)
    removed: list[Edge] = []
    border_set = set(accepted_border)
    while True:
        sizes = cycle_basis_sizes(check_graph)
        if not sizes or max(sizes) <= 3:
            break
        target = _find_long_cycle_border_edge(check_graph, border_set)
        if target is None:
            break
        check_graph.remove_edge(*target)
        border_set.discard(target)
        removed.append(target)
    removed_set = set(removed)
    keep = np.fromiter(
        (e not in removed_set for e in accepted_border), dtype=bool, count=len(accepted_border)
    )
    return accepted[keep], removed


def _find_long_cycle_border_edge(graph: Graph, border_set: set[Edge]) -> Optional[Edge]:
    """Return a border edge participating in some cycle longer than a triangle."""
    from ..graph.cycles import find_chordless_cycle

    cycle = find_chordless_cycle(graph, min_length=4)
    if cycle is None:
        return None
    n = len(cycle)
    for i in range(n):
        e = edge_key(cycle[i], cycle[(i + 1) % n])
        if e in border_set:
            return e
    # The long cycle consists only of protected local edges; nothing to repair.
    return None

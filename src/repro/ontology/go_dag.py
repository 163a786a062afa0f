"""A Gene-Ontology-like directed acyclic graph of functional terms.

The paper's orthogonal validation annotates cluster edges with the *deepest
common parent* (DCP) of the two genes' GO terms and scores the edge as
``DCP depth − term breadth``.  All of that only needs the DAG structure:
term depth (distance from the root), ancestor sets, deepest common ancestors
and shortest term-to-term paths.  :class:`GODag` provides those operations for
any rooted DAG — the synthetic generator in :mod:`repro.ontology.generator`
builds one shaped like the GO biological-process tree.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.csr import edge_arrays_csr, gather_csr_rows, sorted_unique

__all__ = [
    "GOTerm",
    "GODag",
    "TermIndex",
    "TermDelta",
    "extended_term_index",
    "dcp_batch_arrays",
    "distance_batch_arrays",
]


class TermIndex:
    """An interned, int64-native snapshot of a :class:`GODag`'s term space.

    The batched enrichment engine never touches term *strings* in its hot
    loops; this index is the translation layer it computes on instead:

    * every term is interned to an ``int64`` id assigned in **sorted term-id
      order**, so comparing interned ids is exactly comparing term strings —
      the engine's tie-breaks (DCP "ties broken lexically", the scalar
      scorer's first-pair-wins candidate order) survive the translation
      bit-identically;
    * ``depths[t]`` is the longest-path depth of term ``t`` (the root's is 0);
    * the ancestor structure is CSR: ``anc_indices[anc_indptr[t]:anc_indptr[t+1]]``
      is the **sorted** array of ``t``'s ancestor ids including ``t`` itself,
      which turns common-ancestor queries into sorted-array intersections;
    * ``term_indptr`` / ``term_indices`` are the undirected parent/child
      structure as read-only CSR arrays over interned ids (rows sorted), the
      BFS substrate for term distances.

    The index is a frozen snapshot: :meth:`GODag.term_index` caches one per
    DAG and drops it on any structural mutation.
    """

    __slots__ = (
        "terms",
        "id_of",
        "depths",
        "anc_indptr",
        "anc_indices",
        "term_indptr",
        "term_indices",
        "_dist_rows",
    )

    #: Bound on the per-source distance-row cache (FIFO).  Each row is one
    #: int64 per term, so the cache stays under ``limit × n_terms × 8`` bytes
    #: however many distinct annotation terms a long-lived DAG is queried with.
    _DIST_ROW_LIMIT = 1024

    def __init__(self, dag: "GODag") -> None:
        self.terms: tuple[str, ...] = tuple(sorted(dag._terms))
        self.id_of: dict[str, int] = {t: i for i, t in enumerate(self.terms)}
        self.depths = np.array([dag._depth_cache[t] for t in self.terms], dtype=np.int64)
        self.depths.setflags(write=False)
        # Parent links over interned ids, (child, parent), each link once.
        us = np.fromiter(
            (self.id_of[t] for t, term in dag._terms.items() for _ in term.parents), dtype=np.int64
        )
        vs = np.fromiter(
            (self.id_of[p] for term in dag._terms.values() for p in term.parents), dtype=np.int64
        )
        self.anc_indptr, self.anc_indices = _ancestor_csr(self.depths, us, vs)
        self.anc_indptr.setflags(write=False)
        self.anc_indices.setflags(write=False)
        # Undirected term structure (each parent link is one undirected edge).
        self.term_indptr, self.term_indices = _term_structure(len(self.terms), us, vs)
        self._dist_rows: dict[int, np.ndarray] = {}

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def ids_for(self, terms: Iterable[str]) -> np.ndarray:
        """Intern an iterable of term strings (raises ``KeyError`` on unknowns)."""
        id_of = self.id_of
        return np.array([id_of[t] for t in terms], dtype=np.int64)

    def dcp_batch(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """Deepest common parent of each aligned pair, vectorised.

        Implements the scalar rule exactly — among common ancestors, maximise
        ``(depth, term)`` — via the sorted-ancestor-array intersection of
        :func:`dcp_batch_arrays`.
        """
        return dcp_batch_arrays(a_ids, b_ids, self.depths, self.anc_indptr, self.anc_indices)

    def distance_batch(self, a_ids: np.ndarray, b_ids: np.ndarray) -> np.ndarray:
        """Shortest undirected term distance of each aligned pair.

        Served from the cached per-source BFS rows where possible; cold
        sources fall to :func:`distance_batch_arrays`' batched frontier BFS.
        """
        return distance_batch_arrays(
            a_ids,
            b_ids,
            self.term_indptr,
            self.term_indices,
            row_cache=self._dist_rows,
            row_limit=self._DIST_ROW_LIMIT,
        )



def _term_structure(n: int, us: np.ndarray, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CSR arrays of the undirected parent links ``(us[k], vs[k])``."""
    indptr, indices = edge_arrays_csr(n, us, vs)
    indptr.setflags(write=False)
    indices.setflags(write=False)
    return indptr, indices


def _ancestor_csr(
    depths: np.ndarray, child: np.ndarray, parent: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted ancestor rows (each term included) of every term, as a CSR.

    Built one depth level at a time: under longest-path depths every parent
    sits on a shallower level, so a level's rows are one gather of its
    parents' finished rows plus the terms themselves, and one sort-unique of
    the packed ``(term, ancestor)`` keys sorts and dedupes every row of the
    level at once.  Rows are stored in level order and re-gathered into id
    order at the end.
    """
    n = depths.shape[0]
    order = np.argsort(depths, kind="stable")  # level by level, ids ascending
    pos_of = np.empty(n, dtype=np.int64)
    pos_of[order] = np.arange(n, dtype=np.int64)
    levels = np.arange(int(depths.max()) + 2)
    term_bounds = np.searchsorted(depths[order], levels)
    by_child = np.argsort(depths[child], kind="stable")
    child, parent = child[by_child], parent[by_child]
    edge_bounds = np.searchsorted(depths[child], levels)
    indptr = np.zeros(n + 1, dtype=np.int64)  # over level-order positions
    store = np.empty(0, dtype=np.int64)
    for d in range(levels.shape[0] - 1):
        lo, hi = term_bounds[d], term_bounds[d + 1]
        ea, eb = edge_bounds[d], edge_bounds[d + 1]
        terms = order[lo:hi]
        vals, counts = gather_csr_rows(indptr, store, pos_of[parent[ea:eb]])
        keys = sorted_unique(
            np.concatenate([np.repeat(child[ea:eb], counts) * n + vals, terms * n + terms])
        )
        owners = keys // n
        np.cumsum(np.bincount(owners, minlength=n)[terms], out=indptr[lo + 1 : hi + 1])
        indptr[lo + 1 : hi + 1] += indptr[lo]
        store = np.concatenate([store, keys - owners * n])
    anc_indices, counts = gather_csr_rows(indptr, store, pos_of)
    anc_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=anc_indptr[1:])
    return anc_indptr, anc_indices


@dataclass(frozen=True)
class TermDelta:
    """The outcome of one leaf-append batch (:meth:`GODag.append_leaf_terms`).

    ``old_to_new`` maps every *old* interned id to its id in ``new_index``
    (interning is in sorted term-string order, so appended terms renumber the
    id space; the map is strictly increasing, which is what lets sorted rows
    and packed pair keys remap by one gather without re-sorting).
    ``distances_safe`` reports whether distances between pre-existing terms
    are provably unchanged — when ``False`` the per-source distance rows were
    dropped and downstream breadth memos (the enrichment pair table) must
    reset too.
    """

    old_index: TermIndex
    new_index: TermIndex
    old_to_new: np.ndarray
    new_ids: np.ndarray  #: interned ids of the appended terms, insertion order
    distances_safe: bool


def extended_term_index(
    old: TermIndex, dag: "GODag", new_terms: Sequence[str]
) -> tuple[TermIndex, np.ndarray]:
    """Delta-build the :class:`TermIndex` of ``dag`` after appending leaves.

    ``old`` must be the index of ``dag`` *before* the terms in ``new_terms``
    (insertion order) were added, and every appended term must be a leaf
    (no children yet) — exactly what :meth:`GODag.append_leaf_terms`
    guarantees.  The interned id space is extended in sorted-string order:
    old ancestor rows survive as one monotone gather (``old_to_new`` is
    strictly increasing, so sorted rows stay sorted), only the appended
    terms' ancestor rows are unioned fresh, and the undirected term CSR is
    rebuilt from the remapped old edge list plus the new parent links.  The
    result is bit-identical to a cold ``TermIndex(dag)``; the per-source
    distance-row cache starts empty (the caller migrates it when safe).

    Returns ``(new_index, old_to_new)``.
    """
    terms = tuple(sorted(dag._terms))
    id_of = {t: i for i, t in enumerate(terms)}
    n = len(terms)
    old_n = len(old.terms)
    old_to_new = np.fromiter((id_of[t] for t in old.terms), dtype=np.int64, count=old_n)
    depths = np.empty(n, dtype=np.int64)
    depths[old_to_new] = old.depths
    for t in new_terms:
        depths[id_of[t]] = dag._depth_cache[t]
    depths.setflags(write=False)
    # Ancestor CSR: remap every old row with one gather (monotone map keeps
    # rows sorted); new leaf rows union their parents' finished rows.
    remapped = old_to_new[old.anc_indices]
    rows: list[Optional[np.ndarray]] = [None] * n
    for i_old in range(old_n):
        rows[old_to_new[i_old]] = remapped[old.anc_indptr[i_old] : old.anc_indptr[i_old + 1]]
    for t in new_terms:
        tid = id_of[t]
        parent_rows = [rows[id_of[p]] for p in dag._terms[t].parents]
        rows[tid] = sorted_unique(
            np.concatenate(parent_rows + [np.array([tid], dtype=np.int64)])
        )
    counts = np.array([r.shape[0] for r in rows], dtype=np.int64)
    anc_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=anc_indptr[1:])
    anc_indices = np.concatenate(rows)
    anc_indptr.setflags(write=False)
    anc_indices.setflags(write=False)
    # Undirected structure: old edges (upper-triangle extraction of the old
    # CSR — each edge once) remapped, plus one edge per new parent link.
    row_of = np.repeat(np.arange(old_n, dtype=np.int64), np.diff(old.term_indptr))
    tri = old.term_indices > row_of
    us = [old_to_new[row_of[tri]]]
    vs = [old_to_new[old.term_indices[tri]]]
    for t in new_terms:
        parents = dag._terms[t].parents
        us.append(np.full(len(parents), id_of[t], dtype=np.int64))
        vs.append(np.fromiter((id_of[p] for p in parents), dtype=np.int64, count=len(parents)))
    term_indptr, term_indices = _term_structure(n, np.concatenate(us), np.concatenate(vs))
    index = object.__new__(TermIndex)
    index.terms = terms
    index.id_of = id_of
    index.depths = depths
    index.anc_indptr = anc_indptr
    index.anc_indices = anc_indices
    index.term_indptr = term_indptr
    index.term_indices = term_indices
    index._dist_rows = {}
    return index, old_to_new


def dcp_batch_arrays(
    a_ids: np.ndarray,
    b_ids: np.ndarray,
    depths: np.ndarray,
    anc_indptr: np.ndarray,
    anc_indices: np.ndarray,
) -> np.ndarray:
    """Deepest common parent of each aligned interned pair, on raw arrays.

    The a-side ancestor rows are gathered per pair and probed against the
    b-side rows with one packed ``searchsorted``: keying each b-row element
    by its pair index yields a globally sorted array (rows are sorted,
    pair ids ascend), so membership is a single binary search per candidate.
    Among the surviving common ancestors the per-pair maximum of the packed
    ``(depth, id)`` key reproduces the scalar rule exactly — ties fall to the
    larger interned id, which is the lexically larger term by construction.

    A free function over raw arrays, not a :class:`TermIndex` method, so
    the tests can pin it on hand-built ancestor structures.
    """
    a_ids = np.ascontiguousarray(a_ids, dtype=np.int64)
    b_ids = np.ascontiguousarray(b_ids, dtype=np.int64)
    n_pairs = a_ids.shape[0]
    if n_pairs == 0:
        return np.empty(0, dtype=np.int64)
    k = np.int64(depths.shape[0])
    pair_ids = np.arange(n_pairs, dtype=np.int64)
    a_vals, a_counts = gather_csr_rows(anc_indptr, anc_indices, a_ids)
    b_vals, b_counts = gather_csr_rows(anc_indptr, anc_indices, b_ids)
    a_pair = np.repeat(pair_ids, a_counts)
    b_pair = np.repeat(pair_ids, b_counts)
    packed_b = b_pair * k + b_vals
    queries = a_pair * k + a_vals
    pos = np.searchsorted(packed_b, queries)
    pos[pos >= packed_b.shape[0]] = packed_b.shape[0] - 1
    common = packed_b[pos] == queries
    cand_vals = a_vals[common]
    cand_pair = a_pair[common]
    # Per-pair max of (depth, id), packed into one int64 key.  Every pair has
    # at least one common ancestor (the root), so no segment is empty.
    key = depths[cand_vals] * k + cand_vals
    seg = np.zeros(n_pairs + 1, dtype=np.int64)
    np.cumsum(np.bincount(cand_pair, minlength=n_pairs), out=seg[1:])
    best = np.maximum.reduceat(key, seg[:-1])
    return best % k


#: Cold-source count above which :func:`distance_batch_arrays` switches from
#: per-source frontier BFS rows to the multi-source bitset BFS.  Per-source
#: rows win for small warm batches (each row is cacheable and one BFS is a
#: handful of array ops); the bitset sweep wins as soon as the per-BFS numpy
#: call overhead would be paid more than a few dozen times.
_BITSET_SOURCE_THRESHOLD = 16


def distance_batch_arrays(
    a_ids: np.ndarray,
    b_ids: np.ndarray,
    indptr: np.ndarray,
    indices: np.ndarray,
    row_cache: Optional[dict[int, np.ndarray]] = None,
    row_limit: int = 0,
) -> np.ndarray:
    """Undirected BFS distance of each aligned interned pair, on raw arrays.

    Pairs are grouped by their smaller endpoint.  Sources with a cached BFS
    distance row (``row_cache``, the :class:`TermIndex`'s FIFO table) are
    answered by a gather; a few cold sources run one frontier BFS each (the
    rows feed the cache, bounded by ``row_limit``); a *large* cold batch —
    the enrichment engine's first pass sees thousands of distinct sources —
    runs **one multi-source bitset BFS** instead: every source becomes a bit
    plane, one ``bitwise_or.reduceat`` over the CSR expands all frontiers a
    level at a time in C, and queries are answered the level their source's
    bit first reaches their destination (see :func:`_bitset_distance_queries`).

    A free function over raw arrays, not a :class:`TermIndex` method, so
    the tests can pin its bitset and per-source paths on arbitrary CSRs.
    """
    a_ids = np.ascontiguousarray(a_ids, dtype=np.int64)
    b_ids = np.ascontiguousarray(b_ids, dtype=np.int64)
    src = np.minimum(a_ids, b_ids)
    dst = np.maximum(a_ids, b_ids)
    out = np.zeros(a_ids.shape[0], dtype=np.int64)
    sources, inverse = np.unique(src, return_inverse=True)
    # Group query positions by source once (one stable argsort), so serving
    # a source — cached or fresh — is a slice, not a full scan of the batch.
    order = np.argsort(inverse, kind="stable")
    bounds = np.zeros(sources.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(inverse, minlength=sources.shape[0]), out=bounds[1:])
    cold: list[int] = []
    for si, s in enumerate(sources.tolist()):
        row = row_cache.get(s) if row_cache else None
        if row is None:
            cold.append(si)
            continue
        q = order[bounds[si] : bounds[si + 1]]
        out[q] = row[dst[q]]
    if not cold:
        return out
    if len(cold) <= _BITSET_SOURCE_THRESHOLD:
        for si in cold:
            row = _cached_bfs_row(indptr, indices, int(sources[si]), row_cache, row_limit)
            q = order[bounds[si] : bounds[si + 1]]
            out[q] = row[dst[q]]
        return out
    pending = np.concatenate([order[bounds[si] : bounds[si + 1]] for si in cold])
    out[pending] = _bitset_distance_queries(indptr, indices, src[pending], dst[pending])
    return out


def _bitset_distance_queries(
    indptr: np.ndarray, indices: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Answer ``(src, dst)`` distance queries with one multi-source bitset BFS.

    Each distinct source owns one bit across ``W = ceil(S / 64)`` uint64
    words per vertex; ``reached[v]`` is the set of sources whose BFS has
    touched ``v``.  A level expands **all** frontiers at once:
    ``bitwise_or.reduceat(frontier[indices], indptr[:-1])`` ORs every
    vertex's neighbour masks in one C pass, newly-set bits advance the
    frontier, and every still-pending query whose source bit just reached
    its destination is answered with the current level.  Unreachable pairs
    (impossible in a rooted DAG) come back ``-1``, matching the scalar BFS.
    """
    n = indptr.shape[0] - 1
    out = np.full(src.shape[0], -1, dtype=np.int64)
    same = src == dst
    out[same] = 0
    pending = np.nonzero(~same)[0]
    if pending.size == 0 or indices.shape[0] == 0:
        return out
    sources, s_idx = np.unique(src, return_inverse=True)
    s_count = sources.shape[0]
    word = (s_idx // 64).astype(np.int64)
    bit = (s_idx % 64).astype(np.uint64)
    n_words = (s_count + 63) // 64
    reached = np.zeros((n, n_words), dtype=np.uint64)
    lane = np.arange(s_count, dtype=np.int64)
    np.bitwise_or.at(
        reached, (sources, lane // 64), np.uint64(1) << (lane % 64).astype(np.uint64)
    )
    # Reduce only over non-empty rows: consecutive non-empty rows tile
    # ``indices`` exactly, so their ``indptr`` starts are valid reduceat
    # segment bounds (zero-degree rows would otherwise repeat a start and
    # corrupt the preceding row's segment).
    nonempty = np.nonzero(np.diff(indptr) > 0)[0]
    row_starts = indptr[nonempty]
    frontier = reached.copy()
    d = 0
    while pending.size and frontier.any():
        d += 1
        new = np.zeros_like(reached)
        new[nonempty] = np.bitwise_or.reduceat(frontier[indices], row_starts, axis=0)
        new &= ~reached
        reached |= new
        hit = (new[dst[pending], word[pending]] >> bit[pending]) & np.uint64(1) != 0
        out[pending[hit]] = d
        pending = pending[~hit]
        frontier = new
    return out


def _cached_bfs_row(
    indptr: np.ndarray,
    indices: np.ndarray,
    src: int,
    row_cache: Optional[dict[int, np.ndarray]],
    row_limit: int,
) -> np.ndarray:
    """BFS distance row of ``src``, memoised in ``row_cache`` (FIFO, at most
    ``row_limit`` rows; ``0`` = unbounded, ``None`` = no cache)."""
    row = row_cache.get(src) if row_cache is not None else None
    if row is None:
        row = _bfs_distances(indptr, indices, src)
        if row_cache is not None:
            if row_limit and len(row_cache) >= row_limit:
                row_cache.pop(next(iter(row_cache)))
            row_cache[src] = row
    return row


def _bfs_distances(indptr: np.ndarray, indices: np.ndarray, src: int) -> np.ndarray:
    """Frontier-array BFS distances from ``src`` over raw CSR arrays (−1 = unreachable)."""
    n = indptr.shape[0] - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[src] = 0
    frontier = np.array([src], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        nbrs, _ = gather_csr_rows(indptr, indices, frontier)
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            break
        frontier = sorted_unique(nbrs)
        dist[frontier] = d
    return dist


class GOTerm:
    """One ontology term: an identifier, a human-readable name and parent links."""

    __slots__ = ("term_id", "name", "parents", "children")

    def __init__(self, term_id: str, name: str = "") -> None:
        self.term_id = term_id
        self.name = name or term_id
        self.parents: list[str] = []
        self.children: list[str] = []


class GODag:
    """A rooted DAG of :class:`GOTerm` objects with the paper's query operations.

    The DAG is built incrementally with :meth:`add_term`; every term except the
    root must list at least one existing parent.  Cycles are rejected at
    insertion time (a parent must already exist, so the structure is built in
    topological order and can never contain a cycle).
    """

    def __init__(self, root_id: str = "GO:ROOT", root_name: str = "biological_process") -> None:
        self.root_id = root_id
        self._terms: dict[str, GOTerm] = {}
        root = GOTerm(root_id, root_name)
        self._terms[root_id] = root
        self._depth_cache: dict[str, int] = {root_id: 0}
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        # Interned int64 snapshot: the batched enrichment engine computes on
        # it, and its per-source BFS rows are the DAG's one distance cache
        # (term_distance reads them too).  Built lazily by term_index() and
        # dropped on any structural change.
        self._term_index: Optional[TermIndex] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _insert_term(self, term_id: str, parents: Iterable[str], name: str = "") -> GOTerm:
        """Validate and link one new term (shared by the cold and delta paths);
        performs **no** cache invalidation — callers own that."""
        if term_id in self._terms:
            raise ValueError(f"term {term_id!r} already exists")
        parent_list = list(dict.fromkeys(parents))
        if not parent_list:
            raise ValueError("every non-root term needs at least one parent")
        missing = [p for p in parent_list if p not in self._terms]
        if missing:
            raise KeyError(f"unknown parent terms: {missing}")
        term = GOTerm(term_id, name)
        term.parents = parent_list
        self._terms[term_id] = term
        for p in parent_list:
            self._terms[p].children.append(term_id)
        self._depth_cache[term_id] = 1 + max(self._depth_cache[p] for p in parent_list)
        self._ancestor_cache.pop(term_id, None)
        return term

    def add_term(self, term_id: str, parents: Iterable[str], name: str = "") -> GOTerm:
        """Add a term with the given parent term ids (all must already exist)."""
        term = self._insert_term(term_id, parents, name)
        # A new leaf invalidates the term index twice over: it is missing the
        # term, and a leaf with several parents creates parent–leaf–parent
        # shortcuts that can shorten existing undirected distances.
        # append_leaf_terms is the scoped-invalidation alternative for warm
        # holders of the term index.
        self._term_index = None
        return term

    def append_leaf_terms(
        self, specs: Sequence[tuple[str, Sequence[str]]]
    ) -> TermDelta:
        """Append a batch of leaf terms, delta-extending the term index.

        ``specs`` is ``[(term_id, parents), ...]`` in insertion order; parents
        may name earlier entries of the same batch.  Unlike :meth:`add_term`,
        which drops the whole term index, this path invalidates by *scope*:

        * depths and ancestor sets of existing terms never change under a
          leaf append, so the ancestor cache and depth cache are untouched;
        * the cached :class:`TermIndex` is extended via
          :func:`extended_term_index` (one monotone remap plus the new rows)
          instead of rebuilt from scratch;
        * the index's per-source distance rows are *extended* — every path
          to a new leaf enters through a parent, so
          ``dist(src, leaf) = min_p dist(src, p) + 1`` — whenever the
          batch provably cannot shorten any existing distance: a
          single-parent leaf never can, and a multi-parent leaf cannot when
          its parents (all pre-existing) sit pairwise at distance ≤ 2.
          Batches that fail the test drop the distance rows (and report
          ``distances_safe=False`` so breadth memos downstream reset too).

        Returns the :class:`TermDelta` describing the id remap.
        """
        if not specs:
            raise ValueError("append_leaf_terms needs at least one term")
        old_index = self.term_index()
        # --- safety analysis against the *old* structure, before mutation ---
        batch_ids = {term_id for term_id, _parents in specs}
        safe = True
        check_a: list[int] = []
        check_b: list[int] = []
        for term_id, parents in specs:
            parent_list = list(dict.fromkeys(parents))
            if len(parent_list) <= 1:
                continue  # a pendant leaf can never create a shortcut
            if any(p in batch_ids for p in parent_list):
                safe = False  # multi-parent onto in-batch terms: don't prove, drop
                continue
            ids = [old_index.id_of[p] for p in parent_list if p in old_index.id_of]
            if len(ids) != len(parent_list):
                safe = False
                continue
            for x in range(len(ids)):
                for y in range(x + 1, len(ids)):
                    check_a.append(ids[x])
                    check_b.append(ids[y])
        if safe and check_a:
            dists = old_index.distance_batch(
                np.asarray(check_a, dtype=np.int64), np.asarray(check_b, dtype=np.int64)
            )
            safe = bool((dists <= 2).all())
        # --- mutate ---------------------------------------------------------
        inserted: list[str] = []
        try:
            for term_id, parents in specs:
                self._insert_term(term_id, parents)
                inserted.append(term_id)
        except Exception:
            # Leave no half-applied batch behind: unlink what went in and
            # fall back to the cold invalidation contract.
            for term_id in reversed(inserted):
                term = self._terms.pop(term_id)
                for p in term.parents:
                    self._terms[p].children.remove(term_id)
                self._depth_cache.pop(term_id, None)
            self._term_index = None
            raise
        new_terms = [term_id for term_id, _parents in specs]
        new_index, old_to_new = extended_term_index(old_index, self, new_terms)
        # --- scoped invalidation -------------------------------------------
        # The BFS rows are keyed and indexed by interned ids: a safe batch
        # remaps each row through old_to_new and fills the new leaves; an
        # unsafe one leaves the new index with no rows.
        if safe:
            n = new_index.n_terms
            parent_ids = [
                np.fromiter(
                    (new_index.id_of[p] for p in self._terms[t].parents),
                    dtype=np.int64,
                    count=len(self._terms[t].parents),
                )
                for t in new_terms
            ]
            leaf_ids = [new_index.id_of[t] for t in new_terms]
            for src, row in old_index._dist_rows.items():
                grown = np.empty(n, dtype=np.int64)
                grown[old_to_new] = row
                for lid, pids in zip(leaf_ids, parent_ids):
                    grown[lid] = grown[pids].min() + 1
                new_index._dist_rows[int(old_to_new[src])] = grown
        self._term_index = new_index
        return TermDelta(
            old_index=old_index,
            new_index=new_index,
            old_to_new=old_to_new,
            new_ids=np.fromiter(
                (new_index.id_of[t] for t in new_terms), dtype=np.int64, count=len(new_terms)
            ),
            distances_safe=safe,
        )

    def add_parent(self, term_id: str, parent_id: str) -> None:
        """Add an extra parent link (GO terms often have several parents).

        The link is rejected when it would create a cycle (i.e. when
        ``parent_id`` is a descendant of ``term_id``).  Depth is recomputed
        lazily as the maximum over parents; ancestor caches are invalidated.
        """
        term = self.term(term_id)
        parent = self.term(parent_id)
        if parent_id in term.parents:
            return
        if term_id in self.ancestors(parent_id):
            raise ValueError(f"adding parent {parent_id!r} to {term_id!r} would create a cycle")
        term.parents.append(parent_id)
        parent.children.append(term_id)
        # Only the child term and its descendants can see new ancestors from
        # this link, so invalidation is scoped to that subtree instead of
        # clearing the whole cache — every other term's ancestor set is
        # reachable without the new edge and stays valid.
        for t in self.subtree(term_id):
            self._ancestor_cache.pop(t, None)
        # Longest-path depths of the term and its descendants may grow.
        self._term_index = None
        self._recompute_depths_from(term_id)

    def _recompute_depths_from(self, term_id: str) -> None:
        """Refresh longest-path depths for ``term_id`` and everything below it."""
        stack = [term_id]
        while stack:
            t = stack.pop()
            node = self._terms[t]
            if node.parents:
                new_depth = 1 + max(self._depth_cache[p] for p in node.parents)
            else:
                new_depth = 0
            if new_depth != self._depth_cache.get(t):
                self._depth_cache[t] = new_depth
                stack.extend(node.children)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __contains__(self, term_id: str) -> bool:
        return term_id in self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def terms(self) -> list[str]:
        """Return every term id in insertion order (root first)."""
        return list(self._terms)

    def term(self, term_id: str) -> GOTerm:
        try:
            return self._terms[term_id]
        except KeyError:
            raise KeyError(f"unknown GO term {term_id!r}") from None

    def children(self, term_id: str) -> list[str]:
        return list(self.term(term_id).children)

    def depth(self, term_id: str) -> int:
        """Return the depth of a term: the longest path length from the root.

        The root has depth 0.  Longest-path depth matches the Gene Ontology
        convention that a term reachable through a more specific lineage is
        considered deeper (more specialised).
        """
        if term_id not in self._terms:
            raise KeyError(f"unknown GO term {term_id!r}")
        return self._depth_cache[term_id]

    def max_depth(self) -> int:
        """Return the depth of the deepest term in the DAG."""
        return max(self._depth_cache.values())

    # ------------------------------------------------------------------
    # ancestry
    # ------------------------------------------------------------------
    def ancestors(self, term_id: str, include_self: bool = True) -> frozenset[str]:
        """Return every ancestor of ``term_id`` (cached), optionally including itself."""
        if term_id not in self._terms:
            raise KeyError(f"unknown GO term {term_id!r}")
        cached = self._ancestor_cache.get(term_id)
        if cached is None:
            out: set[str] = {term_id}
            stack = list(self.term(term_id).parents)
            while stack:
                p = stack.pop()
                if p not in out:
                    out.add(p)
                    stack.extend(self.term(p).parents)
            cached = frozenset(out)
            self._ancestor_cache[term_id] = cached
        return cached if include_self else frozenset(cached - {term_id})

    def common_ancestors(self, term_a: str, term_b: str) -> frozenset[str]:
        """Return the common ancestors of two terms (including the terms themselves
        when one is an ancestor of the other)."""
        return self.ancestors(term_a) & self.ancestors(term_b)

    def deepest_common_parent(self, term_a: str, term_b: str) -> str:
        """Return the deepest common ancestor of two terms (ties broken lexically).

        This is the paper's DCP.  The root is always a common ancestor, so the
        result is well defined for any pair of terms in the DAG.
        """
        common = self.common_ancestors(term_a, term_b)
        return max(common, key=lambda t: (self._depth_cache[t], t))

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def term_index(self) -> TermIndex:
        """Return the interned :class:`TermIndex` snapshot of this DAG (cached).

        The snapshot is rebuilt lazily after any structural mutation
        (:meth:`add_term`, :meth:`add_parent`), so holders must re-fetch it
        rather than keep one across mutations — consumers (the enrichment
        engine) key their own caches on the snapshot's identity.
        """
        index = self._term_index
        if index is None:
            index = TermIndex(self)
            self._term_index = index
        return index

    def term_distance(self, term_a: str, term_b: str) -> int:
        """Return the shortest undirected path length between two terms.

        This is the paper's *term breadth*: how far apart the two annotations
        sit in the ontology.  Terms in disconnected annotation namespaces
        would return ``-1``, but a rooted DAG is always connected.

        One cached BFS row of the :class:`TermIndex` answers it, shared with
        :meth:`TermIndex.distance_batch`: a frontier BFS
        from the lexically smaller term (the smaller interned id, the source
        :meth:`TermIndex.distance_batch` groups by too), cached per source —
        the scorer combines the same annotation terms across thousands of
        cluster edges, so amortised each further pair is an array lookup.
        """
        if term_a == term_b:
            return 0
        self.term(term_a)
        self.term(term_b)
        index = self.term_index()
        a, b = index.id_of[term_a], index.id_of[term_b]
        row = _cached_bfs_row(
            index.term_indptr, index.term_indices, min(a, b), index._dist_rows,
            index._DIST_ROW_LIMIT,
        )
        return int(row[max(a, b)])

    def reference_term_distance(self, term_a: str, term_b: str) -> int:
        """Seed ``term_distance``: an early-exit pair BFS, no cross-pair reuse.

        Retained as the behavioural reference for the CSR frontier BFS (and
        as the baseline measurement in ``benchmarks/bench_workflow.py``);
        the test suite pins :meth:`term_distance` to it.
        """
        if term_a == term_b:
            return 0
        self.term(term_a)
        self.term(term_b)
        dist = {term_a: 0}
        queue: deque[str] = deque([term_a])
        result = -1
        while queue:
            t = queue.popleft()
            node = self._terms[t]
            for nxt in list(node.parents) + list(node.children):
                if nxt not in dist:
                    dist[nxt] = dist[t] + 1
                    if nxt == term_b:
                        result = dist[nxt]
                        queue.clear()
                        break
                    queue.append(nxt)
        return result

    def path_to_root(self, term_id: str) -> list[str]:
        """Return one shortest parent-chain from ``term_id`` up to the root."""
        self.term(term_id)
        # BFS upward (parents only).
        parent_of: dict[str, Optional[str]] = {term_id: None}
        queue: deque[str] = deque([term_id])
        while queue:
            t = queue.popleft()
            if t == self.root_id:
                path = [t]
                while parent_of[path[-1]] is not None:
                    path.append(parent_of[path[-1]])  # type: ignore[arg-type]
                return list(reversed(path))
            for p in self._terms[t].parents:
                if p not in parent_of:
                    parent_of[p] = t
                    queue.append(p)
        raise RuntimeError(f"term {term_id!r} is not connected to the root")  # pragma: no cover

    def subtree(self, term_id: str) -> set[str]:
        """Return every descendant of ``term_id`` (including itself)."""
        self.term(term_id)
        out = {term_id}
        stack = [term_id]
        while stack:
            t = stack.pop()
            for c in self._terms[t].children:
                if c not in out:
                    out.add(c)
                    stack.append(c)
        return out

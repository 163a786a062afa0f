"""Edge enrichment scoring (Dempsey et al. 2011) and cluster AEES.

The paper validates clusters *orthogonally* — not by their connectivity but by
how functionally coherent they are according to the Gene Ontology:

* every cluster edge ``(n1, n2)`` is annotated with the **deepest common
  parent** (DCP) of the two genes' GO terms;
* the edge score is ``DCP depth − term breadth`` where term breadth is the
  shortest ontology path between the two annotations — edges between genes
  with deep, nearby annotations score high, edges between unrelated genes
  score near (or below) zero;
* the **average edge enrichment score** (AEES) over all edges of a cluster
  ranks clusters; the paper uses AEES > 3.0 as the "biologically relevant"
  bar, and annotates the cluster with its dominating DCP term.

Two implementations live here:

* the **batched engine** (the default): edges are resolved over the interned
  term space of :class:`~repro.ontology.go_dag.TermIndex` /
  :class:`~repro.ontology.annotation.AnnotationIndex`.  The distinct packed
  ``(ta, tb)`` term pairs across all edges are scored once — DCP by
  vectorised sorted-ancestor-array intersection, breadth from per-source
  frontier-BFS distance rows — and memoised in a packed-key → ``(dcp,
  breadth)`` array table (:class:`_PairTable`); every edge then resolves by a
  gather plus a segment max, and whole cluster *sets* reduce to AEES /
  max-score / max-depth / dominant-term arrays with segment reductions
  (:meth:`EnrichmentScorer.score_cluster_graphs`).  An optional ``backend=``
  fans distinct-pair batches over
  :func:`~repro.parallel.runner.parallel_map`, shipping the term CSR and
  depth/annotation arrays once through a
  :class:`~repro.parallel.shm.SharedArena`.
* the **reference implementation**: the seed per-edge double loop over term
  pairs (:func:`reference_score_edge` / :func:`reference_score_cluster`),
  retained as the behavioural pin — the test suite asserts the batched
  engine reproduces it bit-identically (same DCP tie-breaks, same scores),
  and ``benchmarks/bench_enrichment.py`` measures the gap.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..graph.graph import Graph, edge_key
from .annotation import AnnotationIndex, AnnotationTable
from .go_dag import GODag, TermIndex, dcp_batch_arrays, distance_batch_arrays

__all__ = [
    "EdgeAnnotation",
    "ClusterEnrichment",
    "ClusterScores",
    "EnrichmentScorer",
    "score_edge",
    "score_cluster",
    "reference_score_edge",
    "reference_score_cluster",
]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class EdgeAnnotation:
    """The enrichment annotation of one edge.

    ``dcp`` is the deepest common parent term chosen among all pairs of the
    two genes' annotations, ``depth`` its depth, ``breadth`` the ontology
    distance between the chosen term pair and ``score = depth − breadth``.
    Unannotated endpoints yield the sentinel annotation with score 0 and no
    DCP.
    """

    edge: Edge
    dcp: Optional[str]
    depth: int
    breadth: int
    score: float


@dataclass
class ClusterEnrichment:
    """Enrichment summary of one cluster: per-edge annotations and aggregates."""

    edges: list[EdgeAnnotation] = field(default_factory=list)

    @property
    def aees(self) -> float:
        """Average edge enrichment score (0.0 for clusters with no scored edge)."""
        if not self.edges:
            return 0.0
        return sum(e.score for e in self.edges) / len(self.edges)

    @property
    def max_score(self) -> float:
        """Deepest (best) single edge score — the paper's "Max Score" column."""
        if not self.edges:
            return 0.0
        return max(e.score for e in self.edges)

    @property
    def max_depth(self) -> int:
        """Depth of the deepest DCP term seen in the cluster."""
        if not self.edges:
            return 0
        return max(e.depth for e in self.edges)

    def dominant_term(self) -> Optional[str]:
        """Return the most frequent DCP term across edges (the cluster's annotation)."""
        counts = Counter(e.dcp for e in self.edges if e.dcp is not None)
        if not counts:
            return None
        # most common; ties broken by term id for determinism
        best = max(counts.items(), key=lambda kv: (kv[1], kv[0]))
        return best[0]

    def term_frequencies(self) -> dict[str, int]:
        """Return DCP term → number of edges annotated with it."""
        return dict(Counter(e.dcp for e in self.edges if e.dcp is not None))


@dataclass(frozen=True)
class ClusterScores:
    """Array-form enrichment aggregates of a *set* of clusters.

    One entry per scored cluster, aligned with the input order of
    :meth:`EnrichmentScorer.score_cluster_graphs`.  Values are bit-identical
    to building a :class:`ClusterEnrichment` per cluster (the sums involved
    are exact — edge scores are integer-valued) without materialising any
    per-edge objects.
    """

    aees: np.ndarray  #: float64, the paper's AEES per cluster
    max_score: np.ndarray  #: float64, best single edge score (0.0 when edgeless)
    max_depth: np.ndarray  #: int64, deepest winning DCP depth (0 when edgeless)
    n_edges: np.ndarray  #: int64, scored edges per cluster
    dominant: list[Optional[str]]  #: most frequent DCP term (count, then lexical)

    def __len__(self) -> int:
        return int(self.aees.shape[0])


def reference_score_edge(
    dag: GODag,
    annotations: AnnotationTable,
    u: Vertex,
    v: Vertex,
) -> EdgeAnnotation:
    """Seed ``score_edge``: the per-edge double loop over the endpoints' terms.

    Retained as the behavioural reference for the batched engine (and as the
    baseline measurement in ``benchmarks/bench_enrichment.py``); the test
    suite pins the engine to it.  When either endpoint has no annotation the
    edge scores 0 with no DCP — the paper treats scores at or below zero as
    likely noise.
    """
    terms_u = annotations.terms_of(str(u))
    terms_v = annotations.terms_of(str(v))
    key = edge_key(u, v)
    if not terms_u or not terms_v:
        return EdgeAnnotation(edge=key, dcp=None, depth=0, breadth=0, score=0.0)
    best: Optional[EdgeAnnotation] = None
    for ta in sorted(terms_u):
        for tb in sorted(terms_v):
            dcp = dag.deepest_common_parent(ta, tb)
            depth = dag.depth(dcp)
            breadth = dag.term_distance(ta, tb)
            score = float(depth - breadth)
            candidate = EdgeAnnotation(edge=key, dcp=dcp, depth=depth, breadth=breadth, score=score)
            if best is None or candidate.score > best.score:
                best = candidate
    assert best is not None
    return best


def reference_score_cluster(
    dag: GODag,
    annotations: AnnotationTable,
    cluster_graph: Graph,
) -> ClusterEnrichment:
    """Seed ``score_cluster``: one :func:`reference_score_edge` per edge."""
    enrichment = ClusterEnrichment()
    for u, v in cluster_graph.iter_edges():
        enrichment.edges.append(reference_score_edge(dag, annotations, u, v))
    return enrichment


def score_edge(
    dag: GODag,
    annotations: AnnotationTable,
    u: Vertex,
    v: Vertex,
) -> EdgeAnnotation:
    """Score a single edge; see the module docstring for the scoring rule.

    Routed through the batched engine (a one-edge batch over the cached term
    and annotation indexes); pinned bit-identical to
    :func:`reference_score_edge` by the test suite.
    """
    return EnrichmentScorer(dag, annotations).edge(u, v)


def score_cluster(
    dag: GODag,
    annotations: AnnotationTable,
    cluster_graph: Graph,
) -> ClusterEnrichment:
    """Score every edge of a cluster subgraph and return the aggregate."""
    return EnrichmentScorer(dag, annotations).cluster(cluster_graph)


def _score_pair_chunk(
    a_ids: np.ndarray,
    b_ids: np.ndarray,
    depths: np.ndarray,
    anc_indptr: np.ndarray,
    anc_indices: np.ndarray,
    term_indptr: np.ndarray,
    term_indices: np.ndarray,
) -> np.ndarray:
    """Worker body of the ``backend=`` fan-out: score one distinct-pair chunk.

    Operates on raw arrays only — the process backends ship the term-space
    arrays as :class:`~repro.parallel.shm.ArenaRef` handles, resolved to
    zero-copy shared-memory views before this runs.  Returns a ``(2, n)``
    stack of ``(dcp, breadth)``.
    """
    dcp = dcp_batch_arrays(a_ids, b_ids, depths, anc_indptr, anc_indices)
    breadth = distance_batch_arrays(a_ids, b_ids, term_indptr, term_indices)
    return np.stack([dcp, breadth])


class _PairTable:
    """Packed-key → ``(dcp, breadth)`` memo over interned term pairs.

    Keys are ``min(ta, tb) * n_terms + max(ta, tb)`` — the scoring rule is
    symmetric in the pair, so the canonical orientation halves the table.
    Storage is three parallel sorted arrays; lookups are one ``searchsorted``
    gather and inserting a batch is one merge, so the table never touches
    Python dicts in the hot path.
    """

    __slots__ = ("keys", "dcp", "breadth")

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.int64)
        self.dcp = np.empty(0, dtype=np.int64)
        self.breadth = np.empty(0, dtype=np.int64)

    def ensure(
        self,
        uniq_keys: np.ndarray,
        n_terms: int,
        compute: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    ) -> int:
        """Score whatever of ``uniq_keys`` (sorted, distinct) is not yet known.

        Returns the number of freshly computed pairs (benchmarks report it).
        """
        if self.keys.size:
            pos = np.minimum(np.searchsorted(self.keys, uniq_keys), self.keys.size - 1)
            new_keys = uniq_keys[self.keys[pos] != uniq_keys]
        else:
            new_keys = uniq_keys
        if new_keys.size == 0:
            return 0
        dcp, breadth = compute(new_keys // n_terms, new_keys % n_terms)
        keys = np.concatenate([self.keys, new_keys])
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.dcp = np.concatenate([self.dcp, dcp])[order]
        self.breadth = np.concatenate([self.breadth, breadth])[order]
        return int(new_keys.size)

    def gather(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(dcp, breadth)`` for keys that are all present."""
        pos = np.searchsorted(self.keys, keys)
        return self.dcp[pos], self.breadth[pos]

    def __len__(self) -> int:
        return int(self.keys.size)


class EnrichmentScorer:
    """A caching front-end for edge / cluster enrichment scoring.

    The overlap analysis scores the same gene pairs repeatedly (original
    network, four orderings, several processor counts), so results are
    memoised at two levels: per-edge :class:`EdgeAnnotation` objects for the
    object APIs, and the distinct-term-pair :class:`_PairTable` the batched
    engine resolves edges against.  The scorer is deliberately tied to one
    (DAG, annotation) pair.

    Parameters
    ----------
    engine:
        ``"batched"`` (default) resolves edges over the interned term space;
        ``"reference"`` forces the retained seed per-edge double loop —
        benchmarks use it to measure the seed baseline.
    backend:
        Execution backend for scoring *distinct-pair* batches, one of
        :func:`~repro.parallel.runner.available_backends`.  ``"serial"``
        (default) computes in-process and shares the term index's BFS-row
        cache; ``"thread"`` / ``"process"`` / ``"process-shm"`` fan chunks of
        ``pair_chunk`` pairs over :func:`~repro.parallel.runner.parallel_map`
        — the process backends ship the term CSR + depth/annotation arrays
        once through a :class:`~repro.parallel.shm.SharedArena` and only tiny
        chunk id arrays per call.
    processes:
        Optional worker bound for the parallel backends.
    pair_chunk:
        Target distinct pairs per fan-out chunk (also the minimum batch size
        worth leaving the serial path for).
    """

    def __init__(
        self,
        dag: GODag,
        annotations: AnnotationTable,
        engine: str = "batched",
        backend: str = "serial",
        processes: Optional[int] = None,
        pair_chunk: int = 4096,
    ) -> None:
        if engine not in ("batched", "reference"):
            raise ValueError(f"engine must be 'batched' or 'reference', got {engine!r}")
        from ..parallel.runner import available_backends

        if backend not in available_backends():
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {available_backends()}"
            )
        self.dag = dag
        self.annotations = annotations
        self.engine = engine
        self.backend = backend
        self.processes = processes
        self.pair_chunk = int(pair_chunk)
        self._cache: dict[Edge, EdgeAnnotation] = {}
        self._pairs = _PairTable()
        self._pairs_index: Optional[TermIndex] = None
        self._arena = None  # lazy SharedArena for the process backends
        self._static_refs: Optional[tuple] = None

    # ------------------------------------------------------------------
    # object APIs (per-edge cache)
    # ------------------------------------------------------------------
    def edge(self, u: Vertex, v: Vertex) -> EdgeAnnotation:
        """Return the (cached) enrichment annotation of one edge."""
        return self.edge_annotations([(u, v)])[0]

    def cluster(self, cluster_graph: Graph) -> ClusterEnrichment:
        """Return the enrichment of a cluster subgraph (edges scored via the cache)."""
        return ClusterEnrichment(edges=self.edge_annotations(list(cluster_graph.iter_edges())))

    def edge_subset(self, edges: Iterable[Edge]) -> ClusterEnrichment:
        """Score an explicit edge list (used for ad-hoc cluster comparisons)."""
        return ClusterEnrichment(edges=self.edge_annotations(list(edges)))

    def edge_annotations(self, edges: Sequence[Edge]) -> list[EdgeAnnotation]:
        """Annotate an edge list in one batch, first consulting the edge cache.

        Like the scalar scorer, each *new* edge is scored in the orientation
        it arrives in (the candidate tie-break is orientation-sensitive) and
        cached under its normalised :func:`edge_key`; repeats — in either
        orientation — are cache hits.
        """
        cache = self._cache
        keys = [edge_key(u, v) for u, v in edges]
        fresh: list[tuple[Edge, Edge]] = []  # (key, oriented edge), first occurrence
        seen: set[Edge] = set()
        for key, (u, v) in zip(keys, edges):
            if key not in cache and key not in seen:
                seen.add(key)
                fresh.append((key, (u, v)))
        if fresh:
            if self.engine == "reference":
                for key, (u, v) in fresh:
                    cache[key] = reference_score_edge(self.dag, self.annotations, u, v)
            else:
                term_index, ann_index = self._indexes()
                ru = ann_index.rows_for(u for _, (u, _v) in fresh)
                rv = ann_index.rows_for(v for _, (_u, v) in fresh)
                dcp, depth, breadth, score = self._edge_score_arrays(ru, rv, term_index, ann_index)
                terms = term_index.terms
                for i, (key, _uv) in enumerate(fresh):
                    d = int(dcp[i])
                    cache[key] = EdgeAnnotation(
                        edge=key,
                        dcp=terms[d] if d >= 0 else None,
                        depth=int(depth[i]),
                        breadth=int(breadth[i]),
                        score=float(score[i]),
                    )
        return [cache[key] for key in keys]

    # ------------------------------------------------------------------
    # array front-end (whole-bundle scoring, no per-edge objects)
    # ------------------------------------------------------------------
    def score_cluster_graphs(self, graphs: Sequence[Graph]) -> ClusterScores:
        """Score a set of cluster subgraphs in one concatenated pass.

        All edges of all clusters are resolved against the pair table
        together, and the per-cluster aggregates (AEES, max score, max depth,
        dominant term) come out of segment reductions — no per-edge Python
        objects.  Bit-identical to ``[self.cluster(g) for g in graphs]``
        aggregates (edge scores are integer-valued, so the float sums are
        exact in any order).
        """
        if self.engine == "reference":
            per = [self.cluster(g) for g in graphs]
            return ClusterScores(
                aees=np.array([c.aees for c in per], dtype=float),
                max_score=np.array([c.max_score for c in per], dtype=float),
                max_depth=np.array([c.max_depth for c in per], dtype=np.int64),
                n_edges=np.array([len(c.edges) for c in per], dtype=np.int64),
                dominant=[c.dominant_term() for c in per],
            )
        term_index, ann_index = self._indexes()
        n_clusters = len(graphs)
        flat_u: list[Vertex] = []
        flat_v: list[Vertex] = []
        counts = np.zeros(n_clusters, dtype=np.int64)
        for c, g in enumerate(graphs):
            before = len(flat_u)
            for u, v in g.iter_edges():
                flat_u.append(u)
                flat_v.append(v)
            counts[c] = len(flat_u) - before
        ru = ann_index.rows_for(flat_u)
        rv = ann_index.rows_for(flat_v)
        dcp, depth, breadth, score = self._edge_score_arrays(ru, rv, term_index, ann_index)
        cluster_of = np.repeat(np.arange(n_clusters, dtype=np.int64), counts)
        nonempty = counts > 0
        aees = np.zeros(n_clusters, dtype=float)
        np.divide(
            np.bincount(cluster_of, weights=score, minlength=n_clusters),
            counts,
            out=aees,
            where=nonempty,
        )
        max_score = np.full(n_clusters, -np.inf)
        np.maximum.at(max_score, cluster_of, score)
        max_score[~nonempty] = 0.0
        max_depth = np.zeros(n_clusters, dtype=np.int64)
        np.maximum.at(max_depth, cluster_of, depth)
        # Dominant term: the most frequent winning DCP per cluster, count
        # ties falling to the lexically larger term — a packed (count, id)
        # scatter-max over the distinct (cluster, dcp) occurrence counts.
        k1 = np.int64(term_index.n_terms) + 1
        annotated = dcp >= 0
        dom = np.full(n_clusters, -1, dtype=np.int64)
        if annotated.any():
            occ, occ_counts = np.unique(
                cluster_of[annotated] * k1 + dcp[annotated], return_counts=True
            )
            np.maximum.at(dom, occ // k1, occ_counts * k1 + occ % k1)
        terms = term_index.terms
        dominant = [terms[int(d % k1)] if d >= 0 else None for d in dom]
        return ClusterScores(
            aees=aees,
            max_score=max_score,
            max_depth=max_depth,
            n_edges=counts,
            dominant=dominant,
        )

    def cluster_aees(self, graphs: Sequence[Graph]) -> list[float]:
        """AEES of each cluster subgraph — the quadrant evaluation's input.

        One concatenated batch on the batched engine; the per-cluster object
        path on the reference engine.
        """
        if self.engine == "reference":
            return [self.cluster(g).aees for g in graphs]
        return self.score_cluster_graphs(graphs).aees.tolist()

    # ------------------------------------------------------------------
    # batched internals
    # ------------------------------------------------------------------
    def _indexes(self) -> tuple[TermIndex, AnnotationIndex]:
        """Current (term, annotation) index snapshots; resets the pair table
        when the DAG has structurally changed underneath the memo."""
        term_index = self.dag.term_index()
        if self._pairs_index is not term_index:
            self._pairs = _PairTable()
            self._pairs_index = term_index
            self._static_refs = None
        return term_index, self.annotations.indexed()

    def _edge_score_arrays(
        self,
        ru: np.ndarray,
        rv: np.ndarray,
        term_index: TermIndex,
        ann_index: AnnotationIndex,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Winning ``(dcp, depth, breadth, score)`` per edge of gene rows
        ``(ru, rv)`` (``-1`` marks an unannotated endpoint).

        Reproduces the scalar candidate scan exactly: candidates enumerate
        ``sorted(terms_u) × sorted(terms_v)`` in row-major order (the
        annotation rows are pre-sorted), and the winner is the *first*
        candidate attaining the maximal score — selected per edge with one
        ``maximum.reduceat`` over a packed ``(score, −candidate)`` key.
        """
        n_edges = ru.shape[0]
        dcp = np.full(n_edges, -1, dtype=np.int64)
        depth = np.zeros(n_edges, dtype=np.int64)
        breadth = np.zeros(n_edges, dtype=np.int64)
        out_score = np.zeros(n_edges, dtype=float)
        if n_edges == 0:
            return dcp, depth, breadth, out_score
        indptr = ann_index.indptr
        ru_safe = np.maximum(ru, 0)
        rv_safe = np.maximum(rv, 0)
        cu = (indptr[ru_safe + 1] - indptr[ru_safe]) * (ru >= 0)
        cv = (indptr[rv_safe + 1] - indptr[rv_safe]) * (rv >= 0)
        n_cands = cu * cv
        vi = np.nonzero(n_cands > 0)[0]
        if vi.size == 0:
            return dcp, depth, breadth, out_score
        seg = np.zeros(vi.size + 1, dtype=np.int64)
        np.cumsum(n_cands[vi], out=seg[1:])
        total = int(seg[-1])
        edge_of = np.repeat(np.arange(vi.size, dtype=np.int64), n_cands[vi])
        local = np.arange(total, dtype=np.int64) - seg[:-1][edge_of]
        inner = cv[vi][edge_of]
        ta = ann_index.term_ids[indptr[ru_safe[vi]][edge_of] + local // inner]
        tb = ann_index.term_ids[indptr[rv_safe[vi]][edge_of] + local % inner]
        k = np.int64(term_index.n_terms)
        keys = np.minimum(ta, tb) * k + np.maximum(ta, tb)
        self._pairs.ensure(
            np.unique(keys), int(k), lambda a, b: self._compute_pairs(a, b, term_index)
        )
        p_dcp, p_breadth = self._pairs.gather(keys)
        p_depth = term_index.depths[p_dcp]
        p_score = p_depth - p_breadth
        # First-max-wins per edge: pack (score, −candidate index) into one
        # int64 key; the global candidate index is strictly increasing inside
        # a segment, so the packed max is the earliest maximal candidate.
        m = np.int64(total + 1)
        best = np.maximum.reduceat(p_score * m - np.arange(total, dtype=np.int64), seg[:-1])
        best_score = -((-best) // m)  # ceil-div recovers the score half
        win = best_score * m - best
        dcp[vi] = p_dcp[win]
        depth[vi] = p_depth[win]
        breadth[vi] = p_breadth[win]
        out_score[vi] = best_score.astype(float)
        return dcp, depth, breadth, out_score

    def _compute_pairs(
        self, a_ids: np.ndarray, b_ids: np.ndarray, term_index: TermIndex
    ) -> tuple[np.ndarray, np.ndarray]:
        """Score a batch of distinct pairs, honouring the execution backend."""
        if self.backend == "serial" or a_ids.shape[0] <= self.pair_chunk:
            return term_index.dcp_batch(a_ids, b_ids), term_index.distance_batch(a_ids, b_ids)
        from ..parallel.runner import parallel_map

        static = self._static_arrays(term_index)
        bounds = range(0, a_ids.shape[0], self.pair_chunk)
        items = [(a_ids[lo : lo + self.pair_chunk], b_ids[lo : lo + self.pair_chunk]) + static for lo in bounds]
        chunks = parallel_map(
            _score_pair_chunk, items, backend=self.backend, processes=self.processes
        )
        stacked = np.concatenate(chunks, axis=1)
        return stacked[0], stacked[1]

    def _static_arrays(self, term_index: TermIndex) -> tuple:
        """The five term-space arrays every pair chunk needs, backend-shaped.

        Thread workers share the parent's memory and take the arrays as-is;
        the process backends get :class:`~repro.parallel.shm.ArenaRef`
        handles exported **once** into a scorer-owned
        :class:`~repro.parallel.shm.SharedArena` (identity-deduplicated, so
        every later batch reuses the same segments), which workers resolve to
        zero-copy views.
        """
        arrays = (
            term_index.depths,
            term_index.anc_indptr,
            term_index.anc_indices,
            term_index.term_csr.indptr,
            term_index.term_csr.indices,
        )
        if self.backend not in ("process", "process-shm"):
            return arrays
        if self._static_refs is None:
            from ..parallel.shm import SharedArena, export_payload

            if self._arena is None:
                self._arena = SharedArena()
            self._static_refs = export_payload(arrays, self._arena)
        return self._static_refs

    # ------------------------------------------------------------------
    # incremental adoption (see repro.incremental)
    # ------------------------------------------------------------------
    def adopt_term_index(self, delta) -> None:
        """Migrate the warm memos across a leaf-append :class:`TermDelta`.

        Leaf appends never change the depths or ancestor sets of existing
        terms, so memoised DCPs stay correct; distances between existing
        terms are unchanged exactly when ``delta.distances_safe``.  When the
        pair table is pinned to ``delta.old_index`` and the batch is safe,
        its packed keys are remapped through the strictly-increasing
        ``old_to_new`` gather (unpack with the old ``n_terms``, gather,
        repack with the new — monotone per component, so the key array stays
        sorted) instead of being dropped; unsafe batches reset the table
        *and* the per-edge cache, whose breadth components may be stale.
        """
        if (
            self._pairs_index is delta.old_index
            and delta.distances_safe
            and self._pairs.keys.size
        ):
            k_old = np.int64(delta.old_index.n_terms)
            k_new = np.int64(delta.new_index.n_terms)
            a = delta.old_to_new[self._pairs.keys // k_old]
            b = delta.old_to_new[self._pairs.keys % k_old]
            self._pairs.keys = a * k_new + b
            self._pairs.dcp = delta.old_to_new[self._pairs.dcp]
        else:
            self._pairs = _PairTable()
            if not delta.distances_safe:
                self._cache.clear()
        self._pairs_index = delta.new_index
        self._static_refs = None

    def invalidate_genes(self, genes: Iterable[Hashable]) -> None:
        """Drop per-edge memos touching ``genes`` (their annotation sets changed).

        The pair table survives — it memoises *term* pairs, which are
        annotation-independent; only the per-edge winners over the changed
        genes' candidate sets can move.
        """
        changed = {str(g) for g in genes}
        if not changed:
            return
        stale = [
            key
            for key in self._cache
            if str(key[0]) in changed or str(key[1]) in changed
        ]
        for key in stale:
            del self._cache[key]

    def close(self) -> None:
        """Release the scorer's shared-memory segments (idempotent).

        Only meaningful after process-backend use; the arena is also covered
        by the interpreter-exit safety net, so forgetting this leaks nothing
        past the process.
        """
        if self._arena is not None:
            self._arena.unlink()
            self._arena = None
            self._static_refs = None

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def pair_table_size(self) -> int:
        """Distinct term pairs memoised by the batched engine."""
        return len(self._pairs)

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

* the **batched engine** (:class:`EnrichmentScorer`): edges are resolved
  over the interned term space of :class:`~repro.ontology.go_dag.TermIndex` /
  :class:`~repro.ontology.annotation.AnnotationIndex`.  The distinct packed
  ``(ta, tb)`` term pairs across all edges are scored once — DCP by
  vectorised sorted-ancestor-array intersection, breadth from per-source
  frontier-BFS distance rows — and memoised in a packed-key → ``(dcp,
  breadth)`` array table (:class:`_PairTable`); every edge then resolves by a
  gather plus a segment max, and whole cluster *sets* reduce to AEES /
  max-score / max-depth / dominant-term arrays with segment reductions
  (:meth:`EnrichmentScorer.score_cluster_graphs`, which reads the edge pairs
  of index-native clusters and takes nothing else).
  Scoring is serial and in-process: at every scale
  ``benchmarks/bench_enrichment.py`` records, one process scores the
  distinct pairs faster than a worker fan-out ships them.
* the **reference implementation**: the seed per-edge double loop over term
  pairs (:func:`reference_score_edge` / :func:`reference_score_cluster`),
  retained as the behavioural pin and called by name on a label graph — the
  test suite asserts the batched engine reproduces it bit-identically (same
  DCP tie-breaks, same scores), and ``benchmarks/bench_enrichment.py``
  measures the gap.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..graph.csr import sorted_unique
from ..graph.graph import Graph, edge_key
from .annotation import AnnotationIndex, AnnotationTable
from .go_dag import GODag, TermIndex

if TYPE_CHECKING:
    from ..clustering.cluster import Cluster

__all__ = [
    "EdgeAnnotation",
    "ClusterEnrichment",
    "ClusterScores",
    "EnrichmentScorer",
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


def reference_score_edge(
    dag: GODag,
    annotations: AnnotationTable,
    u: Vertex,
    v: Vertex,
) -> EdgeAnnotation:
    """Seed edge scoring: the per-edge double loop over the endpoints' terms.

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
    """Seed cluster scoring: one :func:`reference_score_edge` per edge."""
    enrichment = ClusterEnrichment()
    for u, v in cluster_graph.iter_edges():
        enrichment.edges.append(reference_score_edge(dag, annotations, u, v))
    return enrichment


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


class EnrichmentScorer:
    """A caching front-end for cluster enrichment scoring.

    The overlap analysis scores the same gene pairs repeatedly (original
    network, four orderings, several processor counts), so the batched
    engine memoises the distinct term pairs it resolves edges against
    (:class:`_PairTable`).  The scorer is deliberately tied to one (DAG,
    annotation) pair and scores in-process; its term distances come from
    the DAG's one distance cache, the :class:`TermIndex` BFS rows.  The seed
    per-edge loop is not an option here: call :func:`reference_score_cluster`.
    """

    def __init__(self, dag: GODag, annotations: AnnotationTable) -> None:
        self.dag = dag
        self.annotations = annotations
        self._pairs = _PairTable()
        self._pairs_index: Optional[TermIndex] = None
        self._rows: Optional[tuple[Sequence[Vertex], AnnotationIndex, np.ndarray]] = None

    # ------------------------------------------------------------------
    # array front-end (whole-bundle scoring, no per-edge objects)
    # ------------------------------------------------------------------
    def score_cluster_graphs(self, clusters: Sequence["Cluster"]) -> ClusterScores:
        """Score a set of index-native clusters in one concatenated pass.

        Each entry is a :class:`~repro.clustering.cluster.Cluster` with an
        index view (``pairs`` over ``csr``), as MCODE makes them; a graph or
        a hand-built cluster raises ``TypeError`` (score its subgraph with
        :func:`reference_score_cluster`).  The edges of all clusters are
        resolved against the pair table together, and the per-cluster
        aggregates (AEES, max score, max depth, dominant term) come out of
        segment reductions — no per-edge Python objects.  Bit-identical to
        :func:`reference_score_cluster` aggregates over each cluster's
        subgraph: every edge is scored in its ``edge_key`` orientation, as a
        graph walk reports it, and edge scores are integer-valued, so the
        float sums are exact in any order.
        """
        term_index, ann_index = self._indexes()
        n_clusters = len(clusters)
        ru, rv, cluster_of = self._edge_rows(clusters, ann_index)
        dcp, depth, breadth, score = self._edge_score_arrays(ru, rv, term_index, ann_index)
        counts = np.bincount(cluster_of, minlength=n_clusters)
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

    def cluster_aees(self, clusters: Sequence["Cluster"]) -> list[float]:
        """AEES of each index-native cluster — the quadrant evaluation's input.

        One concatenated batch (see :meth:`score_cluster_graphs`).
        """
        return self.score_cluster_graphs(clusters).aees.tolist()

    # ------------------------------------------------------------------
    # batched internals
    # ------------------------------------------------------------------
    def _edge_rows(
        self, clusters: Sequence["Cluster"], ann_index: AnnotationIndex
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Gene rows ``(ru, rv)`` of every cluster edge and the cluster it belongs to.

        Each edge is oriented as ``edge_key`` orders its labels.  Clusters
        over one label space (one network and its filtered views share its
        label tuple) concatenate their pairs and map them through one row
        array.
        """
        spaces: dict[int, tuple[Sequence[Vertex], list[int], list[np.ndarray]]] = {}
        ru = [np.empty(0, dtype=np.int64)]
        rv = [np.empty(0, dtype=np.int64)]
        cluster_of = [np.empty(0, dtype=np.int64)]
        for position, item in enumerate(clusters):
            if getattr(item, "pairs", None) is None:
                raise TypeError(
                    f"score_cluster_graphs takes index-native clusters, got a "
                    f"{type(item).__name__} without an index view; score a label "
                    "graph with reference_score_cluster"
                )
            space = spaces.setdefault(id(item.csr.labels), (item.csr.labels, [], []))
            space[1].append(position)
            space[2].append(item.pairs)
        for labels, positions, pair_list in spaces.values():
            pairs = np.concatenate(pair_list)
            rows = self._label_rows(labels, ann_index)
            first, second = pairs[:, 0], pairs[:, 1]
            flip = np.fromiter(
                (
                    edge_key(labels[a], labels[b])[0] is not labels[a]
                    for a, b in zip(first.tolist(), second.tolist())
                ),
                dtype=bool,
                count=first.size,
            )
            ru.append(rows[np.where(flip, second, first)])
            rv.append(rows[np.where(flip, first, second)])
            cluster_of.append(np.repeat(positions, [p.shape[0] for p in pair_list]))
        return np.concatenate(ru), np.concatenate(rv), np.concatenate(cluster_of)

    def _label_rows(self, labels: Sequence[Vertex], ann_index: AnnotationIndex) -> np.ndarray:
        """``ann_index.rows_for(labels)``, kept for the last (labels, index) pair."""
        cached = self._rows
        if cached is None or cached[0] is not labels or cached[1] is not ann_index:
            cached = (labels, ann_index, ann_index.rows_for(labels))
            self._rows = cached
        return cached[2]

    def _indexes(self) -> tuple[TermIndex, AnnotationIndex]:
        """Current (term, annotation) index snapshots; resets the pair table
        when the DAG has structurally changed underneath the memo."""
        term_index = self.dag.term_index()
        if self._pairs_index is not term_index:
            self._pairs = _PairTable()
            self._pairs_index = term_index
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
            sorted_unique(keys),
            int(k),
            lambda a, b: (term_index.dcp_batch(a, b), term_index.distance_batch(a, b)),
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
        sorted) instead of being dropped; unsafe batches reset the table.
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
        self._pairs_index = delta.new_index

    @property
    def pair_table_size(self) -> int:
        """Distinct term pairs memoised by the batched engine."""
        return int(self._pairs.keys.size)

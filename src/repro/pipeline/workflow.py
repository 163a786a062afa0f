"""End-to-end experiment pipeline.

The paper's experimental design (Section IV.A) is a fixed sequence:

    microarray data → correlation network → sampling filter(s) → MCODE
    clusters → edge-enrichment scores → overlap / quadrant analysis.

This module packages that sequence so examples and benchmarks can express an
experiment in a few lines:

* :func:`prepare_dataset` builds a :class:`DatasetBundle` — the synthetic
  study, its thresholded correlation network, the GO DAG + annotations, an
  enrichment scorer and the clusters of the *original* (unfiltered) network.
* :func:`analyze_filter` applies one sampling filter and produces a
  :class:`FilterAnalysis` — the filtered network's clusters, their AEES
  scores, their overlap matches against the original clusters, the lost/found
  sets and the TP/FP/FN/TN quadrant counts for both overlap criteria.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from ..clustering.cluster import Cluster
from ..clustering.evaluation import (
    EvaluationThresholds,
    QuadrantCounts,
    ScoredMatch,
    classify_matches,
    quadrant_counts,
)
from ..clustering.mcode import mcode_clusters
from ..clustering.overlap import ClusterMatch, found_clusters, match_and_lost_clusters
from ..core.results import FilterResult
from ..core.sampling import apply_filter
from ..expression.datasets import SyntheticStudy, make_study
from ..graph.csr import CSRGraph
from ..graph.graph import Graph
from ..ontology.annotation import AnnotationTable
from ..ontology.enrichment import EnrichmentScorer
from ..ontology.generator import make_study_ontology
from ..ontology.go_dag import GODag

__all__ = [
    "DatasetBundle",
    "FilterAnalysis",
    "prepare_dataset",
    "prepare_primary",
    "derive_dataset",
    "analyze_filter",
    "payload_digest",
    "filter_payload",
    "analysis_payload",
    "enrichment_payload",
]


@dataclass
class DatasetBundle:
    """Everything derived from one dataset that filters are evaluated against.

    The network lives in index form: ``network_csr`` is built straight from
    the correlation pairs, the filters run on it, and the original clusters
    index it.  The label :attr:`network` (with its ``rho`` edge attributes)
    is built only when read.
    """

    name: str
    study: SyntheticStudy
    network_csr: CSRGraph
    scorer: EnrichmentScorer
    original_clusters: list[Cluster]
    thresholds: EvaluationThresholds = field(default_factory=EvaluationThresholds)
    scale: float = 1.0
    #: Number of incremental updates absorbed since the cold build (see
    #: :mod:`repro.incremental`); 0 for a fresh :func:`prepare_dataset`.
    generation: int = 0
    #: Component dirty-set of the *last* absorbed update — which of
    #: ``{"expression", "network", "ontology", "annotations"}`` it touched.
    #: Untouched components were reused structurally (same objects), which is
    #: what lets the serve layer scope its cache invalidation.
    dirty: frozenset = frozenset()

    @property
    def network(self) -> Graph:
        """The label network, built on first read (``network_csr.label_graph()``)."""
        return self.network_csr.label_graph()

    @property
    def n_vertices(self) -> int:
        return self.network_csr.n_vertices

    @property
    def n_edges(self) -> int:
        return self.network_csr.n_edges

@dataclass
class FilterAnalysis:
    """The full downstream analysis of one filter run on one dataset."""

    bundle: DatasetBundle
    result: FilterResult
    clusters: list[Cluster]
    matches: list[ClusterMatch]
    scored_by_node: list[ScoredMatch]
    scored_by_edge: list[ScoredMatch]
    found: list[Cluster]
    lost: list[Cluster]
    node_counts: QuadrantCounts
    edge_counts: QuadrantCounts
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        ordering = self.result.ordering or "-"
        return f"{self.bundle.name}/{self.result.method}/{ordering}/{self.result.n_partitions}P"

    def cluster_aees(self) -> list[float]:
        """AEES of every filtered cluster, in cluster order.

        The scores the classification computed: ``matches[j]`` is filtered
        cluster ``j``, so no cluster is scored twice.
        """
        return [s.aees for s in self.scored_by_node]

    def high_scoring_clusters(self) -> list[Cluster]:
        """Clusters whose AEES clears the bundle's (3.0) relevance threshold."""
        bar = self.bundle.thresholds.aees_threshold
        return [
            c
            for c, aees in zip(self.clusters, self.cluster_aees())
            if aees >= bar
        ]

    def summary(self) -> dict[str, Any]:
        rows = self.result.summary()
        rows.update(
            {
                "dataset": self.bundle.name,
                "clusters": len(self.clusters),
                "clusters_found": len(self.found),
                "clusters_lost": len(self.lost),
                "node_sensitivity": round(self.node_counts.sensitivity, 3),
                "node_specificity": round(self.node_counts.specificity, 3),
                "edge_sensitivity": round(self.edge_counts.sensitivity, 3),
                "edge_specificity": round(self.edge_counts.specificity, 3),
            }
        )
        return rows


def prepare_primary(
    name: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> tuple[SyntheticStudy, GODag, AnnotationTable]:
    """Generate a dataset's primary state: the study, its GO DAG and annotations.

    Everything else in a :class:`DatasetBundle` is derived from these three
    by :func:`derive_dataset`; updates (see :mod:`repro.incremental`) mutate
    only them.
    """
    study = make_study(name, scale=scale, seed=seed)
    dag, annotations = make_study_ontology(study)
    return study, dag, annotations


def derive_dataset(
    study: SyntheticStudy,
    dag: GODag,
    annotations: AnnotationTable,
    scale: float = 1.0,
) -> DatasetBundle:
    """Build the derived layers of a bundle from its primary state.

    One correlation pass, the CSR network view, the enrichment scorer and
    the clusters of the original network (MCODE at the paper's defaults).
    The label network is left to the first read of
    :attr:`DatasetBundle.network`.
    """
    network_csr = study.network_csr()
    scorer = EnrichmentScorer(dag, annotations)
    original_clusters = mcode_clusters(network_csr, source=f"{study.name}/original")
    return DatasetBundle(
        name=study.name,
        study=study,
        network_csr=network_csr,
        scorer=scorer,
        original_clusters=original_clusters,
        scale=scale,
    )


def prepare_dataset(
    name: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
) -> DatasetBundle:
    """Generate a dataset and everything needed to evaluate filters on it.

    Parameters mirror the experimental design: the dataset name selects one of
    the four canned studies (``YNG``, ``MID``, ``UNT``, ``CRE``); ``scale``
    shrinks the study for fast runs.  The correlation cut-off, ontology
    shape, MCODE parameters and evaluation thresholds are the paper's
    defaults.
    """
    study, dag, annotations = prepare_primary(name, scale, seed)
    return derive_dataset(study, dag, annotations, scale)


def analyze_filter(
    bundle: DatasetBundle,
    method: str = "chordal",
    ordering: Optional[str] = "natural",
    n_partitions: int = 1,
    **filter_kwargs: Any,
) -> FilterAnalysis:
    """Apply one sampling filter to the bundle's network and analyse the outcome.

    The analysis reproduces the paper's measurements for that run: the
    filtered network's MCODE clusters, their best overlap match against the
    original clusters (by node overlap), both overlap values, lost/found
    clusters and quadrant counts for node- and edge-overlap matching.

    The chain stays on indices from the filter to the payload: the filter
    reads ``bundle.network_csr``, MCODE clusters the result's
    ``filtered_csr()``, and scoring and overlap read the clusters' index
    pairs.  No label graph is built.
    """
    result = apply_filter(
        bundle.network_csr,
        method=method,
        ordering=ordering,
        n_partitions=n_partitions,
        **filter_kwargs,
    )
    label = f"{bundle.name}/{method}/{ordering or '-'}/{n_partitions}P"
    clusters = mcode_clusters(result.filtered_csr(), source=label)
    matches, lost = match_and_lost_clusters(bundle.original_clusters, clusters)
    scored_node = classify_matches(matches, bundle.scorer, bundle.thresholds, "node_overlap")
    # The edge-overlap pass classifies the same filtered clusters, so it
    # reuses the node pass's enrichment scores instead of re-walking edges.
    scored_edge = classify_matches(
        matches,
        bundle.scorer,
        bundle.thresholds,
        "edge_overlap",
        aees=[s.aees for s in scored_node],
    )
    return FilterAnalysis(
        bundle=bundle,
        result=result,
        clusters=clusters,
        matches=matches,
        scored_by_node=scored_node,
        scored_by_edge=scored_edge,
        found=found_clusters(matches),
        lost=lost,
        node_counts=quadrant_counts(scored_node),
        edge_counts=quadrant_counts(scored_edge),
    )


# ----------------------------------------------------------------------
# canonical result payloads
# ----------------------------------------------------------------------
# The resident service (``repro serve``) promises responses byte-identical to
# a cold CLI run of the same request.  That promise is only testable if both
# sides serialise through ONE canonical form, so the payload builders live
# here, next to the pipeline that produces the objects: ``repro filter
# --json`` / ``repro analyze --json`` print these dicts, the serve handlers
# return them over the socket, and the equivalence tests compare the bytes of
# ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` on both
# sides.  Scores travel as ``float.hex()`` strings — exact, no decimal
# round-trip ambiguity.


def payload_digest(obj: Any) -> str:
    """Stable 16-hex-digit digest of a JSON-canonicalisable payload fragment."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _canonical_edges(graph: Graph) -> list[list[str]]:
    """The graph's edge set as a sorted list of sorted string pairs (the oracle)."""
    return sorted(sorted((str(u), str(v))) for u, v in graph.iter_edges())


def _canonical_names(csr: CSRGraph) -> tuple[np.ndarray, tuple[str, ...]]:
    """Dense ranks of the labels' strings (equal strings share a rank) and
    the distinct strings in order; kept in the view's memo."""

    def build() -> tuple[np.ndarray, tuple[str, ...]]:
        names = [str(v) for v in csr.labels]
        distinct = sorted(set(names))
        rank_of = {name: r for r, name in enumerate(distinct)}
        rank = np.fromiter((rank_of[name] for name in names), dtype=np.int64, count=len(names))
        return rank, tuple(distinct)

    return csr.memo(("canonical_names",), build)


def _canonical_pairs(csr: CSRGraph, pairs: np.ndarray) -> list[list[str]]:
    """:func:`_canonical_edges` of the edges ``pairs`` over ``csr``'s labels, from the arrays.

    Each label is ranked by its string (equal strings share a rank), so
    sorting the rank pairs sorts the string pairs exactly as the oracle does.
    """
    rank, distinct = _canonical_names(csr)
    a, b = rank[pairs[:, 0]], rank[pairs[:, 1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    order = np.lexsort((hi, lo))
    return [[distinct[x], distinct[y]] for x, y in zip(lo[order].tolist(), hi[order].tolist())]


def filter_payload(result: FilterResult, include_edges: bool = False) -> dict[str, Any]:
    """Canonical payload of one sampling-filter run (the ``filter`` request).

    The edge set is pinned by ``edges_sha256``; ``include_edges`` additionally
    inlines the sorted edge list for callers that want the network itself.
    Everything is read off the result's index arrays; the label graph is not
    built.
    """
    edges = _canonical_pairs(result.csr, result.kept)
    payload: dict[str, Any] = {
        "method": result.method,
        "ordering": result.ordering,
        "n_partitions": result.n_partitions,
        "partition_method": result.partition_method,
        "n_vertices": result.csr.n_vertices,
        "edges_original": result.csr.n_edges,
        "edges_kept": result.n_edges_kept,
        "edge_reduction_hex": float(result.edge_reduction).hex(),
        "border_edges": result.n_border_edges,
        "accepted_border_edges": result.n_accepted_border_edges,
        "duplicate_border_edges": result.duplicate_border_edges,
        "edges_sha256": payload_digest(edges),
    }
    if include_edges:
        payload["edges"] = edges
    return payload


def _cluster_rows(clusters: Sequence[Cluster]) -> list[dict[str, Any]]:
    return [
        {
            "cluster": c.cluster_id,
            "size": c.n_vertices,
            "edges": c.n_edges,
            "score_hex": float(c.score).hex(),
            "members_sha256": payload_digest(sorted(map(str, c.members))),
        }
        for c in clusters
    ]


def analysis_payload(analysis: FilterAnalysis) -> dict[str, Any]:
    """Canonical payload of one full analysis run (the ``classify`` request).

    Everything the acceptance pins: the filtered edge set (via the embedded
    :func:`filter_payload`), the cluster member/score digests, the exact AEES
    scores and the quadrant counts of both overlap criteria.
    """
    clusters = _cluster_rows(analysis.clusters)
    aees_hex = [float(a).hex() for a in analysis.cluster_aees()]
    matches = [
        {
            "filtered": m.filtered.cluster_id,
            "original": None if m.original is None else m.original.cluster_id,
            "node_overlap_hex": float(m.node_overlap).hex(),
            "edge_overlap_hex": float(m.edge_overlap).hex(),
        }
        for m in analysis.matches
    ]
    return {
        "dataset": analysis.bundle.name,
        "scale": analysis.bundle.scale,
        "label": analysis.label,
        "filter": filter_payload(analysis.result),
        "original_clusters": len(analysis.bundle.original_clusters),
        "clusters": clusters,
        "clusters_sha256": payload_digest(clusters),
        "aees_hex": aees_hex,
        "aees_sha256": payload_digest(aees_hex),
        "matches": matches,
        "clusters_found": len(analysis.found),
        "clusters_lost": len(analysis.lost),
        "node_counts": analysis.node_counts.as_dict(),
        "edge_counts": analysis.edge_counts.as_dict(),
    }


def enrichment_payload(
    clusters: Sequence[Cluster], aees: Sequence[float], source: str
) -> dict[str, Any]:
    """Canonical payload of one cluster-enrichment pass (the ``enrich`` request)."""
    if len(clusters) != len(aees):
        raise ValueError("aees must align one-to-one with clusters")
    rows = [
        {
            "cluster": c.cluster_id,
            "size": c.n_vertices,
            "edges": c.n_edges,
            "aees_hex": float(a).hex(),
        }
        for c, a in zip(clusters, aees)
    ]
    return {
        "source": source,
        "n_clusters": len(rows),
        "clusters": rows,
        "aees_sha256": payload_digest([r["aees_hex"] for r in rows]),
    }

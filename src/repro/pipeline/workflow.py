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

from ..clustering.cluster import Cluster
from ..clustering.evaluation import (
    EvaluationThresholds,
    QuadrantCounts,
    ScoredMatch,
    classify_matches,
    quadrant_counts,
)
from ..clustering.mcode import MCODEParams, mcode_clusters
from ..clustering.overlap import ClusterMatch, found_clusters, match_and_lost_clusters
from ..core.results import FilterResult
from ..core.sampling import apply_filter
from ..expression.correlation import CorrelationThreshold
from ..expression.datasets import SyntheticStudy, make_study
from ..graph.csr import CSRGraph
from ..graph.graph import Graph
from ..ontology.enrichment import EnrichmentScorer
from ..ontology.generator import make_study_ontology

__all__ = [
    "DatasetBundle",
    "FilterAnalysis",
    "prepare_dataset",
    "analyze_filter",
    "cluster_network",
    "payload_digest",
    "filter_payload",
    "analysis_payload",
    "enrichment_payload",
]


@dataclass
class DatasetBundle:
    """Everything derived from one dataset that filters are evaluated against."""

    name: str
    study: SyntheticStudy
    network: Graph
    scorer: EnrichmentScorer
    original_clusters: list[Cluster]
    mcode_params: MCODEParams
    thresholds: EvaluationThresholds
    scale: float = 1.0
    #: CSR view of ``network``, built directly from the expression matrix
    #: (one correlation pass serves both views); ``None`` only for bundles
    #: constructed by hand without it.
    network_csr: Optional[CSRGraph] = None
    #: Number of incremental updates absorbed since the cold build (see
    #: :mod:`repro.incremental`); 0 for a fresh :func:`prepare_dataset`.
    generation: int = 0
    #: Component dirty-set of the *last* absorbed update — which of
    #: ``{"expression", "network", "ontology", "annotations"}`` it touched.
    #: Untouched components were reused structurally (same objects), which is
    #: what lets the serve layer scope its cache invalidation.
    dirty: frozenset = frozenset()

    @property
    def n_vertices(self) -> int:
        return self.network.n_vertices

    @property
    def n_edges(self) -> int:
        return self.network.n_edges

    def summary(self) -> dict[str, Any]:
        return {
            "dataset": self.name,
            "scale": self.scale,
            "n_vertices": self.n_vertices,
            "n_edges": self.n_edges,
            "original_clusters": len(self.original_clusters),
            "generation": self.generation,
        }


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
        """AEES of every filtered cluster, in cluster order (one batched pass)."""
        return self.bundle.scorer.cluster_aees([c.subgraph for c in self.clusters])

    def high_scoring_clusters(self, threshold: Optional[float] = None) -> list[Cluster]:
        """Clusters whose AEES clears the (default 3.0) relevance threshold."""
        bar = self.bundle.thresholds.aees_threshold if threshold is None else threshold
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


def cluster_network(
    graph: Graph,
    params: Optional[MCODEParams] = None,
    source: str = "",
    csr: Optional[CSRGraph] = None,
) -> list[Cluster]:
    """Cluster a network with MCODE under the paper's default parameters.

    ``csr`` optionally reuses a prebuilt CSR view of ``graph`` (the bundle's
    ``network_csr``) so the index-native MCODE skips its one conversion.
    """
    return mcode_clusters(graph, params=params or MCODEParams(), source=source, csr=csr)


def prepare_dataset(
    name: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
    mcode_params: Optional[MCODEParams] = None,
    thresholds: Optional[EvaluationThresholds] = None,
    correlation_threshold: Optional[CorrelationThreshold] = None,
    ontology_depth: int = 8,
    ontology_branching: int = 3,
    enrichment_backend: str = "serial",
) -> DatasetBundle:
    """Generate a dataset and everything needed to evaluate filters on it.

    Parameters mirror the experimental design: the dataset name selects one of
    the four canned studies (``YNG``, ``MID``, ``UNT``, ``CRE``); ``scale``
    shrinks the study for fast runs; the remaining parameters expose the
    pipeline's thresholds (paper defaults when omitted).
    ``enrichment_backend`` selects the execution backend of the bundle's
    enrichment scorer (see :class:`~repro.ontology.EnrichmentScorer`):
    ``"serial"`` scores distinct term pairs in-process, the parallel
    backends fan pair batches over worker threads / processes.
    """
    params = mcode_params or MCODEParams()
    thresholds = thresholds or EvaluationThresholds()
    study = make_study(name, scale=scale, seed=seed)
    # Both network views come from one cached correlation pass: the label
    # graph for the filters (edge attributes, spanning subgraphs) and the CSR
    # view — built straight from the expression tiles — for the index-native
    # analysis kernels.
    network = study.network(threshold=correlation_threshold)
    network_csr = study.network_csr(threshold=correlation_threshold)
    dag, annotations = make_study_ontology(
        study, depth=ontology_depth, branching=ontology_branching
    )
    scorer = EnrichmentScorer(dag, annotations, backend=enrichment_backend)
    original_clusters = cluster_network(
        network, params, source=f"{study.name}/original", csr=network_csr
    )
    return DatasetBundle(
        name=study.name,
        study=study,
        network=network,
        scorer=scorer,
        original_clusters=original_clusters,
        mcode_params=params,
        thresholds=thresholds,
        scale=scale,
        network_csr=network_csr,
    )


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
    """
    result = apply_filter(
        bundle.network,
        method=method,
        ordering=ordering,
        n_partitions=n_partitions,
        **filter_kwargs,
    )
    label = f"{bundle.name}/{method}/{ordering or '-'}/{n_partitions}P"
    clusters = cluster_network(result.graph, bundle.mcode_params, source=label)
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
    """The graph's edge set as a sorted list of sorted string pairs."""
    return sorted(sorted((str(u), str(v))) for u, v in graph.iter_edges())


def filter_payload(result: FilterResult, include_edges: bool = False) -> dict[str, Any]:
    """Canonical payload of one sampling-filter run (the ``filter`` request).

    The edge set is pinned by ``edges_sha256``; ``include_edges`` additionally
    inlines the sorted edge list for callers that want the network itself.
    """
    edges = _canonical_edges(result.graph)
    payload: dict[str, Any] = {
        "method": result.method,
        "ordering": result.ordering,
        "n_partitions": result.n_partitions,
        "partition_method": result.partition_method,
        "n_vertices": result.graph.n_vertices,
        "edges_original": result.original.n_edges,
        "edges_kept": result.n_edges_kept,
        "edge_reduction_hex": float(result.edge_reduction).hex(),
        "border_edges": result.n_border_edges,
        "accepted_border_edges": len(result.accepted_border_edges),
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

"""Per-figure experiment drivers.

Every data figure and in-text quantitative claim of the paper's evaluation has
a driver here that regenerates the corresponding rows / series; the benchmark
files under ``benchmarks/`` are thin wrappers around these functions (README's
figure table maps each figure to its benchmark).

All drivers take a ``scale`` parameter (see
:meth:`repro.expression.StudyConfig.scaled`); the default is read from the
``REPRO_SCALE`` environment variable and falls back to a size that runs the
full pipeline in seconds on a laptop while preserving the qualitative shape of
the published results.  Dataset bundles are memoised per (name, scale) because
several figures share them.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..clustering.evaluation import EvaluationThresholds, quadrant_counts
from ..core.sampling import apply_filter
from ..expression.datasets import default_scale
from ..graph.ordering import ordering_names
from .workflow import DatasetBundle, FilterAnalysis, analyze_filter, prepare_dataset

__all__ = [
    "default_scale",
    "get_bundle",
    "clear_bundle_cache",
    "ORDERING_LABELS",
    "fig04_aees_by_ordering",
    "fig05_overlap_scatter",
    "fig06_node_overlap_vs_aees",
    "fig07_edge_overlap_vs_aees",
    "fig08_sensitivity_specificity",
    "fig09_cluster_refinement",
    "fig10_scalability",
    "fig11_parallel_consistency",
    "random_walk_control",
    "border_edge_study",
]

#: Paper figure labels for the four orderings.
ORDERING_LABELS = {"natural": "NO", "high_degree": "HD", "low_degree": "LD", "rcm": "RCM"}

_BUNDLE_CACHE: dict[tuple[str, float, int], DatasetBundle] = {}
_ANALYSIS_CACHE: dict[tuple, FilterAnalysis] = {}


def get_bundle(name: str, scale: Optional[float] = None, seed: Optional[int] = None) -> DatasetBundle:
    """Return (and memoise) the prepared dataset bundle for ``name`` at ``scale``."""
    scale = default_scale() if scale is None else scale
    key = (name.upper(), round(scale, 6), -1 if seed is None else seed)
    bundle = _BUNDLE_CACHE.get(key)
    if bundle is None:
        bundle = prepare_dataset(name, scale=scale, seed=seed)
        _BUNDLE_CACHE[key] = bundle
    return bundle


def clear_bundle_cache() -> None:
    """Drop all memoised bundles and analyses (used by tests)."""
    _BUNDLE_CACHE.clear()
    _ANALYSIS_CACHE.clear()


def _get_analysis(
    bundle: DatasetBundle,
    method: str,
    ordering: Optional[str],
    n_partitions: int,
    **kwargs: Any,
) -> FilterAnalysis:
    """Memoised :func:`analyze_filter` (figures reuse the same runs heavily)."""
    key = (
        bundle.name,
        round(bundle.scale, 6),
        method,
        ordering,
        n_partitions,
        tuple(sorted(kwargs.items())),
    )
    hit = _ANALYSIS_CACHE.get(key)
    if hit is None or hit.bundle is not bundle:
        hit = analyze_filter(bundle, method=method, ordering=ordering, n_partitions=n_partitions, **kwargs)
        _ANALYSIS_CACHE[key] = hit
    return hit


# ----------------------------------------------------------------------
# Figure 4 — AEES of every cluster across orderings (YNG, MID)
# ----------------------------------------------------------------------
def fig04_aees_by_ordering(
    scale: Optional[float] = None,
    datasets: Sequence[str] = ("YNG", "MID"),
    orderings: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """Reproduce Figure 4: per-cluster AEES in the original network and the four
    chordal-filtered networks, for the (weak-signal) YNG and MID datasets.

    Returns ``{"rows": [...], "per_network_mean": {...}}`` where each row is
    ``{dataset, network, cluster, aees}`` and *network* is ``ORIG`` or an
    ordering label (NO/HD/LD/RCM).
    """
    orderings = list(orderings) if orderings else ordering_names()
    rows: list[dict[str, Any]] = []
    means: dict[str, float] = {}
    for name in datasets:
        bundle = get_bundle(name, scale)
        orig_scores = bundle.scorer.cluster_aees(bundle.original_clusters)
        for cid, aees in enumerate(orig_scores):
            rows.append({"dataset": name, "network": "ORIG", "cluster": f"C{cid}", "aees": aees})
        if orig_scores:
            means[f"{name}/ORIG"] = sum(orig_scores) / len(orig_scores)
        for ordering in orderings:
            analysis = _get_analysis(bundle, "chordal", ordering, 1)
            scores = analysis.cluster_aees()
            label = ORDERING_LABELS.get(ordering, ordering)
            for cid, aees in enumerate(scores):
                rows.append({"dataset": name, "network": label, "cluster": f"C{cid}", "aees": aees})
            if scores:
                means[f"{name}/{label}"] = sum(scores) / len(scores)
    return {"rows": rows, "per_network_mean": means}


# ----------------------------------------------------------------------
# Figure 5 — node/edge overlap scatter for UNT and CRE
# ----------------------------------------------------------------------
def fig05_overlap_scatter(
    scale: Optional[float] = None,
    datasets: Sequence[str] = ("UNT", "CRE"),
    orderings: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """Reproduce Figure 5: overlap of filtered clusters with original clusters.

    Returns two point lists per dataset: ``overlap_points`` (filtered clusters
    that match an original cluster; coordinates are node overlap × edge
    overlap) and ``new_cluster_points`` (filtered clusters with no
    counterpart — the newly discovered structure, plotted near the origin in
    the paper).
    """
    orderings = list(orderings) if orderings else ordering_names()
    out: dict[str, Any] = {"datasets": {}}
    for name in datasets:
        bundle = get_bundle(name, scale)
        overlap_points: list[dict[str, Any]] = []
        new_points: list[dict[str, Any]] = []
        for ordering in orderings:
            analysis = _get_analysis(bundle, "chordal", ordering, 1)
            label = ORDERING_LABELS.get(ordering, ordering)
            for match in analysis.matches:
                point = {
                    "filter": label,
                    "node_overlap": match.node_overlap,
                    "edge_overlap": match.edge_overlap,
                    "cluster_size": match.filtered.n_vertices,
                }
                if match.is_found:
                    new_points.append(point)
                else:
                    overlap_points.append(point)
        full_overlap = sum(
            1 for p in overlap_points if p["node_overlap"] >= 1.0 and p["edge_overlap"] >= 1.0
        )
        out["datasets"][name] = {
            "overlap_points": overlap_points,
            "new_cluster_points": new_points,
            "n_full_overlap": full_overlap,
        }
    return out


# ----------------------------------------------------------------------
# Figures 6 & 7 — overlap vs AEES for all networks
# ----------------------------------------------------------------------
def _overlap_vs_aees(
    overlap_attr: str,
    scale: Optional[float],
    datasets: Sequence[str],
    orderings: Optional[Sequence[str]],
) -> dict[str, Any]:
    orderings = list(orderings) if orderings else ordering_names()
    points: list[dict[str, Any]] = []
    for name in datasets:
        bundle = get_bundle(name, scale)
        for ordering in orderings:
            analysis = _get_analysis(bundle, "chordal", ordering, 1)
            label = ORDERING_LABELS.get(ordering, ordering)
            scored = analysis.scored_by_node if overlap_attr == "node_overlap" else analysis.scored_by_edge
            for s in scored:
                if s.match.is_found:
                    continue  # the paper excludes lost & found clusters here
                points.append(
                    {
                        "dataset": name,
                        "filter": label,
                        "aees": s.aees,
                        "overlap": s.overlap,
                    }
                )
    return {"points": points, "overlap_attr": overlap_attr}


def fig06_node_overlap_vs_aees(
    scale: Optional[float] = None,
    datasets: Sequence[str] = ("YNG", "MID", "UNT", "CRE"),
    orderings: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """Reproduce Figure 6: node overlap (y) vs filtered-cluster AEES (x), all networks."""
    return _overlap_vs_aees("node_overlap", scale, datasets, orderings)


def fig07_edge_overlap_vs_aees(
    scale: Optional[float] = None,
    datasets: Sequence[str] = ("YNG", "MID", "UNT", "CRE"),
    orderings: Optional[Sequence[str]] = None,
) -> dict[str, Any]:
    """Reproduce Figure 7: edge overlap (y) vs filtered-cluster AEES (x), all networks."""
    return _overlap_vs_aees("edge_overlap", scale, datasets, orderings)


# ----------------------------------------------------------------------
# Figure 8 — sensitivity / specificity of node vs edge overlap
# ----------------------------------------------------------------------
def fig08_sensitivity_specificity(
    scale: Optional[float] = None,
    datasets: Sequence[str] = ("YNG", "MID", "UNT", "CRE"),
    orderings: Optional[Sequence[str]] = None,
    thresholds: EvaluationThresholds = EvaluationThresholds(),
) -> dict[str, Any]:
    """Reproduce Figure 8: TP/FP/FN/TN-derived sensitivity and specificity of the
    node-overlap and edge-overlap matching criteria, aggregated over all
    networks and orderings.
    """
    orderings = list(orderings) if orderings else ordering_names()
    node_scored = []
    edge_scored = []
    for name in datasets:
        bundle = get_bundle(name, scale)
        for ordering in orderings:
            analysis = _get_analysis(bundle, "chordal", ordering, 1)
            node_scored.extend(s for s in analysis.scored_by_node if not s.match.is_found)
            edge_scored.extend(s for s in analysis.scored_by_edge if not s.match.is_found)
    node_counts = quadrant_counts(node_scored)
    edge_counts = quadrant_counts(edge_scored)
    return {
        "node_overlap": node_counts.as_dict(),
        "edge_overlap": edge_counts.as_dict(),
        "thresholds": {
            "aees": thresholds.aees_threshold,
            "overlap": thresholds.overlap_threshold,
        },
    }


# ----------------------------------------------------------------------
# Figure 9 — filtering sharpens a noisy cluster's function
# ----------------------------------------------------------------------
def fig09_cluster_refinement(
    scale: Optional[float] = None,
    dataset: str = "UNT",
    ordering: str = "high_degree",
) -> dict[str, Any]:
    """Reproduce Figure 9's case study: find the filtered cluster whose AEES
    improves the most over its original counterpart.

    The paper's example is UNT cluster 18 (AEES 2.33) whose High-Degree
    filtered counterpart scores 4.17 and is annotated with apoptosis
    regulation; here the analogue is the matched pair with the largest AEES
    gain, reported with both scores, the overlaps and the dominant DCP term.
    """
    bundle = get_bundle(dataset, scale)
    analysis = _get_analysis(bundle, "chordal", ordering, 1)
    best: Optional[dict[str, Any]] = None
    for match in analysis.matches:
        if match.original is None:
            continue
        scores = bundle.scorer.score_cluster_graphs([match.filtered, match.original])
        filtered_aees, original_aees = scores.aees.tolist()
        gain = filtered_aees - original_aees
        row = {
            "dataset": dataset,
            "ordering": ORDERING_LABELS.get(ordering, ordering),
            "original_cluster": match.original.cluster_id,
            "filtered_cluster": match.filtered.cluster_id,
            "original_aees": original_aees,
            "filtered_aees": filtered_aees,
            "aees_gain": gain,
            "node_overlap": match.node_overlap,
            "edge_overlap": match.edge_overlap,
            "original_size": match.original.n_vertices,
            "filtered_size": match.filtered.n_vertices,
            "dominant_term": scores.dominant[0],
        }
        if best is None or row["aees_gain"] > best["aees_gain"]:
            best = row
    return {"best_improvement": best, "n_matches": len(analysis.matches)}


# ----------------------------------------------------------------------
# Figure 10 — scalability of the three samplers
# ----------------------------------------------------------------------
def fig10_scalability(
    scale: Optional[float] = None,
    small_dataset: str = "YNG",
    large_dataset: str = "CRE",
    processor_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    ordering: str = "natural",
) -> dict[str, Any]:
    """Reproduce Figure 10: simulated execution time vs processor count for the
    chordal filter with communication, the communication-free chordal filter
    and the random walk, on the small (YNG) and large (CRE) networks.

    Times are produced by the cost model from measured per-rank work (see
    ``repro.parallel.timing``); the paper's absolute seconds are not
    reproducible offline but the curve shapes are.
    """
    series: dict[str, dict[str, dict[int, float]]] = {}
    meta: dict[str, Any] = {}
    for label, name in (("small", small_dataset), ("large", large_dataset)):
        bundle = get_bundle(name, scale)
        meta[label] = {"dataset": name, "n_vertices": bundle.n_vertices, "n_edges": bundle.n_edges}
        series[label] = {"chordal_comm": {}, "chordal_nocomm": {}, "random_walk": {}}
        for p in processor_counts:
            comm = apply_filter(bundle.network_csr, method="chordal_comm", ordering=ordering, n_partitions=p)
            nocomm = apply_filter(bundle.network_csr, method="chordal", ordering=ordering, n_partitions=p)
            walk = apply_filter(bundle.network_csr, method="random_walk", ordering=None, n_partitions=p)
            series[label]["chordal_comm"][p] = float(comm.simulated_time or 0.0)
            series[label]["chordal_nocomm"][p] = float(nocomm.simulated_time or 0.0)
            series[label]["random_walk"][p] = float(walk.simulated_time or 0.0)
    return {"series": series, "meta": meta, "processor_counts": list(processor_counts)}


# ----------------------------------------------------------------------
# Figure 11 — parallelism does not hurt the clusters (1P vs 64P)
# ----------------------------------------------------------------------
def fig11_parallel_consistency(
    scale: Optional[float] = None,
    dataset: str = "CRE",
    ordering: str = "natural",
    processor_counts: Sequence[int] = (1, 64),
    aees_threshold: float = 3.0,
) -> dict[str, Any]:
    """Reproduce Figure 11: cluster overlap against the original network at 1P and
    64P (left panel) and the table of high-AEES clusters (right panel).
    """
    bundle = get_bundle(dataset, scale)
    out: dict[str, Any] = {"dataset": dataset, "ordering": ORDERING_LABELS.get(ordering, ordering)}
    overlap_points: dict[int, list[dict[str, Any]]] = {}
    top_clusters: dict[str, list[dict[str, Any]]] = {}

    orig_rows = []
    scores = bundle.scorer.score_cluster_graphs(bundle.original_clusters)
    for c, aees, max_score in zip(
        bundle.original_clusters, scores.aees.tolist(), scores.max_score.tolist()
    ):
        if aees >= aees_threshold:
            orig_rows.append(
                {
                    "network": "ORIG",
                    "cluster": c.cluster_id,
                    "size": c.n_vertices,
                    "aees": aees,
                    "max_score": max_score,
                }
            )
    top_clusters["ORIG"] = orig_rows

    for p in processor_counts:
        analysis = _get_analysis(bundle, "chordal", ordering, p)
        points = [
            {
                "node_overlap": m.node_overlap,
                "edge_overlap": m.edge_overlap,
                "is_new": m.is_found,
            }
            for m in analysis.matches
        ]
        overlap_points[p] = points
        rows = []
        max_scores = bundle.scorer.score_cluster_graphs(analysis.clusters).max_score.tolist()
        for c, aees, max_score in zip(analysis.clusters, analysis.cluster_aees(), max_scores):
            if aees >= aees_threshold:
                rows.append(
                    {
                        "network": f"{p}P",
                        "cluster": c.cluster_id,
                        "size": c.n_vertices,
                        "aees": aees,
                        "max_score": max_score,
                    }
                )
        top_clusters[f"{p}P"] = rows
        out[f"edges_kept_{p}P"] = analysis.result.n_edges_kept
        out[f"new_clusters_{p}P"] = len(analysis.found)
    out["overlap_points"] = overlap_points
    out["top_clusters"] = top_clusters
    return out


# ----------------------------------------------------------------------
# Text claims — random-walk control and border-edge behaviour
# ----------------------------------------------------------------------
def random_walk_control(
    scale: Optional[float] = None,
    datasets: Sequence[str] = ("YNG", "MID", "UNT", "CRE"),
    n_partitions: int = 4,
    seed: int = 0,
) -> dict[str, Any]:
    """Reproduce the H0a claim: the random-walk filter retains too few edges for
    MCODE to find any cluster, while the chordal filter keeps finding them.
    """
    rows = []
    for name in datasets:
        bundle = get_bundle(name, scale)
        walk = _get_analysis(bundle, "random_walk", None, n_partitions, seed=seed)
        chordal = _get_analysis(bundle, "chordal", "natural", n_partitions)
        rows.append(
            {
                "dataset": name,
                "original_clusters": len(bundle.original_clusters),
                "random_walk_clusters": len(walk.clusters),
                "chordal_clusters": len(chordal.clusters),
                "random_walk_edges": walk.result.n_edges_kept,
                "chordal_edges": chordal.result.n_edges_kept,
                "original_edges": bundle.n_edges,
            }
        )
    return {"rows": rows}


def border_edge_study(
    scale: Optional[float] = None,
    dataset: str = "CRE",
    processor_counts: Sequence[int] = (2, 4, 8, 16, 32, 64),
    ordering: str = "natural",
    partition_methods: Sequence[str] = ("block", "bfs", "hash"),
) -> dict[str, Any]:
    """Ablation of the border-edge machinery: border edge counts, duplicates
    (no-comm) and communication volume (with-comm) as the processor count and
    the partitioner vary.
    """
    bundle = get_bundle(dataset, scale)
    rows = []
    for method in partition_methods:
        for p in processor_counts:
            nocomm = apply_filter(
                bundle.network_csr, method="chordal", ordering=ordering, n_partitions=p, partition_method=method
            )
            comm = apply_filter(
                bundle.network_csr, method="chordal_comm", ordering=ordering, n_partitions=p, partition_method=method
            )
            comm_stats = comm.extra.get("comm_stats")
            rows.append(
                {
                    "partitioner": method,
                    "processors": p,
                    "border_edges": nocomm.n_border_edges,
                    "nocomm_duplicates": nocomm.duplicate_border_edges,
                    "nocomm_edges_kept": nocomm.n_edges_kept,
                    "comm_edges_kept": comm.n_edges_kept,
                    "comm_messages": getattr(comm_stats, "messages_sent", 0),
                    "comm_items": getattr(comm_stats, "items_sent", 0),
                }
            )
    return {"dataset": dataset, "rows": rows}

"""Ablation studies for the paper's fixed design choices.

The paper fixes several knobs without exploring them (MCODE's 3.0 score
threshold, block data distribution, the triangle-based border-admission rule).
These drivers sweep those knobs so their influence on the headline results can
be quantified:

* :func:`mcode_threshold_sweep` — cluster counts and relevant-cluster counts
  as the MCODE score cut-off varies (the paper's 3.0 excludes bare triangles);
* :func:`partitioner_ablation` — edge retention, duplicates and cluster
  quality per partitioner (block / bfs / hash / greedy);
* :func:`hub_retention_study` — how well each filter preserves the identity of
  the most central genes (degree / closeness / betweenness), the property the
  structural-sampling literature optimises for and the adaptive filter does
  not;
* :func:`quasi_chordality_study` — how far the parallel outputs are from true
  chordal subgraphs as the processor count grows, with and without the
  cycle-repair pass.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

from ..clustering.mcode import mcode_clusters
from ..core.quasi import quasi_chordal_report
from ..core.results import FilterResult
from ..core.sampling import apply_filter
from ..graph.centrality import centrality_spearman, hub_retention
from ..graph.partition import partition_graph
from .experiments import get_bundle
from .workflow import DatasetBundle

__all__ = [
    "mcode_threshold_sweep",
    "partitioner_ablation",
    "hub_retention_study",
    "quasi_chordality_study",
]

#: Every study runs on the paper's largest network.
DATASET = "CRE"
#: MCODE score cut-offs swept around the paper's 3.0.
MCODE_THRESHOLDS = (2.0, 2.5, 3.0, 3.5, 4.0, 5.0)
#: Data distributions compared by :func:`partitioner_ablation`.
PARTITIONERS = ("block", "bfs", "hash", "greedy")
#: Size of the hub set and the centralities that rank it.
HUB_COUNT = 20
HUB_MEASURES = ("degree", "closeness", "betweenness")


def mcode_threshold_sweep(scale: Optional[float] = None) -> dict[str, Any]:
    """Sweep the MCODE score threshold on the original and chordal-filtered network.

    The paper keeps clusters scoring ≥ 3.0 ("scores of 2.9 or lower tend to
    indicate small cliques"); the sweep shows how the cluster population and
    the number of biologically relevant clusters respond to that choice.
    """
    bundle = get_bundle(DATASET, scale)
    filtered = apply_filter(bundle.network_csr, method="chordal", ordering="natural", n_partitions=1)
    filtered_csr = filtered.filtered_csr()
    rows: list[dict[str, Any]] = []
    for threshold in MCODE_THRESHOLDS:
        original_clusters = mcode_clusters(bundle.network_csr, threshold)
        filtered_clusters = mcode_clusters(filtered_csr, threshold)
        rows.append(
            {
                "min_score": threshold,
                "original_clusters": len(original_clusters),
                "filtered_clusters": len(filtered_clusters),
                "original_relevant": sum(
                    1 for aees in bundle.scorer.cluster_aees(original_clusters) if aees >= 3.0
                ),
                "filtered_relevant": sum(
                    1 for aees in bundle.scorer.cluster_aees(filtered_clusters) if aees >= 3.0
                ),
            }
        )
    return {"dataset": DATASET, "rows": rows}


def partitioner_ablation(scale: Optional[float] = None, n_partitions: int = 16) -> dict[str, Any]:
    """Compare partitioners for the communication-free chordal sampler.

    Reports border edges, duplicates, edges kept, and how many of the
    biologically relevant clusters of the sequential run survive under each
    data distribution (the paper only uses the block distribution).
    """
    bundle = get_bundle(DATASET, scale)
    sequential = apply_filter(bundle.network_csr, method="chordal", ordering="natural", n_partitions=1)
    sequential_relevant = _relevant_cluster_count(bundle, sequential)
    rows: list[dict[str, Any]] = []
    for method in PARTITIONERS:
        result = apply_filter(
            bundle.network_csr,
            method="chordal",
            ordering="natural",
            n_partitions=n_partitions,
            partition_method=method,
        )
        rows.append(
            {
                "partitioner": method,
                "border_edges": result.n_border_edges,
                "duplicates": result.duplicate_border_edges,
                "edges_kept": result.n_edges_kept,
                "relevant_clusters": _relevant_cluster_count(bundle, result),
                "sequential_relevant": sequential_relevant,
                "simulated_time": result.simulated_time,
            }
        )
    return {"dataset": DATASET, "n_partitions": n_partitions, "rows": rows}


def _relevant_cluster_count(bundle: DatasetBundle, result: FilterResult) -> int:
    clusters = mcode_clusters(result.filtered_csr())
    scores = bundle.scorer.cluster_aees(clusters)
    return sum(1 for aees in scores if aees >= bundle.thresholds.aees_threshold)


def hub_retention_study(scale: Optional[float] = None, n_partitions: int = 8) -> dict[str, Any]:
    """How well do the filters preserve the identity and ranking of hub genes?

    The chordal filter optimises for dense clusters, not for structural-hub
    preservation, yet the paper's background section ties hubs to essential
    genes; this study reports top-k hub retention and the Spearman correlation
    of the centrality rankings for both filters.
    """
    bundle = get_bundle(DATASET, scale)
    chordal = apply_filter(bundle.network, method="chordal", ordering="natural", n_partitions=n_partitions)
    walk = apply_filter(bundle.network, method="random_walk", n_partitions=n_partitions)
    rows: list[dict[str, Any]] = []
    for measure in HUB_MEASURES:
        for label, result in (("chordal", chordal), ("random_walk", walk)):
            rows.append(
                {
                    "measure": measure,
                    "filter": label,
                    "hub_retention": hub_retention(
                        bundle.network, result.graph, k=HUB_COUNT, measure=measure
                    ),
                    "rank_correlation": centrality_spearman(bundle.network, result.graph, measure=measure),
                }
            )
    return {"dataset": DATASET, "k": HUB_COUNT, "rows": rows}


def quasi_chordality_study(
    scale: Optional[float] = None,
    processor_counts: Sequence[int] = (2, 8, 32),
) -> dict[str, Any]:
    """Measure how far the parallel outputs are from true chordal subgraphs.

    For every processor count the communication-free sampler is run with and
    without the cycle-repair pass and both outputs are summarised with
    :func:`repro.core.quasi.quasi_chordal_report`; the with-communication
    baseline is included for comparison.  The sequential output is chordal by
    construction and serves as the reference row.  Every run uses the natural
    ordering: the filters lay their blocks out along the ordering
    permutation, so only then is the natural-order block partition scored
    here the one each filter actually cut.
    """
    bundle = get_bundle(DATASET, scale)
    rows: list[dict[str, Any]] = []

    sequential = apply_filter(bundle.network, method="chordal", ordering="natural", n_partitions=1)
    rows.append({"variant": "sequential", "processors": 1, **quasi_chordal_report(sequential).as_dict()})

    for p in processor_counts:
        partition = partition_graph(bundle.network, p, method="block")
        raw = apply_filter(
            bundle.network, method="chordal", ordering="natural", n_partitions=p, repair_cycles=False
        )
        repaired = apply_filter(
            bundle.network, method="chordal", ordering="natural", n_partitions=p, repair_cycles=True
        )
        comm = apply_filter(bundle.network, method="chordal_comm", ordering="natural", n_partitions=p)
        rows.append({"variant": "nocomm", "processors": p, **quasi_chordal_report(raw, partition).as_dict()})
        rows.append(
            {"variant": "nocomm+repair", "processors": p, **quasi_chordal_report(repaired, partition).as_dict()}
        )
        rows.append({"variant": "comm", "processors": p, **quasi_chordal_report(comm, partition).as_dict()})
    return {"dataset": DATASET, "rows": rows}

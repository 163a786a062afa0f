#!/usr/bin/env python
"""End-to-end analysis-workflow benchmark.

Times the paper's full analysis sequence — expression matrix → thresholded
correlation network → sampling filter → MCODE clusters → overlap matching →
AEES quadrant classification — under two implementations of the analysis
stage and writes the measured trajectory to ``BENCH_workflow.json``:

* ``label`` — the retained seed path: per-pair tile extraction +
  ``Graph.add_edge`` network build, ``reference_mcode_clusters``,
  ``reference_match_clusters``, per-pair early-exit ontology BFS
  (``GODag.reference_term_distance``), the reference per-edge enrichment
  scorer (``reference_score_cluster``) and one enrichment pass per overlap
  criterion;
* ``csr`` — the index-native path: vectorised tile extraction straight into
  CSR edge arrays, CSR MCODE, sparse intersection-count overlap matching, and the
  batched enrichment engine (interned term ids, packed-pair memo table,
  segment reductions — see ``benchmarks/bench_enrichment.py`` for the
  isolated classify measurement) with one shared pass per filter run.

``bench_pipeline.py`` times the sampling filter in isolation; this harness
times everything *around* it, which is where the workflow spent most of its
time after PR 2.  Every cell runs both implementations on the same study and
asserts their cluster member sets, scores and quadrant counts are identical
(the ``clusters_match`` flag in the JSON).

Flags, envelope and ``--check`` come from :mod:`harness`.

JSON schema (``bench_workflow/v1``) extras::

    {
      "dataset": "CRE",
      "filter": {"method", "ordering", "n_partitions"},
      "runs": [ {"dataset", "scale", "scale_factor", "impl", "n_vertices",
                 "n_edges", "original_clusters", "filtered_clusters",
                 "repeats", "seconds", "stages": {...}, "clusters_digest"} ],
      "speedup": {"CRE/<scale>":
                  {"label_seconds", "csr_seconds", "speedup", "clusters_match"}}
    }

``--check`` gates the ``csr_seconds / label_seconds`` ratio at the largest
scale both files share.  Both implementations are measured in the same
process on the same machine, so hardware speed cancels exactly.  A cell
whose implementations disagree on cluster output fails the run outright.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Callable, Optional

import numpy as np

import harness
from repro.clustering import (
    mcode_clusters,
    match_and_lost_clusters,
    found_clusters,
    reference_lost_clusters,
    reference_match_clusters,
    reference_mcode_clusters,
)
from repro.clustering.evaluation import classify_matches, quadrant_counts
from repro.core.sampling import apply_filter
from repro.expression import make_study
from repro.expression.correlation import (
    CorrelationThreshold,
    correlated_pair_arrays,
    csr_from_pair_arrays,
    network_from_pair_arrays,
)
from repro.graph import Graph
from repro.ontology.enrichment import EnrichmentScorer, reference_score_cluster
from repro.ontology.generator import make_study_ontology

DATASET = "CRE"
#: Benchmark scales: fractions of the paper-sized CRE study.  ``large`` is
#: the scale the ISSUE's >=2x acceptance criterion is measured at.
SCALES: dict[str, float] = {
    "tiny": 0.02,
    "small": 0.05,
    "medium": 0.10,
    "large": 0.15,
}
SCALE_ORDER = ["tiny", "small", "medium", "large"]

FILTER = dict(method="chordal", ordering="natural", n_partitions=4)


class _SeedDistanceDag:
    """GODag proxy forcing the seed per-pair BFS (plus the seed's pair cache).

    The baseline measurement must reflect the pre-index-native ontology cost:
    one early-exit BFS per *pair* of annotation terms, memoised per pair —
    not per source — exactly as the seed ``term_distance`` behaved.
    """

    def __init__(self, dag: Any) -> None:
        self._dag = dag
        self._pair_cache: dict[tuple[str, str], int] = {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._dag, name)

    def term_distance(self, term_a: str, term_b: str) -> int:
        key = (term_a, term_b) if term_a < term_b else (term_b, term_a)
        hit = self._pair_cache.get(key)
        if hit is None:
            hit = self._dag.reference_term_distance(term_a, term_b)
            self._pair_cache[key] = hit
        return hit


def _seed_pair_extraction(matrix: Any) -> list[tuple[str, str, float]]:
    """The seed per-pair tile loop (before the extraction was vectorised)."""
    threshold = CorrelationThreshold()
    std = matrix.standardized()
    n_samples = std.n_samples
    if n_samples < 2 or matrix.n_genes < 2:
        return []
    cutoff = threshold.effective_cutoff(n_samples)
    values = std.values
    genes = matrix.genes
    n = matrix.n_genes
    block_size = 2048
    pairs: list[tuple[str, str, float]] = []
    for bi in range(0, n, block_size):
        rows = values[bi : bi + block_size]
        for bj in range(bi, n, block_size):
            cols = values[bj : bj + block_size]
            corr = rows @ cols.T / n_samples
            mask = corr >= cutoff
            ii, jj = np.nonzero(mask)
            for i, j in zip(ii, jj):
                gi = bi + int(i)
                gj = bj + int(j)
                if gj <= gi:
                    continue
                rho = float(np.clip(corr[i, j], -1.0, 1.0))
                pairs.append((genes[gi], genes[gj], rho))
    return pairs


def _fingerprint(original, filtered, found, lost, node_counts, edge_counts) -> str:
    """Exact digest of cluster member sets, scores, lost/found and quadrants."""
    payload = {
        "original": [
            (sorted(map(str, c.members)), float(c.score).hex()) for c in original
        ],
        "filtered": [
            (sorted(map(str, c.members)), float(c.score).hex()) for c in filtered
        ],
        "found": [sorted(map(str, c.members)) for c in found],
        "lost": [sorted(map(str, c.members)) for c in lost],
        "node_counts": node_counts.as_dict(),
        "edge_counts": edge_counts.as_dict(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_label_workflow(study: Any, dag: Any, annotations: Any) -> dict[str, Any]:
    """One timed pass of the seed (label / dict-graph) analysis stage."""
    stages: dict[str, float] = {}
    t = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal t
        now = time.perf_counter()
        stages[name] = round(now - t, 6)
        t = now

    network = Graph()
    for ga, gb, rho in _seed_pair_extraction(study.matrix):
        network.add_edge(ga, gb, rho=rho)
    lap("network")
    original = reference_mcode_clusters(network, source=f"{study.name}/original")
    lap("cluster_original")
    result = apply_filter(network, **FILTER)
    lap("filter")
    filtered = reference_mcode_clusters(result.graph, source=f"{study.name}/filtered")
    lap("cluster_filtered")
    matches = reference_match_clusters(original, filtered)
    found = found_clusters(matches)
    lost = reference_lost_clusters(original, filtered)
    lap("match")
    # The retained per-edge double loop (the seed enrichment path) scores
    # every filtered cluster once per classification pass, through the
    # proxy's seed distance function.
    seed_dag = _SeedDistanceDag(dag)

    def seed_aees() -> list[float]:
        return [
            reference_score_cluster(seed_dag, annotations, m.filtered.subgraph).aees
            for m in matches
        ]

    scored_node = classify_matches(matches, None, overlap_attr="node_overlap", aees=seed_aees())
    scored_edge = classify_matches(matches, None, overlap_attr="edge_overlap", aees=seed_aees())
    node_counts = quadrant_counts(scored_node)
    edge_counts = quadrant_counts(scored_edge)
    lap("classify")
    return {
        "stages": stages,
        "network": network,
        "digest": _fingerprint(original, filtered, found, lost, node_counts, edge_counts),
        "original_clusters": len(original),
        "filtered_clusters": len(filtered),
        "found": len(found),
        "lost": len(lost),
    }


def run_csr_workflow(study: Any, dag: Any, annotations: Any) -> dict[str, Any]:
    """One timed pass of the index-native analysis stage."""
    stages: dict[str, float] = {}
    t = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal t
        now = time.perf_counter()
        stages[name] = round(now - t, 6)
        t = now

    ii, jj, rho = correlated_pair_arrays(study.matrix)
    network = network_from_pair_arrays(study.matrix, ii, jj, rho)
    csr = csr_from_pair_arrays(study.matrix, ii, jj)
    csr.attach_label_graph(network)
    lap("network")
    original = mcode_clusters(csr, source=f"{study.name}/original")
    lap("cluster_original")
    result = apply_filter(network, **FILTER)
    lap("filter")
    filtered = mcode_clusters(result.graph, source=f"{study.name}/filtered")
    lap("cluster_filtered")
    matches, lost = match_and_lost_clusters(original, filtered)
    found = found_clusters(matches)
    lap("match")
    scorer = EnrichmentScorer(dag, annotations)
    scored_node = classify_matches(matches, scorer, overlap_attr="node_overlap")
    scored_edge = classify_matches(
        matches, scorer, overlap_attr="edge_overlap", aees=[s.aees for s in scored_node]
    )
    node_counts = quadrant_counts(scored_node)
    edge_counts = quadrant_counts(scored_edge)
    lap("classify")
    return {
        "stages": stages,
        "network": network,
        "digest": _fingerprint(original, filtered, found, lost, node_counts, edge_counts),
        "original_clusters": len(original),
        "filtered_clusters": len(filtered),
        "found": len(found),
        "lost": len(lost),
    }


IMPLS: dict[str, Callable[..., dict[str, Any]]] = {
    "label": run_label_workflow,
    "csr": run_csr_workflow,
}


def run_grid(quick: bool, verbose: bool = True) -> list[dict[str, Any]]:
    scales = ["tiny", "small"] if quick else SCALE_ORDER
    runs: list[dict[str, Any]] = []
    for scale in scales:
        factor = SCALES[scale]
        study = make_study(DATASET, scale=factor)
        for impl, fn in IMPLS.items():
            # The label implementation is expensive at the bigger scales;
            # one repeat there keeps the full grid at minutes.
            repeats = 2 if (impl == "csr" or scale in ("tiny", "small")) else 1
            best: Optional[dict[str, Any]] = None
            best_seconds = float("inf")
            for _ in range(repeats):
                # Fresh ontology per repeat: the DAG's distance caches are
                # part of what is being measured.
                dag, annotations = make_study_ontology(study, depth=8, branching=3)
                t0 = time.perf_counter()
                out = fn(study, dag, annotations)
                seconds = time.perf_counter() - t0
                if seconds < best_seconds:
                    best_seconds, best = seconds, out
            assert best is not None
            row = {
                "dataset": DATASET,
                "scale": scale,
                "scale_factor": factor,
                "impl": impl,
                "n_vertices": best["network"].n_vertices,
                "n_edges": best["network"].n_edges,
                "original_clusters": best["original_clusters"],
                "filtered_clusters": best["filtered_clusters"],
                "repeats": repeats,
                "seconds": round(best_seconds, 6),
                "stages": best["stages"],
                "clusters_digest": best["digest"],
            }
            runs.append(row)
            if verbose:
                print(
                    f"{DATASET:>4} {scale:>6} {impl:>6}  {best_seconds:8.3f}s  "
                    f"n={row['n_vertices']} e={row['n_edges']} "
                    f"clusters={row['original_clusters']}/{row['filtered_clusters']} "
                    f"digest={row['clusters_digest']}",
                    flush=True,
                )
    return runs


def _speedup_table(runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    by_cell: dict[str, dict[str, dict[str, Any]]] = {}
    for row in runs:
        by_cell.setdefault(f"{row['dataset']}/{row['scale']}", {})[row["impl"]] = row
    table: dict[str, dict[str, Any]] = {}
    for cell, impls in by_cell.items():
        if "label" not in impls or "csr" not in impls:
            continue
        lab, csr = impls["label"], impls["csr"]
        table[cell] = {
            "label_seconds": lab["seconds"],
            "csr_seconds": csr["seconds"],
            "speedup": round(lab["seconds"] / csr["seconds"], 3) if csr["seconds"] else None,
            "clusters_match": lab["clusters_digest"] == csr["clusters_digest"],
        }
    return table


def gate_cells(runs: list[dict[str, Any]]) -> dict[str, tuple[float, float]]:
    """csr time over label time at each scale."""
    table = _speedup_table(runs)
    return {
        cell: (table[cell]["csr_seconds"], table[cell]["label_seconds"])
        for cell in (f"{DATASET}/{scale}" for scale in SCALE_ORDER)
        if cell in table
    }


BENCH = harness.Bench(
    name="workflow",
    label="index-native-analysis",
    description=__doc__.splitlines()[0],
    run=run_grid,
    cells=gate_cells,
    gated="csr/label time",
    mismatches=lambda runs: [
        f"{cell}: label and csr cluster outputs differ"
        for cell, entry in _speedup_table(runs).items()
        if not entry["clusters_match"]
    ],
    extras=lambda runs: {"dataset": DATASET, "filter": FILTER, "speedup": _speedup_table(runs)},
)


if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))

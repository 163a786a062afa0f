#!/usr/bin/env python
"""Isolated GO-enrichment (classify-stage) benchmark.

Times the scoring of a realistic cluster workload — the original network's
MCODE clusters plus the clusters of one chordal filter run, exactly what the
workflow's ``classify`` stage scores — under the two enrichment
implementations and writes the measured trajectory to
``BENCH_enrichment.json``:

* ``label`` — the retained reference path (``reference_score_cluster`` on
  each cluster's subgraph): one Python double loop over the endpoints' GO
  term pairs per edge, scalar ``deepest_common_parent`` / ``term_distance``
  calls;
* ``batched`` — the index-native engine: interned ``int64`` term ids, one
  concatenated pass over all cluster edges, distinct packed term pairs scored
  by vectorised sorted-ancestor intersection + multi-source bitset frontier
  BFS and memoised in the packed-key pair table, per-edge winners by segment
  max, per-cluster aggregates by segment reductions.

Both run serially in-process; every row records ``backend: "serial"``.
Committed files may still carry ``thread`` / ``process-shm`` rows from the
scorer's former parallel pair fan-out; the gate and speedup table read only
the serial rows.

Every cell asserts the two implementations produce byte-identical score
vectors (``score_digest``: sha256 over per-cluster AEES / max score /
max depth / dominant term / edge counts).

Flags, envelope and ``--check`` come from :mod:`harness`.

JSON schema (``bench_enrichment/v1``) extras::

    {
      "dataset": "CRE",
      "filter": {"method", "ordering", "n_partitions"},
      "runs": [ {"dataset", "scale", "scale_factor", "impl", "backend",
                 "n_clusters", "n_edges", "distinct_pairs", "repeats",
                 "seconds", "stages": {...}, "score_digest"} ],
      "speedup": {"CRE/<scale>":
                  {"label_seconds", "batched_seconds", "speedup",
                   "scores_match"}}
    }

``--check`` gates the ``batched_seconds / label_seconds`` ratio at the
largest scale both files share.  Both implementations run in the same
process on the same machine, so hardware speed cancels exactly.  A cell
whose serial implementations disagree on the score digest fails the run
outright.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Optional

import numpy as np

import harness
from repro.clustering import mcode_clusters
from repro.core.sampling import apply_filter
from repro.expression import make_study
from repro.expression.correlation import (
    correlated_pair_arrays,
    csr_from_pair_arrays,
    network_from_pair_arrays,
)
from repro.ontology import EnrichmentScorer, reference_score_cluster
from repro.ontology.enrichment import ClusterScores
from repro.ontology.generator import make_study_ontology

DATASET = "CRE"
#: Fractions of the paper-sized CRE study; ``large`` is the scale the
#: ISSUE's >=5x classify acceptance criterion is measured at.
SCALES: dict[str, float] = {
    "tiny": 0.02,
    "small": 0.05,
    "medium": 0.10,
    "large": 0.15,
}
SCALE_ORDER = ["tiny", "small", "medium", "large"]

FILTER = dict(method="chordal", ordering="natural", n_partitions=4)


def build_workload(scale_factor: float) -> dict[str, Any]:
    """The classify-stage scoring workload of one cell (built once, untimed).

    Original-network clusters plus one chordal filter run's clusters — the
    same index-native cluster population ``classify_matches`` scores in the
    workflow.
    """
    study = make_study(DATASET, scale=scale_factor)
    ii, jj, rho = correlated_pair_arrays(study.matrix)
    network = network_from_pair_arrays(study.matrix, ii, jj, rho, include_all_genes=False)
    csr = csr_from_pair_arrays(study.matrix, ii, jj, include_all_genes=False)
    csr.attach_label_graph(network)
    original = mcode_clusters(csr, source=f"{study.name}/original")
    result = apply_filter(network, **FILTER)
    filtered = mcode_clusters(result.graph, source=f"{study.name}/filtered")
    clusters = original + filtered
    for cluster in clusters:
        cluster.subgraph  # cut untimed: the label leg walks these subgraphs
    return {"study": study, "clusters": clusters}


def score_digest(scores: Any) -> str:
    """Exact digest of the per-cluster score vectors."""
    payload = {
        "aees": [float(v).hex() for v in scores.aees],
        "max_score": [float(v).hex() for v in scores.max_score],
        "max_depth": [int(v) for v in scores.max_depth],
        "n_edges": [int(v) for v in scores.n_edges],
        "dominant": scores.dominant,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def reference_scores(dag: Any, annotations: Any, clusters: list) -> ClusterScores:
    """The seed scorer over each cluster's subgraph, as score arrays."""
    per = [reference_score_cluster(dag, annotations, c.subgraph) for c in clusters]
    return ClusterScores(
        aees=np.array([c.aees for c in per], dtype=float),
        max_score=np.array([c.max_score for c in per], dtype=float),
        max_depth=np.array([c.max_depth for c in per], dtype=np.int64),
        n_edges=np.array([len(c.edges) for c in per], dtype=np.int64),
        dominant=[c.dominant_term() for c in per],
    )


def run_impl(workload: dict[str, Any], impl: str) -> dict[str, Any]:
    """One timed scoring pass; a fresh ontology + scorer per call so index
    construction and pair-table fills are part of what is measured."""
    stages: dict[str, float] = {}
    t = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal t
        now = time.perf_counter()
        stages[name] = round(now - t, 6)
        t = now

    dag, annotations = make_study_ontology(workload["study"], depth=8, branching=3)
    lap("ontology")
    if impl == "label":
        scores = reference_scores(dag, annotations, workload["clusters"])
        distinct_pairs = 0
    else:
        scorer = EnrichmentScorer(dag, annotations)
        # Interning is the engine's one-off cost; lap it separately.
        dag.term_index()
        annotations.indexed()
        lap("interning")
        scores = scorer.score_cluster_graphs(workload["clusters"])
        distinct_pairs = scorer.pair_table_size
    lap("score")
    digest = score_digest(scores)
    lap("digest")
    return {
        "stages": stages,
        "digest": digest,
        "n_clusters": len(workload["clusters"]),
        "n_edges": int(scores.n_edges.sum()),
        "distinct_pairs": distinct_pairs,
        # The timed portion excludes the (identical) ontology generation.
        "seconds": sum(v for k, v in stages.items() if k != "ontology"),
    }


def run_grid(quick: bool, verbose: bool = True) -> list[dict[str, Any]]:
    scales = ["tiny", "small"] if quick else SCALE_ORDER
    runs: list[dict[str, Any]] = []
    for scale in scales:
        factor = SCALES[scale]
        workload = build_workload(factor)
        for impl in ("label", "batched"):
            # The batched leg is tens of milliseconds — best-of-3 keeps the
            # gated ratio stable on noisy CI runners; the label leg is
            # seconds, so one repeat suffices at the big scales.
            if impl == "batched":
                repeats = 3
            else:
                repeats = 2 if scale in ("tiny", "small") else 1
            best: Optional[dict[str, Any]] = None
            for _ in range(repeats):
                out = run_impl(workload, impl)
                if best is None or out["seconds"] < best["seconds"]:
                    best = out
            assert best is not None
            row = {
                "dataset": DATASET,
                "scale": scale,
                "scale_factor": factor,
                "impl": impl,
                "backend": "serial",
                "n_clusters": best["n_clusters"],
                "n_edges": best["n_edges"],
                "distinct_pairs": best["distinct_pairs"],
                "repeats": repeats,
                "seconds": round(best["seconds"], 6),
                "stages": best["stages"],
                "score_digest": best["digest"],
            }
            runs.append(row)
            if verbose:
                print(
                    f"{DATASET:>4} {scale:>6} {impl:>8} "
                    f"{best['seconds']:8.3f}s  clusters={row['n_clusters']} "
                    f"edges={row['n_edges']} pairs={row['distinct_pairs']} "
                    f"digest={row['score_digest']}",
                    flush=True,
                )
    return runs


def _speedup_table(runs: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    by_cell: dict[str, dict[str, dict[str, Any]]] = {}
    for row in runs:
        if row["backend"] != "serial":
            continue
        by_cell.setdefault(f"{row['dataset']}/{row['scale']}", {})[row["impl"]] = row
    table: dict[str, dict[str, Any]] = {}
    for cell, impls in by_cell.items():
        if "label" not in impls or "batched" not in impls:
            continue
        lab, fast = impls["label"], impls["batched"]
        table[cell] = {
            "label_seconds": lab["seconds"],
            "batched_seconds": fast["seconds"],
            "speedup": round(lab["seconds"] / fast["seconds"], 3) if fast["seconds"] else None,
            "scores_match": lab["score_digest"] == fast["score_digest"],
        }
    return table


def gate_cells(runs: list[dict[str, Any]]) -> dict[str, tuple[float, float]]:
    """batched time over label time at each scale."""
    table = _speedup_table(runs)
    return {
        cell: (table[cell]["batched_seconds"], table[cell]["label_seconds"])
        for cell in (f"{DATASET}/{scale}" for scale in SCALE_ORDER)
        if cell in table
    }


BENCH = harness.Bench(
    name="enrichment",
    label="batched-enrichment-engine",
    description=__doc__.splitlines()[0],
    run=run_grid,
    cells=gate_cells,
    gated="batched/label time",
    mismatches=lambda runs: [
        f"{cell}: label and batched score digests differ"
        for cell, entry in _speedup_table(runs).items()
        if not entry["scores_match"]
    ],
    extras=lambda runs: {"dataset": DATASET, "filter": FILTER, "speedup": _speedup_table(runs)},
)


if __name__ == "__main__":
    raise SystemExit(harness.main(BENCH))

#!/usr/bin/env python3
"""Quickstart: filter a gene correlation network with the parallel chordal sampler.

This walks the paper's pipeline end to end on a small synthetic dataset:

1. generate a microarray study (planted co-expression modules + realistic noise),
2. build the Pearson correlation network (p ≤ 0.0005, ρ ≥ 0.95),
3. extract the maximal chordal subgraph with the communication-free parallel
   algorithm (the paper's contribution) and, for contrast, the random-walk
   control filter,
4. cluster both with MCODE and score the clusters' biological relevance with
   the GO edge-enrichment measure (AEES).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import apply_filter, make_study, mcode_clusters
from repro.ontology import EnrichmentScorer, make_study_ontology
from repro.pipeline import format_table


def main() -> None:
    # 1. synthetic microarray study (scale 0.05 ≈ a couple of thousand genes)
    study = make_study("CRE", scale=0.05)
    print(f"study {study.name}: {study.matrix.n_genes} genes × {study.matrix.n_samples} arrays, "
          f"{len(study.modules)} planted co-expression modules")

    # 2. correlation network
    network = study.network()
    print(f"correlation network: {network.n_vertices} vertices, {network.n_edges} edges")

    # 3. sampling filters
    chordal = apply_filter(network, method="chordal", ordering="high_degree", n_partitions=8)
    walk = apply_filter(network, method="random_walk", n_partitions=8, seed=0)
    print()
    print(format_table([chordal.summary(), walk.summary()],
                       columns=["method", "n_partitions", "edges_original", "edges_kept",
                                "edge_reduction", "border_edges", "duplicate_border_edges"],
                       title="Filter results"))

    # 4. clusters + biological relevance
    dag, annotations = make_study_ontology(study)
    scorer = EnrichmentScorer(dag, annotations)

    rows = []
    for label, result in (("chordal", chordal), ("random_walk", walk)):
        clusters = mcode_clusters(result.graph, source=label)
        aees = scorer.cluster_aees(clusters)  # one pass over every cluster
        rows.append(
            {
                "filter": label,
                "clusters": len(clusters),
                "relevant (AEES>=3)": sum(a >= 3.0 for a in aees),
                "best_aees": max(aees, default=0.0),
            }
        )
    print()
    print(format_table(rows, title="MCODE clusters after filtering"))
    print()
    print("The chordal filter keeps the dense, biologically coherent modules;")
    print("the random-walk control retains too few edges for MCODE to find them (paper H0a).")


if __name__ == "__main__":
    main()

"""Ablation benches for the design choices the paper fixes (``repro.pipeline.ablation``).

Not figures of the paper, but the knobs the paper fixes without exploring:
the MCODE score threshold, the data-distribution (partitioner) choice, how
"quasi" the quasi-chordal outputs really are, and how each filter treats hub
genes (the property structural samplers optimise for).
"""

from __future__ import annotations

from repro.pipeline import format_table
from repro.pipeline.ablation import (
    hub_retention_study,
    mcode_threshold_sweep,
    partitioner_ablation,
    quasi_chordality_study,
)


def test_ablation_mcode_threshold(benchmark, once):
    out = once(benchmark, mcode_threshold_sweep)
    rows = out["rows"]
    print()
    print(format_table(rows, title=f"MCODE score threshold sweep ({out['dataset']})"))
    counts = [r["filtered_clusters"] for r in rows]
    assert counts == sorted(counts, reverse=True)
    # the paper's 3.0 threshold keeps every biologically relevant cluster found at 2.0
    by_threshold = {r["min_score"]: r for r in rows}
    if 2.0 in by_threshold and 3.0 in by_threshold:
        assert by_threshold[3.0]["filtered_relevant"] >= by_threshold[2.0]["filtered_relevant"] - 1


def test_ablation_partitioner(benchmark, once):
    out = once(benchmark, partitioner_ablation)
    rows = out["rows"]
    print()
    print(format_table(rows, title=f"Partitioner ablation ({out['dataset']}, {out['n_partitions']} parts)"))
    for row in rows:
        assert row["duplicates"] <= row["border_edges"]
    bfs = next((r for r in rows if r["partitioner"] == "bfs"), None)
    block = next((r for r in rows if r["partitioner"] == "block"), None)
    if bfs and block:
        # locality-aware partitioning produces far fewer border edges
        assert bfs["border_edges"] <= block["border_edges"]


def test_ablation_hub_retention(benchmark, once):
    out = once(benchmark, hub_retention_study)
    rows = out["rows"]
    print()
    print(format_table(rows, title=f"Hub retention after filtering ({out['dataset']}, top {out['k']})"))
    for row in rows:
        assert 0.0 <= row["hub_retention"] <= 1.0
    # the chordal filter retains hub identity at least as well as the random walk
    for measure in {r["measure"] for r in rows}:
        chordal = next(r for r in rows if r["measure"] == measure and r["filter"] == "chordal")
        walk = next(r for r in rows if r["measure"] == measure and r["filter"] == "random_walk")
        assert chordal["hub_retention"] >= walk["hub_retention"] - 0.2


def test_ablation_quasi_chordality(benchmark, once):
    out = once(benchmark, quasi_chordality_study)
    rows = out["rows"]
    print()
    print(format_table(
        rows,
        columns=["variant", "processors", "is_chordal", "chordality_deficit", "n_long_cycles",
                 "max_cycle_length", "partitions_chordal", "border_edges", "duplicate_border_edges"],
        title=f"Quasi-chordality of the parallel outputs ({out['dataset']})",
    ))
    assert rows[0]["is_chordal"] is True  # sequential reference
    for row in rows:
        if row["variant"].startswith("nocomm") and row["partitions_chordal"] is not None:
            # only border edges can break chordality
            assert row["partitions_chordal"] == row["n_partitions"]

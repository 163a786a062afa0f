"""Section III.A ablation — border edges, duplicates and communication volume.

The paper discusses two costs of parallelisation: the earlier algorithm's
border-edge exchange (communication volume growing with b, receiver work
O(b²/d)) and the new algorithm's duplicate border edges (bounded by b, removed
sequentially).  This bench sweeps processor counts and partitioners and
reports both, ablating the partitioner choice (see README's figure table).
"""

from __future__ import annotations

from repro.pipeline import border_edge_study, format_table


def test_border_edge_study(benchmark, once):
    out = once(benchmark, border_edge_study)
    rows = out["rows"]

    print()
    print(format_table(
        rows,
        columns=[
            "partitioner",
            "processors",
            "border_edges",
            "nocomm_duplicates",
            "nocomm_edges_kept",
            "comm_edges_kept",
            "comm_messages",
            "comm_items",
        ],
        title=f"Border-edge behaviour on {out['dataset']} (no-comm duplicates vs with-comm traffic)",
    ))

    for row in rows:
        # duplicates are bounded by the number of border edges (paper, Section III.A)
        assert 0 <= row["nocomm_duplicates"] <= row["border_edges"]
        # with communication, traffic is proportional to the border edges exchanged
        if row["border_edges"]:
            assert row["comm_items"] > 0

    # more processors -> more border edges (for a fixed partitioner)
    by_method: dict[str, list] = {}
    for row in rows:
        by_method.setdefault(row["partitioner"], []).append(row)
    for method, method_rows in by_method.items():
        method_rows.sort(key=lambda r: r["processors"])
        assert method_rows[-1]["border_edges"] >= method_rows[0]["border_edges"], method

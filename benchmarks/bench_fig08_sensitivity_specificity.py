"""Figure 8 — sensitivity and specificity of node- vs edge-overlap matching.

Paper claim: classifying matched clusters into TP/FP/FN/TN quadrants (AEES 3.0
× 50% overlap) shows node-overlap matching to be highly sensitive but
unspecific; edge-overlap matching is the less sensitive criterion.
(The paper additionally reports higher specificity for edge overlap — a
finding its authors call counterintuitive; the synthetic data reproduces
the sensitivity contrast but not that part.)
"""

from __future__ import annotations

from repro.pipeline import fig08_sensitivity_specificity, format_table


def test_fig08_sensitivity_specificity(benchmark, once):
    out = once(benchmark, fig08_sensitivity_specificity)
    node = out["node_overlap"]
    edge = out["edge_overlap"]

    print()
    rows = [
        {"criterion": "node overlap", **node},
        {"criterion": "edge overlap", **edge},
    ]
    print(format_table(rows, columns=["criterion", "TP", "FP", "FN", "TN", "sensitivity", "specificity"],
                       title="Figure 8: quadrant counts and rates"))

    assert node["TP"] + node["FP"] + node["FN"] + node["TN"] > 0
    # node overlap: the more sensitive criterion (paper: "high sensitivity")
    assert node["sensitivity"] >= edge["sensitivity"]
    # node overlap: low specificity (many dense noise clusters survive with
    # high node overlap)
    assert node["specificity"] <= 0.5

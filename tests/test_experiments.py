"""Tests for the per-figure experiment drivers (tiny scale, qualitative claims)."""

from __future__ import annotations

import pytest

from repro.pipeline import experiments as exp

SCALE = 0.02  # tiny but large enough for every driver to produce data


pytestmark = pytest.mark.usefixtures("fresh_bundle_cache")


class TestInfrastructure:
    def test_default_scale_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert exp.default_scale() == 0.5
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError):
            exp.default_scale()
        monkeypatch.delenv("REPRO_SCALE")
        assert exp.default_scale() > 0

    def test_get_bundle_memoised(self):
        a = exp.get_bundle("YNG", SCALE)
        b = exp.get_bundle("YNG", SCALE)
        assert a is b

    def test_ordering_labels(self):
        assert exp.ORDERING_LABELS["natural"] == "NO"
        assert exp.ORDERING_LABELS["rcm"] == "RCM"


class TestFigureDrivers:
    def test_fig04_rows_cover_all_networks(self):
        out = exp.fig04_aees_by_ordering(scale=SCALE, datasets=("YNG",))
        networks = {row["network"] for row in out["rows"]}
        assert {"ORIG", "NO", "HD", "LD", "RCM"} <= networks
        assert all("aees" in row for row in out["rows"])

    def test_fig04_ordering_means_are_similar(self):
        # H0b: orderings have limited impact on the mean enrichment
        out = exp.fig04_aees_by_ordering(scale=SCALE, datasets=("YNG",))
        means = {k: v for k, v in out["per_network_mean"].items() if not k.endswith("ORIG")}
        if len(means) >= 2:
            values = list(means.values())
            assert max(values) - min(values) < 4.0

    def test_fig05_points_within_unit_square(self):
        out = exp.fig05_overlap_scatter(scale=SCALE, datasets=("CRE",))
        data = out["datasets"]["CRE"]
        for p in data["overlap_points"] + data["new_cluster_points"]:
            assert 0.0 <= p["node_overlap"] <= 1.0
            assert 0.0 <= p["edge_overlap"] <= 1.0
        assert data["overlap_points"], "chordal filtering must retain overlapping clusters"

    def test_fig06_fig07_point_structure(self):
        node = exp.fig06_node_overlap_vs_aees(scale=SCALE, datasets=("CRE",))
        edge = exp.fig07_edge_overlap_vs_aees(scale=SCALE, datasets=("CRE",))
        assert node["overlap_attr"] == "node_overlap"
        assert edge["overlap_attr"] == "edge_overlap"
        assert len(node["points"]) == len(edge["points"])
        assert all(0.0 <= p["overlap"] <= 1.0 for p in node["points"])

    def test_fig08_sensitivity_specificity_shape(self):
        out = exp.fig08_sensitivity_specificity(scale=SCALE, datasets=("CRE",))
        node = out["node_overlap"]
        edge = out["edge_overlap"]
        for block in (node, edge):
            assert block["TP"] + block["FP"] + block["FN"] + block["TN"] > 0
            assert 0.0 <= block["sensitivity"] <= 1.0
            assert 0.0 <= block["specificity"] <= 1.0
        # Paper, Figure 8: node-overlap matching is the more sensitive criterion.
        assert node["sensitivity"] >= edge["sensitivity"]

    def test_fig09_improvement_case_study(self):
        out = exp.fig09_cluster_refinement(scale=SCALE, dataset="CRE", ordering="high_degree")
        best = out["best_improvement"]
        assert best is not None
        assert best["filtered_aees"] >= best["original_aees"]
        assert 0.0 <= best["node_overlap"] <= 1.0

    def test_fig10_scalability_shape(self):
        out = exp.fig10_scalability(scale=SCALE, processor_counts=(1, 2, 4, 8))
        for size in ("small", "large"):
            series = out["series"][size]
            # the random walk is never slower than the chordal filters
            for p in out["processor_counts"]:
                assert series["random_walk"][p] <= series["chordal_nocomm"][p] + 1e-9
                # on tiny inputs with almost no border edges the two chordal
                # variants cost the same to within bookkeeping noise
                assert series["chordal_nocomm"][p] <= series["chordal_comm"][p] * 1.02 + 1e-3
            # the communication-free filter scales: more processors, less time
            assert series["chordal_nocomm"][8] <= series["chordal_nocomm"][1]

    def test_fig11_parallel_consistency(self):
        out = exp.fig11_parallel_consistency(scale=SCALE, processor_counts=(1, 8))
        assert set(out["overlap_points"]) == {1, 8}
        assert "ORIG" in out["top_clusters"]
        # parallelism removes edges but must not wipe out the high-AEES clusters
        assert out["edges_kept_8P"] <= out["edges_kept_1P"]
        if out["top_clusters"]["1P"]:
            assert out["top_clusters"]["8P"], "64P-analogue should keep relevant clusters"

    def test_random_walk_control_claim(self):
        out = exp.random_walk_control(scale=SCALE, datasets=("CRE",), n_partitions=4)
        row = out["rows"][0]
        assert row["random_walk_clusters"] <= row["chordal_clusters"] // 4
        assert row["random_walk_edges"] < row["chordal_edges"]

    def test_border_edge_study(self):
        out = exp.border_edge_study(
            scale=SCALE, dataset="CRE", processor_counts=(2, 4), partition_methods=("block", "hash")
        )
        assert len(out["rows"]) == 4
        for row in out["rows"]:
            assert row["nocomm_duplicates"] <= row["border_edges"]
            assert row["border_edges"] >= 0

"""Tests for quasi-chordal analysis and the ablation drivers."""

from __future__ import annotations

import pytest

from repro.core import apply_filter, chordality_deficit, long_cycle_census, quasi_chordal_report
from repro.graph import complete_graph, cycle_graph, partition_graph, path_graph
from repro.pipeline.ablation import (
    hub_retention_study,
    mcode_threshold_sweep,
    partitioner_ablation,
    quasi_chordality_study,
)

SCALE = 0.02


class TestChordalityDeficit:
    def test_chordal_graphs_have_zero_deficit(self):
        assert chordality_deficit(complete_graph(5)) == 0
        assert chordality_deficit(path_graph(6)) == 0

    def test_cycle_deficit_positive(self):
        assert chordality_deficit(cycle_graph(6)) > 0

    def test_long_cycle_census(self):
        census = long_cycle_census(cycle_graph(7))
        assert census == {7: 1}
        assert long_cycle_census(complete_graph(5)) == {}


class TestQuasiChordalReport:
    def test_sequential_result_is_chordal(self, cre_bundle):
        result = apply_filter(cre_bundle.network, method="chordal", n_partitions=1)
        report = quasi_chordal_report(result)
        assert report.is_chordal
        assert report.chordality_deficit == 0
        assert report.n_long_cycles == 0
        assert report.max_cycle_length == 3

    def test_parallel_result_partitions_stay_chordal(self, cre_bundle):
        result = apply_filter(
            cre_bundle.network, method="chordal", ordering="natural", n_partitions=8
        )
        partition = partition_graph(cre_bundle.network, 8, method="block")
        report = quasi_chordal_report(result, partition)
        # only border edges can break chordality, so every partition-induced
        # subgraph of the filtered network must itself be chordal
        assert report.partitions_chordal == 8
        assert report.n_border_edges == result.border_pairs.shape[0]
        d = report.as_dict()
        assert d["n_partitions"] == 8

    def test_deficit_reported_when_not_chordal(self, cre_bundle):
        result = apply_filter(
            cre_bundle.network, method="chordal", ordering="natural", n_partitions=8
        )
        report = quasi_chordal_report(result)
        if not report.is_chordal:
            assert report.chordality_deficit > 0


pytestmark = pytest.mark.usefixtures("fresh_bundle_cache")


class TestAblationDrivers:
    def test_mcode_threshold_sweep_monotone(self):
        out = mcode_threshold_sweep(scale=SCALE, dataset="CRE", thresholds=(2.0, 3.0, 4.0))
        rows = out["rows"]
        assert len(rows) == 3
        counts = [r["filtered_clusters"] for r in rows]
        assert counts == sorted(counts, reverse=True)  # stricter threshold, fewer clusters

    def test_partitioner_ablation_rows(self):
        out = partitioner_ablation(scale=SCALE, dataset="CRE", n_partitions=4, methods=("block", "bfs"))
        assert len(out["rows"]) == 2
        for row in out["rows"]:
            assert row["duplicates"] <= row["border_edges"]
            assert row["edges_kept"] > 0
        bfs_row = next(r for r in out["rows"] if r["partitioner"] == "bfs")
        block_row = next(r for r in out["rows"] if r["partitioner"] == "block")
        assert bfs_row["border_edges"] <= block_row["border_edges"]

    def test_hub_retention_study(self):
        out = hub_retention_study(scale=SCALE, dataset="CRE", k=10, n_partitions=4, measures=("degree",))
        assert len(out["rows"]) == 2
        for row in out["rows"]:
            assert 0.0 <= row["hub_retention"] <= 1.0
            assert -1.0 <= row["rank_correlation"] <= 1.0
        chordal = next(r for r in out["rows"] if r["filter"] == "chordal")
        walk = next(r for r in out["rows"] if r["filter"] == "random_walk")
        assert chordal["hub_retention"] >= walk["hub_retention"] - 0.3

    def test_quasi_chordality_study(self):
        out = quasi_chordality_study(scale=SCALE, dataset="CRE", processor_counts=(2, 4))
        rows = out["rows"]
        sequential = rows[0]
        assert sequential["variant"] == "sequential"
        assert sequential["is_chordal"] is True
        for row in rows[1:]:
            assert row["duplicate_border_edges"] <= row["border_edges"]
            if row["variant"].startswith("nocomm"):
                assert row["partitions_chordal"] == row["n_partitions"]
        # the repair pass deletes border edges, so it can only keep fewer or the
        # same number of accepted border edges.  (The paper notes that deleting
        # edges can expose *new* cycles, so the long-cycle count itself is not
        # monotone — we only check the edge-set containment here.)
        for p in (2, 4):
            raw = next(r for r in rows if r["variant"] == "nocomm" and r["processors"] == p)
            rep = next(r for r in rows if r["variant"] == "nocomm+repair" and r["processors"] == p)
            assert rep["accepted_border_edges"] <= raw["accepted_border_edges"]

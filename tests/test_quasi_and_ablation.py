"""Tests for quasi-chordal analysis and the ablation drivers."""

from __future__ import annotations

import pytest

from repro.core import apply_filter, chordality_deficit, long_cycle_census, quasi_chordal_report
from repro.graph import complete_graph, cycle_graph, partition_graph, path_graph
from repro.pipeline import ablation
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


#: Settings the ablations fix, each with a value a caller might try.
FIXED_SETTINGS = [
    (mcode_threshold_sweep, "dataset", "UNT"),
    (mcode_threshold_sweep, "thresholds", (3.0,)),
    (mcode_threshold_sweep, "ordering", "rcm"),
    (partitioner_ablation, "dataset", "UNT"),
    (partitioner_ablation, "methods", ("block",)),
    (partitioner_ablation, "ordering", "rcm"),
    (hub_retention_study, "dataset", "UNT"),
    (hub_retention_study, "k", 5),
    (hub_retention_study, "measures", ("degree",)),
    (hub_retention_study, "seed", 3),
    (quasi_chordality_study, "dataset", "UNT"),
]


@pytest.mark.parametrize(
    "study, keyword, value",
    FIXED_SETTINGS,
    ids=[f"{study.__name__}-{keyword}" for study, keyword, _ in FIXED_SETTINGS],
)
def test_ablation_setting_is_not_settable(study, keyword, value):
    with pytest.raises(TypeError, match=keyword):
        study(SCALE, **{keyword: value})


class TestAblationDrivers:
    def test_mcode_threshold_sweep_monotone(self, paper_output):
        out = paper_output("mcode_threshold_sweep")
        rows = out["rows"]
        assert [r["min_score"] for r in rows] == list(ablation.MCODE_THRESHOLDS)
        counts = [r["filtered_clusters"] for r in rows]
        assert counts == sorted(counts, reverse=True)  # stricter threshold, fewer clusters

    def test_partitioner_ablation_rows(self, paper_output):
        out = paper_output("partitioner_ablation")
        assert [r["partitioner"] for r in out["rows"]] == list(ablation.PARTITIONERS)
        for row in out["rows"]:
            assert row["duplicates"] <= row["border_edges"]
            assert row["edges_kept"] > 0
        bfs_row = next(r for r in out["rows"] if r["partitioner"] == "bfs")
        block_row = next(r for r in out["rows"] if r["partitioner"] == "block")
        assert bfs_row["border_edges"] <= block_row["border_edges"]

    def test_hub_retention_study(self, paper_output):
        out = paper_output("hub_retention_study")
        assert len(out["rows"]) == 2 * len(ablation.HUB_MEASURES)
        for row in out["rows"]:
            assert 0.0 <= row["hub_retention"] <= 1.0
            assert -1.0 <= row["rank_correlation"] <= 1.0
        for measure in ablation.HUB_MEASURES:
            rows = {r["filter"]: r for r in out["rows"] if r["measure"] == measure}
            assert rows["chordal"]["hub_retention"] >= rows["random_walk"]["hub_retention"] - 0.3

    def test_quasi_chordality_study(self, paper_output):
        out = paper_output("quasi_chordality_study")
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
        for p in (2, 8, 32):
            raw = next(r for r in rows if r["variant"] == "nocomm" and r["processors"] == p)
            rep = next(r for r in rows if r["variant"] == "nocomm+repair" and r["processors"] == p)
            assert rep["accepted_border_edges"] <= raw["accepted_border_edges"]

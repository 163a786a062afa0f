"""Tests for the per-figure experiment drivers (tiny scale, qualitative claims).

Every driver runs its paper configuration; the behaviour tests and the
digest pin read the same outputs (the ``paper_output`` fixture).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.clustering.evaluation import EvaluationThresholds
from repro.pipeline import ablation
from repro.pipeline import experiments as exp
from repro.pipeline.batch import DRIVERS, _jsonify

SCALE = 0.02  # tiny but large enough for every driver to produce data

#: sha256 of ``json.dumps(_jsonify(output), sort_keys=True)`` for every
#: figure driver and ablation in its paper configuration at scale 0.02.
DRIVER_DIGESTS = {
    "fig04": "754942f621d6ddd51dd139ce6bc887f6c9d992fa87bc1b7ba8005e1b8a51c399",
    "fig05": "d26daa0f7cff3bd1e9a0a2ed82018418153eed72e512989889e1cdd9e177d102",
    "fig06": "edac5c4a491cb3c551556ea2aceccd81894bbf1ab5756d8cfbd4bcd4048a6238",
    "fig07": "1f3da547c279cf5be9a0d57d40e644ff58e9a59a1b70ff8fd0b4d3f928f03172",
    "fig08": "c0a533904eca7e7f1ba629616d2fd55f4908b3deb02da492c8fccd11ac3cb549",
    "fig09": "9380229fce33a5912d8f6913488173117b558ecf2120a718abe14ee524a30016",
    "fig10": "3d8704107f0daae1636075e549df48913564385e4d16cb17c7118b523ad1cad9",
    "fig11": "758d85c1c857b60bb046104e270ee9210f7c3a1102076fde8c2261641f2e371b",
    "random-walk-control": "cd0b6c69ffdcd8946b3ec8360e9de5417220143ae21b204cb2e8157e82363e21",
    "border-edges": "b8e12e31120a1780c0738d9c3144ed74b29cfd0b19ece63df3e46d4aff3077ab",
    "mcode_threshold_sweep": "35811b7abedda5c79b8a7d58df875243e5ca165558611f946beb99b76120135c",
    "partitioner_ablation": "13b1860400eb399366c38e38cb92bce263b29b1e3768804a24924886e7adac07",
    "hub_retention_study": "e8efe0090bf79066d56361d83053b270f6f3adf5d0fba154764e6f603ec43d72",
    "quasi_chordality_study": "736c85cd2f581ff9bb79cc0b2f8c2dfe81a372b1765ab0741b71b051d254cc94",
}


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


@pytest.mark.parametrize("name", list(DRIVER_DIGESTS))
def test_paper_configuration_digest(name, paper_output):
    blob = json.dumps(_jsonify(paper_output(name)), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == DRIVER_DIGESTS[name]


def test_digests_cover_every_driver_and_ablation():
    assert set(DRIVER_DIGESTS) == set(DRIVERS) | set(ablation.__all__)


#: Settings the paper fixes, each with a value a caller might try.
FIXED_SETTINGS = [
    (exp.get_bundle, "seed", 1),
    (exp.fig04_aees_by_ordering, "datasets", ("YNG",)),
    (exp.fig05_overlap_scatter, "datasets", ("CRE",)),
    (exp.fig06_node_overlap_vs_aees, "datasets", ("CRE",)),
    (exp.fig07_edge_overlap_vs_aees, "datasets", ("CRE",)),
    (exp.fig08_sensitivity_specificity, "datasets", ("CRE",)),
    (exp.fig08_sensitivity_specificity, "thresholds", EvaluationThresholds(1.0, 0.1)),
    (exp.fig09_cluster_refinement, "dataset", "CRE"),
    (exp.fig10_scalability, "small_dataset", "MID"),
    (exp.fig10_scalability, "large_dataset", "UNT"),
    (exp.fig11_parallel_consistency, "dataset", "UNT"),
    (exp.fig11_parallel_consistency, "processor_counts", (1, 8)),
    (exp.fig11_parallel_consistency, "aees_threshold", 2.0),
    (exp.random_walk_control, "datasets", ("CRE",)),
    (exp.random_walk_control, "n_partitions", 2),
    (exp.border_edge_study, "dataset", "UNT"),
    (exp.border_edge_study, "processor_counts", (2,)),
    (exp.border_edge_study, "partition_methods", ("hash",)),
]


@pytest.mark.parametrize(
    "driver, keyword, value",
    FIXED_SETTINGS,
    ids=[f"{driver.__name__}-{keyword}" for driver, keyword, _ in FIXED_SETTINGS],
)
def test_paper_configuration_is_not_settable(driver, keyword, value):
    """The paper fixes these; a driver refuses them rather than run another
    configuration."""
    args = ("CRE", SCALE) if driver is exp.get_bundle else (SCALE,)
    with pytest.raises(TypeError, match=keyword):
        driver(*args, **{keyword: value})


class TestFigureDrivers:
    def test_fig04_rows_cover_all_networks(self, paper_output):
        out = paper_output("fig04")
        assert {row["dataset"] for row in out["rows"]} == {"YNG", "MID"}
        networks = {row["network"] for row in out["rows"]}
        assert {"ORIG", "NO", "HD", "LD", "RCM"} <= networks
        assert all("aees" in row for row in out["rows"])

    def test_fig04_ordering_means_are_similar(self, paper_output):
        # H0b: orderings have limited impact on the mean enrichment
        out = paper_output("fig04")
        for dataset in ("YNG", "MID"):
            means = [
                v for k, v in out["per_network_mean"].items()
                if k.startswith(f"{dataset}/") and not k.endswith("ORIG")
            ]
            if len(means) >= 2:
                assert max(means) - min(means) < 4.0

    def test_fig05_points_within_unit_square(self, paper_output):
        out = paper_output("fig05")
        assert list(out["datasets"]) == ["UNT", "CRE"]
        for data in out["datasets"].values():
            for p in data["overlap_points"] + data["new_cluster_points"]:
                assert 0.0 <= p["node_overlap"] <= 1.0
                assert 0.0 <= p["edge_overlap"] <= 1.0
        assert out["datasets"]["CRE"]["overlap_points"], "chordal filtering must retain overlapping clusters"

    def test_fig06_fig07_point_structure(self, paper_output):
        node = paper_output("fig06")
        edge = paper_output("fig07")
        assert node["overlap_attr"] == "node_overlap"
        assert edge["overlap_attr"] == "edge_overlap"
        assert len(node["points"]) == len(edge["points"])
        assert all(0.0 <= p["overlap"] <= 1.0 for p in node["points"])
        assert {p["dataset"] for p in node["points"]} <= {"YNG", "MID", "UNT", "CRE"}

    def test_fig08_sensitivity_specificity_shape(self, paper_output):
        out = paper_output("fig08")
        node = out["node_overlap"]
        edge = out["edge_overlap"]
        for block in (node, edge):
            assert block["TP"] + block["FP"] + block["FN"] + block["TN"] > 0
            assert 0.0 <= block["sensitivity"] <= 1.0
            assert 0.0 <= block["specificity"] <= 1.0
        # Paper, Figure 8: node-overlap matching is the more sensitive criterion.
        assert node["sensitivity"] >= edge["sensitivity"]
        # The reported cut-offs are the ones the quadrants were classified with.
        thresholds = exp.get_bundle("CRE", SCALE).thresholds
        assert out["thresholds"] == {
            "aees": thresholds.aees_threshold,
            "overlap": thresholds.overlap_threshold,
        }

    def test_fig09_improvement_case_study(self, paper_output):
        best = paper_output("fig09")["best_improvement"]
        assert best is not None
        assert best["dataset"] == "UNT"
        assert best["filtered_aees"] >= best["original_aees"]
        assert 0.0 <= best["node_overlap"] <= 1.0

    def test_fig10_scalability_shape(self, paper_output):
        out = paper_output("fig10")
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

    def test_fig10_processor_counts_are_the_callers(self):
        out = exp.fig10_scalability(scale=SCALE, processor_counts=(1, 2))
        assert out["processor_counts"] == [1, 2]
        assert set(out["series"]["small"]["chordal_comm"]) == {1, 2}

    def test_fig11_parallel_consistency(self, paper_output):
        out = paper_output("fig11")
        assert set(out["overlap_points"]) == {1, 64}
        assert "ORIG" in out["top_clusters"]
        # parallelism removes edges but must not wipe out the high-AEES clusters
        assert out["edges_kept_64P"] <= out["edges_kept_1P"]
        if out["top_clusters"]["1P"]:
            assert out["top_clusters"]["64P"], "64P should keep relevant clusters"
        cut = exp.get_bundle("CRE", SCALE).thresholds.aees_threshold
        for rows in out["top_clusters"].values():
            assert all(row["aees"] >= cut for row in rows)

    def test_random_walk_control_claim(self, paper_output):
        rows = paper_output("random-walk-control")["rows"]
        assert [row["dataset"] for row in rows] == ["YNG", "MID", "UNT", "CRE"]
        cre = rows[-1]
        assert cre["random_walk_clusters"] <= cre["chordal_clusters"] // 4
        for row in rows:
            assert row["random_walk_edges"] < row["chordal_edges"]

    def test_border_edge_study(self, paper_output):
        out = paper_output("border-edges")
        assert len(out["rows"]) == 3 * 6
        for row in out["rows"]:
            assert row["nocomm_duplicates"] <= row["border_edges"]
            assert row["border_edges"] >= 0

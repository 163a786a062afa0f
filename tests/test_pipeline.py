"""Integration-level tests for the experiment pipeline (small scale)."""

from __future__ import annotations

import inspect

import pytest

from repro.clustering.evaluation import EvaluationThresholds
from repro.clustering.mcode import MIN_SIZE, mcode_clusters
from repro.core import is_chordal
from repro.incremental import replay_reference
from repro.ontology.generator import make_study_ontology
from repro.pipeline import analyze_filter, format_table, prepare_dataset
from repro.pipeline import report
from repro.pipeline.report import format_kv, format_series
from repro.pipeline.workflow import derive_dataset, prepare_primary


class TestPrepareDataset:
    def test_bundle_contents(self, cre_bundle):
        assert cre_bundle.name == "CRE"
        assert cre_bundle.n_vertices > 0
        assert cre_bundle.n_edges > 0
        assert cre_bundle.original_clusters, "the original network should contain MCODE clusters"

    def test_scorer_separates_modules_from_noise(self, cre_bundle):
        aees = cre_bundle.scorer.cluster_aees(cre_bundle.original_clusters)
        assert max(aees) >= 3.0
        assert min(aees) < 3.0



@pytest.fixture(scope="module", params=["YNG", "MID", "UNT", "CRE"])
def tiny_bundle(request):
    return prepare_dataset(request.param, scale=0.02)


class TestPaperDefaults:
    """``prepare_dataset`` takes no threshold or ontology-shape knob: it builds
    every dataset at the paper's cut-off, ontology shape and thresholds."""

    def test_bundle_uses_the_paper_defaults(self, tiny_bundle):
        study = tiny_bundle.study
        assert tiny_bundle.thresholds == EvaluationThresholds()
        assert tiny_bundle.network is study.network()
        assert tiny_bundle.network_csr is study.network_csr()
        dag, fresh = tiny_bundle.scorer.dag, make_study_ontology(study)[0]
        assert (len(dag), dag.max_depth()) == (len(fresh), fresh.max_depth())

    def test_prepare_is_primary_then_derive(self, tiny_bundle):
        study, dag, annotations = prepare_primary(tiny_bundle.name, scale=0.02)
        derived = derive_dataset(study, dag, annotations, scale=0.02)
        assert sorted(map(str, derived.network.iter_edges())) == sorted(
            map(str, tiny_bundle.network.iter_edges())
        )
        assert [sorted(map(str, c.members)) for c in derived.original_clusters] == [
            sorted(map(str, c.members)) for c in tiny_bundle.original_clusters
        ]
        assert len(dag) == len(tiny_bundle.scorer.dag)

    @pytest.mark.parametrize(
        "call, parameters",
        [
            ("prepare_dataset", ["name", "scale", "seed"]),
            ("prepare_primary", ["name", "scale", "seed"]),
            ("derive_dataset", ["study", "dag", "annotations", "scale"]),
            ("replay_reference", ["name", "scale", "seed", "specs"]),
        ],
    )
    def test_signature_has_no_threshold_or_shape_knob(self, call, parameters):
        # A threshold the incremental paths could not carry is refused up
        # front instead of being dropped after the first update.
        assert list(inspect.signature(globals()[call]).parameters) == parameters

    def test_original_clusters_use_the_paper_cut(self, tiny_bundle):
        # MCODE runs at the paper's score cut of 3.0 and drops complexes
        # under MIN_SIZE vertices; no bundle path can pass another value.
        clusters = tiny_bundle.original_clusters
        assert all(c.score >= 3.0 and c.n_vertices >= MIN_SIZE for c in clusters)
        assert all(c.source == f"{tiny_bundle.name}/original" for c in clusters)
        expected = mcode_clusters(tiny_bundle.network_csr, 3.0)
        assert [(c.members, c.score) for c in clusters] == [(c.members, c.score) for c in expected]


class TestAnalyzeFilter:
    def test_chordal_analysis_structure(self, cre_bundle):
        analysis = analyze_filter(cre_bundle, method="chordal", ordering="natural", n_partitions=1)
        assert is_chordal(analysis.result.graph)
        assert analysis.label.startswith("CRE/chordal")
        assert analysis.label.endswith("/natural/1P")
        assert len(analysis.matches) == len(analysis.clusters)
        assert len(analysis.scored_by_node) == len(analysis.matches)
        counts = analysis.node_counts
        assert counts.tp + counts.fp + counts.fn + counts.tn == len(analysis.matches)
        summary = analysis.summary()
        assert summary["clusters"] == len(analysis.clusters)

    def test_chordal_preserves_most_high_scoring_clusters(self, cre_bundle):
        analysis = analyze_filter(cre_bundle, method="chordal", ordering="high_degree", n_partitions=1)
        aees = cre_bundle.scorer.cluster_aees(cre_bundle.original_clusters)
        original_relevant = [a for a in aees if a >= 3.0]
        filtered_relevant = analysis.high_scoring_clusters()
        assert len(filtered_relevant) >= max(1, len(original_relevant) // 2)

    def test_high_scoring_bar_is_the_bundle_threshold(self, cre_bundle):
        analysis = analyze_filter(cre_bundle, method="chordal", ordering="natural", n_partitions=1)
        bar = cre_bundle.thresholds.aees_threshold
        expected = [c for c, a in zip(analysis.clusters, analysis.cluster_aees()) if a >= bar]
        assert analysis.high_scoring_clusters() == expected
        with pytest.raises(TypeError):
            analysis.high_scoring_clusters(threshold=0.0)

    def test_random_walk_finds_far_fewer_clusters(self, cre_bundle):
        chordal = analyze_filter(cre_bundle, method="chordal", ordering="natural", n_partitions=4)
        walk = analyze_filter(cre_bundle, method="random_walk", ordering=None, n_partitions=4, seed=0)
        assert len(walk.clusters) <= len(chordal.clusters) // 4

    def test_parallel_partitions_recorded(self, cre_bundle):
        analysis = analyze_filter(cre_bundle, method="chordal", ordering="natural", n_partitions=8)
        assert analysis.result.n_partitions == 8
        assert analysis.result.method == "chordal_nocomm"

    def test_cluster_aees_alignment(self, cre_bundle):
        analysis = analyze_filter(cre_bundle, method="chordal", ordering="rcm", n_partitions=1)
        assert len(analysis.cluster_aees()) == len(analysis.clusters)

    def test_payload_matches_reference_scorer(self, cre_bundle):
        # The seed scoring body, called by name on each filtered cluster's
        # subgraph, must reproduce every AEES the batched engine's analysis
        # classifies (and so the payload's quadrants) bit for bit.
        from repro.ontology import reference_score_cluster
        from repro.pipeline.workflow import analysis_payload

        analysis = analyze_filter(cre_bundle, method="chordal", ordering="natural")
        dag, table = cre_bundle.scorer.dag, cre_bundle.scorer.annotations
        expected = [
            float(reference_score_cluster(dag, table, c.subgraph).aees).hex()
            for c in analysis.clusters
        ]
        assert analysis_payload(analysis)["aees_hex"] == expected
        assert [float(s.aees).hex() for s in analysis.scored_by_edge] == expected


class TestReportFormatting:
    def test_format_table_alignment_and_missing_cells(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 10}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "2.346" in text
        assert "-" in text.splitlines()[-1]

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_series(self):
        text = format_series({"fast": {1: 0.5, 2: 0.25}, "slow": {1: 1.0}}, x_label="P")
        assert "P" in text and "fast" in text and "slow" in text

    def test_format_kv(self):
        text = format_kv({"vertices": 10, "density": 0.12345})
        assert "vertices" in text and "0.123" in text

    @pytest.mark.parametrize(
        "render, data",
        [
            (report._fmt, 0.5),
            (format_table, [{"a": 0.5}]),
            (format_series, {"s": {1: 0.5}}),
            (format_kv, {"a": 0.5}),
        ],
        ids=["_fmt", "format_table", "format_series", "format_kv"],
    )
    def test_float_digits_not_settable(self, render, data):
        """Every float renders with ``FLOAT_DIGITS`` places, series included."""
        with pytest.raises(TypeError, match="float_digits"):
            render(data, float_digits=4)
        assert f"{0.5:.{report.FLOAT_DIGITS}f}" in render(data)

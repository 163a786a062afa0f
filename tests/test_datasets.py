"""Unit tests for the synthetic study generator and canned dataset configs."""

from __future__ import annotations

import pytest

from repro.expression import DATASET_CONFIGS, dataset_names, generate_study, make_study
from repro.expression.datasets import StudyConfig, default_scale


class TestConfigs:
    def test_four_paper_datasets_defined(self):
        assert dataset_names() == ["YNG", "MID", "UNT", "CRE"]
        assert set(DATASET_CONFIGS) == {"YNG", "MID", "UNT", "CRE"}

    def test_paper_scale_sizes(self):
        assert DATASET_CONFIGS["YNG"].n_genes == pytest.approx(5400, rel=0.1)
        assert DATASET_CONFIGS["CRE"].n_genes == pytest.approx(27900, rel=0.1)

    def test_yng_mid_have_weaker_signal_than_unt_cre(self):
        assert DATASET_CONFIGS["YNG"].biological_signal < DATASET_CONFIGS["CRE"].biological_signal
        assert DATASET_CONFIGS["MID"].biological_signal < DATASET_CONFIGS["UNT"].biological_signal

    def test_scaled_shrinks_counts(self):
        cfg = DATASET_CONFIGS["CRE"].scaled(0.1)
        assert cfg.n_genes < DATASET_CONFIGS["CRE"].n_genes
        assert cfg.n_modules >= 2
        assert cfg.module_size == DATASET_CONFIGS["CRE"].module_size

    def test_scaled_rejects_non_positive(self):
        with pytest.raises(ValueError):
            DATASET_CONFIGS["CRE"].scaled(0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_scaled_rejects_non_finite(self, scale):
        with pytest.raises(ValueError, match="positive and finite"):
            DATASET_CONFIGS["CRE"].scaled(scale)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_default_scale_rejects_non_finite_env(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ValueError, match="REPRO_SCALE must be positive and finite"):
            default_scale()

    def test_background_genes_required(self, tiny_study_config):
        required = tiny_study_config.background_genes_required()
        assert required == 8 * 5 + 4 * 6 + 10


class TestGeneration:
    def test_matrix_dimensions(self, tiny_study, tiny_study_config):
        assert tiny_study.matrix.n_samples == tiny_study_config.n_samples
        assert tiny_study.matrix.n_genes >= tiny_study_config.n_genes - 5

    def test_module_membership_recorded(self, tiny_study, tiny_study_config):
        assert len(tiny_study.modules) == tiny_study_config.n_modules
        for members in tiny_study.modules.values():
            assert len(members) == tiny_study_config.module_size
        module_of = tiny_study.module_of()
        assert len(module_of) == tiny_study_config.n_modules * tiny_study_config.module_size

    def test_reproducible_for_seed(self, tiny_study_config):
        a = generate_study(tiny_study_config, seed=5)
        b = generate_study(tiny_study_config, seed=5)
        assert a.matrix.genes == b.matrix.genes
        assert (a.matrix.values == b.matrix.values).all()

    def test_different_seeds_differ(self, tiny_study_config):
        a = generate_study(tiny_study_config, seed=5)
        b = generate_study(tiny_study_config, seed=6)
        assert (a.matrix.values != b.matrix.values).any()

    def test_gene_order_is_shuffled(self, tiny_study):
        # the chip order must not list whole modules contiguously
        genes = tiny_study.matrix.genes
        first_module = next(iter(tiny_study.modules.values()))
        positions = sorted(genes.index(g) for g in first_module)
        assert positions[-1] - positions[0] > len(first_module)

    def test_network_modules_are_dense(self, tiny_study, tiny_network):
        for members in tiny_study.modules.values():
            sub = tiny_network.subgraph([m for m in members if tiny_network.has_vertex(m)])
            assert sub.density() > 0.5

    def test_network_contains_noise_edges(self, tiny_study, tiny_network):
        module_genes = set(tiny_study.module_of())
        noise_edges = [
            (u, v)
            for u, v in tiny_network.iter_edges()
            if u not in module_genes or v not in module_genes
        ]
        assert len(noise_edges) > 0

    def test_true_module_edges(self, tiny_study, tiny_study_config):
        edges = tiny_study.true_module_edges()
        per_module = tiny_study_config.module_size * (tiny_study_config.module_size - 1) // 2
        assert len(edges) == tiny_study_config.n_modules * per_module

    def test_network_cached(self, tiny_study):
        assert tiny_study.network() is tiny_study.network()

    def test_network_rebuild_not_cached_for_custom_threshold(self, tiny_study):
        from repro.expression import CorrelationThreshold

        custom = tiny_study.network(threshold=CorrelationThreshold(min_abs_rho=0.99))
        assert custom.n_edges <= tiny_study.network().n_edges


class TestMakeStudy:
    def test_make_study_known_names(self):
        study = make_study("YNG", scale=0.02)
        assert study.name == "YNG"
        assert study.matrix.n_genes > 0

    def test_make_study_unknown_name(self):
        with pytest.raises(KeyError):
            make_study("HUMAN")

    def test_make_study_default_seed_is_stable(self):
        a = make_study("MID", scale=0.02)
        b = make_study("MID", scale=0.02)
        assert a.matrix.genes == b.matrix.genes

    def test_cre_larger_than_yng(self):
        yng = make_study("YNG", scale=0.03)
        cre = make_study("CRE", scale=0.03)
        assert cre.matrix.n_genes > yng.matrix.n_genes

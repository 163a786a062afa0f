"""Unit tests for the synthetic study generator and canned dataset configs."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.expression import DATASET_CONFIGS, dataset_names, generate_study, make_study
from repro.expression.datasets import StudyConfig, default_scale


def density(g) -> float:
    """``2m / (n (n - 1))`` of a label graph; 0.0 below two vertices."""
    n = g.n_vertices
    return 2.0 * g.n_edges / (n * (n - 1)) if n > 1 else 0.0


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

    def test_background_genes_required_counts_two_genes_per_short_chain(self):
        # Chains shorter than 2 are built with 2 genes; the count must agree.
        config = StudyConfig(
            name="SHORT", n_genes=10, n_samples=10, n_modules=1, module_size=3,
            module_tightness=0.2, n_noise_chains=5, noise_chain_length=1,
            n_noise_clumps=0, noise_clump_size=4, clump_tightness=0.2,
            n_module_attachments=0,
        )
        study = generate_study(config, seed=2)
        assert config.background_genes_required() == 10
        assert study.matrix.n_genes == 3 + config.background_genes_required() == 13
        assert len(study.noise_edges_hint) == 5


class TestGeneration:
    def test_matrix_dimensions(self, tiny_study, tiny_study_config):
        assert tiny_study.matrix.n_samples == tiny_study_config.n_samples
        assert tiny_study.matrix.n_genes >= tiny_study_config.n_genes - 5

    def test_module_membership_recorded(self, tiny_study, tiny_study_config):
        assert len(tiny_study.modules) == tiny_study_config.n_modules
        for members in tiny_study.modules.values():
            assert len(members) == tiny_study_config.module_size
        module_genes = {g for members in tiny_study.modules.values() for g in members}
        assert len(module_genes) == tiny_study_config.n_modules * tiny_study_config.module_size

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
            assert density(sub) > 0.5

    def test_network_contains_noise_edges(self, tiny_study, tiny_network):
        module_genes = {g for members in tiny_study.modules.values() for g in members}
        noise_edges = [
            (u, v)
            for u, v in tiny_network.iter_edges()
            if u not in module_genes or v not in module_genes
        ]
        assert len(noise_edges) > 0

    def test_network_cached(self, tiny_study):
        assert tiny_study.network() is tiny_study.network()

    def test_network_options_refused(self, tiny_study):
        # One network per study: the paper's criterion, connected genes only.
        from repro.expression import CorrelationThreshold

        for view in (tiny_study.network, tiny_study.network_csr):
            with pytest.raises(TypeError):
                view(threshold=CorrelationThreshold(min_abs_rho=0.99))
            with pytest.raises(TypeError):
                view(include_all_genes=True)

    def test_one_correlation_pass(self, tiny_study_config, monkeypatch):
        from repro.expression import datasets

        calls = []
        real = datasets.correlated_pair_arrays
        monkeypatch.setattr(
            datasets,
            "correlated_pair_arrays",
            lambda *a, **k: calls.append((a, k)) or real(*a, **k),
        )
        study = generate_study(tiny_study_config, seed=11)
        net = study.network()
        csr = study.network_csr()
        assert study.network_csr() is csr and study.network() is net
        assert net.n_edges == csr.n_edges > 0
        assert calls == [((study.matrix,), {})]


def study_digest(study) -> str:
    """sha256 over the matrix bytes and shape, gene order, modules, clumps and edge hints."""
    h = hashlib.sha256()
    h.update(repr(study.matrix.values.shape).encode())
    h.update(study.matrix.values.tobytes())
    h.update(
        json.dumps(
            [study.matrix.genes, study.modules, study.noise_clumps, study.noise_edges_hint]
        ).encode()
    )
    return h.hexdigest()


#: Digests of the chain-by-chain generator (one chained row at a time), which
#: the batched generator must reproduce bit for bit.  The chained rows'
#: projection is a BLAS dot, so the value bits assume the OpenBLAS that
#: numpy's wheels bundle, as the ``perfbench/oracle.json`` digests do.
STUDY_DIGESTS = {
    "YNG@0.05": "3f4db0e57b38d08a154c0302d984c95aaf9aeb6b6ca832abc5c7380385aff5e3",
    "YNG@0.15": "a9524feb06e858e79f5b6351b92de5ec99cfeec834e54ed99536d65500797abe",
    "YNG@1.0": "7ef38f780c8dbd24362bcc910d86beec0d037a2aab45c51b9368a6e9479225b3",
    "MID@0.05": "96837061de99a154f87560b30f61fd40daaa7e2b9b6ee8801881c81e4588d844",
    "MID@0.15": "9a675f8ba162aeac015eedb732405272043c0bc622137219241f599d1d7480f1",
    "MID@1.0": "723dfb9045e47cba70b29c45b6b7690103554ae423e1340a61be1a2c18de57f3",
    "UNT@0.05": "d5725ba6d5576a337513f3bfbc536ca3a9f0d60a16972813520f85e16cb81950",
    "UNT@0.15": "3898a7ebd3d60cff1f2bb2aab6142adf327a4fa4722d60834fdbfa5dbfc94dd9",
    "UNT@1.0": "80061ae9f432dfbc03b6511a6a6a870071cb9253b411fc2b86395e7c2aa0c4d0",
    "CRE@0.05": "c574f7442cab6e6e6aebb48e64b6a43a2f9c077d8f7cc1d997e4b2d8cfa9c108",
    "CRE@0.15": "4b6cbf83226e4605349f5fa44ef63d6937a664e0d9390a5e4568119f794c743d",
    "CRE@1.0": "553f7a73020732d5fe2bbf38f8c241e9a614af97bbc437a5f97855f9084d8e76",
}

TINY_DIGESTS = {
    11: "9b0b7e8bb34b01163112e03109284f04132588a97ddccceb9a679587f3f28c03",
    5: "f2d4647daa23ac86a47bde3e6d2fca3fbab552097c4f6900eaf74fb2c5a7ae73",
}


class TestGenerationDigests:
    @pytest.mark.parametrize("key", sorted(STUDY_DIGESTS))
    def test_dataset_study_digest(self, key):
        name, scale = key.split("@")
        assert study_digest(make_study(name, scale=float(scale))) == STUDY_DIGESTS[key]

    @pytest.mark.parametrize("seed", sorted(TINY_DIGESTS))
    def test_tiny_study_digest(self, tiny_study_config, seed):
        assert study_digest(generate_study(tiny_study_config, seed=seed)) == TINY_DIGESTS[seed]


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

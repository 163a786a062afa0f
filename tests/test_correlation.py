"""Unit tests for Pearson correlation networks."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.expression import (
    DATASET_CONFIGS,
    CorrelationThreshold,
    ExpressionMatrix,
    build_correlation_network,
    correlated_pair_arrays,
    correlation_p_value,
    critical_correlation,
    csr_from_pair_arrays,
)
from repro.expression.correlation import _t_tail, correlated_pair_arrays_delta
from repro.graph import CSRGraph


def toy_matrix() -> ExpressionMatrix:
    rng = np.random.default_rng(0)
    base = rng.standard_normal(12)
    values = np.vstack(
        [
            base,
            base + rng.standard_normal(12) * 0.05,   # tightly correlated with base
            -base,                                     # perfectly anti-correlated
            rng.standard_normal(12),                   # independent
            np.ones(12) * 3.0,                         # flat (zero variance)
        ]
    )
    return ExpressionMatrix(
        values=values,
        genes=["a", "a_twin", "anti", "noise", "flat"],
        samples=[f"s{i}" for i in range(12)],
    )


def named_pairs(m: ExpressionMatrix, **kwargs) -> list[tuple[str, str, float]]:
    """The admitted pairs of :func:`correlated_pair_arrays` with gene names."""
    ii, jj, rho = correlated_pair_arrays(m, **kwargs)
    return [(m.genes[i], m.genes[j], r) for i, j, r in zip(ii.tolist(), jj.tolist(), rho.tolist())]


def pair_csr(m: ExpressionMatrix, include_all_genes: bool = True, block_size: int = 2048):
    ii, jj, _ = correlated_pair_arrays(m, block_size=block_size)
    return csr_from_pair_arrays(m, ii, jj, include_all_genes=include_all_genes)


class TestPValues:
    def test_perfect_correlation_p_zero(self):
        assert correlation_p_value(1.0, 10) == 0.0

    def test_zero_correlation_p_one(self):
        assert correlation_p_value(0.0, 10) == pytest.approx(1.0)

    def test_monotone_in_rho(self):
        assert correlation_p_value(0.9, 10) < correlation_p_value(0.5, 10)

    def test_monotone_in_samples(self):
        assert correlation_p_value(0.7, 30) < correlation_p_value(0.7, 5)

    def test_too_few_samples(self):
        assert correlation_p_value(0.99, 2) == 1.0

    def test_critical_correlation_consistency(self):
        r = critical_correlation(0.0005, 10)
        assert correlation_p_value(r, 10) == pytest.approx(0.0005, rel=1e-3)
        assert correlation_p_value(r - 0.02, 10) > 0.0005

    def test_critical_correlation_validation(self):
        # p_value is checked before the too-few-samples shortcut.
        for n_samples in (10, 2):
            for p_value in (0.0, 1.0, -0.5, 1.5):
                with pytest.raises(ValueError):
                    critical_correlation(p_value, n_samples)
        assert critical_correlation(0.01, 2) == 1.0


# Every pair with a nonzero correlation passes: no magnitude bar, a p-value bar
# just under 1, negatives kept.
LOOSE = CorrelationThreshold(min_abs_rho=0.0, max_p_value=1.0 - 1e-9, include_negative=True)


def pair_rho(m: ExpressionMatrix, threshold: CorrelationThreshold = LOOSE) -> dict:
    """``{(gene_a, gene_b): rho}`` of the pairs :func:`correlated_pair_arrays` admits."""
    return {(a, b): r for a, b, r in named_pairs(m, threshold=threshold)}


def two_gene_matrix(rho: float, n_samples: int) -> ExpressionMatrix:
    """Two genes over ``n_samples`` samples whose Pearson correlation is ``rho``."""
    rng = np.random.default_rng(7)
    x = rng.standard_normal(n_samples)
    x -= x.mean()
    x /= np.linalg.norm(x)
    z = rng.standard_normal(n_samples)
    z -= z.mean()
    z -= (z @ x) * x
    z /= np.linalg.norm(z)
    y = rho * x + np.sqrt(max(0.0, 1.0 - rho * rho)) * z
    return ExpressionMatrix(
        values=np.vstack([x, y]),
        genes=["x", "y"],
        samples=[f"s{i}" for i in range(n_samples)],
    )


def admitted(threshold: CorrelationThreshold, rho: float, n_samples: int) -> bool:
    """Whether the tiled kernel admits a pair correlated at ``rho``."""
    ii, _, got = correlated_pair_arrays(two_gene_matrix(rho, n_samples), threshold=threshold)
    if len(ii):
        assert got[0] == pytest.approx(rho, abs=1e-12)
    return bool(len(ii))


class TestPairCorrelations:
    def test_every_unordered_pair_listed_once(self):
        m = toy_matrix()
        ii, jj, _ = correlated_pair_arrays(m, threshold=LOOSE)
        pairs = list(zip(ii.tolist(), jj.tolist()))
        assert len(pairs) == len(set(pairs))
        # the flat gene (row 4) has no pair; the other four form all 6 pairs
        assert set(pairs) == {(i, j) for i in range(4) for j in range(i + 1, 4)}

    def test_known_relationships(self):
        rho = pair_rho(toy_matrix())
        assert rho["a", "a_twin"] > 0.95
        assert rho["a", "anti"] == pytest.approx(-1.0, abs=1e-9)
        assert abs(rho["a", "noise"]) < 0.9

    def test_flat_gene_is_never_admitted(self):
        rho = pair_rho(toy_matrix())
        assert not any("flat" in pair for pair in rho)

    def test_matches_numpy_corrcoef(self):
        m = toy_matrix()
        ref = np.corrcoef(m.values[:4])
        for (a, b), r in pair_rho(m).items():
            assert r == pytest.approx(ref[m.genes.index(a), m.genes.index(b)], abs=1e-9)

    def test_rho_stays_in_unit_interval(self):
        base = np.random.default_rng(4).standard_normal(12)
        m = ExpressionMatrix(
            values=np.vstack([base, 2.0 * base + 1.0, -3.0 * base]),
            genes=["a", "b", "c"],
            samples=[f"s{i}" for i in range(12)],
        )
        _, _, rho = correlated_pair_arrays(m, threshold=LOOSE)
        assert len(rho) == 3
        assert np.all(np.abs(rho) <= 1.0)


class TestThreshold:
    def test_effective_cutoff_binds_to_p_value_for_tiny_samples(self):
        t = CorrelationThreshold(min_abs_rho=0.5, max_p_value=0.0005)
        assert t.effective_cutoff(6) > 0.5

    def test_default_admits_only_high_positive(self):
        t = CorrelationThreshold()
        assert admitted(t, 0.99, 12)
        assert not admitted(t, 0.7, 12)
        assert not admitted(t, -0.99, 12)

    def test_include_negative(self):
        t = CorrelationThreshold(include_negative=True)
        assert admitted(t, -0.99, 12)
        assert admitted(t, 0.99, 12)

    def test_admits_positive_branch(self):
        """Without ``include_negative`` the signed ρ is tested."""
        t = CorrelationThreshold(min_abs_rho=0.9, max_p_value=0.01)
        assert admitted(t, 0.95, 30)
        assert not admitted(t, 0.5, 30)          # below the magnitude bar
        assert not admitted(t, -0.95, 30)        # strong negatives are not edges
        # with no magnitude bar the p-value alone decides, still on the signed ρ
        zero_bar = CorrelationThreshold(min_abs_rho=0.0, max_p_value=0.01)
        assert admitted(zero_bar, 0.6, 30)
        assert not admitted(zero_bar, 0.01, 30)  # p-value fails
        assert not admitted(zero_bar, -0.95, 30)

    def test_admits_negative_branch(self):
        """With ``include_negative`` the magnitude |ρ| is tested."""
        t = CorrelationThreshold(min_abs_rho=0.9, max_p_value=0.01, include_negative=True)
        assert admitted(t, 0.95, 30)
        assert admitted(t, -0.95, 30)
        assert not admitted(t, -0.5, 30)         # |rho| below the bar
        assert not admitted(t, 0.5, 30)

    def test_admits_p_value_vetoes_both_branches(self):
        # with 4 samples even rho = 0.93 is insignificant at p <= 0.0005
        for include_negative in (False, True):
            t = CorrelationThreshold(
                min_abs_rho=0.9, max_p_value=0.0005, include_negative=include_negative
            )
            assert not admitted(t, 0.93, 4)
            assert not admitted(t, -0.93, 4)

class TestCutoffFold:
    """``effective_cutoff`` decides the paper's case without scipy; the value must not move."""

    RHOS = (-0.5, 0.0, 0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.97, 0.99, 1.0, 1.5)
    P_VALUES = (1e-9, 1e-6, 1e-5, 1e-4, 0.0005, 0.001, 0.01, 0.05, 0.5)

    @staticmethod
    def fallback(rho: float, p_value: float, n_samples: int) -> float:
        return max(rho, critical_correlation(p_value, n_samples))

    def test_grid_matches_critical_correlation(self):
        for n in list(range(2, 40)) + [50, 64, 99, 100, 150, 299]:
            for rho in self.RHOS:
                for p_value in self.P_VALUES:
                    t = CorrelationThreshold(min_abs_rho=rho, max_p_value=p_value)
                    assert t.effective_cutoff(n) == self.fallback(rho, p_value, n), (n, rho, p_value)

    def test_values_near_the_margin(self):
        # ρ at and one ulp around the critical correlation (where the p-value
        # binds) and around the fold's own limit, p(ρ) = max_p_value / 2.
        for n in (3, 4, 5, 6, 8, 10, 12, 31, 100):
            for p_value in (1e-6, 0.0005, 0.01, 0.2):
                for edge in (critical_correlation(p_value, n), critical_correlation(p_value / 2, n)):
                    for rho in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)):
                        t = CorrelationThreshold(min_abs_rho=rho, max_p_value=p_value)
                        assert t.effective_cutoff(n) == self.fallback(rho, p_value, n), (n, rho)

    def test_non_integer_and_nan_inputs_fall_back(self):
        assert CorrelationThreshold().effective_cutoff(10.0) == self.fallback(0.95, 0.0005, 10)
        nan_rho = CorrelationThreshold(min_abs_rho=float("nan")).effective_cutoff(10)
        assert math.isnan(nan_rho)

    def test_invalid_max_p_value_still_raises(self):
        for n_samples in (10, 2):
            for p_value in (0.0, 1.0, -0.5, 1.5, float("nan")):
                t = CorrelationThreshold(max_p_value=p_value)
                with pytest.raises(ValueError, match=r"p_value must lie in \(0, 1\)"):
                    t.effective_cutoff(n_samples)

    def test_closed_form_tail_matches_p_value(self):
        for n in range(3, 200):
            for rho in (0.05, 0.3, 0.6, 0.9, 0.95, 0.99, 0.9999):
                assert _t_tail(rho, n - 2) == pytest.approx(
                    correlation_p_value(rho, n), rel=1e-9, abs=1e-14
                ), (n, rho)

    def test_paper_case_is_folded(self):
        # 10 samples: p(0.95) ≈ 2.6e-5, far below 0.0005.
        assert _t_tail(0.95, 8) == pytest.approx(2.5737e-5, rel=1e-4)
        assert CorrelationThreshold().effective_cutoff(10) == 0.95


class TestNetworkConstruction:
    def test_correlated_pairs_found(self):
        pairs = named_pairs(toy_matrix())
        names = {(a, b) for a, b, _ in pairs}
        assert ("a", "a_twin") in names
        assert all(rho >= 0.95 for _, _, rho in pairs)

    def test_negative_pairs_excluded_by_default(self):
        pairs = named_pairs(toy_matrix())
        assert ("a", "anti") not in {(a, b) for a, b, _ in pairs}

    def test_negative_pairs_included_when_requested(self):
        pairs = named_pairs(toy_matrix(), threshold=CorrelationThreshold(include_negative=True))
        assert ("a", "anti") in {(a, b) for a, b, _ in pairs}

    def test_blocked_computation_matches_unblocked(self):
        m = toy_matrix()
        small_blocks = named_pairs(m, block_size=2)
        one_block = named_pairs(m, block_size=1024)
        assert sorted(small_blocks) == sorted(one_block)

    def test_build_network_vertices_and_attributes(self):
        net = build_correlation_network(toy_matrix())
        assert net.n_vertices == 5  # include_all_genes default
        assert net.has_edge("a", "a_twin")
        assert net.edge_attr("a", "a_twin", "rho") >= 0.95

    def test_build_network_without_isolated_genes(self):
        net = build_correlation_network(toy_matrix(), include_all_genes=False)
        assert not net.has_vertex("flat")

    def test_single_sample_matrix_yields_empty_network(self):
        m = ExpressionMatrix(np.zeros((3, 1)), genes=["a", "b", "c"], samples=["s"])
        assert build_correlation_network(m).n_edges == 0

    def test_pair_arrays_are_canonical_index_pairs(self):
        ii, jj, _ = correlated_pair_arrays(toy_matrix())
        assert ii.dtype == np.int64 and jj.dtype == np.int64
        assert (ii < jj).all()

    def test_csr_matches_graph_conversion(self):
        m = toy_matrix()
        for include_all, block_size in [(True, 2048), (False, 2048), (True, 2), (False, 2)]:
            net = build_correlation_network(
                m, include_all_genes=include_all, block_size=block_size
            )
            csr = pair_csr(m, include_all_genes=include_all, block_size=block_size)
            assert csr == CSRGraph.from_graph(net), (include_all, block_size)

    def test_empty_matrix_yields_empty_csr(self):
        m = ExpressionMatrix(np.zeros((3, 1)), genes=["a", "b", "c"], samples=["s"])
        assert pair_csr(m).n_edges == 0
        assert pair_csr(m, include_all_genes=False).n_vertices == 0


def _stats_p_value(rho: float, n_samples: int) -> float:
    """The scalar p-value through ``scipy.stats.t.sf``, same clamp and transform."""
    from scipy import stats

    r = max(-1.0, min(1.0, float(rho)))
    if abs(r) >= 1.0:
        return 0.0
    t = abs(r) * math.sqrt((n_samples - 2) / (1.0 - r * r))
    return float(2.0 * stats.t.sf(t, df=n_samples - 2))


def _stats_critical_correlation(p_value: float, n_samples: int) -> float:
    """The critical |ρ| through ``scipy.stats.t.isf``."""
    from scipy import stats

    t_crit = stats.t.isf(p_value / 2.0, df=n_samples - 2)
    return float(t_crit / math.sqrt(n_samples - 2 + t_crit ** 2))


class TestScipyStatsIdentity:
    """The ``scipy.special`` p-values equal ``scipy.stats.t`` bit for bit.

    The critical correlation decides the network's edge set, so the
    comparison is exact, never approximate.
    """

    RHOS = np.concatenate(
        [
            np.linspace(-1.0, 1.0, 201),
            [0.0, -0.0, 1.0, -1.0, np.nan, 0.9999999, -0.9999999],
            0.95 + np.linspace(-1e-3, 1e-3, 41),
            -0.95 + np.linspace(-1e-3, 1e-3, 41),
        ]
    )

    def test_scalar_p_values(self):
        for n in (3, 4, 5, 10, 12, 30, 100, 200):
            for rho in self.RHOS:
                assert correlation_p_value(rho, n) == _stats_p_value(rho, n), (rho, n)

    def test_critical_correlation(self):
        for n in range(3, 201):
            for p_value in (1e-6, 0.0005, 0.001, 0.01, 0.05, 0.5, 0.999):
                expected = _stats_critical_correlation(p_value, n)
                assert critical_correlation(p_value, n) == expected, (p_value, n)

    def test_effective_cutoff_for_dataset_sample_counts(self):
        threshold = CorrelationThreshold()
        for config in DATASET_CONFIGS.values():
            n = config.n_samples
            expected = max(0.95, _stats_critical_correlation(0.0005, n))
            assert threshold.effective_cutoff(n) == expected, config.name


# ----------------------------------------------------------------------
# tile extraction pinned to the historical dense-mask tile body
# ----------------------------------------------------------------------
def _dense_mask_pair_arrays(matrix, threshold, block_size):
    """Test-local oracle: the dense-mask tile body the tile scan replaced.

    Every tile is divided by ``n_samples`` in full, thresholded into a full
    boolean mask (``np.triu`` on the diagonal tile) and read off with a 2-D
    ``nonzero``.
    """
    std = matrix.standardized()
    n_samples = std.n_samples
    cutoff = threshold.effective_cutoff(n_samples)
    values = std.values
    n = matrix.n_genes
    out_i, out_j, out_r = [], [], []
    for bi in range(0, n, block_size):
        rows = values[bi : bi + block_size]
        for bj in range(bi, n, block_size):
            cols = values[bj : bj + block_size]
            corr = rows @ cols.T / n_samples
            if threshold.include_negative:
                mask = np.abs(corr) >= cutoff
            else:
                mask = corr >= cutoff
            if bi == bj:
                mask = np.triu(mask, k=1)
            ii, jj = np.nonzero(mask)
            out_i.append(ii + bi)
            out_j.append(jj + bj)
            out_r.append(np.clip(corr[ii, jj], -1.0, 1.0))
    return np.concatenate(out_i), np.concatenate(out_j), np.concatenate(out_r)


def module_matrix(n_genes: int = 301, n_samples: int = 8, seed: int = 5) -> ExpressionMatrix:
    """Planted co-expression modules (some anti-correlated) plus flat rows."""
    rng = np.random.default_rng(seed)
    bases = rng.standard_normal((6, n_samples))
    module = rng.integers(0, 6, size=n_genes)
    sign = np.where(rng.random(n_genes) < 0.3, -1.0, 1.0)
    noise = rng.choice([0.02, 0.2, 1.0], size=(n_genes, 1))
    values = sign[:, None] * bases[module] + noise * rng.standard_normal((n_genes, n_samples))
    values[::37] = 2.5  # zero-variance rows
    return ExpressionMatrix(
        values=values,
        genes=[f"g{i}" for i in range(n_genes)],
        samples=[f"s{i}" for i in range(n_samples)],
    )


TILE_THRESHOLDS = [
    CorrelationThreshold(),
    CorrelationThreshold(include_negative=True),
    CorrelationThreshold(min_abs_rho=0.3, max_p_value=0.99),
    CorrelationThreshold(min_abs_rho=0.3, max_p_value=0.99, include_negative=True),
]


class TestTileExtraction:
    @pytest.mark.parametrize("block_size", [7, 64, 2048])
    @pytest.mark.parametrize("threshold", TILE_THRESHOLDS, ids=repr)
    def test_matches_dense_mask_tile_body(self, block_size, threshold):
        m = module_matrix()
        got = correlated_pair_arrays(m, threshold=threshold, block_size=block_size)
        want = _dense_mask_pair_arrays(m, threshold, block_size)
        assert want[0].size > 0
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()

    def test_low_cutoff_admits_many_pairs(self):
        m = module_matrix()
        threshold = TILE_THRESHOLDS[-1]
        ii, _, _ = correlated_pair_arrays(m, threshold=threshold, block_size=64)
        n_live = m.n_genes - len(range(0, m.n_genes, 37))
        assert ii.size > n_live * (n_live - 1) // 4

    def test_zero_variance_rows_never_admitted(self):
        m = module_matrix()
        flat = set(range(0, m.n_genes, 37))
        ii, jj, _ = correlated_pair_arrays(m, threshold=TILE_THRESHOLDS[-1], block_size=7)
        assert flat.isdisjoint(ii.tolist()) and flat.isdisjoint(jj.tolist())

    @pytest.mark.parametrize("block_size", [7, 2048])
    def test_cutoff_boundary_is_inclusive(self, block_size):
        m = module_matrix(n_genes=60)
        for include_negative in (False, True):
            low = CorrelationThreshold(0.3, 0.99, include_negative)
            ii, jj, rho = correlated_pair_arrays(m, threshold=low, block_size=block_size)
            interior = np.flatnonzero(np.abs(rho) < 1.0)
            for k in interior[:: max(1, interior.size // 40)].tolist():
                value = abs(float(rho[k]))
                at = CorrelationThreshold(value, 0.99, include_negative)
                assert at.effective_cutoff(m.n_samples) == value
                pair = (int(ii[k]), int(jj[k]))
                admitted = correlated_pair_arrays(m, threshold=at, block_size=block_size)
                assert pair in set(zip(admitted[0].tolist(), admitted[1].tolist()))
                above = CorrelationThreshold(
                    float(np.nextafter(value, 2.0)), 0.99, include_negative
                )
                rejected = correlated_pair_arrays(m, threshold=above, block_size=block_size)
                assert pair not in set(zip(rejected[0].tolist(), rejected[1].tolist()))

    @pytest.mark.parametrize("block_size", [0, -4])
    def test_non_positive_block_size_rejected(self, block_size):
        m = toy_matrix()
        with pytest.raises(ValueError, match="block_size must be a positive integer"):
            correlated_pair_arrays(m, block_size=block_size)
        cached = correlated_pair_arrays(m)
        with pytest.raises(ValueError, match="block_size must be a positive integer"):
            correlated_pair_arrays_delta(m, m.n_genes, cached, block_size=block_size)

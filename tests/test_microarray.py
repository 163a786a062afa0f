"""Unit tests for the ExpressionMatrix container."""

from __future__ import annotations

import numpy as np
import pytest

from repro.expression import ExpressionMatrix


def make_matrix() -> ExpressionMatrix:
    values = np.array(
        [
            [1.0, 2.0, 3.0, 4.0],
            [2.0, 4.0, 6.0, 8.0],
            [5.0, 5.0, 5.0, 5.0],
        ]
    )
    return ExpressionMatrix(
        values=values,
        genes=["g1", "g2", "flat"],
        samples=["s1", "s2", "s3", "s4"],
        conditions=["A", "A", "B", "B"],
    )


class TestValidation:
    def test_shape_mismatch_genes(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(np.zeros((2, 3)), genes=["a"], samples=["s1", "s2", "s3"])

    def test_shape_mismatch_samples(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(np.zeros((2, 3)), genes=["a", "b"], samples=["s1"])

    def test_conditions_length(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(
                np.zeros((1, 2)), genes=["a"], samples=["s1", "s2"], conditions=["A"]
            )

    def test_duplicate_genes_rejected(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(np.zeros((2, 2)), genes=["a", "a"], samples=["s1", "s2"])

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            ExpressionMatrix(np.zeros(3), genes=["a"], samples=["s1"])


class TestAccess:
    def test_dimensions(self):
        m = make_matrix()
        assert m.n_genes == 3
        assert m.n_samples == 4


class TestSubsetting:
    def test_subset_genes(self):
        m = make_matrix().subset_genes(["flat", "g1"])
        assert m.genes == ["flat", "g1"]
        assert np.allclose(m.values[0], 5.0)

    def test_subset_genes_unknown_raises(self):
        with pytest.raises(KeyError):
            make_matrix().subset_genes(["missing"])

    def test_subset_samples(self):
        m = make_matrix().subset_samples(["s3", "s4"])
        assert m.samples == ["s3", "s4"]
        assert m.conditions == ["B", "B"]


class TestTransforms:
    def test_standardized_zero_mean_unit_variance(self):
        std = make_matrix().standardized()
        assert np.allclose(std.values[:2].mean(axis=1), 0.0)
        assert np.allclose(std.values[:2].std(axis=1), 1.0)

    def test_standardized_flat_gene_is_zero(self):
        std = make_matrix().standardized()
        assert np.allclose(std.values[2], 0.0)


class TestStandardizedMemo:
    def test_standardized_is_memoised(self):
        m = make_matrix()
        assert m.standardized() is m.standardized()

    def test_standardized_matrix_memoises_itself(self):
        std = make_matrix().standardized()
        assert std.standardized() is std.standardized()

    def test_correlation_passes_reuse_the_memo(self, monkeypatch):
        from repro.expression.correlation import correlated_pair_arrays

        m = make_matrix()
        calls = {"n": 0}
        original = ExpressionMatrix.standardized

        def counting(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(ExpressionMatrix, "standardized", counting)
        correlated_pair_arrays(m)
        correlated_pair_arrays(m, block_size=3)
        correlated_pair_arrays(m)
        # Three passes, three cache lookups, one actual standardisation: the
        # counting wrapper fires per call but the body's compute path only
        # runs while the memo is empty.
        assert calls["n"] == 3
        assert m._standardized is not None
        assert m.standardized() is m._standardized

    def test_memo_not_shared_across_transforms(self):
        m = make_matrix()
        first = m.standardized()
        sub = m.subset_genes(["g1", "g2"])
        assert sub.standardized() is not first
        assert sub.standardized().n_genes == 2


class TestStandardizedImmutability:
    def test_values_frozen_once_memo_exists(self):
        m = make_matrix()
        m.values[0, 0] = 99.0  # mutable before the memo fills
        std = m.standardized()
        with pytest.raises(ValueError):
            m.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            std.values[0, 0] = 1.0

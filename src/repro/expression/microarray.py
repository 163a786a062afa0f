"""Expression-matrix container.

A microarray experiment yields a genes × samples matrix of expression levels.
:class:`ExpressionMatrix` wraps a NumPy array together with gene and sample
labels and provides the handful of operations the pipeline needs: subsetting
by genes/samples, per-gene standardisation and structural-sharing appends.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["ExpressionMatrix"]


@dataclass
class ExpressionMatrix:
    """A genes × samples expression matrix with labelled axes.

    Attributes
    ----------
    values:
        float array of shape ``(n_genes, n_samples)``.
    genes:
        gene identifiers, one per row.
    samples:
        sample identifiers, one per column.
    conditions:
        optional per-sample condition labels (e.g. ``"YNG"`` / ``"MID"``).
    """

    values: np.ndarray
    genes: list[str]
    samples: list[str]
    conditions: Optional[list[str]] = None
    metadata: dict = field(default_factory=dict)
    #: Memoised result of :meth:`standardized` (invalidation-free: matrices
    #: are treated as immutable after construction — every transform returns
    #: a new instance).  Excluded from comparison/repr.
    _standardized: Optional["ExpressionMatrix"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("expression values must be a 2-D array (genes × samples)")
        if self.values.shape[0] != len(self.genes):
            raise ValueError(
                f"{self.values.shape[0]} rows but {len(self.genes)} gene labels"
            )
        if self.values.shape[1] != len(self.samples):
            raise ValueError(
                f"{self.values.shape[1]} columns but {len(self.samples)} sample labels"
            )
        if self.conditions is not None and len(self.conditions) != len(self.samples):
            raise ValueError("conditions must have one entry per sample")
        if len(set(self.genes)) != len(self.genes):
            raise ValueError("gene labels must be unique")

    # ------------------------------------------------------------------
    @property
    def n_genes(self) -> int:
        return self.values.shape[0]

    @property
    def n_samples(self) -> int:
        return self.values.shape[1]

    # ------------------------------------------------------------------
    # subsetting
    # ------------------------------------------------------------------
    def subset_genes(self, genes: Iterable[str]) -> "ExpressionMatrix":
        """Return a new matrix restricted to ``genes`` (in the given order)."""
        genes = list(genes)
        index = {g: i for i, g in enumerate(self.genes)}
        missing = [g for g in genes if g not in index]
        if missing:
            raise KeyError(f"genes not in matrix: {missing[:5]}{'…' if len(missing) > 5 else ''}")
        rows = [index[g] for g in genes]
        return ExpressionMatrix(
            values=self.values[rows, :].copy(),
            genes=genes,
            samples=list(self.samples),
            conditions=list(self.conditions) if self.conditions else None,
            metadata=dict(self.metadata),
        )

    def subset_samples(self, samples: Sequence[str]) -> "ExpressionMatrix":
        """Return a new matrix restricted to ``samples`` (in the given order)."""
        index = {s: i for i, s in enumerate(self.samples)}
        missing = [s for s in samples if s not in index]
        if missing:
            raise KeyError(f"samples not in matrix: {missing}")
        cols = [index[s] for s in samples]
        return ExpressionMatrix(
            values=self.values[:, cols].copy(),
            genes=list(self.genes),
            samples=list(samples),
            conditions=[self.conditions[c] for c in cols] if self.conditions else None,
            metadata=dict(self.metadata),
        )

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def standardized(self) -> "ExpressionMatrix":
        """Return a copy with each gene scaled to zero mean and unit variance.

        Genes with zero variance are left at zero (they carry no correlation
        signal and would otherwise produce NaNs).

        The result is memoised on the matrix: every correlation pass starts
        by standardising
        (:func:`~repro.expression.correlation.correlated_pair_arrays`), and a
        study is correlated repeatedly — both network views, every
        threshold.  Matrices are treated as immutable after construction, so
        the cache needs no invalidation; a standardised matrix memoises
        itself (standardising is idempotent up to the zero-variance rule
        already applied).
        """
        cached = self._standardized
        if cached is not None:
            return cached
        centered = self.values - self.values.mean(axis=1, keepdims=True)
        std = self.values.std(axis=1, keepdims=True)
        safe = np.where(std > 0, std, 1.0)
        scaled = np.where(std > 0, centered / safe, 0.0)
        result = ExpressionMatrix(
            values=scaled,
            genes=list(self.genes),
            samples=list(self.samples),
            conditions=list(self.conditions) if self.conditions else None,
            metadata=dict(self.metadata),
        )
        # Enforce the immutability the memo relies on: once a standardised
        # view exists, in-place writes to either value array raise instead of
        # silently serving stale correlations.
        self.values.setflags(write=False)
        result.values.setflags(write=False)
        self._standardized = result
        return result

    # ------------------------------------------------------------------
    # structural-sharing appends (the incremental-recompute substrate)
    # ------------------------------------------------------------------
    def with_samples(
        self,
        values: np.ndarray,
        samples: Sequence[str],
        conditions: Optional[Sequence[str]] = None,
    ) -> "ExpressionMatrix":
        """Return a new matrix with extra sample columns appended.

        ``values`` must be ``(n_genes, k)``.  The standardised memo cannot be
        carried over — appending a sample changes every gene's mean and
        standard deviation — so the returned matrix standardises from cold on
        first use (see :mod:`repro.incremental` for the delta-vs-rebuild
        decision table).
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[0] != self.n_genes:
            raise ValueError(
                f"sample append must be (n_genes, k), got {values.shape} for {self.n_genes} genes"
            )
        samples = list(samples)
        if values.shape[1] != len(samples):
            raise ValueError(f"{values.shape[1]} new columns but {len(samples)} sample labels")
        if conditions is None and self.conditions is not None:
            conditions = [self.conditions[-1]] * len(samples)
        merged_conditions = (
            list(self.conditions) + list(conditions) if self.conditions else None
        )
        return ExpressionMatrix(
            values=np.concatenate([self.values, values], axis=1),
            genes=list(self.genes),
            samples=list(self.samples) + samples,
            conditions=merged_conditions,
            metadata=dict(self.metadata),
        )

    def with_genes(self, values: np.ndarray, genes: Sequence[str]) -> "ExpressionMatrix":
        """Return a new matrix with extra gene rows appended.

        ``values`` must be ``(k, n_samples)``.  Standardisation is per-row, so
        when this matrix already carries a standardised memo the appended
        matrix's memo is **delta-extended**: only the new rows are
        standardised and stacked under the cached rows — bit-identical to a
        cold :meth:`standardized` pass over the whole appended matrix.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.n_samples:
            raise ValueError(
                f"gene append must be (k, n_samples), got {values.shape} for {self.n_samples} samples"
            )
        genes = list(genes)
        if values.shape[0] != len(genes):
            raise ValueError(f"{values.shape[0]} new rows but {len(genes)} gene labels")
        result = ExpressionMatrix(
            values=np.concatenate([self.values, values], axis=0),
            genes=list(self.genes) + genes,
            samples=list(self.samples),
            conditions=list(self.conditions) if self.conditions else None,
            metadata=dict(self.metadata),
        )
        cached = self._standardized
        if cached is not None:
            centered = values - values.mean(axis=1, keepdims=True)
            std = values.std(axis=1, keepdims=True)
            safe = np.where(std > 0, std, 1.0)
            scaled = np.where(std > 0, centered / safe, 0.0)
            memo = ExpressionMatrix(
                values=np.concatenate([cached.values, scaled], axis=0),
                genes=list(result.genes),
                samples=list(result.samples),
                conditions=list(result.conditions) if result.conditions else None,
                metadata=dict(result.metadata),
            )
            result.values.setflags(write=False)
            memo.values.setflags(write=False)
            result._standardized = memo
        return result

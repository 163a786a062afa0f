"""Expression preprocessing: differential-expression screening.

The paper notes that GSE5078 was reduced to "about 33% of the total possible
genes", keeping only genes differentially expressed between the young (YNG)
and middle-aged (MID) conditions, and observes that this preprocessing *hurts*
the ability to find biologically significant clusters.  This module implements
the screening so that the effect can be reproduced and ablated:

* :func:`differential_expression_scores` — per-gene Welch t-statistics between
  two condition matrices,
* :func:`select_differential_genes` — the top fraction of genes by |t|,
* :func:`apply_differential_filter` — restrict both matrices to that gene set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .microarray import ExpressionMatrix

__all__ = [
    "DifferentialExpressionResult",
    "differential_expression_scores",
    "select_differential_genes",
    "apply_differential_filter",
]


@dataclass
class DifferentialExpressionResult:
    """Per-gene differential expression statistics between two conditions."""

    genes: list[str]
    t_statistics: np.ndarray
    p_values: np.ndarray

    def top_fraction(self, fraction: float) -> list[str]:
        """Return the ``fraction`` of genes with the largest |t| (original order)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must lie in (0, 1]")
        k = max(1, int(round(fraction * len(self.genes))))
        order = np.argsort(-np.abs(self.t_statistics))[:k]
        keep = sorted(order)
        return [self.genes[i] for i in keep]


def differential_expression_scores(
    condition_a: ExpressionMatrix, condition_b: ExpressionMatrix
) -> DifferentialExpressionResult:
    """Welch t-test per gene between two condition matrices.

    Both matrices must cover the same genes in the same order.  Genes with
    zero variance in both conditions get a t-statistic of 0 and p-value 1.
    """
    if condition_a.genes != condition_b.genes:
        raise ValueError("both conditions must cover the same genes in the same order")
    from scipy import stats

    a = condition_a.values
    b = condition_b.values
    with np.errstate(divide="ignore", invalid="ignore"):
        t, p = stats.ttest_ind(a, b, axis=1, equal_var=False)
    t = np.nan_to_num(np.asarray(t, dtype=float), nan=0.0)
    p = np.nan_to_num(np.asarray(p, dtype=float), nan=1.0)
    return DifferentialExpressionResult(genes=list(condition_a.genes), t_statistics=t, p_values=p)


def select_differential_genes(
    condition_a: ExpressionMatrix,
    condition_b: ExpressionMatrix,
    fraction: float = 0.33,
) -> list[str]:
    """Return the most differentially expressed ``fraction`` of genes.

    The default fraction matches the paper's "about 33%" description of the
    GSE5078 preprocessing.
    """
    return differential_expression_scores(condition_a, condition_b).top_fraction(fraction)


def apply_differential_filter(
    condition_a: ExpressionMatrix,
    condition_b: ExpressionMatrix,
    fraction: float = 0.33,
) -> tuple[ExpressionMatrix, ExpressionMatrix, list[str]]:
    """Restrict both condition matrices to the differentially expressed genes.

    Returns ``(filtered_a, filtered_b, kept_genes)``.
    """
    kept = select_differential_genes(condition_a, condition_b, fraction)
    return condition_a.subset_genes(kept), condition_b.subset_genes(kept), kept

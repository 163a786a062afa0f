"""Pearson correlation networks from expression data.

The paper builds its networks by computing the Pearson correlation coefficient
between every pair of genes, keeping pairs with a significant p-value
(p ≤ 0.0005) and a very high correlation (0.95 ≤ |ρ| ≤ 1.0), and connecting the
corresponding genes with an edge.  This module implements that construction:

* :func:`correlated_pair_arrays` — every admitted gene pair as index
  arrays, computed in correlation tiles so that tens of thousands of genes
  never need an n² intermediate in one piece,
* :class:`CorrelationThreshold` — the admission criterion, with the
  p-value test folded into one ρ cut-off (:func:`critical_correlation`;
  :func:`correlation_p_value` is the scalar test it is checked against),
* :func:`csr_from_pair_arrays` — the thresholded network as a
  :class:`~repro.graph.csr.CSRGraph`, which the pipeline analyses;
  :func:`build_correlation_network` materialises the label
  :class:`repro.graph.Graph` whose edges carry the correlation as a ``rho``
  attribute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.graph import Graph
from .microarray import ExpressionMatrix

__all__ = [
    "correlation_p_value",
    "critical_correlation",
    "CorrelationThreshold",
    "build_correlation_network",
    "correlated_pair_arrays",
    "correlated_pair_arrays_delta",
    "network_from_pair_arrays",
    "csr_from_pair_arrays",
]


def correlation_p_value(rho: float, n_samples: int) -> float:
    """Two-sided p-value of a Pearson correlation under the null ρ = 0.

    Uses the exact ``t = ρ·sqrt((n−2)/(1−ρ²))`` transform with ``n−2`` degrees
    of freedom.  ``|ρ| = 1`` returns 0.0 and fewer than three samples returns
    1.0 (no power).  The survival function is ``scipy.special.stdtr(df, -t)``,
    the ufunc ``scipy.stats.t.sf`` evaluates, so the value is bit-identical
    without importing ``scipy.stats``.
    """
    if n_samples < 3:
        return 1.0
    r = max(-1.0, min(1.0, float(rho)))
    if abs(r) >= 1.0:
        return 0.0
    from scipy.special import stdtr

    t = abs(r) * math.sqrt((n_samples - 2) / (1.0 - r * r))
    return float(2.0 * stdtr(n_samples - 2, -t))


def critical_correlation(p_value: float, n_samples: int) -> float:
    """Return the smallest |ρ| whose two-sided p-value is ≤ ``p_value``.

    Convenient for turning the paper's p ≤ 0.0005 criterion into a correlation
    cut-off that can be combined with the explicit 0.95 threshold.  The
    critical ``t`` is ``-scipy.special.stdtrit(df, p/2)``, the ufunc
    ``scipy.stats.t.isf`` evaluates.
    """
    if not 0.0 < p_value < 1.0:
        raise ValueError("p_value must lie in (0, 1)")
    if n_samples < 3:
        return 1.0
    from scipy.special import stdtrit

    t_crit = -stdtrit(n_samples - 2, p_value / 2.0)
    return float(t_crit / math.sqrt(n_samples - 2 + t_crit ** 2))


@dataclass(frozen=True)
class CorrelationThreshold:
    """The edge-admission criterion for correlation networks.

    ``min_abs_rho`` is the paper's 0.95 cut-off; ``max_p_value`` its 0.0005
    significance requirement; ``include_negative`` controls whether strong
    *negative* correlations also become edges (the paper keeps only the
    0.95 ≤ ρ ≤ 1.0 band, so the default is ``False``).
    """

    min_abs_rho: float = 0.95
    max_p_value: float = 0.0005
    include_negative: bool = False

    def effective_cutoff(self, n_samples: int) -> float:
        """Return the binding |ρ| cut-off once the p-value criterion is folded in.

        The value is ``max(min_abs_rho, critical_correlation(max_p_value,
        n_samples))``.  When the p-value at ``min_abs_rho`` itself is below
        half of ``max_p_value``, the critical correlation lies well under
        ``min_abs_rho`` and the maximum is ``min_abs_rho``; that case is
        decided with the closed-form t tail, without ``scipy``.  It is the
        paper's case: at 10 samples ρ = 0.95 has p ≈ 2.6e-5 against 5e-4.
        The factor of two (and the 1e-12, far above the series' rounding
        error) keeps the fold away from the binding case, where only
        ``critical_correlation`` gives the exact bits.
        """
        p = self.max_p_value
        r = self.min_abs_rho
        if 0.0 < p < 1.0 and n_samples >= 3 and float(n_samples).is_integer():
            if r >= 1.0:
                tail = 0.0
            elif r > 0.0:
                tail = _t_tail(r, int(n_samples) - 2)
            else:  # also NaN: no fold
                tail = 1.0
            if tail + 1e-12 <= 0.5 * p:
                return r
        return max(r, critical_correlation(p, n_samples))


def _t_tail(rho: float, df: int) -> float:
    """Two-sided p-value of a correlation ``0 < rho < 1`` with ``df`` ≥ 1 degrees of freedom.

    The integer-df series for Student's t (Abramowitz & Stegun 26.7.3–4)
    with ``θ = atan(t/√df)`` and ``t = ρ·√(df/(1−ρ²))``, so only ``math`` is
    needed.
    """
    t = rho * math.sqrt(df / (1.0 - rho * rho))
    theta = math.atan(t / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    term = total = 1.0
    if df % 2 == 0:
        for j in range(1, df // 2):
            term *= (2 * j - 1) / (2 * j) * cos2
            total += term
        return 1.0 - math.sin(theta) * total
    if df == 1:
        return 1.0 - 2.0 * theta / math.pi
    for j in range(1, (df - 1) // 2):
        term *= (2 * j) / (2 * j + 1) * cos2
        total += term
    return 1.0 - 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)


def _pair_tiles(std: ExpressionMatrix, threshold: CorrelationThreshold, block_size: int):
    """Return ``tile(bi, bj)``: the admitted pairs of one correlation tile.

    ``tile`` yields ``(ii, jj, rho)`` for the tile whose rows start at gene
    ``bi`` and columns at gene ``bj``: global indices, entries row-major,
    strict upper triangle on the diagonal tile.

    * The gemm always runs on the ``block_size`` slices, because BLAS output
      bits depend on operand shape.  It writes into one scratch buffer owned
      by this call: a paper-scale pass does not map and fault a new
      tile-sized array per tile, and concurrent calls never share it.
    * A compare of the *unscaled* product against ``bound`` picks candidates
      (``flatnonzero`` + ``divmod`` keep row-major order).  ``bound`` sits a
      relative 1e-9 (plus a subnormal's worth) below ``cutoff * n_samples``;
      a correctly rounded quotient that reaches the cut-off cannot have a
      numerator that far below it, so the candidates are a superset of the
      admitted pairs.
    * Admission is the elementwise ``raw / n_samples >= cutoff`` test (on
      ``abs`` with ``include_negative``), run on the candidates only, so the
      admitted set, its order and the ρ bits are those of a full-tile test.
    """
    values = std.values
    n_samples = std.n_samples
    cutoff = threshold.effective_cutoff(n_samples)
    include_negative = threshold.include_negative
    side = min(block_size, values.shape[0])
    buf = np.empty(side * side)
    mask = np.empty(side * side, dtype=bool)
    bound = cutoff * n_samples
    bound -= abs(bound) * 1e-9 + n_samples * np.finfo(float).tiny

    def tile(bi: int, bj: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = values[bi : bi + block_size]
        cols = values[bj : bj + block_size]
        width = cols.shape[0]
        raw = buf[: rows.shape[0] * width]
        np.matmul(rows, cols.T, out=raw.reshape(rows.shape[0], width))
        hit = mask[: raw.size]
        np.greater_equal(raw, bound, out=hit)
        if include_negative:
            hit |= raw <= -bound
        flat = np.flatnonzero(hit)
        ii, jj = np.divmod(flat, width)
        if bi == bj:
            # Diagonal tile: keep the strict upper triangle (gj > gi).
            upper = jj > ii
            flat, ii, jj = flat[upper], ii[upper], jj[upper]
        corr = raw[flat] / n_samples
        keep = (np.abs(corr) if include_negative else corr) >= cutoff
        return ii[keep] + bi, jj[keep] + bj, np.clip(corr[keep], -1.0, 1.0)

    return tile


def _check_block_size(block_size: int) -> None:
    if block_size < 1:
        raise ValueError("block_size must be a positive integer")


def correlated_pair_arrays(
    matrix: ExpressionMatrix,
    threshold: Optional[CorrelationThreshold] = None,
    block_size: int = 2048,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return every admitted gene pair as three aligned arrays ``(ii, jj, rho)``.

    ``ii``/``jj`` are ``int64`` row indices into ``matrix.genes`` with
    ``ii[k] < jj[k]``; ``rho`` the clipped correlations.  The correlation
    matrix is computed in ``block_size`` × ``block_size`` tiles of the upper
    triangle so the memory footprint stays bounded for large gene sets (the
    paper's CRE network has ~28k genes), and each tile's admitted entries are
    extracted by array ops (see :func:`_pair_tiles`) — no per-pair Python
    loop.  Pair order is *tile order*: tiles row-major, entries row-major
    within a tile.
    """
    _check_block_size(block_size)
    threshold = threshold or CorrelationThreshold()
    std = matrix.standardized()
    n = matrix.n_genes
    if std.n_samples < 2 or n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=float)
    tile = _pair_tiles(std, threshold, block_size)
    parts = [
        tile(bi, bj)
        for bi in range(0, n, block_size)
        for bj in range(bi, n, block_size)
    ]
    ii, jj, rho = (np.concatenate(p) for p in zip(*parts))
    return ii, jj, rho


def correlated_pair_arrays_delta(
    matrix: ExpressionMatrix,
    old_n_genes: int,
    cached: tuple[np.ndarray, np.ndarray, np.ndarray],
    threshold: Optional[CorrelationThreshold] = None,
    block_size: int = 2048,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tile-delta update of :func:`correlated_pair_arrays` after a gene append.

    ``cached`` is the full pair extraction of the first ``old_n_genes`` rows
    of ``matrix`` (same threshold, same ``block_size``); the rows beyond
    ``old_n_genes`` are the appended genes.  Only the tiles whose row or
    column block gained rows are recomputed — a tile is *stable* exactly when
    both its blocks were already full at ``old_n_genes``, because a partial
    block changes the gemm operand shape and BLAS does not promise the shared
    entries come out bit-identical across shapes.  Stable tiles keep their
    cached entries verbatim; recomputed tiles run through the cold pass's own
    tile body at the exact shapes the cold pass would use; the merge
    re-establishes cold *tile order* (tiles row-major, entries row-major
    within a tile), so the result is bit-identical to a cold
    :func:`correlated_pair_arrays` over the appended matrix — arrays, order
    and ρ bits.

    Requires the appended rows to standardise independently of the old rows
    (true for gene appends: standardisation is per-row); a *sample* append
    changes every standardised row and must recompute from cold.
    """
    _check_block_size(block_size)
    threshold = threshold or CorrelationThreshold()
    n = matrix.n_genes
    if not 0 <= old_n_genes <= n:
        raise ValueError(f"old_n_genes {old_n_genes} out of range for {n} genes")
    std = matrix.standardized()
    if std.n_samples < 2 or n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), np.empty(0, dtype=float)
    old_ii, old_jj, old_rho = cached
    # Stable tile ⇔ both blocks full in the old pass.
    keep = ((old_ii // block_size + 1) * block_size <= old_n_genes) & (
        (old_jj // block_size + 1) * block_size <= old_n_genes
    )
    parts = [(old_ii[keep], old_jj[keep], old_rho[keep])]
    tile = _pair_tiles(std, threshold, block_size)
    for bi in range(0, n, block_size):
        for bj in range(bi, n, block_size):
            if bi + block_size <= old_n_genes and bj + block_size <= old_n_genes:
                continue  # stable tile: cached entries reused verbatim
            parts.append(tile(bi, bj))
    ii, jj, rho = (np.concatenate(p) for p in zip(*parts))
    order = np.lexsort((jj, ii, jj // block_size, ii // block_size))
    return ii[order], jj[order], rho[order]


def _first_appearance_order(ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Vertex indices in order of first appearance in the pair list.

    Mirrors the vertex insertion order of a :class:`Graph` built by calling
    ``add_edge`` over the pairs in order (each edge introduces first its
    smaller then its larger endpoint).
    """
    seq = np.empty(ii.shape[0] * 2, dtype=np.int64)
    seq[0::2] = ii
    seq[1::2] = jj
    uniq, first = np.unique(seq, return_index=True)
    return uniq[np.argsort(first, kind="stable")]


def csr_from_pair_arrays(
    matrix: ExpressionMatrix,
    ii: np.ndarray,
    jj: np.ndarray,
    include_all_genes: bool = True,
) -> CSRGraph:
    """Build the :class:`CSRGraph` of a thresholded pair list — no ``Graph``.

    The result is bit-identical to ``CSRGraph.from_graph`` applied to the
    corresponding :func:`build_correlation_network` output: all genes in
    matrix order (or, with ``include_all_genes=False``, the connected genes
    in first-appearance order) and per-vertex neighbour rows in ascending
    gene order — ``from_edge_arrays`` sorts rows ascending regardless of
    input order, which is exactly the neighbour order tile-ordered
    ``add_edge`` calls produce, because within the upper triangle tile order
    visits each vertex's incident pairs by ascending partner index.
    """
    csr = CSRGraph.from_edge_arrays(matrix.genes, ii, jj)
    if include_all_genes:
        return csr
    return csr.induced_subgraph(_first_appearance_order(ii, jj))


def network_from_pair_arrays(
    matrix: ExpressionMatrix,
    ii: np.ndarray,
    jj: np.ndarray,
    rho: np.ndarray,
    include_all_genes: bool = True,
) -> Graph:
    """Materialise the label :class:`Graph` of a thresholded pair list.

    Vertex and neighbour iteration order match the historical per-pair
    construction (see :func:`csr_from_pair_arrays`); each edge carries its
    correlation as the ``rho`` attribute.
    """
    genes = matrix.genes
    graph = Graph()
    if include_all_genes:
        for g in genes:
            graph.add_vertex(g)
    else:
        for i in _first_appearance_order(ii, jj).tolist():
            graph.add_vertex(genes[i])
    order = np.lexsort((jj, ii))
    for i, j, r in zip(
        ii[order].tolist(), jj[order].tolist(), rho[order].tolist()
    ):
        graph.add_edge(genes[i], genes[j], rho=r)
    return graph


def build_correlation_network(
    matrix: ExpressionMatrix,
    threshold: Optional[CorrelationThreshold] = None,
    block_size: int = 2048,
    include_all_genes: bool = True,
) -> Graph:
    """Build the thresholded gene correlation network.

    Every gene becomes a vertex (in matrix order — this *is* the "natural
    order" of the paper) when ``include_all_genes`` is true; otherwise only
    genes with at least one admitted correlation appear.  Each edge stores the
    correlation coefficient under the ``rho`` attribute.

    Thin label wrapper over the vectorised extraction: the pair arrays come
    from :func:`correlated_pair_arrays` and only the ``Graph`` materialisation
    itself is per-edge.  :func:`csr_from_pair_arrays` builds the same network
    as a :class:`CSRGraph` without that materialisation.
    """
    ii, jj, rho = correlated_pair_arrays(matrix, threshold=threshold, block_size=block_size)
    return network_from_pair_arrays(matrix, ii, jj, rho, include_all_genes=include_all_genes)

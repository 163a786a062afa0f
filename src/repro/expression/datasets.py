"""Synthetic microarray studies standing in for the paper's GEO datasets.

The paper evaluates on four networks derived from two GEO series:

* **GSE5078** (Verbitsky et al., hippocampus ageing) split into **YNG**
  (young mice) and **MID** (middle-aged mice).  The series was pre-filtered to
  roughly a third of the genes (only those differentially expressed between
  the two ages), producing a comparatively small network — the paper reports
  5,348 vertices and 7,277 edges for YNG — whose clusters carry weaker
  biological signal.
* **GSE5140** (Bender et al., creatine supplementation) split into **UNT**
  (untreated) and **CRE** (creatine-treated) middle-aged mice.  These use the
  whole transcriptome; the CRE network has 27,896 vertices and 30,296 edges.

The raw chips are not available offline, so this module *generates* expression
matrices whose thresholded correlation networks have the same character:

* a small number of dense co-expression **modules** (the biologically "real"
  clusters, planted and therefore known exactly),
* noisy **chains** — consecutive genes correlate just above the 0.95
  threshold while genes two steps apart fall below it, which is what produces
  the long paths and large cycles the chordal filter prunes,
* noisy **clumps** — small groups of genes sharing a coincidental factor;
  these become the dense-but-biologically-meaningless clusters (low AEES,
  high overlap: the paper's "false positives"),
* spurious **attachments** hanging off real modules (the extra genes the
  Figure 9 case study shows being trimmed away by the filter).

Note that a 0.95 correlation threshold makes the network highly transitive
(two strong partners of the same gene are themselves correlated ≥ 0.8), so
noise cannot appear as isolated random edges between otherwise unrelated
genes; chains and clumps are the realistic noise geometries and the generator
builds exactly those.

Every generated study records its ground truth (module membership, noise
edges) so the ontology annotations and the evaluation can be tied back to it.
Sizes are controlled by a ``scale`` parameter: ``scale=1.0`` approximates the
paper's vertex counts, while the benchmark configuration uses a smaller scale
so the full pipeline runs in seconds (README's figure table lists the
benchmark behind each figure).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.graph import Graph, edge_key
from .correlation import (
    correlated_pair_arrays,
    csr_from_pair_arrays,
    network_from_pair_arrays,
)
from .microarray import ExpressionMatrix

__all__ = [
    "StudyConfig",
    "SyntheticStudy",
    "generate_study",
    "make_study",
    "DATASET_CONFIGS",
    "dataset_names",
    "default_scale",
]


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one synthetic study (one condition of one GEO series).

    Attributes
    ----------
    name:
        dataset name used throughout the repo (``YNG``, ``MID``, ``UNT``, ``CRE``).
    n_genes:
        total number of genes on the (synthetic) chip.
    n_samples:
        number of arrays; the paper's series have on the order of 10–12
        arrays per condition — few enough that coincidental 0.95 correlations
        are plentiful, which is the noise the filter must remove.
    n_modules / module_size / module_tightness:
        number, size and within-module noise level of the planted
        co-expression modules (smaller tightness = denser module in the
        thresholded network).
    n_noise_chains / noise_chain_length:
        number and length of correlated noise chains.
    n_noise_clumps / noise_clump_size / clump_tightness:
        number, size and tightness of coincidental clumps (false clusters).
    n_module_attachments:
        number of background genes spuriously correlated with one member of a
        planted module.
    biological_signal:
        overall strength (0–1) of the functional signal, consumed by the
        ontology annotation generator; YNG/MID use a lower value to mimic the
        weaker enrichment the paper observes after differential-expression
        pre-filtering.
    """

    name: str
    n_genes: int
    n_samples: int
    n_modules: int
    module_size: int
    module_tightness: float
    n_noise_chains: int
    noise_chain_length: int
    n_noise_clumps: int
    noise_clump_size: int
    clump_tightness: float
    n_module_attachments: int
    biological_signal: float = 1.0

    def scaled(self, scale: float) -> "StudyConfig":
        """Return a copy with the study shrunk (or grown) by ``scale``.

        Gene counts and chain counts scale linearly; the numbers of planted
        modules and noise clumps scale with the square root of ``scale`` so
        that reduced-scale studies still contain enough distinct clusters for
        the per-cluster analyses (Figures 4–9) to be meaningful.
        """
        if not math.isfinite(scale) or scale <= 0:
            raise ValueError(f"scale must be positive and finite, got {scale!r}")
        sqrt_scale = math.sqrt(scale)

        def s(x: int, factor: float, minimum: int = 1) -> int:
            return max(minimum, int(round(x * factor)))

        return StudyConfig(
            name=self.name,
            n_genes=s(self.n_genes, scale, 32),
            n_samples=self.n_samples,
            n_modules=s(self.n_modules, sqrt_scale, 2),
            module_size=self.module_size,
            module_tightness=self.module_tightness,
            n_noise_chains=s(self.n_noise_chains, scale, 2),
            noise_chain_length=self.noise_chain_length,
            n_noise_clumps=s(self.n_noise_clumps, sqrt_scale, 1),
            noise_clump_size=self.noise_clump_size,
            clump_tightness=self.clump_tightness,
            n_module_attachments=s(self.n_module_attachments, scale, 1),
            biological_signal=self.biological_signal,
        )

    def background_genes_required(self) -> int:
        """Number of background genes the noise structures consume."""
        return (
            self.n_noise_chains * max(2, self.noise_chain_length)
            + self.n_noise_clumps * self.noise_clump_size
            + self.n_module_attachments
        )


#: Canned configurations approximating the paper's four networks at scale 1.0.
DATASET_CONFIGS: dict[str, StudyConfig] = {
    # GSE5078 — young mice.  Pre-filtered series: fewer genes, weaker signal.
    "YNG": StudyConfig(
        name="YNG",
        n_genes=5400,
        n_samples=12,
        n_modules=10,
        module_size=12,
        module_tightness=0.22,
        n_noise_chains=580,
        noise_chain_length=6,
        n_noise_clumps=140,
        noise_clump_size=8,
        clump_tightness=0.235,
        n_module_attachments=420,
        biological_signal=0.8,
    ),
    # GSE5078 — middle-aged mice.
    "MID": StudyConfig(
        name="MID",
        n_genes=5400,
        n_samples=12,
        n_modules=9,
        module_size=12,
        module_tightness=0.24,
        n_noise_chains=560,
        noise_chain_length=6,
        n_noise_clumps=130,
        noise_clump_size=8,
        clump_tightness=0.24,
        n_module_attachments=400,
        biological_signal=0.75,
    ),
    # GSE5140 — untreated middle-aged mice (whole transcriptome).
    "UNT": StudyConfig(
        name="UNT",
        n_genes=27000,
        n_samples=10,
        n_modules=28,
        module_size=14,
        module_tightness=0.17,
        n_noise_chains=3400,
        noise_chain_length=7,
        n_noise_clumps=240,
        noise_clump_size=9,
        clump_tightness=0.225,
        n_module_attachments=900,
        biological_signal=0.9,
    ),
    # GSE5140 — creatine-supplemented middle-aged mice.
    "CRE": StudyConfig(
        name="CRE",
        n_genes=27900,
        n_samples=10,
        n_modules=30,
        module_size=14,
        module_tightness=0.17,
        n_noise_chains=3550,
        noise_chain_length=7,
        n_noise_clumps=250,
        noise_clump_size=9,
        clump_tightness=0.225,
        n_module_attachments=950,
        biological_signal=0.95,
    ),
}


def dataset_names() -> list[str]:
    """Return the four dataset names in the paper's order."""
    return ["YNG", "MID", "UNT", "CRE"]


_DEFAULT_SCALE = 0.10


def default_scale() -> float:
    """The dataset scale used by benchmarks (override with ``REPRO_SCALE=1.0``)."""
    raw = os.environ.get("REPRO_SCALE")
    if raw is None:
        return _DEFAULT_SCALE
    value = float(raw)
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"REPRO_SCALE must be positive and finite, got {raw!r}")
    return value


@dataclass
class SyntheticStudy:
    """One generated study: expression matrix, ground truth and derived network."""

    config: StudyConfig
    matrix: ExpressionMatrix
    modules: dict[str, list[str]]
    noise_clumps: list[list[str]] = field(default_factory=list)
    noise_edges_hint: list[tuple[str, str]] = field(default_factory=list)
    seed: int = 0
    _network_csr: Optional[CSRGraph] = field(default=None, repr=False)
    _pairs: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )

    @property
    def name(self) -> str:
        return self.config.name

    def _pair_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The thresholded pair arrays, computed once.

        One correlation-tile pass serves both :meth:`network` and
        :meth:`network_csr`, so a label view and a CSR view of the same study
        never recompute the genes × genes correlations.
        """
        if self._pairs is None:
            self._pairs = correlated_pair_arrays(self.matrix)
        return self._pairs

    def network(self) -> Graph:
        """Return the thresholded correlation network of this study.

        The label graph of :meth:`network_csr`, built on first read and
        cached there.  Each edge carries its correlation as ``rho``.
        """
        return self.network_csr().label_graph()

    def network_csr(self) -> CSRGraph:
        """Return (and cache) the CSR view of the thresholded correlation network.

        Built directly from the cached pair arrays — no ``Graph``
        materialisation, no ``from_graph`` conversion.  Equal to
        ``CSRGraph.from_graph(self.network())``; that label graph, with its
        ``rho`` attributes, is the CSR's
        :meth:`~repro.graph.csr.CSRGraph.label_graph`, built only when read.
        """
        if self._network_csr is None:
            matrix = self.matrix
            ii, jj, rho = self._pair_arrays()
            csr = csr_from_pair_arrays(matrix, ii, jj)
            csr.attach_label_graph(lambda: network_from_pair_arrays(matrix, ii, jj, rho))
            self._network_csr = csr
        return self._network_csr


def _module_gene_name(study: str, module: int, index: int) -> str:
    return f"{study}_M{module:02d}_{index:02d}"


def _background_gene_name(study: str, index: int) -> str:
    return f"{study}_G{index:05d}"


def _centred(rows: np.ndarray) -> np.ndarray:
    """``rows`` minus each row's mean."""
    return rows - (np.add.reduce(rows, axis=1) / rows.shape[1])[:, None]


def _row_std(rows: np.ndarray) -> np.ndarray:
    """Per-row population std, summed as ``ndarray.std`` sums one row.

    ``np.add.reduce`` along the contiguous axis is the reduction numpy's
    ``_var`` runs on a single row, so each entry is bit-identical to
    ``rows[i].std()``.
    """
    centred = _centred(rows)
    return np.sqrt(np.add.reduce(centred * centred, axis=1) / rows.shape[1])


def _chained_rows(previous: np.ndarray, rho: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Rows correlated ≈ ``rho[i]`` with ``previous[i]`` and otherwise independent.

    ``fresh`` holds each row's pre-drawn noise.  It is centred, projected
    off the standardised predecessor and rescaled to unit variance before
    mixing.  Every step is elementwise or a per-row reduction, so row ``i``
    comes out exactly as it would alone.  The projection stays one BLAS dot
    per row, because a batched contraction sums in a different order.
    """
    n = previous.shape[1]
    prev_std = _centred(previous) / (_row_std(previous) + 1e-12)[:, None]
    fresh = _centred(fresh)
    dots = np.array([f @ p for f, p in zip(fresh, prev_std)])
    fresh -= (dots / n)[:, None] * prev_std
    fresh /= (_row_std(fresh) + 1e-12)[:, None]
    mix = np.sqrt(np.maximum(0.0, 1.0 - rho * rho))
    return rho[:, None] * prev_std + mix[:, None] * fresh


def generate_study(config: StudyConfig, seed: int = 0) -> SyntheticStudy:
    """Generate one synthetic study according to ``config``.

    The expression model is additive-Gaussian: every planted module (and every
    noise clump) shares a latent factor; member genes observe the factor plus
    private noise, so within-group correlations sit just above the paper's
    0.95 threshold.  Noise chains are built link by link: each gene is a
    mixture of its predecessor and fresh noise with mixing coefficient ≈ 0.952,
    so consecutive genes pass the threshold while genes two steps apart fall
    to ≈ 0.9 and do not.

    Every random draw is made one structure at a time, in a fixed order
    (modules, chains, clumps, attachments, background, chip shuffle).  The
    chained rows are then computed in waves: one batched step per chain link
    across all chains, and one for all module attachments.
    """
    rng = np.random.default_rng(seed)
    n_samples = config.n_samples
    n_structured = config.n_modules * config.module_size
    n_background = max(config.background_genes_required(), config.n_genes - n_structured)
    values = np.empty((n_structured + n_background, n_samples))
    modules: dict[str, list[str]] = {}
    noise_clumps: list[list[str]] = []
    noise_edges: list[tuple[str, str]] = []

    def group_rows(start: int, size: int, tightness: float) -> None:
        """Rows for a co-expressed group: shared factor + jittered private noise."""
        factor = rng.standard_normal(n_samples)
        for i in range(start, start + size):
            jitter = 1.0 + 0.3 * rng.random()
            values[i] = factor + rng.standard_normal(n_samples) * tightness * jitter

    # --- planted co-expression modules -------------------------------------
    gene_names: list[str] = []
    for m in range(config.n_modules):
        group_rows(len(gene_names), config.module_size, config.module_tightness)
        members = [_module_gene_name(config.name, m, i) for i in range(config.module_size)]
        gene_names.extend(members)
        modules[f"{config.name}_module_{m:02d}"] = members
    background = [_background_gene_name(config.name, i) for i in range(n_background)]
    gene_names.extend(background)

    # --- noisy chains ---------------------------------------------------------
    n_chains = config.n_noise_chains
    length = max(2, config.noise_chain_length)
    chains = values[n_structured : n_structured + n_chains * length].reshape(
        n_chains, length, n_samples
    )
    chain_rho = np.empty((n_chains, length - 1))
    chain_fresh = np.empty((n_chains, length - 1, n_samples))
    for c in range(n_chains):
        chains[c, 0] = rng.standard_normal(n_samples)
        first = c * length
        for j in range(length - 1):
            chain_rho[c, j] = 0.952 + 0.02 * rng.random()
            chain_fresh[c, j] = rng.standard_normal(n_samples)
            noise_edges.append(edge_key(background[first + j], background[first + j + 1]))
    for j in range(length - 1):
        chains[:, j + 1] = _chained_rows(chains[:, j], chain_rho[:, j], chain_fresh[:, j])
    next_background = n_chains * length

    # --- noisy clumps (coincidental dense groups) -----------------------------
    for _ in range(config.n_noise_clumps):
        group_rows(n_structured + next_background, config.noise_clump_size, config.clump_tightness)
        clump = background[next_background : next_background + config.noise_clump_size]
        next_background += config.noise_clump_size
        noise_clumps.append(clump)
        for i, a in enumerate(clump):
            for b in clump[i + 1 :]:
                noise_edges.append(edge_key(a, b))

    # --- spurious attachments to real modules --------------------------------
    # Module members occupy rows 0 .. n_structured-1 in member order.
    n_attach = config.n_module_attachments
    targets = np.empty(n_attach, dtype=np.int64)
    attach_rho = np.empty(n_attach)
    attach_fresh = np.empty((n_attach, n_samples))
    for a in range(n_attach):
        targets[a] = int(rng.integers(0, n_structured))
        attach_rho[a] = 0.953 + 0.03 * rng.random()
        attach_fresh[a] = rng.standard_normal(n_samples)
        noise_edges.append(
            edge_key(gene_names[targets[a]], background[next_background + a])
        )
    start = n_structured + next_background
    values[start : start + n_attach] = _chained_rows(values[targets], attach_rho, attach_fresh)
    next_background += n_attach

    # --- unstructured background genes ----------------------------------------
    # One draw of shape (k, n) consumes the stream exactly as k draws of n.
    values[n_structured + next_background :] = rng.standard_normal(
        (n_background - next_background, n_samples)
    )

    # Shuffle the chip order.  Real arrays list probes by nomenclature, not by
    # functional module, so the "natural order" of the network must not align
    # with the planted structure (otherwise block partitioning would see
    # artificially few border edges and the ordering study would be biased).
    perm = rng.permutation(len(gene_names))
    gene_names = [gene_names[i] for i in perm]
    values = values[perm]

    matrix = ExpressionMatrix(
        values=values,
        genes=gene_names,
        samples=[f"{config.name}_sample_{i:02d}" for i in range(n_samples)],
        conditions=[config.name] * n_samples,
        metadata={"config": config.name, "seed": seed},
    )
    return SyntheticStudy(
        config=config,
        matrix=matrix,
        modules=modules,
        noise_clumps=noise_clumps,
        noise_edges_hint=noise_edges,
        seed=seed,
    )


def make_study(name: str, scale: float = 1.0, seed: Optional[int] = None) -> SyntheticStudy:
    """Generate one of the four canned studies (``YNG``, ``MID``, ``UNT``, ``CRE``).

    ``scale`` multiplies the structure counts (1.0 ≈ the paper's sizes);
    ``seed`` defaults to a per-dataset constant so repeated calls yield
    identical data.
    """
    key = name.strip().upper()
    if key not in DATASET_CONFIGS:
        raise KeyError(f"unknown dataset {name!r}; valid: {dataset_names()}")
    config = DATASET_CONFIGS[key].scaled(scale)
    if seed is None:
        seed = {"YNG": 51, "MID": 52, "UNT": 53, "CRE": 54}[key]
    return generate_study(config, seed=seed)

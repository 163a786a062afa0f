"""Incremental recompute: delta-updates for warm dataset bundles.

ROADMAP item 4's second half: the paper's online setting — classification
evidence arriving over time — needs a resident service that absorbs dataset
mutations without the cold-rebuild cliff.  This module is the engine: it
synthesises deterministic dataset mutations (:func:`synthesize_update`),
applies them to a warm :class:`~repro.pipeline.workflow.DatasetBundle`
through the structural-sharing delta paths of the four stateful layers
(:func:`apply_update`), and keeps the cold full-rebuild equivalent around as
the equivalence oracle (:func:`reference_apply_update`,
:func:`replay_reference`).

Delta-vs-rebuild decision table
-------------------------------

==============  =====================================================================
update kind     what the delta path does
==============  =====================================================================
add samples     ``with_samples`` append; the standardised memo **cannot** carry
                (a new column moves every gene's mean/std), so the correlation
                pass recomputes in full — but the study, ontology, annotation
                and scorer state are reused untouched.
add genes       ``with_genes`` append delta-extends the standardised memo
                (per-row standardisation), and
                :func:`~repro.expression.correlation.correlated_pair_arrays_delta`
                recomputes only the tiles touching new rows.
add terms       :meth:`~repro.ontology.go_dag.GODag.append_leaf_terms` extends
                the interned term index by one monotone remap; the enrichment
                pair table remaps its packed keys (or resets when the batch
                may have shortened existing term distances).
add annotations :meth:`~repro.ontology.annotation.AnnotationIndex.updated`
                rebuilds only the touched gene rows; the scorer's term-pair
                table does not depend on annotations and is kept.
==============  =====================================================================

Downstream, the network view and MCODE cluster state are reused whenever
the thresholded ``(ii, jj)`` edge structure is unchanged (MCODE is
structure-only); the CSR view rebuilds from the pair arrays whenever any
correlation moved, and its label network (edges carry ``rho`` attributes)
is built only if something reads it.

Every delta output is pinned byte-identical to the cold reference: the
rebuild of a mutated dataset's state from nothing is ``prepare_dataset``
plus a deterministic replay of the whole update history, deriving every
layer again after each spec (:func:`replay_reference`) — what
``benchmarks/bench_incremental.py`` measures the delta paths against.

A rebuild does not need the per-step derivation: update synthesis reads only
the primary state (study, DAG, annotations), so :func:`replay_updates`
replays the log on that state alone and derives the network, CSR, original
clusters and scorer once.  It is what the serve layer's ``reload`` runs, and
it is pinned byte-identical to :func:`replay_reference`.

A failed delta (chaos site ``incremental.delta``, or any unexpected error
mid-application) degrades to that one-derivation replay instead of serving
corrupt warm state; the warm bundle must be considered consumed either way.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .clustering.mcode import mcode_clusters
from .expression.correlation import correlated_pair_arrays, correlated_pair_arrays_delta
from .expression.datasets import SyntheticStudy
from .expression.microarray import ExpressionMatrix
from .faults import fault_point
from .ontology.annotation import AnnotationIndex, AnnotationTable
from .ontology.go_dag import GODag
from .pipeline.workflow import (
    DatasetBundle,
    derive_dataset,
    prepare_dataset,
    prepare_primary,
)

__all__ = [
    "UpdateSpec",
    "UpdateData",
    "UpdateReport",
    "synthesize_update",
    "apply_update",
    "reference_apply_update",
    "replay_reference",
    "replay_updates",
]

#: Dirty-set of a bundle whose every layer was rebuilt from primary state.
_ALL_DIRTY = frozenset({"expression", "network", "ontology", "annotations"})


@dataclass(frozen=True)
class UpdateSpec:
    """One dataset mutation: how many of each thing to append.

    Specs are pure *sizes* plus a seed — the actual values are synthesised
    deterministically from the pre-update state by :func:`synthesize_update`,
    so a spec log fully determines the mutated dataset (which is what makes
    the reference replay an oracle).
    """

    add_samples: int = 0
    add_genes: int = 0
    add_annotations: int = 0
    add_terms: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("add_samples", "add_genes", "add_annotations", "add_terms"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not (self.add_samples or self.add_genes or self.add_annotations or self.add_terms):
            raise ValueError("an update must add at least one thing")

    def counts(self) -> dict[str, int]:
        return {
            "samples": self.add_samples,
            "genes": self.add_genes,
            "annotations": self.add_annotations,
            "terms": self.add_terms,
        }


@dataclass(frozen=True)
class UpdateData:
    """The synthesised payload of one :class:`UpdateSpec` against one state."""

    spec: UpdateSpec
    sample_values: Optional[np.ndarray]  #: (n_genes, add_samples) or None
    sample_names: tuple[str, ...]
    gene_values: Optional[np.ndarray]  #: (add_genes, n_samples + add_samples) or None
    gene_names: tuple[str, ...]
    term_specs: tuple[tuple[str, tuple[str, ...]], ...]  #: (term_id, parents)
    annotation_specs: tuple[tuple[str, tuple[str, ...]], ...]  #: (gene, terms)


@dataclass(frozen=True)
class UpdateReport:
    """What one :func:`apply_update` actually did."""

    mode: str  #: "delta" or "rebuild"
    dirty: frozenset  #: components touched: expression/network/ontology/annotations
    reused: tuple[str, ...]  #: heavyweight state carried over unrebuilt
    counts: dict[str, int]
    distances_safe: Optional[bool] = None  #: term-append safety verdict (terms only)


def synthesize_update(bundle: DatasetBundle, spec: UpdateSpec) -> UpdateData:
    """Deterministically synthesise ``spec``'s payload from the current state.

    The generator is seeded from the study seed, the spec seed and the
    current state's dimensions, so replaying the same spec log against a
    cold rebuild regenerates bit-identical payloads at every step — no data
    needs to be persisted alongside the log.
    """
    return _synthesize(bundle.study, bundle.scorer.dag, bundle.scorer.annotations, spec)


def _synthesize(
    study: SyntheticStudy, dag: GODag, table: AnnotationTable, spec: UpdateSpec
) -> UpdateData:
    """:func:`synthesize_update` over the primary state it reads."""
    matrix = study.matrix
    rng = np.random.default_rng(
        [
            study.seed,
            spec.seed,
            matrix.n_genes,
            matrix.n_samples,
            len(dag),
            table.n_annotations(),
        ]
    )
    n, m = matrix.n_genes, matrix.n_samples
    sample_values = None
    sample_names: tuple[str, ...] = ()
    if spec.add_samples:
        # New arrays resemble an existing one plus per-gene noise — realistic
        # (conditions repeat) and guaranteed to perturb correlations only
        # moderately.
        cols = []
        scale = float(matrix.values.std()) or 1.0
        for i in range(spec.add_samples):
            base = matrix.values[:, int(rng.integers(0, m))]
            cols.append(base + 0.35 * scale * rng.standard_normal(n))
        sample_values = np.stack(cols, axis=1)
        sample_names = tuple(
            f"{study.config.name}_sample_u{m + i:03d}" for i in range(spec.add_samples)
        )
    gene_values = None
    gene_names: tuple[str, ...] = ()
    if spec.add_genes:
        m_total = m + spec.add_samples
        rows = []
        for i in range(spec.add_genes):
            if rng.random() < 0.5:
                # Anchored just above the correlation threshold to an
                # existing gene — the appended row joins the network.
                anchor = matrix.values[int(rng.integers(0, n))]
                if sample_values is not None:
                    anchor = np.concatenate(
                        [anchor, sample_values[int(rng.integers(0, n))]]
                    )[:m_total]
                prev_std = (anchor - anchor.mean()) / (anchor.std() + 1e-12)
                fresh = rng.standard_normal(m_total)
                fresh -= fresh.mean()
                fresh -= (fresh @ prev_std / m_total) * prev_std
                fresh /= fresh.std() + 1e-12
                rho = 0.955 + 0.02 * rng.random()
                rows.append(rho * prev_std + np.sqrt(max(0.0, 1.0 - rho * rho)) * fresh)
            else:
                rows.append(rng.standard_normal(m_total))
        gene_values = np.stack(rows, axis=0)
        gene_names = tuple(
            f"{study.config.name}_UPD{n + i:06d}" for i in range(spec.add_genes)
        )
    term_specs: tuple[tuple[str, tuple[str, ...]], ...] = ()
    if spec.add_terms:
        existing = dag.terms()
        specs = []
        for i in range(spec.add_terms):
            tid = f"GO:U{len(existing) + len(specs):07d}"
            if rng.random() < 0.75 or len(existing) < 2:
                parents = (existing[int(rng.integers(0, len(existing)))],)
            else:
                pi = rng.choice(len(existing), size=2, replace=False)
                parents = (existing[int(pi[0])], existing[int(pi[1])])
            specs.append((tid, parents))
        term_specs = tuple(specs)
    annotation_specs: tuple[tuple[str, tuple[str, ...]], ...] = ()
    if spec.add_annotations:
        gene_pool = list(matrix.genes) + list(gene_names)
        term_pool = dag.terms()[1:] + [t for t, _p in term_specs]
        specs = []
        for i in range(spec.add_annotations):
            gene = gene_pool[int(rng.integers(0, len(gene_pool)))]
            k = int(rng.integers(1, 4))
            ti = rng.choice(len(term_pool), size=min(k, len(term_pool)), replace=False)
            specs.append((gene, tuple(term_pool[int(t)] for t in ti)))
        annotation_specs = tuple(specs)
    return UpdateData(
        spec=spec,
        sample_values=sample_values,
        sample_names=sample_names,
        gene_values=gene_values,
        gene_names=gene_names,
        term_specs=term_specs,
        annotation_specs=annotation_specs,
    )


def apply_update(
    bundle: DatasetBundle,
    spec: UpdateSpec,
    history: Sequence[UpdateSpec] = (),
    fallback: bool = True,
) -> tuple[DatasetBundle, UpdateReport]:
    """Absorb one update into a warm bundle via the delta paths.

    ``history`` is the spec log already absorbed by ``bundle`` (oldest
    first); it is only consulted when the delta path fails and ``fallback``
    is set, in which case the whole state is rebuilt by
    :func:`replay_updates` over every logged spec plus this one — the
    degraded but always-correct path, reached deterministically under the
    ``incremental.delta`` chaos site.  With ``fallback=False`` the delta
    failure propagates (the serve layer does its own replay so the rebuilt
    bundle gets its locked scorer).

    The input bundle is *consumed*: the delta path mutates its ontology and
    annotation state in place and returns a new bundle sharing them.
    """
    data = synthesize_update(bundle, spec)
    try:
        fault_point("incremental.delta")
        return _delta_apply(bundle, data)
    except Exception:
        if not fallback:
            raise
        rebuilt = replay_updates(
            bundle.name, bundle.scale, bundle.study.seed, tuple(history) + (spec,)
        )
        report = UpdateReport(
            mode="rebuild",
            dirty=_ALL_DIRTY,
            reused=(),
            counts=spec.counts(),
        )
        return rebuilt, report


def _delta_apply(bundle: DatasetBundle, data: UpdateData) -> tuple[DatasetBundle, UpdateReport]:
    """The delta body: structural-sharing application of one update."""
    spec = data.spec
    study = bundle.study
    scorer = bundle.scorer
    dag, table = scorer.dag, scorer.annotations
    dirty: set[str] = set()
    reused: list[str] = []

    # --- expression ----------------------------------------------------------
    matrix = study.matrix
    old_ii, old_jj, old_rho = study._pair_arrays()
    pairs = (old_ii, old_jj, old_rho)
    if spec.add_samples or spec.add_genes:
        dirty.add("expression")
        memo_warm = matrix._standardized is not None
        if spec.add_samples:
            matrix = matrix.with_samples(data.sample_values, list(data.sample_names))
        old_n = matrix.n_genes
        if spec.add_genes:
            matrix = matrix.with_genes(data.gene_values, list(data.gene_names))
        if spec.add_genes and not spec.add_samples and memo_warm:
            # Pure gene append on a warm matrix: per-row standardisation
            # delta-extended the memo, so only the tiles touching new rows
            # recompute (bit-identical to the cold full pass).
            pairs = correlated_pair_arrays_delta(matrix, old_n, pairs)
        else:
            # A new sample moves every gene's mean/std — the memo cannot
            # carry, so the correlation pass recomputes in full (still
            # skipping study/ontology regeneration).
            pairs = correlated_pair_arrays(matrix)

    # --- network / clusters --------------------------------------------------
    ii, jj, rho = pairs
    structure_same = (
        ii.shape == old_ii.shape
        and np.array_equal(ii, old_ii)
        and np.array_equal(jj, old_jj)
    )
    values_same = structure_same and np.array_equal(rho, old_rho)
    new_study = study
    network_csr = bundle.network_csr
    clusters = bundle.original_clusters
    if "expression" in dirty:
        new_study = dataclasses.replace(
            study,
            matrix=matrix,
            _network_csr=network_csr if values_same else None,
            _pairs=pairs,
        )
    if "expression" not in dirty or values_same:
        reused += ["network", "clusters"]
    else:
        dirty.add("network")
        # The CSR view rebuilds from the new pairs; its label network (the
        # ``rho`` attributes) is built only if something reads it.
        network_csr = new_study.network_csr()
        if structure_same:
            # MCODE is structure-only: identical (ii, jj) over the same
            # vertex order means identical clusters — only the rho edge
            # attributes moved.
            reused.append("clusters")
        else:
            clusters = mcode_clusters(network_csr, source=f"{study.name}/original")

    # --- ontology ------------------------------------------------------------
    delta = None
    if spec.add_terms or spec.add_annotations:
        old_ann_index = table.indexed()
    if spec.add_terms:
        delta = dag.append_leaf_terms(list(data.term_specs))
        scorer.adopt_term_index(delta)
        dirty.add("ontology")
    else:
        reused.append("term_index")
    if spec.add_annotations:
        for gene, terms in data.annotation_specs:
            table.annotate(gene, list(terms))
        dirty.add("annotations")
    if spec.add_terms or spec.add_annotations:
        table._index = AnnotationIndex.updated(
            old_ann_index,
            table,
            dag.term_index(),
            old_to_new=None if delta is None else delta.old_to_new,
            touched=[g for g, _terms in data.annotation_specs],
        )
        reused.append("annotation_rows")
    else:
        reused.append("annotation_index")

    # --- assemble ------------------------------------------------------------
    new_bundle = dataclasses.replace(
        bundle,
        study=new_study,
        network_csr=network_csr,
        original_clusters=clusters,
        generation=bundle.generation + 1,
        dirty=frozenset(dirty),
    )
    report = UpdateReport(
        mode="delta",
        dirty=frozenset(dirty),
        reused=tuple(reused),
        counts=spec.counts(),
        distances_safe=None if delta is None else delta.distances_safe,
    )
    return new_bundle, report


def reference_apply_update(bundle: DatasetBundle, data: UpdateData) -> DatasetBundle:
    """Cold-apply one update: every derived structure rebuilt from scratch.

    The equivalence oracle for :func:`_delta_apply` — no memo survives.  The
    ontology/annotation objects are mutated through their cold paths
    (:meth:`~repro.ontology.go_dag.GODag.add_term`, which drops the whole
    distance engine), the expression matrix is reconstructed without memos,
    and the correlation pass, network views, MCODE clusters, term index,
    annotation index and enrichment scorer all build cold.
    """
    from .ontology.enrichment import EnrichmentScorer

    dag, table = bundle.scorer.dag, bundle.scorer.annotations
    new_study = _apply_primary(bundle.study, dag, table, data)
    network_csr = new_study.network_csr()
    scorer = EnrichmentScorer(dag, table)
    clusters = mcode_clusters(network_csr, source=f"{new_study.name}/original")
    return dataclasses.replace(
        bundle,
        study=new_study,
        network_csr=network_csr,
        scorer=scorer,
        original_clusters=clusters,
        generation=bundle.generation + 1,
        dirty=_ALL_DIRTY,
    )


def _apply_primary(
    study: SyntheticStudy, dag: GODag, table: AnnotationTable, data: UpdateData
) -> SyntheticStudy:
    """Apply one payload to the primary state through the cold paths.

    The expression matrix is reconstructed without memos, terms go in through
    :meth:`~repro.ontology.go_dag.GODag.add_term` and annotations through
    :meth:`~repro.ontology.annotation.AnnotationTable.annotate` (``dag`` and
    ``table`` are mutated in place).  Returns the new study, with no derived
    network state cached.
    """
    spec = data.spec
    values = study.matrix.values
    genes = list(study.matrix.genes)
    samples = list(study.matrix.samples)
    conditions = list(study.matrix.conditions) if study.matrix.conditions else None
    if spec.add_samples:
        values = np.concatenate([values, data.sample_values], axis=1)
        if conditions is not None:
            conditions = conditions + [conditions[-1]] * spec.add_samples
        samples = samples + list(data.sample_names)
    if spec.add_genes:
        values = np.concatenate([values, data.gene_values], axis=0)
        genes = genes + list(data.gene_names)
    matrix = ExpressionMatrix(
        values=values.copy(),
        genes=genes,
        samples=samples,
        conditions=conditions,
        metadata=dict(study.matrix.metadata),
    )
    for term_id, parents in data.term_specs:
        dag.add_term(term_id, list(parents))
    for gene, terms in data.annotation_specs:
        table.annotate(gene, list(terms))
    return dataclasses.replace(study, matrix=matrix, _network_csr=None, _pairs=None)


def replay_reference(
    name: str,
    scale: float,
    seed: Optional[int],
    specs: Sequence[UpdateSpec],
) -> DatasetBundle:
    """Rebuild the state after ``specs`` from nothing: the full-rebuild oracle.

    ``prepare_dataset`` plus one :func:`reference_apply_update` per logged
    spec, synthesising each payload against the replayed state — which
    matches the warm path's payloads bit for bit because synthesis depends
    only on (pre-update state, spec).  Every layer is derived again after
    each spec, so this is the oracle that :func:`replay_updates` (the serve
    ``reload``) and the delta paths are pinned to, and the honest cost of
    *not* having the delta paths.
    """
    bundle = prepare_dataset(name, scale=scale, seed=seed)
    for spec in specs:
        data = synthesize_update(bundle, spec)
        bundle = reference_apply_update(bundle, data)
    return bundle


def replay_updates(
    name: str, scale: float, seed: Optional[int], specs: Sequence[UpdateSpec]
) -> DatasetBundle:
    """Rebuild the state after ``specs`` from nothing with one derivation.

    Synthesis reads only primary state (the study seed, the matrix, the DAG's
    terms and the annotation count), so the log is replayed on the study,
    DAG and annotations alone; the correlation pass, network views, original
    clusters and scorer are built once, from the final state.  Byte-identical
    to :func:`replay_reference`, at one derivation's cost whatever the log
    length.
    """
    study, dag, table = prepare_primary(name, scale=scale, seed=seed)
    for spec in specs:
        study = _apply_primary(study, dag, table, _synthesize(study, dag, table, spec))
    bundle = derive_dataset(study, dag, table, scale=scale)
    if specs:
        bundle.generation = len(specs)
        bundle.dirty = _ALL_DIRTY
    return bundle

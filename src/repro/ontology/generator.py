"""Synthetic Gene-Ontology generation tied to a study's ground truth.

The real pipeline annotates genes with curated GO terms (MGI / NCBI).  Offline
we generate (a) a GO-like DAG with realistic depth and branching and (b) an
annotation table in which

* genes of a planted co-expression module share a *deep, specific* term (plus
  occasionally one of its children), so module edges have a deep DCP and small
  term breadth — a high enrichment score;
* noise-clump, chain and background genes receive terms scattered across the
  DAG, so their pairwise DCP is shallow (often the root) and the enrichment
  score is low or negative;
* a configurable fraction of module genes is left unannotated or annotated
  with generic shallow terms, controlled by the study's ``biological_signal``
  — which is how the weaker YNG/MID enrichment of the paper is reproduced.

This mirrors the property the paper's evaluation relies on: the enrichment
score separates "real" clusters from coincidental ones.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional

import numpy as np

from ..expression.datasets import SyntheticStudy
from .annotation import AnnotationTable
from .go_dag import GODag

__all__ = ["make_go_dag", "annotate_study", "reference_annotate_study", "make_study_ontology"]


def make_go_dag(
    depth: int = 8,
    branching: int = 3,
    extra_parent_fraction: float = 0.08,
    seed: int = 0,
) -> GODag:
    """Generate a GO-like rooted DAG.

    The DAG is a balanced tree of the given ``depth`` and ``branching`` with a
    small fraction of additional cross-parent links (GO terms frequently have
    more than one parent), added only from deeper to strictly shallower levels
    so the structure stays acyclic.
    """
    if depth < 2:
        raise ValueError("depth must be at least 2")
    if branching < 2:
        raise ValueError("branching must be at least 2")
    rng = np.random.default_rng(seed)
    dag = GODag()
    levels: list[list[str]] = [[dag.root_id]]
    counter = 0
    for level in range(1, depth + 1):
        current: list[str] = []
        for parent in levels[level - 1]:
            for _ in range(branching):
                counter += 1
                term_id = f"GO:{counter:07d}"
                dag.add_term(term_id, [parent], name=f"process_L{level}_{counter}")
                current.append(term_id)
        levels.append(current)
        # Keep the DAG from exploding exponentially: cap each level's width.
        if len(current) > 600:
            levels[level] = list(rng.choice(current, size=600, replace=False))
    # extra parents (cross links) from level >= 2 terms to terms one level up
    all_terms = [t for lvl in levels[1:] for t in lvl]
    n_extra = int(extra_parent_fraction * len(all_terms))
    for _ in range(n_extra):
        term = all_terms[int(rng.integers(0, len(all_terms)))]
        term_depth = dag.depth(term)
        if term_depth < 2:
            continue
        candidates = levels[term_depth - 1]
        new_parent = candidates[int(rng.integers(0, len(candidates)))]
        if new_parent != term and term not in dag.ancestors(new_parent):
            dag.add_parent(term, new_parent)
    return dag


def _deep_terms(dag: GODag, min_depth: int) -> list[str]:
    """Terms at depth >= min_depth, in deterministic order."""
    return [t for t in dag.terms() if dag.depth(t) >= min_depth]


def _shallow_terms(dag: GODag, max_depth: int) -> list[str]:
    """Non-root terms at depth <= max_depth, in deterministic order."""
    return [t for t in dag.terms() if 0 < dag.depth(t) <= max_depth]


def _module_annotations(
    study: SyntheticStudy,
    dag: GODag,
    rng: np.random.Generator,
    min_depth: Optional[int],
    all_terms: list[str],
) -> Iterator[tuple[str, list[str]]]:
    """Yield ``(gene, [term, term])`` for every planted-module member, drawing
    from ``rng`` in the order the annotation stream is pinned to.

    The draws are interleaved and conditional (a signal coin, a child coin, a
    child pick, a shallow or noise pick), so this loop stays scalar; it covers
    only the module members, a few hundred genes at paper scale.
    """
    if min_depth is None:
        min_depth = max(3, dag.max_depth() - 2)
    deep = _deep_terms(dag, min_depth)
    shallow = _shallow_terms(dag, max_depth=2)
    if not deep:
        raise ValueError("the DAG has no terms deep enough for module annotation")
    signal = float(np.clip(study.config.biological_signal, 0.0, 1.0))

    # one deep function per planted module
    module_terms: dict[str, str] = {}
    for module_name in study.modules:
        module_terms[module_name] = deep[int(rng.integers(0, len(deep)))]

    for module_name, members in study.modules.items():
        term = module_terms[module_name]
        children = dag.children(term)
        # the coarse ("generic") ancestor used for weakly annotated members:
        # the module term's ancestor at absolute depth 2, i.e. a term as broad
        # as GO's "metabolic process" example in the paper.
        lineage = dag.path_to_root(term)  # [term, ..., root]
        coarse_index = max(0, len(lineage) - 1 - 2)
        coarse = lineage[coarse_index]
        for gene in members:
            if rng.random() < signal:
                assigned = term
                if children and rng.random() < 0.3:
                    assigned = children[int(rng.integers(0, len(children)))]
                extra = shallow[int(rng.integers(0, len(shallow)))] if shallow else dag.root_id
                yield gene, [assigned, extra]
            else:
                # weak-signal module gene: only a coarse ancestor plus one noise term
                noise_term = all_terms[int(rng.integers(0, len(all_terms)))]
                yield gene, [coarse, noise_term]


def _annotation_rng(study: SyntheticStudy, seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(study.seed * 7919 + 13 if seed is None else seed)


def annotate_study(
    study: SyntheticStudy,
    dag: GODag,
    seed: Optional[int] = None,
    module_term_min_depth: Optional[int] = None,
    background_terms_per_gene: int = 3,
) -> AnnotationTable:
    """Build the annotation table for a synthetic study.

    Module genes are annotated with a module-specific deep term (or one of its
    children) with probability ``study.config.biological_signal``; the
    remaining ("weakly annotated") module genes receive only a shallow ancestor
    of the module term — the curated-annotation analogue of a gene whose
    function is known only at a coarse level, which is how the weaker
    enrichment of the paper's pre-filtered YNG/MID datasets arises.  All other
    genes in the study receive ``background_terms_per_gene`` terms drawn
    uniformly from the whole DAG, so coincidental clusters score low.

    The background picks are one ``integers(0, n, size=k * genes)`` call —
    the same stream as one scalar draw per pick — and the table and its
    :class:`~repro.ontology.annotation.AnnotationIndex` are bulk-built from
    the (gene row, interned term id) arrays.  Byte-identical to
    :func:`reference_annotate_study`, which the tests pin it against.
    """
    rng = _annotation_rng(study, seed)
    all_terms = [t for t in dag.terms() if t != dag.root_id]
    row_of: dict[str, int] = {}
    rows: list[int] = []
    terms: list[str] = []
    for gene, gene_terms in _module_annotations(study, dag, rng, module_term_min_depth, all_terms):
        rows += [row_of.setdefault(gene, len(row_of))] * len(gene_terms)
        terms += gene_terms
    background = [g for g in study.matrix.genes if g not in row_of]
    k = background_terms_per_gene
    picks = rng.integers(0, len(all_terms), size=len(background) * k)
    term_index = dag.term_index()
    n_module = len(row_of)
    return AnnotationTable.from_pairs(
        dag,
        list(row_of) + background,
        np.concatenate(
            [
                np.asarray(rows, dtype=np.int64),
                np.repeat(np.arange(n_module, n_module + len(background), dtype=np.int64), k),
            ]
        ),
        np.concatenate([term_index.ids_for(terms), term_index.ids_for(all_terms)[picks]]),
    )


def reference_annotate_study(
    study: SyntheticStudy,
    dag: GODag,
    seed: Optional[int] = None,
    module_term_min_depth: Optional[int] = None,
    background_terms_per_gene: int = 3,
) -> AnnotationTable:
    """Seed :func:`annotate_study`: one scalar draw per background pick and one
    :meth:`AnnotationTable.annotate` call per gene.

    Retained as the oracle the bulk build is pinned to (the test suite's
    ``ANNOTATION_DIGESTS`` and equality tests).
    """
    rng = _annotation_rng(study, seed)
    all_terms = [t for t in dag.terms() if t != dag.root_id]
    table = AnnotationTable(dag)
    annotated_genes: set[str] = set()
    for gene, terms in _module_annotations(study, dag, rng, module_term_min_depth, all_terms):
        table.annotate(gene, terms)
        annotated_genes.add(gene)

    for gene in study.matrix.genes:
        if gene in annotated_genes:
            continue
        picks = [all_terms[int(rng.integers(0, len(all_terms)))] for _ in range(background_terms_per_gene)]
        table.annotate(gene, picks)
    return table


def make_study_ontology(
    study: SyntheticStudy,
    depth: int = 8,
    branching: int = 3,
    seed: Optional[int] = None,
) -> tuple[GODag, AnnotationTable]:
    """Convenience: generate the DAG and the annotation table for a study."""
    dag_seed = study.seed * 31 + 7 if seed is None else seed
    dag = make_go_dag(depth=depth, branching=branching, seed=dag_seed)
    table = annotate_study(study, dag, seed=None if seed is None else seed + 1)
    return dag, table

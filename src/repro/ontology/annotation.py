"""Gene → GO-term annotation tables.

The enrichment scorer needs, for every gene, the set of ontology terms it is
annotated with.  :class:`AnnotationTable` stores that mapping, validates the
terms against a :class:`~repro.ontology.go_dag.GODag` and offers the couple of
queries the pipeline uses (terms of a gene, annotated-gene test, per-term gene
lists for enrichment summaries).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from typing import Optional

import numpy as np

from ..graph.csr import gather_csr_rows
from .go_dag import GODag, TermIndex, _sorted_unique

__all__ = ["AnnotationTable", "AnnotationIndex"]


def _interned(
    term_sets: Sequence[Iterable[str]], term_index: TermIndex
) -> tuple[np.ndarray, np.ndarray]:
    """The interned ids of every term set back to back, and each set's size."""
    counts = np.fromiter(map(len, term_sets), dtype=np.int64, count=len(term_sets))
    id_of = term_index.id_of
    ids = np.fromiter(
        (id_of[t] for terms in term_sets for t in terms), dtype=np.int64, count=int(counts.sum())
    )
    return ids, counts


class AnnotationIndex:
    """A CSR view of an :class:`AnnotationTable` over interned term ids.

    ``term_ids[indptr[g]:indptr[g+1]]`` is gene row ``g``'s annotation terms
    as **pre-sorted ascending** interned ids.  Interned ids are assigned in
    sorted term-string order (see :class:`~repro.ontology.go_dag.TermIndex`),
    so a row read left to right is exactly the ``sorted(terms_of(gene))``
    iteration of the scalar scorer — the batched engine inherits its
    candidate-pair order without any per-edge ``sorted()`` call.

    Rows exist only for annotated genes; :meth:`rows_for` maps arbitrary
    labels, returning ``-1`` for anything without annotations.
    """

    __slots__ = ("term_index", "genes", "indptr", "term_ids", "_row_of")

    def __init__(self, table: "AnnotationTable", term_index: TermIndex) -> None:
        genes = list(table._gene_terms)
        term_ids, counts = _interned(list(table._gene_terms.values()), term_index)
        rows = np.repeat(np.arange(len(genes), dtype=np.int64), counts)
        self._fill(genes, rows, term_ids, term_index)

    @classmethod
    def from_pairs(
        cls,
        genes: Sequence[str],
        rows: np.ndarray,
        term_ids: np.ndarray,
        term_index: TermIndex,
    ) -> "AnnotationIndex":
        """Build an index from aligned (gene row, interned term id) pair arrays.

        ``rows`` index into ``genes``; pairs may repeat and come in any order.
        Genes without a pair get no row.
        """
        index = object.__new__(cls)
        index._fill(genes, rows, term_ids, term_index)
        return index

    def _fill(
        self, genes: Sequence[str], rows: np.ndarray, term_ids: np.ndarray, term_index: TermIndex
    ) -> None:
        """The one row builder: a single sort of the packed ``(row, term id)``
        keys orders every row and drops repeated pairs."""
        n_terms = term_index.n_terms
        keys = _sorted_unique(rows * n_terms + term_ids)
        key_rows = keys // n_terms
        counts = np.bincount(key_rows, minlength=len(genes))
        present = counts > 0
        if not present.all():
            genes = [g for g, p in zip(genes, present.tolist()) if p]
            counts = counts[present]
        self.term_index = term_index
        self.genes: tuple[str, ...] = tuple(genes)
        self._row_of: dict[str, int] = {g: i for i, g in enumerate(self.genes)}
        self.indptr = np.zeros(len(self.genes) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:])
        self.term_ids = keys - key_rows * n_terms
        self.indptr.setflags(write=False)
        self.term_ids.setflags(write=False)

    @property
    def n_genes(self) -> int:
        return len(self.genes)

    @classmethod
    def updated(
        cls,
        old: "AnnotationIndex",
        table: "AnnotationTable",
        term_index: TermIndex,
        old_to_new: Optional[np.ndarray] = None,
        touched: Iterable[str] = (),
    ) -> "AnnotationIndex":
        """Delta-rebuild an index after annotations/terms were appended.

        ``old`` must be a prior index of ``table``; ``touched`` names the
        genes whose annotation sets changed since (new genes included).
        Untouched rows are reused from the old CSR with one gather — remapped
        through ``old_to_new`` when the term space was extended — and only
        touched rows are re-interned.  Bit-identical to a cold
        ``AnnotationIndex(table, term_index)``.
        """
        genes = list(table._gene_terms)
        touched = set(touched)
        get = old._row_of.get
        old_rows = np.fromiter(
            (-1 if g in touched else get(g, -1) for g in genes), dtype=np.int64, count=len(genes)
        )
        reuse = old_rows >= 0
        remapped = old.term_ids if old_to_new is None else old_to_new[old.term_ids]
        kept_ids, kept_counts = gather_csr_rows(old.indptr, remapped, old_rows[reuse])
        fresh = np.flatnonzero(~reuse)
        fresh_ids, fresh_counts = _interned(
            [table._gene_terms[genes[r]] for r in fresh.tolist()], term_index
        )
        rows = np.concatenate(
            [np.repeat(np.flatnonzero(reuse), kept_counts), np.repeat(fresh, fresh_counts)]
        )
        return cls.from_pairs(genes, rows, np.concatenate([kept_ids, fresh_ids]), term_index)

    def row_of(self, gene: Hashable) -> int:
        """Gene row of one label (``str()``-normalised), ``-1`` when unannotated."""
        return self._row_of.get(str(gene), -1)

    def rows_for(self, genes: Iterable[Hashable]) -> np.ndarray:
        """Map labels to gene rows (``-1`` for unannotated) in one pass."""
        get = self._row_of.get
        return np.fromiter((get(str(g), -1) for g in genes), dtype=np.int64)

    def terms_of_row(self, row: int) -> np.ndarray:
        """The sorted interned term ids of gene row ``row``."""
        return self.term_ids[self.indptr[row] : self.indptr[row + 1]]


class AnnotationTable:
    """A mapping from gene identifiers to sets of GO term ids.

    Parameters
    ----------
    dag:
        The ontology the term ids must belong to.  Annotations naming unknown
        terms raise ``KeyError`` at insertion time, so a table is always
        consistent with its DAG.
    annotations:
        Optional initial mapping ``gene -> iterable of term ids``.
    """

    def __init__(
        self,
        dag: GODag,
        annotations: Optional[Mapping[str, Iterable[str]]] = None,
    ) -> None:
        self.dag = dag
        self._gene_terms: dict[str, set[str]] = {}
        # The term -> genes inverse is built on the first genes_of* read: the
        # scoring path never reads it, and it is one set per annotated term.
        self._term_genes: Optional[dict[str, set[str]]] = None
        self._index: Optional[AnnotationIndex] = None
        if annotations:
            for gene, terms in annotations.items():
                self.annotate(gene, terms)

    @classmethod
    def from_pairs(
        cls,
        dag: GODag,
        genes: Sequence[str],
        rows: np.ndarray,
        term_ids: np.ndarray,
    ) -> "AnnotationTable":
        """Bulk-build a table and its index from (gene row, term id) pair arrays.

        ``term_ids`` are interned in ``dag.term_index()``, ``rows`` index into
        ``genes`` (the table's insertion order); see
        :meth:`AnnotationIndex.from_pairs`.  Equal to annotating each gene in
        turn with its terms, without the per-gene calls.
        """
        index = AnnotationIndex.from_pairs(genes, rows, term_ids, dag.term_index())
        table = cls(dag)
        names = np.array(index.term_index.terms, dtype=object)[index.term_ids].tolist()
        bounds = index.indptr.tolist()
        table._gene_terms = {
            g: set(names[bounds[i] : bounds[i + 1]]) for i, g in enumerate(index.genes)
        }
        table._index = index
        return table

    # ------------------------------------------------------------------
    def annotate(self, gene: str, terms: Iterable[str]) -> None:
        """Add term annotations to ``gene`` (terms must exist in the DAG).

        An empty ``terms`` is a no-op: the table holds annotated genes only.
        """
        term_list = list(terms)
        for t in term_list:
            if t not in self.dag:
                raise KeyError(f"annotation of {gene!r} names unknown GO term {t!r}")
        if not term_list:
            return
        self._gene_terms.setdefault(gene, set()).update(term_list)
        if self._term_genes is not None:
            for t in term_list:
                self._term_genes.setdefault(t, set()).add(gene)
        self._index = None

    def indexed(self) -> AnnotationIndex:
        """Return the CSR :class:`AnnotationIndex` of this table (cached).

        The index is pinned to the DAG's current
        :meth:`~repro.ontology.go_dag.GODag.term_index` snapshot and rebuilt
        whenever either side moved — new annotations drop it eagerly, DAG
        mutations are detected by snapshot identity.
        """
        term_index = self.dag.term_index()
        index = self._index
        if index is None or index.term_index is not term_index:
            index = AnnotationIndex(self, term_index)
            self._index = index
        return index

    def terms_of(self, gene: str) -> set[str]:
        """Return the terms annotated to ``gene`` (empty set when unannotated)."""
        return set(self._gene_terms.get(gene, set()))

    def _genes_by_term(self) -> dict[str, set[str]]:
        """The term -> genes inverse, built on first use and kept current after."""
        if self._term_genes is None:
            inverse: dict[str, set[str]] = {}
            for gene, terms in self._gene_terms.items():
                for t in terms:
                    inverse.setdefault(t, set()).add(gene)
            self._term_genes = inverse
        return self._term_genes

    def genes_of(self, term: str) -> set[str]:
        """Return the genes annotated with ``term`` (directly, not via descendants)."""
        return set(self._genes_by_term().get(term, set()))

    def genes_of_subtree(self, term: str) -> set[str]:
        """Return genes annotated with ``term`` or any of its descendants."""
        inverse = self._genes_by_term()
        out: set[str] = set()
        for t in self.dag.subtree(term):
            out |= inverse.get(t, set())
        return out

    def is_annotated(self, gene: str) -> bool:
        return bool(self._gene_terms.get(gene))

    def genes(self) -> list[str]:
        """Return every annotated gene (insertion order)."""
        return list(self._gene_terms)

    def n_annotations(self) -> int:
        """Return the total number of (gene, term) pairs."""
        return sum(len(v) for v in self._gene_terms.values())

    def coverage(self, genes: Iterable[str]) -> float:
        """Return the fraction of ``genes`` that carry at least one annotation."""
        genes = list(genes)
        if not genes:
            return 0.0
        return sum(1 for g in genes if self.is_annotated(g)) / len(genes)

    def merged_with(self, other: "AnnotationTable") -> "AnnotationTable":
        """Return a new table containing the union of both tables' annotations."""
        if other.dag is not self.dag:
            raise ValueError("both tables must reference the same GODag instance")
        merged = AnnotationTable(self.dag)
        for gene in self.genes():
            merged.annotate(gene, self.terms_of(gene))
        for gene in other.genes():
            merged.annotate(gene, other.terms_of(gene))
        return merged

    def __len__(self) -> int:
        return len(self._gene_terms)

    def __contains__(self, gene: str) -> bool:
        return gene in self._gene_terms

"""Unit tests for the synthetic GO DAG generator and study annotation."""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expression.datasets import make_study
from repro.ontology import (
    AnnotationIndex,
    EnrichmentScorer,
    annotate_study,
    make_go_dag,
    make_study_ontology,
)
from repro.ontology.generator import reference_annotate_study


def annotation_digest(table) -> str:
    """sha256 over the genes in insertion order with their sorted terms, and the index CSR."""
    h = hashlib.sha256()
    h.update(json.dumps([[g, sorted(table.terms_of(g))] for g in table.genes()]).encode())
    index = table.indexed()
    h.update(index.indptr.tobytes())
    h.update(index.term_ids.tobytes())
    return h.hexdigest()


#: Digests of the per-gene annotation path (``reference_annotate_study``: one
#: scalar draw and one ``annotate`` call per background pick), which the bulk
#: ``annotate_study`` must reproduce byte for byte.  Pure RNG and integer
#: work, so unlike ``STUDY_DIGESTS`` they do not depend on the BLAS build.
ANNOTATION_DIGESTS = {
    "YNG@0.05": "ab299e61f1b441eca641de6df5feeb5096473a35b668d1851da4d28e58a75f0f",
    "YNG@0.15": "df2b78d241caf3aaf8c0d1e87b85f3bd4a579e0ad080f1b03890db691d6f9d44",
    "MID@0.05": "1a1d49cef666adeada1e7166f57c1d9aa36b84729f0b90fb6aad7444fe3286e6",
    "MID@0.15": "f50579b430ced42ca40561006c4fabfdf295100f111679d89af17825a7469d7a",
    "UNT@0.05": "f998f9c2828e829388d9534bdaaa2a544f993a76e9c5994f201dd94d823b94c5",
    "UNT@0.15": "4f5f7d017f63ab3fa921552f31de2877d133d98ae861f8e974fe4a15c64074a0",
    "CRE@0.05": "a593ef05a6e8c90fad73b2abf574b9a0586b147239dd1f0c1e409167bafbd299",
    "CRE@0.15": "0f4b29cb60e5e96a3bc78c562fc0e3739da480eb4b984a29faef01977c9abde1",
    "CRE@1.0": "b84eec00aac665802bf056e6bf01d3921bbf0298094563d2198778e11ced06b8",
}


def assert_same_annotations(got, expect) -> None:
    """Equal tables (gene order, term sets) and byte-equal index arrays."""
    assert got.genes() == expect.genes()
    assert all(got.terms_of(g) == expect.terms_of(g) for g in expect.genes())
    a, b = got.indexed(), expect.indexed()
    assert a.genes == b.genes
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.term_ids, b.term_ids)


class TestMakeGoDag:
    def test_depth_and_size(self, small_go_dag):
        assert small_go_dag.max_depth() == 5
        assert len(small_go_dag) > 2 ** 5

    def test_validates(self, small_go_dag):
        small_go_dag.validate()

    def test_reproducible(self):
        a = make_go_dag(depth=4, branching=2, seed=9)
        b = make_go_dag(depth=4, branching=2, seed=9)
        assert a.terms() == b.terms()

    def test_some_terms_have_multiple_parents(self):
        dag = make_go_dag(depth=5, branching=3, extra_parent_fraction=0.2, seed=1)
        multi = [t for t in dag.terms() if len(dag.parents(t)) > 1]
        assert multi

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            make_go_dag(depth=1)
        with pytest.raises(ValueError):
            make_go_dag(branching=1)


class TestAnnotateStudy:
    def test_all_genes_annotated(self, tiny_study, small_go_dag):
        table = annotate_study(tiny_study, small_go_dag)
        assert table.coverage(tiny_study.matrix.genes) == pytest.approx(1.0)

    def test_module_edges_score_higher_than_background_edges(self, tiny_study, small_go_dag):
        table = annotate_study(tiny_study, small_go_dag, seed=2)
        scorer = EnrichmentScorer(small_go_dag, table)
        module = next(iter(tiny_study.modules.values()))
        module_scores = [
            scorer.edge(module[i], module[j]).score
            for i in range(len(module))
            for j in range(i + 1, len(module))
        ]
        background = [g for g in tiny_study.matrix.genes if g not in tiny_study.module_of()][:16]
        background_scores = [
            scorer.edge(background[i], background[j]).score
            for i in range(len(background))
            for j in range(i + 1, len(background))
        ]
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean(module_scores) > mean(background_scores) + 1.0

    def test_annotation_reproducible_for_seed(self, tiny_study, small_go_dag):
        a = annotate_study(tiny_study, small_go_dag, seed=7)
        b = annotate_study(tiny_study, small_go_dag, seed=7)
        genes = tiny_study.matrix.genes[:20]
        assert all(a.terms_of(g) == b.terms_of(g) for g in genes)

    def test_make_study_ontology_bundles_dag_and_annotations(self, tiny_study):
        dag, table = make_study_ontology(tiny_study, depth=5, branching=2)
        assert table.dag is dag
        assert table.coverage(tiny_study.matrix.genes) == pytest.approx(1.0)

    def test_requires_deep_enough_dag(self, tiny_study):
        shallow = make_go_dag(depth=2, branching=2, seed=0)
        with pytest.raises(ValueError):
            annotate_study(tiny_study, shallow, module_term_min_depth=10)


class TestAnnotationDigests:
    @pytest.mark.parametrize("key", sorted(ANNOTATION_DIGESTS))
    def test_dataset_annotation_digest(self, key):
        name, scale = key.split("@")
        _dag, table = make_study_ontology(make_study(name, scale=float(scale)))
        assert annotation_digest(table) == ANNOTATION_DIGESTS[key]


class TestBulkAnnotationEqualsReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        per_gene=st.integers(0, 4),
        min_depth=st.one_of(st.none(), st.integers(0, 5)),
        signal=st.floats(0.0, 1.0),
    )
    def test_bulk_build_equals_per_gene_reference(
        self, tiny_study, small_go_dag, seed, per_gene, min_depth, signal
    ):
        study = dataclasses.replace(
            tiny_study, config=dataclasses.replace(tiny_study.config, biological_signal=signal)
        )
        kwargs = dict(
            seed=seed, module_term_min_depth=min_depth, background_terms_per_gene=per_gene
        )
        got = annotate_study(study, small_go_dag, **kwargs)
        expect = reference_annotate_study(study, small_go_dag, **kwargs)
        assert_same_annotations(got, expect)
        # The index seeded by the bulk build is the one a cold build gives.
        cold = AnnotationIndex(got, small_go_dag.term_index())
        assert np.array_equal(cold.indptr, got.indexed().indptr)
        assert np.array_equal(cold.term_ids, got.indexed().term_ids)

    def test_no_background_terms_leaves_background_genes_unannotated(
        self, tiny_study, small_go_dag
    ):
        table = annotate_study(tiny_study, small_go_dag, background_terms_per_gene=0)
        members = {g for genes in tiny_study.modules.values() for g in genes}
        assert set(table.genes()) == members
        assert table.indexed().n_genes == len(members)
        assert_same_annotations(
            table, reference_annotate_study(tiny_study, small_go_dag, background_terms_per_gene=0)
        )

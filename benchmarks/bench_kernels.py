"""Micro-benchmarks of the computational kernels (wall-clock, multiple rounds).

These are conventional pytest-benchmark measurements of the building blocks —
the Dearing–Shier–Warner extraction, chordality recognition, MCODE, Pearson
thresholding and the partitioners — so that performance regressions in the
hot paths are visible independently of the figure-level experiments.
"""

from __future__ import annotations

import pytest

from repro.clustering import mcode_clusters
from repro.core import chordal_subgraph_edges, is_chordal, maximal_chordal_subgraph
from repro.core.chordal import (
    chordal_subgraph_edge_indices,
    maximum_cardinality_search,
    reference_chordal_subgraph_edges,
    reference_maximum_cardinality_search,
)
from repro.core.random_walk import random_walk_edges
from repro.expression import correlated_pairs, make_study
from repro.graph import CSRGraph, correlation_like_graph, partition_graph, rcm_order
from repro.parallel.rng import rank_rngs


@pytest.fixture(scope="module")
def kernel_graph():
    return correlation_like_graph(
        n_modules=10, module_size=12, n_background=900, p_noise=0.002, seed=5
    )


@pytest.fixture(scope="module")
def kernel_csr(kernel_graph):
    return CSRGraph.from_graph(kernel_graph)


@pytest.fixture(scope="module")
def kernel_study():
    return make_study("YNG", scale=0.05)


def test_kernel_chordal_extraction(benchmark, kernel_graph):
    edges = benchmark(chordal_subgraph_edges, kernel_graph)
    assert edges


def test_kernel_chordal_extraction_reference(benchmark, kernel_graph):
    # The seed label-and-set implementation; compare against
    # test_kernel_chordal_extraction for the CSR-port speedup.
    edges = benchmark(reference_chordal_subgraph_edges, kernel_graph)
    assert edges


def test_kernel_chordal_extraction_csr_only(benchmark, kernel_csr):
    # The int-indexed DSW kernel on a prebuilt CSR view (no conversion cost).
    pairs = benchmark(chordal_subgraph_edge_indices, kernel_csr)
    assert pairs


def test_kernel_csr_conversion(benchmark, kernel_graph):
    csr = benchmark(CSRGraph.from_graph, kernel_graph)
    assert csr.n_edges == kernel_graph.n_edges


def test_kernel_mcs(benchmark, kernel_graph):
    order = benchmark(maximum_cardinality_search, kernel_graph)
    assert len(order) == kernel_graph.n_vertices


def test_kernel_mcs_reference(benchmark, kernel_graph):
    # The seed O(V²) selection scan; compare against test_kernel_mcs.
    order = benchmark(reference_maximum_cardinality_search, kernel_graph)
    assert len(order) == kernel_graph.n_vertices


def test_kernel_chordality_recognition(benchmark, kernel_graph):
    sub = maximal_chordal_subgraph(kernel_graph)
    assert benchmark(is_chordal, sub)


def test_kernel_mcode(benchmark, kernel_graph):
    clusters = benchmark(mcode_clusters, kernel_graph)
    assert clusters


def test_kernel_random_walk(benchmark, kernel_graph):
    rng = rank_rngs(0, 1)[0]
    edges, selections = benchmark(random_walk_edges, kernel_graph, rng)
    assert selections > 0


def test_kernel_rcm_ordering(benchmark, kernel_graph):
    order = benchmark(rcm_order, kernel_graph)
    assert len(order) == kernel_graph.n_vertices


def test_kernel_block_partition(benchmark, kernel_graph):
    part = benchmark(partition_graph, kernel_graph, 16, "block")
    assert part.n_parts == 16


def test_kernel_correlation_thresholding(benchmark, kernel_study):
    pairs = benchmark(correlated_pairs, kernel_study.matrix)
    assert pairs

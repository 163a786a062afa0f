"""Shared fixtures for the test suite.

Heavy objects (synthetic studies, dataset bundles, GO DAGs) are session-scoped
and built at a very small scale so the whole suite stays fast while still
exercising the full pipeline.
"""

from __future__ import annotations

import pytest

from repro.expression.datasets import StudyConfig, generate_study
from repro.graph import (
    Graph,
    barabasi_albert_graph,
    complete_graph,
    correlation_like_graph,
    cycle_graph,
    erdos_renyi_graph,
    grid_graph,
    path_graph,
    planted_partition_graph,
    random_tree,
    star_graph,
)
from repro.ontology.generator import make_go_dag
from repro.pipeline.workflow import prepare_dataset


@pytest.fixture
def triangle() -> Graph:
    """K3."""
    return complete_graph(3, prefix="t")


@pytest.fixture
def square() -> Graph:
    """C4 — the smallest non-chordal graph."""
    return cycle_graph(4, prefix="s")


@pytest.fixture
def small_random_graph() -> Graph:
    """A deterministic 30-vertex random graph used across algorithm tests."""
    return erdos_renyi_graph(30, 0.15, seed=7)


@pytest.fixture
def house_graph() -> Graph:
    """A 5-vertex 'house': a square with a triangular roof (not chordal)."""
    g = Graph()
    g.add_edges([("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "e"), ("b", "e")])
    return g


def _disconnected_graph() -> Graph:
    """Two cycles, a pendant edge and an isolated vertex (four components)."""
    g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d")])
    g.add_edges([("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "p"), ("x", "y")])
    g.add_vertex("iso")
    return g


def _int_labelled_graph() -> Graph:
    """Integer labels whose ``str`` and ``repr`` orders differ from numeric order."""
    return Graph(edges=[(3, 1), (1, 2), (2, 10), (10, 3), (2, 4), (4, 20), (20, 10), (4, 100)])


#: Small named graphs covering the structural cases the graph kernels branch
#: on: trees, single cycles, cliques, hubs, grids, several components,
#: isolated vertices, degree ties and non-string labels.
GRAPH_CORPUS = {
    "path7": lambda: path_graph(7),
    "cycle6": lambda: cycle_graph(6),
    "complete5": lambda: complete_graph(5),
    "star5": lambda: star_graph(5),
    "grid3x4": lambda: grid_graph(3, 4),
    "tree15": lambda: random_tree(15, seed=3),
    "er30": lambda: erdos_renyi_graph(30, 0.15, seed=7),
    "ba25": lambda: barabasi_albert_graph(25, 2, seed=1),
    "planted": lambda: planted_partition_graph([6, 6, 6], 0.7, 0.05, seed=2),
    "correlation": lambda: correlation_like_graph(
        n_modules=2, module_size=6, n_background=20, p_noise=0.02, seed=5
    ),
    "disconnected": _disconnected_graph,
    "int_labels": _int_labelled_graph,
}


@pytest.fixture(params=sorted(GRAPH_CORPUS))
def corpus_graph(request) -> Graph:
    """Each graph of :data:`GRAPH_CORPUS` in turn (a fresh copy per test)."""
    return GRAPH_CORPUS[request.param]()


@pytest.fixture(scope="session")
def tiny_study_config() -> StudyConfig:
    """A minimal study configuration usable in seconds."""
    return StudyConfig(
        name="TINY",
        n_genes=160,
        n_samples=10,
        n_modules=3,
        module_size=8,
        module_tightness=0.15,
        n_noise_chains=8,
        noise_chain_length=5,
        n_noise_clumps=4,
        noise_clump_size=6,
        clump_tightness=0.24,
        n_module_attachments=10,
        biological_signal=0.9,
    )


@pytest.fixture(scope="session")
def tiny_study(tiny_study_config):
    """A generated tiny study shared across tests (treat as read-only)."""
    return generate_study(tiny_study_config, seed=11)


@pytest.fixture(scope="session")
def tiny_network(tiny_study):
    """The tiny study's thresholded correlation network (treat as read-only)."""
    return tiny_study.network()


@pytest.fixture(scope="session")
def small_go_dag():
    """A small GO-like DAG (depth 5, branching 2) shared across ontology tests."""
    return make_go_dag(depth=5, branching=2, seed=3)


@pytest.fixture(scope="session")
def cre_bundle():
    """A very small CRE bundle exercising the full pipeline (treat as read-only)."""
    return prepare_dataset("CRE", scale=0.02, seed=123)

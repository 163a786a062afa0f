"""Shared fixtures for the test suite.

Heavy objects (synthetic studies, dataset bundles, GO DAGs) are session-scoped
and built at a very small scale so the whole suite stays fast while still
exercising the full pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering.cluster import Cluster
from repro.expression.datasets import StudyConfig, generate_study
from repro.faults import clear_plan
from repro.graph import (
    CSRGraph,
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
from repro.graph.graph import edge_key
from repro.ontology.enrichment import EdgeAnnotation
from repro.ontology.generator import make_go_dag
from repro.parallel.runner import pop_supervision_events, supervision_counters
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
    return Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "e"), ("b", "e")])


def _disconnected_graph() -> Graph:
    """Two cycles, a pendant edge and an isolated vertex (four components)."""
    g = Graph(
        edges=[
            ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("b", "d"),
            ("p", "q"), ("q", "r"), ("r", "s"), ("s", "t"), ("t", "p"), ("x", "y"),
        ]
    )
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


def _score_edges(scorer, edges) -> list[EdgeAnnotation]:
    term_index, ann_index = scorer._indexes()
    ru = ann_index.rows_for(u for u, _ in edges)
    rv = ann_index.rows_for(v for _, v in edges)
    dcp, depth, breadth, score = scorer._edge_score_arrays(ru, rv, term_index, ann_index)
    return [
        EdgeAnnotation(
            edge=edge_key(u, v),
            dcp=term_index.terms[int(d)] if d >= 0 else None,
            depth=int(dp),
            breadth=int(b),
            score=float(sc),
        )
        for (u, v), d, dp, b, sc in zip(edges, dcp, depth, breadth, score)
    ]


@pytest.fixture
def score_edges():
    """``score_edges(scorer, edges)``: the batched kernel's annotation of each
    edge, scored in the orientation given — the form ``reference_score_edge``
    returns."""
    return _score_edges


def _index_cluster(csr, cid, members, pairs, score=4.0) -> Cluster:
    indices = np.array(members, dtype=np.int64)
    edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    return Cluster.from_indices(cid, csr, indices, edges, score, members[0] if members else 0)


@pytest.fixture
def index_cluster():
    """``index_cluster(csr, cid, members, pairs, score=4.0)``: an index-native
    cluster over ``csr`` from member indices and ``(u, v)`` index pairs — the
    form MCODE hands the product consumers."""
    return _index_cluster


def _graph_clusters(*graphs: Graph) -> list[Cluster]:
    union = Graph()
    for g in graphs:
        for v in g.vertices():
            union.add_vertex(v)
        for u, v in g.iter_edges():
            union.add_edge(u, v)
    csr = CSRGraph.from_graph(union)
    return [
        _index_cluster(
            csr,
            cid,
            csr.to_indices(g.vertices()),
            [csr.to_indices(edge) for edge in g.iter_edges()],
        )
        for cid, g in enumerate(graphs)
    ]


@pytest.fixture
def graph_clusters():
    """``graph_clusters(*graphs)``: one index-native cluster per label graph
    (its vertices and edges), all over the CSR of the graphs' union, so they
    share one label space.  At least one graph must have a vertex."""
    return _graph_clusters


@pytest.fixture
def counter_delta():
    """No fault plan and drained supervision events around the test.

    Yields ``delta()``: how far the process-wide supervision counters moved
    since the test began, so a count an earlier test left behind cannot
    satisfy an assertion.
    """
    clear_plan()
    pop_supervision_events()
    start = supervision_counters()
    yield lambda: {key: value - start[key] for key, value in supervision_counters().items()}
    clear_plan()
    pop_supervision_events()


@pytest.fixture(scope="module")
def fresh_bundle_cache():
    """Empty bundle and analysis caches of :mod:`repro.pipeline.experiments`
    for one test module, the process-wide ones restored afterwards.

    Yields ``cold()``, which swaps in empty caches again, so the next
    ``get_bundle`` in the test builds its bundle cold.
    """
    from repro.pipeline import experiments

    with pytest.MonkeyPatch.context() as mp:

        def cold() -> None:
            mp.setattr(experiments, "_BUNDLE_CACHE", {})
            mp.setattr(experiments, "_ANALYSIS_CACHE", {})

        cold()
        yield cold


#: Scale of the paper-configuration driver outputs (``paper_output``).
PAPER_OUTPUT_SCALE = 0.02


@pytest.fixture(scope="session")
def paper_output():
    """``run(name)``: the output of a figure driver (a ``DRIVERS`` name) or an
    ablation (a function name of :mod:`repro.pipeline.ablation`) in its paper
    configuration at :data:`PAPER_OUTPUT_SCALE`, computed once per session.

    The digest pin and the behaviour tests read the same outputs, so each
    configuration runs once.  Outputs are shared: tests must not mutate them.
    """
    from repro.pipeline import ablation
    from repro.pipeline.batch import DRIVERS

    runners = {**DRIVERS, **{name: getattr(ablation, name) for name in ablation.__all__}}
    outputs: dict[str, dict] = {}

    def run(name: str) -> dict:
        if name not in outputs:
            outputs[name] = runners[name](scale=PAPER_OUTPUT_SCALE)
        return outputs[name]

    return run

"""The label-free evaluation chain, pinned to the label chain it replaced.

``prepare_dataset`` → ``analyze_filter`` → ``analysis_payload`` runs on
indices: the filter reads the bundle's CSR, MCODE clusters the result's
filtered CSR into index-native clusters, and scoring and overlap read their
edge pairs.  This suite pins:

* the payload bytes to the label chain recomposed from the retained bodies —
  a label network filtered as a ``Graph``, hand-built clusters cut with
  ``Graph.subgraph``, the seed per-edge scorer walking each subgraph's label
  edges and the reference overlap loops — and the served ``enrich`` payload
  likewise;
* that the chain, a served ``enrich`` and a served sample update build no
  label graph at all;
* that no product path reaches the reference overlap loops or the seed
  scorer;
* that one analysis scores its filtered clusters exactly once;
* that cluster scores do not depend on the order or orientation of a
  cluster's edge pairs.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from repro.clustering import overlap
from repro.clustering.cluster import Cluster
from repro.clustering.evaluation import classify_matches, quadrant_counts
from repro.clustering.mcode import mcode_clusters_indices
from repro.clustering.overlap import (
    found_clusters,
    reference_lost_clusters,
    reference_match_clusters,
)
from repro.core.sampling import apply_filter
from repro.graph import CSRGraph, Graph
from repro.incremental import UpdateSpec, apply_update
from repro.ontology import enrichment
from repro.ontology.enrichment import ClusterEnrichment, EnrichmentScorer, reference_score_edge
from repro.pipeline import experiments
from repro.pipeline.workflow import (
    FilterAnalysis,
    analysis_payload,
    analyze_filter,
    enrichment_payload,
    prepare_dataset,
)
from repro.serve.handlers import handle_classify, handle_enrich, normalize_params
from repro.serve.state import ServerState

SCALE = 0.05
ORDERINGS = ["natural", "high_degree", "low_degree", "rcm"]
METHODS = ["chordal", "chordal_comm", "random_walk"]


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def bundles():
    return {name: prepare_dataset(name, scale=SCALE) for name in ("YNG", "CRE")}


# ----------------------------------------------------------------------
# the label chain, recomposed from the retained bodies
# ----------------------------------------------------------------------
def label_clusters(graph: Graph, source: str) -> list[Cluster]:
    """MCODE's clusters of ``graph`` in the hand-built label form."""
    csr = CSRGraph.from_graph(graph)
    labels = csr.labels
    clusters = []
    for i, complex_ in enumerate(mcode_clusters_indices(csr)):
        members = [labels[u] for u in complex_.members]
        clusters.append(
            Cluster(
                i,
                members,
                graph.subgraph(members),
                complex_.score,
                seed=labels[complex_.seed],
                source=source,
            )
        )
    return clusters


#: id(annotation table) -> (table, {(u, v): EdgeAnnotation}); the table is
#: held so its id cannot be reused while its memo lives.
_EDGE_SCORES: dict = {}


def reference_enrichment(bundle, graph: Graph) -> ClusterEnrichment:
    """``reference_score_cluster`` over ``graph``, with each edge's
    ``reference_score_edge`` memoised: the chain grid re-scores the same
    edges under every ordering and partition count."""
    dag, table = bundle.scorer.dag, bundle.scorer.annotations
    memo = _EDGE_SCORES.setdefault(id(table), (table, {}))[1]
    edges = []
    for u, v in graph.iter_edges():
        if (u, v) not in memo:
            memo[u, v] = reference_score_edge(dag, table, u, v)
        edges.append(memo[u, v])
    return ClusterEnrichment(edges=edges)


def graph_walk_aees(bundle, clusters: list[Cluster]) -> list[float]:
    """AEES of each cluster's label subgraph, by the seed per-edge scorer."""
    return [reference_enrichment(bundle, c.subgraph).aees for c in clusters]


def label_chain_payload(bundle, method: str, ordering, n_partitions: int) -> dict:
    network = bundle.network
    result = apply_filter(network, method=method, ordering=ordering, n_partitions=n_partitions)
    label = f"{bundle.name}/{method}/{ordering or '-'}/{n_partitions}P"
    originals = label_clusters(network, f"{bundle.name}/original")
    clusters = label_clusters(result.graph, label)
    assert all(c.csr is None for c in originals + clusters)  # label overlap sets
    matches = reference_match_clusters(originals, clusters)
    lost = reference_lost_clusters(originals, clusters)
    aees = graph_walk_aees(bundle, clusters)
    scored = {
        attr: classify_matches(matches, bundle.scorer, bundle.thresholds, attr, aees=aees)
        for attr in ("node_overlap", "edge_overlap")
    }
    analysis = FilterAnalysis(
        bundle=bundle,
        result=result,
        clusters=clusters,
        matches=matches,
        scored_by_node=scored["node_overlap"],
        scored_by_edge=scored["edge_overlap"],
        found=found_clusters(matches),
        lost=lost,
        node_counts=quadrant_counts(scored["node_overlap"]),
        edge_counts=quadrant_counts(scored["edge_overlap"]),
    )
    return analysis_payload(analysis)


@pytest.mark.parametrize("n_partitions", [1, 2, 4])
@pytest.mark.parametrize("ordering", ORDERINGS)
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dataset", ["YNG", "CRE"])
def test_payload_equals_the_label_chain(bundles, dataset, method, ordering, n_partitions):
    bundle = bundles[dataset]
    analysis = analyze_filter(bundle, method=method, ordering=ordering, n_partitions=n_partitions)
    assert all(c.pairs is not None for c in analysis.clusters)
    expected = label_chain_payload(bundle, method, ordering, n_partitions)
    assert canonical(analysis_payload(analysis)) == canonical(expected)


@pytest.fixture
def served():
    return ServerState(SCALE)


@pytest.mark.parametrize(
    "params",
    [
        {"source": "original"},
        {"source": "filtered", "method": "chordal", "ordering": "rcm", "partitions": 2},
        {"source": "filtered", "method": "random_walk", "partitions": 4, "seed": 3},
    ],
    ids=["original", "filtered-chordal", "filtered-random-walk"],
)
def test_enrich_payload_equals_the_label_chain(served, params):
    state = served.get("CRE")
    request = normalize_params("enrich", {"dataset": "CRE", **params}, SCALE)
    bundle = state.bundle
    if request["source"] == "original":
        source = "CRE/original"
        clusters = label_clusters(bundle.network, source)
    else:
        result = apply_filter(
            bundle.network,
            method=request["method"],
            ordering=request["ordering"],
            n_partitions=request["partitions"],
            seed=request["seed"],
        )
        source = f"CRE/{request['method']}/{request['ordering'] or '-'}/{request['partitions']}P"
        clusters = label_clusters(result.graph, source)
    expected = enrichment_payload(clusters, graph_walk_aees(bundle, clusters), source)
    assert canonical(handle_enrich(state, request)) == canonical(expected)


# ----------------------------------------------------------------------
# no label graph on the hot paths
# ----------------------------------------------------------------------
@pytest.fixture
def label_builds(monkeypatch):
    counts = {"add_edge": 0, "subgraph": 0}
    add_edge, subgraph = Graph.add_edge, Graph.subgraph

    def counting_add_edge(self, u, v, **attrs):
        counts["add_edge"] += 1
        return add_edge(self, u, v, **attrs)

    def counting_subgraph(self, vertices):
        counts["subgraph"] += 1
        return subgraph(self, vertices)

    monkeypatch.setattr(Graph, "add_edge", counting_add_edge)
    monkeypatch.setattr(Graph, "subgraph", counting_subgraph)
    return counts


def test_analyze_chain_builds_no_label_graph(label_builds):
    bundle = prepare_dataset("CRE", scale=SCALE)
    for method, n_partitions in (("chordal", 1), ("chordal_comm", 2), ("random_walk", 4)):
        analysis = analyze_filter(bundle, method=method, ordering="rcm", n_partitions=n_partitions)
        analysis_payload(analysis)
    assert label_builds == {"add_edge": 0, "subgraph": 0}


def test_served_enrich_and_update_build_no_label_graph(served, label_builds):
    state = served.get("CRE")
    enrich = {"dataset": "CRE", "source": "filtered", "method": "chordal", "partitions": 2}
    handle_enrich(state, normalize_params("enrich", enrich, SCALE))
    report = served.update(state, UpdateSpec(add_samples=1, seed=5))
    assert report.mode == "delta" and "network" in report.dirty
    handle_classify(state, normalize_params("classify", {"dataset": "CRE"}, SCALE))
    state.summary()
    assert label_builds == {"add_edge": 0, "subgraph": 0}


# ----------------------------------------------------------------------
# no product path takes a slow path
# ----------------------------------------------------------------------
UPDATE_KINDS = [
    UpdateSpec(add_samples=1, seed=1),
    UpdateSpec(add_genes=2, seed=2),
    UpdateSpec(add_annotations=3, seed=3),
    UpdateSpec(add_terms=2, seed=4),
]


@pytest.fixture
def slow_paths(monkeypatch):
    """Counts calls of the reference overlap loops and the seed scorer."""
    counts: Counter = Counter()

    def counting(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    counting(overlap, "reference_match_clusters")
    counting(overlap, "reference_lost_clusters")
    counting(enrichment, "reference_score_cluster")
    counting(enrichment, "reference_score_edge")
    return counts


def analyze_all_methods(bundle) -> None:
    for method, n_partitions in (("chordal", 1), ("chordal_comm", 2), ("random_walk", 4)):
        analysis = analyze_filter(bundle, method=method, ordering="rcm", n_partitions=n_partitions)
        analysis_payload(analysis)


def test_product_paths_take_no_slow_path(slow_paths, fresh_bundle_cache):
    bundle = prepare_dataset("CRE", scale=SCALE)
    analyze_all_methods(bundle)
    for spec in UPDATE_KINDS:
        bundle, report = apply_update(bundle, spec)
        assert report.mode == "delta"
        analyze_all_methods(bundle)
    experiments.fig04_aees_by_ordering(SCALE)
    experiments.fig05_overlap_scatter(SCALE)
    experiments.fig09_cluster_refinement(SCALE)
    experiments.fig11_parallel_consistency(SCALE)
    served = ServerState(SCALE)
    state = served.get("CRE")
    for spec in (None, UpdateSpec(add_samples=1, seed=5)):
        if spec is not None:
            served.update(state, spec)
        for params in ({"source": "original"}, {"source": "filtered", "partitions": 2}):
            handle_enrich(state, normalize_params("enrich", {"dataset": "CRE", **params}, SCALE))
        handle_classify(state, normalize_params("classify", {"dataset": "CRE"}, SCALE))
    assert slow_paths == {}


# ----------------------------------------------------------------------
# one scoring pass per analysis
# ----------------------------------------------------------------------
def test_analysis_scores_its_clusters_once(bundles, monkeypatch):
    bundle = bundles["YNG"]
    scorer = bundle.scorer
    calls: Counter = Counter()
    for name in ("cluster_aees", "score_cluster_graphs"):
        method = getattr(scorer, name)

        def counted(*args, _name=name, _method=method, **kwargs):
            calls[_name] += 1
            return _method(*args, **kwargs)

        monkeypatch.setattr(scorer, name, counted)
    analysis = analyze_filter(bundle, method="chordal", ordering="high_degree", n_partitions=2)
    payload = analysis_payload(analysis)
    analysis.high_scoring_clusters()
    assert calls == {"cluster_aees": 1, "score_cluster_graphs": 1}
    monkeypatch.undo()
    walked = graph_walk_aees(bundle, analysis.clusters)
    assert payload["aees_hex"] == [float(a).hex() for a in walked]
    assert analysis.cluster_aees() == [s.aees for s in analysis.scored_by_edge]


# ----------------------------------------------------------------------
# scores do not depend on edge order
# ----------------------------------------------------------------------
def shuffled_clone(cluster: Cluster, rng: np.random.Generator) -> Cluster:
    """The same cluster with its pairs permuted and about half of them flipped."""
    pairs = cluster.pairs[rng.permutation(cluster.pairs.shape[0])]
    flip = rng.random(pairs.shape[0]) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    return Cluster.from_indices(
        cluster.cluster_id,
        cluster.csr,
        cluster.indices,
        pairs,
        cluster.score,
        cluster.csr.index_of(cluster.seed),
    )


def assert_same_scores(a, b) -> None:
    assert a.aees.tobytes() == b.aees.tobytes()
    assert a.max_score.tobytes() == b.max_score.tobytes()
    assert a.max_depth.tolist() == b.max_depth.tolist()
    assert a.n_edges.tolist() == b.n_edges.tolist()
    assert a.dominant == b.dominant


@pytest.mark.parametrize("dataset", ["YNG", "CRE"])
def test_scores_do_not_depend_on_edge_order(bundles, dataset):
    bundle = bundles[dataset]
    analysis = analyze_filter(bundle, method="chordal", ordering="rcm", n_partitions=2)
    clusters = analysis.clusters + bundle.original_clusters
    dag, table = bundle.scorer.dag, bundle.scorer.annotations
    scores = EnrichmentScorer(dag, table).score_cluster_graphs(clusters)
    rng = np.random.default_rng(11)
    for _ in range(3):
        shuffled = [shuffled_clone(c, rng) for c in clusters]
        assert_same_scores(scores, EnrichmentScorer(dag, table).score_cluster_graphs(shuffled))
    # The index pairs score exactly like the seed scorer walking the label
    # subgraphs they stand for.
    reference = [reference_enrichment(bundle, c.subgraph) for c in clusters]
    assert scores.aees.tolist() == [r.aees for r in reference]
    assert scores.max_score.tolist() == [r.max_score for r in reference]
    assert scores.max_depth.tolist() == [r.max_depth for r in reference]
    assert scores.n_edges.tolist() == [len(r.edges) for r in reference]
    assert scores.dominant == [r.dominant_term() for r in reference]


def test_a_graph_item_scores_like_its_index_cluster(bundles):
    # A label graph is the oracle's input: the product scorer refuses it and
    # names the oracle, which scores it exactly like its index cluster.
    bundle = bundles["YNG"]
    clusters = bundle.original_clusters[:5]
    dag, table = bundle.scorer.dag, bundle.scorer.annotations
    scorer = EnrichmentScorer(dag, table)
    segment = scorer.score_cluster_graphs(clusters)
    with pytest.raises(TypeError, match="reference_score_cluster"):
        scorer.score_cluster_graphs([*clusters[:4], clusters[4].subgraph])
    oracle = enrichment.reference_score_cluster(dag, table, clusters[4].subgraph)
    assert segment.aees[4] == oracle.aees
    assert segment.max_score[4] == oracle.max_score
    assert segment.max_depth[4] == oracle.max_depth
    assert segment.n_edges[4] == len(oracle.edges) == clusters[4].n_edges
    assert segment.dominant[4] == oracle.dominant_term()

"""Additional property-based tests (hypothesis) on substrate invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import mcode_clusters
from repro.clustering.overlap import edge_overlap, node_overlap
from repro.clustering.cluster import Cluster
from repro.core.random_walk import _walk
from repro.graph import CSRGraph, Graph, index_partition_graph
from repro.graph.ordering import ORDERING_INDEX_FNS
from repro.parallel.rng import rank_rngs


@st.composite
def labelled_graphs(draw, max_vertices: int = 16, max_edges: int = 36):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    vertices = [f"g{i}" for i in range(n)]
    g = Graph(vertices=vertices)
    if n >= 2:
        m = draw(st.integers(min_value=0, max_value=max_edges))
        pairs = st.tuples(
            st.integers(min_value=0, max_value=n - 1), st.integers(min_value=0, max_value=n - 1)
        )
        for _ in range(m):
            i, j = draw(pairs)
            if i != j:
                g.add_edge(vertices[i], vertices[j])
    return g


@settings(max_examples=50, deadline=None)
@given(labelled_graphs(), st.integers(min_value=1, max_value=6), st.sampled_from(["block", "hash", "bfs", "greedy"]))
def test_partitioners_always_produce_valid_partitions(g: Graph, n_parts: int, method: str):
    """Every partitioner covers the vertex set exactly and accounts for every edge."""
    part = index_partition_graph(CSRGraph.from_graph(g), n_parts, method=method)
    part.validate()
    assert part.n_parts == n_parts
    internal = sum(part.internal_edges_of(p)[0].shape[0] for p in range(n_parts))
    assert internal + part.n_border_edges == g.n_edges


@settings(max_examples=40, deadline=None)
@given(labelled_graphs(), st.sampled_from(sorted(ORDERING_INDEX_FNS)))
def test_orderings_are_permutations(g: Graph, name: str):
    """Every ordering returns each vertex exactly once."""
    order = ORDERING_INDEX_FNS[name](CSRGraph.from_graph(g))
    assert sorted(order.tolist()) == list(range(g.n_vertices))


@settings(max_examples=40, deadline=None)
@given(labelled_graphs(), st.integers(min_value=0, max_value=2**16))
def test_random_walk_selects_only_graph_edges(g: Graph, seed: int):
    """The random walk never invents edges and respects its selection budget."""
    rng = rank_rngs(seed, 1)[0]
    csr = CSRGraph.from_graph(g)
    edges, selections = _walk(csr.neighbor_lists(), csr.n_edges, rng, 0.5)
    assert selections == int(0.5 * g.n_edges)
    assert len(edges) <= max(selections, 0) or selections == 0
    rows = csr.neighbor_sets()
    for u, v in edges:
        assert v in rows[u]


@settings(max_examples=40, deadline=None)
@given(labelled_graphs())
def test_mcode_clusters_are_dense_subgraphs(g: Graph):
    """Every MCODE cluster meets the score/size thresholds and is an induced subgraph."""
    clusters = mcode_clusters(g)
    for c in clusters:
        assert c.score >= 3.0
        assert c.n_vertices >= 3
        for u, v in c.subgraph.iter_edges():
            assert g.has_edge(u, v)
        # post-processing guarantees a 2-core: no vertex of degree < 2 remains
        assert all(c.subgraph.degree(v) >= 2 for v in c.subgraph.vertices())
    # clusters never share a seed-grown vertex set entirely
    member_sets = [frozenset(c.members) for c in clusters]
    assert len(member_sets) == len(set(member_sets))


@st.composite
def cluster_pairs(draw):
    universe = [f"v{i}" for i in range(12)]
    size_a = draw(st.integers(min_value=1, max_value=10))
    size_b = draw(st.integers(min_value=1, max_value=10))
    members_a = draw(st.permutations(universe).map(lambda p: list(p[:size_a])))
    members_b = draw(st.permutations(universe).map(lambda p: list(p[:size_b])))

    def build(members):
        g = Graph(vertices=members)
        for i in range(len(members) - 1):
            g.add_edge(members[i], members[i + 1])
        return Cluster(cluster_id=0, members=members, subgraph=g, score=3.0)

    return build(members_a), build(members_b)


@settings(max_examples=60, deadline=None)
@given(cluster_pairs())
def test_overlap_measures_bounded_and_consistent(pair):
    """Overlap measures stay in [0, 1]."""
    a, b = pair
    no = node_overlap(a, b)
    eo = edge_overlap(a, b)
    assert 0.0 <= no <= 1.0
    assert 0.0 <= eo <= 1.0
    if set(a.members) == set(b.members):
        assert no == 1.0

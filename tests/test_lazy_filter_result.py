"""Index-native filter results: lazy label views pinned to the eager form.

Every sampler stores its outcome as index arrays over the input's CSR view
(``FilterResult.kept``, ``border_pairs``, ``accepted_border_pairs``) and
builds the label :class:`Graph` and the label border lists only when they are
read.  This suite pins that representation:

* ``RESULT_DIGESTS`` are fingerprints of the eager results — the filtered
  graph's vertex order, every vertex's neighbour order and edge attributes,
  both border lists in order, ``summary()``, the canonical payload and the
  provenance in ``extra`` — recorded from the samplers as they were before
  the results became lazy (each built ``original.spanning_subgraph`` and the
  label border lists while filtering).  The lazy results must reproduce them
  on every backend.
* The lazy views equal their eager constructions, the on-demand filtered CSR
  equals ``CSRGraph.from_graph(result.graph)`` bit for bit, and the index
  payload equals the ``_canonical_edges`` oracle.
* A repeated filter over one network builds no label graph and no CSR until
  ``.graph`` is read, and ``CSRGraph.of`` drops its cached view on every
  structural mutation of the graph.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.sampling import apply_filter
from repro.graph import Graph, barabasi_albert_graph, erdos_renyi_graph
from repro.graph.graph import edge_key
from repro.pipeline.workflow import _canonical_edges, filter_payload, payload_digest


# ----------------------------------------------------------------------
# cases and fingerprints
# ----------------------------------------------------------------------
def _relabel(g: Graph, kind: str) -> Graph:
    """``str`` keeps the generator's labels; ``int`` / ``mixed`` rename them
    so label order, string order and insertion order all disagree."""
    n = g.n_vertices
    if kind == "str":
        return g
    if kind == "int":
        mapping = {f"v{i}": (i * 37) % 101 for i in range(n)}
    else:
        mapping = {f"v{i}": i if i % 3 else f"s{i}" for i in range(n)}
    return Graph(
        edges=((mapping[u], mapping[v]) for u, v in g.iter_edges()),
        vertices=map(mapping.__getitem__, g.vertices()),
    )


def _with_attrs(g: Graph) -> Graph:
    """Attach a ``rho`` attribute to every third edge (attributes must carry)."""
    for k, (u, v) in enumerate(g.edges()):
        if k % 3 == 0:
            g.add_edge(u, v, rho=0.5 + k / 1000.0)
    return g


def case_graph(name: str) -> Graph:
    if name == "cre_study":
        from repro.expression.datasets import make_study

        # A real correlation network: string gene labels, ``rho`` on every edge.
        return make_study("CRE", scale=0.03).network()
    family, kind = name.split("_")
    if family == "er":
        g = erdos_renyi_graph(60, 0.12, seed=1)
    else:
        g = barabasi_albert_graph(80, 3, seed=2)
    return _with_attrs(_relabel(g, kind))


GRAPHS = [
    f"{family}_{kind}" for family in ("er", "ba") for kind in ("int", "str", "mixed")
] + ["cre_study"]

#: ``(method, n_partitions, keyword arguments)`` — every sampler and the
#: provenance-bearing variants (orderings, partitioners, cycle repair).
SPECS = [
    ("chordal", 1, {"ordering": "natural"}),
    ("chordal", 1, {"ordering": "rcm"}),
    ("chordal", 1, {"ordering": "high_degree"}),
    ("chordal", 2, {"ordering": "natural"}),
    ("chordal", 4, {"ordering": "low_degree"}),
    ("chordal", 4, {"ordering": "natural", "partition_method": "hash"}),
    ("chordal", 4, {"ordering": "natural", "repair_cycles": True}),
    ("chordal_comm", 2, {"ordering": "natural"}),
    ("chordal_comm", 4, {"ordering": "rcm"}),
    ("chordal_comm", 4, {"ordering": "natural", "partition_method": "bfs"}),
    ("random_walk", 1, {"ordering": None, "seed": 3}),
    ("random_walk", 2, {"ordering": None, "seed": 3}),
    ("random_walk", 4, {"ordering": None, "seed": 5, "partition_method": "hash"}),
]


def spec_id(spec) -> str:
    method, p, kwargs = spec
    extra = ",".join(f"{k}={v}" for k, v in sorted(kwargs.items()))
    return f"{method}/{p}P/{extra}"


def run_case(graph: Graph, spec, backend: str = "serial"):
    method, p, kwargs = spec
    kwargs = dict(kwargs)
    if method != "random_walk" and p > 1:
        kwargs["backend"] = backend
    return apply_filter(graph, method=method, n_partitions=p, **kwargs)


def graph_fingerprint(g: Graph) -> list:
    """Vertex order, per-vertex neighbour order and edge attributes of ``g``."""
    rows = [[repr(v), [repr(w) for w in g.neighbors(v)]] for v in g.vertices()]
    # ``rho`` is the only edge attribute any case graph carries.
    attrs = [
        [repr(e), [("rho", repr(g.edge_attr(*e, "rho")))]]
        for e in g.edges()
        if g.edge_attr(*e, "rho") is not None
    ]
    return [rows, attrs]


def label_edges(result, pairs) -> list:
    """``pairs`` (indices into ``result.csr``) as canonical label edges."""
    labels = result.csr.labels
    return [edge_key(labels[i], labels[j]) for i, j in pairs.tolist()]


def result_fingerprint(result) -> str:
    """Digest of everything a caller can read off a filter result."""
    blob = {
        "graph": graph_fingerprint(result.graph),
        "border": [repr(e) for e in label_edges(result, result.border_pairs)],
        "accepted": [repr(e) for e in label_edges(result, result.accepted_border_pairs)],
        "summary": {k: repr(v) for k, v in result.summary().items()},
        "payload": filter_payload(result, include_edges=True),
        "extra": {
            k: repr(result.extra[k])
            for k in ("border_cycle_sizes", "cycles_removed_edges", "selections")
            if k in result.extra
        },
    }
    text = json.dumps(blob, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


#: Fingerprints of the eager results, recorded before the results became
#: lazy (``result_fingerprint`` over ``case_graph`` × ``SPECS``, serial).
RESULT_DIGESTS = {
    ('er_int', 'chordal/1P/ordering=natural'): 'b66222e94d3ea452',
    ('er_int', 'chordal/1P/ordering=rcm'): '1527a4153c1bf310',
    ('er_int', 'chordal/1P/ordering=high_degree'): '1086725da89a8181',
    ('er_int', 'chordal/2P/ordering=natural'): 'a0b022e097991ecb',
    ('er_int', 'chordal/4P/ordering=low_degree'): 'd5f3fcf9132ee703',
    ('er_int', 'chordal/4P/ordering=natural,partition_method=hash'): 'd7c42928acea3dcc',
    ('er_int', 'chordal/4P/ordering=natural,repair_cycles=True'): '75c9a12fdc04ea0d',
    ('er_int', 'chordal_comm/2P/ordering=natural'): '893f970ef6401d1d',
    ('er_int', 'chordal_comm/4P/ordering=rcm'): 'da935376a2f717d0',
    ('er_int', 'chordal_comm/4P/ordering=natural,partition_method=bfs'): '4951105f141ab493',
    ('er_int', 'random_walk/1P/ordering=None,seed=3'): '51cef9fb4e365759',
    ('er_int', 'random_walk/2P/ordering=None,seed=3'): '1191ecb85505692b',
    ('er_int', 'random_walk/4P/ordering=None,partition_method=hash,seed=5'): 'e71f96d222869ab0',
    ('er_str', 'chordal/1P/ordering=natural'): 'b7c94fab0ffd92ab',
    ('er_str', 'chordal/1P/ordering=rcm'): 'e45e886e4c31e547',
    ('er_str', 'chordal/1P/ordering=high_degree'): '0a774140e6270f9a',
    ('er_str', 'chordal/2P/ordering=natural'): '51268ed4b827aa5e',
    ('er_str', 'chordal/4P/ordering=low_degree'): '13952a6269ede786',
    ('er_str', 'chordal/4P/ordering=natural,partition_method=hash'): '52891e2fa3d9ab39',
    ('er_str', 'chordal/4P/ordering=natural,repair_cycles=True'): '08998a3b573c17a4',
    ('er_str', 'chordal_comm/2P/ordering=natural'): '7459846fb0afbfa2',
    ('er_str', 'chordal_comm/4P/ordering=rcm'): '68798390b34f2e10',
    ('er_str', 'chordal_comm/4P/ordering=natural,partition_method=bfs'): '6ff28d89d54ef013',
    ('er_str', 'random_walk/1P/ordering=None,seed=3'): 'ff9386499881c57c',
    ('er_str', 'random_walk/2P/ordering=None,seed=3'): '50afb0d132653d1b',
    ('er_str', 'random_walk/4P/ordering=None,partition_method=hash,seed=5'): '484eacd5330867b0',
    ('er_mixed', 'chordal/1P/ordering=natural'): '08e7b132c5442476',
    ('er_mixed', 'chordal/1P/ordering=rcm'): '1c38803e1dea80f6',
    ('er_mixed', 'chordal/1P/ordering=high_degree'): 'a1e243f2c53c6185',
    ('er_mixed', 'chordal/2P/ordering=natural'): '546d427e33ca17da',
    ('er_mixed', 'chordal/4P/ordering=low_degree'): 'b3762cbb196e6e5e',
    ('er_mixed', 'chordal/4P/ordering=natural,partition_method=hash'): 'f437e8734ffbe288',
    ('er_mixed', 'chordal/4P/ordering=natural,repair_cycles=True'): '3603d109500e132e',
    ('er_mixed', 'chordal_comm/2P/ordering=natural'): '9dd886e92cf9da15',
    ('er_mixed', 'chordal_comm/4P/ordering=rcm'): 'fb34ac7cba1ac4ed',
    ('er_mixed', 'chordal_comm/4P/ordering=natural,partition_method=bfs'): 'f2b32ee89cb0313b',
    ('er_mixed', 'random_walk/1P/ordering=None,seed=3'): 'eeea0e05ff33784f',
    ('er_mixed', 'random_walk/2P/ordering=None,seed=3'): '7fc1eb8c1ad6aa45',
    ('er_mixed', 'random_walk/4P/ordering=None,partition_method=hash,seed=5'): 'b32c117279b0c9e3',
    ('ba_int', 'chordal/1P/ordering=natural'): 'ce22d475019f332a',
    ('ba_int', 'chordal/1P/ordering=rcm'): 'd7804705256ff64a',
    ('ba_int', 'chordal/1P/ordering=high_degree'): 'ef7e9515f013d905',
    ('ba_int', 'chordal/2P/ordering=natural'): '3619fd6d782f0e91',
    ('ba_int', 'chordal/4P/ordering=low_degree'): '1ba93b87851022da',
    ('ba_int', 'chordal/4P/ordering=natural,partition_method=hash'): 'c19610f5644f66ef',
    ('ba_int', 'chordal/4P/ordering=natural,repair_cycles=True'): '368d4e0050a8ce6d',
    ('ba_int', 'chordal_comm/2P/ordering=natural'): 'd9a1d8617d889565',
    ('ba_int', 'chordal_comm/4P/ordering=rcm'): '40508cba58b91aa4',
    ('ba_int', 'chordal_comm/4P/ordering=natural,partition_method=bfs'): '52f04119f7deb33c',
    ('ba_int', 'random_walk/1P/ordering=None,seed=3'): '58fe8013b2ed8e89',
    ('ba_int', 'random_walk/2P/ordering=None,seed=3'): '5ce4bed425cc1af1',
    ('ba_int', 'random_walk/4P/ordering=None,partition_method=hash,seed=5'): '560b98f2e26a7ee6',
    ('ba_str', 'chordal/1P/ordering=natural'): 'abad170e0ab1e515',
    ('ba_str', 'chordal/1P/ordering=rcm'): '7defb496348a99a5',
    ('ba_str', 'chordal/1P/ordering=high_degree'): 'd71ba1b2cd66b10b',
    ('ba_str', 'chordal/2P/ordering=natural'): '5c9f0ed0affbbab2',
    ('ba_str', 'chordal/4P/ordering=low_degree'): 'e9e63df212333e56',
    ('ba_str', 'chordal/4P/ordering=natural,partition_method=hash'): 'e7d22f4ef6a4606b',
    ('ba_str', 'chordal/4P/ordering=natural,repair_cycles=True'): 'afdc2b5ec4fe5c42',
    ('ba_str', 'chordal_comm/2P/ordering=natural'): '63a4beac2474dc80',
    ('ba_str', 'chordal_comm/4P/ordering=rcm'): 'd60d32c0794d4e98',
    ('ba_str', 'chordal_comm/4P/ordering=natural,partition_method=bfs'): '7c52fec080ee88ef',
    ('ba_str', 'random_walk/1P/ordering=None,seed=3'): 'ead114992f7aeaf7',
    ('ba_str', 'random_walk/2P/ordering=None,seed=3'): '8f89ed2cb197a329',
    ('ba_str', 'random_walk/4P/ordering=None,partition_method=hash,seed=5'): 'd10d1309942ea8f2',
    ('ba_mixed', 'chordal/1P/ordering=natural'): '593f99ebbf63bde3',
    ('ba_mixed', 'chordal/1P/ordering=rcm'): '5a27b0bf9c89d8dd',
    ('ba_mixed', 'chordal/1P/ordering=high_degree'): '7af0b596eaaed90c',
    ('ba_mixed', 'chordal/2P/ordering=natural'): 'e36b481ff713ab5b',
    ('ba_mixed', 'chordal/4P/ordering=low_degree'): 'daba8e4aae901c42',
    ('ba_mixed', 'chordal/4P/ordering=natural,partition_method=hash'): 'c8160aabb80d2aa3',
    ('ba_mixed', 'chordal/4P/ordering=natural,repair_cycles=True'): 'd6b80c9038d94e23',
    ('ba_mixed', 'chordal_comm/2P/ordering=natural'): 'b650322341d45197',
    ('ba_mixed', 'chordal_comm/4P/ordering=rcm'): '3f8e6bda9b4a5c94',
    ('ba_mixed', 'chordal_comm/4P/ordering=natural,partition_method=bfs'): '2c969d8ac2a5c768',
    ('ba_mixed', 'random_walk/1P/ordering=None,seed=3'): '3c2c2d7d4d27d164',
    ('ba_mixed', 'random_walk/2P/ordering=None,seed=3'): '70afced8a8f3dced',
    ('ba_mixed', 'random_walk/4P/ordering=None,partition_method=hash,seed=5'): '9862940aa5eb4c63',
    ('cre_study', 'chordal/1P/ordering=natural'): '3f0542547366fe98',
    ('cre_study', 'chordal/1P/ordering=rcm'): '097ae09fd9731af7',
    ('cre_study', 'chordal/1P/ordering=high_degree'): '0cd13ad14713bc66',
    ('cre_study', 'chordal/2P/ordering=natural'): 'cb19d11e04a28a24',
    ('cre_study', 'chordal/4P/ordering=low_degree'): '2b0f5e0c208f333e',
    ('cre_study', 'chordal/4P/ordering=natural,partition_method=hash'): '294e9b8bb0fadd63',
    ('cre_study', 'chordal/4P/ordering=natural,repair_cycles=True'): '4e4ac26f598c3120',
    ('cre_study', 'chordal_comm/2P/ordering=natural'): 'a153a565c2006466',
    ('cre_study', 'chordal_comm/4P/ordering=rcm'): 'b69ec5f9291a3ca7',
    ('cre_study', 'chordal_comm/4P/ordering=natural,partition_method=bfs'): 'e47a60cb0b6a949c',
    ('cre_study', 'random_walk/1P/ordering=None,seed=3'): '8d25aad86f193980',
    ('cre_study', 'random_walk/2P/ordering=None,seed=3'): '2112f14231714798',
    ('cre_study', 'random_walk/4P/ordering=None,partition_method=hash,seed=5'): 'e119d5456e13d1d0',
}

_GRAPH_CACHE: dict[str, Graph] = {}


def cached_graph(name: str) -> Graph:
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = case_graph(name)
    return _GRAPH_CACHE[name]


PARALLEL_CHORDAL_SPECS = [s for s in SPECS if s[0] != "random_walk" and s[1] > 1]


# ----------------------------------------------------------------------
# the lazy result reproduces the eager one
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("name", GRAPHS)
def test_result_matches_eager_fingerprint(name, spec):
    result = run_case(cached_graph(name), spec)
    assert result_fingerprint(result) == RESULT_DIGESTS[name, spec_id(spec)]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("spec", PARALLEL_CHORDAL_SPECS, ids=spec_id)
@pytest.mark.parametrize("name", ["er_mixed", "cre_study"])
def test_every_backend_matches_eager_fingerprint(name, spec, backend):
    result = run_case(cached_graph(name), spec, backend=backend)
    assert result_fingerprint(result) == RESULT_DIGESTS[name, spec_id(spec)]


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@pytest.mark.parametrize("name", GRAPHS)
def test_lazy_views_equal_eager_constructions(name, spec):
    from repro.graph import CSRGraph

    graph = cached_graph(name)
    result = run_case(graph, spec)
    labels = result.csr.labels
    assert result.csr is CSRGraph.of(graph)
    assert result.kept.dtype == np.int64 and result.kept.shape == (result.n_edges_kept, 2)

    eager = graph.spanning_subgraph(label_edges(result, result.kept))
    assert graph_fingerprint(result.graph) == graph_fingerprint(eager)
    assert result.graph is result.graph  # built once, then cached

    filtered = result.filtered_csr()
    expected = CSRGraph.from_graph(result.graph)
    assert filtered == expected
    assert filtered.labels == expected.labels
    assert np.array_equal(filtered.indptr, expected.indptr)
    assert np.array_equal(filtered.indices, expected.indices)
    assert filtered is not result.filtered_csr()  # built on demand, not cached

    payload = filter_payload(result, include_edges=True)
    oracle = _canonical_edges(result.graph)
    assert payload["edges"] == oracle
    assert payload["edges_sha256"] == payload_digest(oracle)
    assert payload["n_vertices"] == result.graph.n_vertices
    assert payload["edges_kept"] == result.graph.n_edges


def test_payload_ranks_labels_with_equal_strings_like_the_oracle():
    # 1 and "1" print alike: the index payload must tie them as the oracle does.
    g = Graph(edges=[(1, "b"), ("1", "a"), (1, "1"), ("b", "a"), (2, "1")])
    result = apply_filter(g, method="chordal", n_partitions=1)
    assert filter_payload(result, include_edges=True)["edges"] == _canonical_edges(result.graph)


# ----------------------------------------------------------------------
# a repeated filter builds no label graph and no CSR
# ----------------------------------------------------------------------
@pytest.fixture
def build_counts(monkeypatch):
    from repro.graph import CSRGraph

    counts = {"add_edge": 0, "from_graph": 0}
    add_edge = Graph.add_edge
    from_graph = CSRGraph.from_graph.__func__

    def counting_add_edge(self, u, v, **attrs):
        counts["add_edge"] += 1
        return add_edge(self, u, v, **attrs)

    def counting_from_graph(cls, graph):
        counts["from_graph"] += 1
        return from_graph(cls, graph)

    monkeypatch.setattr(Graph, "add_edge", counting_add_edge)
    monkeypatch.setattr(CSRGraph, "from_graph", classmethod(counting_from_graph))
    return counts


@pytest.mark.parametrize("n_partitions", [1, 2])
@pytest.mark.parametrize("method", ["chordal", "chordal_comm", "random_walk"])
def test_second_filter_builds_nothing_until_graph_is_read(build_counts, method, n_partitions):
    network = erdos_renyi_graph(80, 0.1, seed=4)
    kwargs = {"backend": "serial"} if method != "random_walk" else {"seed": 1}
    apply_filter(network, method=method, n_partitions=n_partitions, **kwargs)
    build_counts.update(add_edge=0, from_graph=0)

    result = apply_filter(network, method=method, n_partitions=n_partitions, **kwargs)
    filter_payload(result, include_edges=True)
    result.summary()
    assert build_counts == {"add_edge": 0, "from_graph": 0}
    result.filtered_csr()
    assert build_counts == {"add_edge": 0, "from_graph": 0}

    graph = result.graph
    assert build_counts["add_edge"] == result.n_edges_kept == graph.n_edges
    assert build_counts["from_graph"] == 0


def test_dataset_network_is_filtered_on_the_bundle_csr(build_counts):
    from repro.graph import CSRGraph
    from repro.pipeline.workflow import prepare_dataset

    bundle = prepare_dataset("CRE", scale=0.02)
    assert CSRGraph.of(bundle.network) is bundle.network_csr
    build_counts.update(add_edge=0, from_graph=0)
    result = apply_filter(bundle.network, method="chordal_comm", n_partitions=2, backend="serial")
    filter_payload(result)
    assert result.csr is bundle.network_csr
    assert build_counts == {"add_edge": 0, "from_graph": 0}


# ----------------------------------------------------------------------
# CSRGraph.of: one cached view per graph version
# ----------------------------------------------------------------------
def _square() -> Graph:
    return Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])


STRUCTURAL_MUTATIONS = {
    "add_vertex": lambda g: g.add_vertex("e"),
    "add_edge": lambda g: g.add_edge("a", "c"),
    "add_edge_new_endpoint": lambda g: g.add_edge("a", "z"),
    "remove_edge": lambda g: g.remove_edge("a", "b"),
    "remove_vertex": lambda g: g.remove_vertex("d"),
}


@pytest.mark.parametrize("mutation", sorted(STRUCTURAL_MUTATIONS))
def test_structural_mutation_drops_the_cached_view(mutation):
    from repro.graph import CSRGraph

    g = _square()
    before = CSRGraph.of(g)
    assert CSRGraph.of(g) is before
    STRUCTURAL_MUTATIONS[mutation](g)
    after = CSRGraph.of(g)
    assert after is not before
    assert after == CSRGraph.from_graph(g)
    assert CSRGraph.of(g) is after


def _refused(mutate):
    """A change that ``mutate`` attempts and the graph refuses with ``KeyError``."""

    def change(g: Graph) -> None:
        with pytest.raises(KeyError):
            mutate(g)

    return change


@pytest.mark.parametrize(
    "change",
    [
        lambda g: g.add_edge("a", "b", rho=0.9),  # existing edge, attributes only
        lambda g: g.add_vertex("a"),  # existing vertex
        _refused(lambda g: g.remove_edge("a", "c")),  # absent edge
        _refused(lambda g: g.remove_vertex("z")),  # absent vertex
    ],
    ids=["re_add_edge_with_attrs", "re_add_vertex", "remove_absent_edge", "remove_absent_vertex"],
)
def test_non_structural_change_keeps_the_cached_view(change):
    from repro.graph import CSRGraph

    g = _square()
    view = CSRGraph.of(g)
    change(g)
    assert CSRGraph.of(g) is view


@pytest.mark.parametrize("derive", ["copy", "subgraph"])
def test_derived_graphs_do_not_share_the_view(derive):
    from repro.graph import CSRGraph

    g = _square()
    view = CSRGraph.of(g)
    other = g.copy() if derive == "copy" else g.subgraph(["a", "b", "c"])
    assert CSRGraph.of(other) is not view
    assert CSRGraph.of(other) == CSRGraph.from_graph(other)
    assert CSRGraph.of(g) is view


def test_installed_view_must_match_the_graph_size():
    from repro.graph import CSRGraph

    g = _square()
    with pytest.raises(ValueError):
        CSRGraph.from_graph(Graph(edges=[("a", "b")])).install_as_view_of(g)
    view = CSRGraph.from_graph(g)
    view.install_as_view_of(g)
    assert CSRGraph.of(g) is view


def test_graph_with_a_cached_view_and_a_result_pickle():
    import pickle

    from repro.graph import CSRGraph

    g = erdos_renyi_graph(30, 0.2, seed=2)
    result = apply_filter(g, method="chordal", n_partitions=2, backend="serial")
    clone = pickle.loads(pickle.dumps(result))
    assert clone.csr == result.csr
    assert graph_fingerprint(clone.graph) == graph_fingerprint(result.graph)
    assert CSRGraph.of(clone.original) == CSRGraph.of(g)


def test_edge_sequence_csr_matches_incremental_graph():
    from repro.graph import CSRGraph

    rng = np.random.default_rng(7)
    labels = [f"v{i}" for i in range(25)]
    pairs = {tuple(sorted(p)) for p in rng.integers(0, 25, size=(90, 2)).tolist() if p[0] != p[1]}
    order = rng.permutation(len(pairs))
    seq = np.asarray(sorted(pairs), dtype=np.int64)[order]
    seq[::2] = seq[::2, ::-1]  # either orientation
    g = Graph(vertices=labels)
    for i, j in seq.tolist():
        g.add_edge(labels[i], labels[j])
    built = CSRGraph.from_edge_sequence(labels, seq[:, 0], seq[:, 1])
    expected = CSRGraph.from_graph(g)
    assert built == expected
    assert np.array_equal(built.indices, expected.indices)


# ----------------------------------------------------------------------
# lazy label objects of the CSR-native chain equal the eager ones
# ----------------------------------------------------------------------
def _eager_network(study) -> Graph:
    from repro.expression.correlation import network_from_pair_arrays

    ii, jj, rho = study._pair_arrays()
    return network_from_pair_arrays(study.matrix, ii, jj, rho)


def _rho_bits(g: Graph) -> list:
    return [
        (repr(v), [float(g.edge_attr(v, w, "rho")).hex() for w in g.neighbors(v)])
        for v in g.vertices()
    ]


def test_lazy_bundle_network_equals_the_eager_network(build_counts):
    from repro.graph import CSRGraph
    from repro.pipeline.workflow import prepare_dataset

    bundle = prepare_dataset("CRE", scale=0.03)
    assert build_counts["add_edge"] == 0  # nothing built until read
    eager = _eager_network(bundle.study)
    network = bundle.network
    assert graph_fingerprint(network) == graph_fingerprint(eager)
    assert _rho_bits(network) == _rho_bits(eager)
    assert network is bundle.network is bundle.study.network()
    assert CSRGraph.of(network) is bundle.network_csr
    assert bundle.network_csr == CSRGraph.from_graph(eager)


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_csr_input_filter_matches_eager_fingerprint(build_counts, spec):
    from repro.expression.datasets import make_study

    study = make_study("CRE", scale=0.03)
    csr = study.network_csr()
    result = run_case(csr, spec)
    filter_payload(result, include_edges=True)
    result.summary()
    assert result.csr is csr
    if not spec[2].get("repair_cycles"):  # the repair pass builds its own check graph
        assert build_counts == {"add_edge": 0, "from_graph": 0}
    assert result_fingerprint(result) == RESULT_DIGESTS["cre_study", spec_id(spec)]
    assert result.original is study.network()
    assert _rho_bits(result.original) == _rho_bits(_eager_network(study))


def test_filtered_csr_label_graph_is_the_result_graph():
    g = erdos_renyi_graph(60, 0.15, seed=8)
    result = apply_filter(g, method="chordal_comm", n_partitions=2, backend="serial")
    filtered = result.filtered_csr()
    assert filtered.label_graph() is result.graph


@pytest.mark.parametrize("source", ["network", "filtered"])
def test_index_clusters_equal_their_eager_label_form(source):
    from repro.clustering.mcode import mcode_clusters
    from repro.graph import CSRGraph
    from repro.pipeline.workflow import prepare_dataset

    bundle = prepare_dataset("YNG", scale=0.05)
    if source == "network":
        csr, graph = bundle.network_csr, _eager_network(bundle.study)
    else:
        result = apply_filter(bundle.network_csr, method="chordal", ordering="rcm")
        labels = result.csr.labels
        kept = [(labels[i], labels[j]) for i, j in result.kept.tolist()]
        csr, graph = result.filtered_csr(), _eager_network(bundle.study).spanning_subgraph(kept)
    for min_score in (3.0, 2.0):
        clusters = mcode_clusters(csr, min_score)
        assert clusters
        for c in clusters:
            eager = graph.subgraph(c.members)
            assert c.n_edges == eager.n_edges
            assert c.edge_set() == {edge_key(u, v) for u, v in eager.iter_edges()}
            # The pairs come in the order Graph.subgraph adds the edges.
            local = {v: i for i, v in enumerate(c.members)}
            labels = csr.labels
            seq = np.array(
                [[local[labels[u]], local[labels[v]]] for u, v in c.pairs.tolist()],
                dtype=np.int64,
            ).reshape(-1, 2)
            built = CSRGraph.from_edge_sequence(c.members, seq[:, 0], seq[:, 1])
            assert built == CSRGraph.from_graph(eager)
            assert np.array_equal(built.indices, CSRGraph.from_graph(eager).indices)
            assert graph_fingerprint(c.subgraph) == graph_fingerprint(eager)
            assert _rho_bits(c.subgraph) == _rho_bits(eager)

"""Unit tests for the BFS level structure and the pseudo-peripheral vertex.

The label-graph bodies back the reference RCM ordering
(``reference_rcm_order``), the oracle of the lockstep CSR kernel
``rcm_order_indices``, which runs every component's George–Liu search and
Cuthill–McKee numbering in one pass; the corpus tests pin its BFS levels and
George–Liu search from every start, and the whole kernel from every preferred
start, to the oracle on every graph of the shared corpus.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.graph import (
    CSRGraph,
    Graph,
    bfs_levels,
    label_sort_ranks,
    path_graph,
    pseudo_peripheral_vertex,
    rcm_order_indices,
    star_graph,
)
from repro.graph.ordering import (
    _bfs_distances,
    _component_roots,
    _pseudo_peripheral_sources,
    reference_rcm_order,
)


class TestBFS:
    def test_bfs_levels_star(self):
        g = star_graph(4)
        levels = bfs_levels(g, "v0")
        assert levels[0] == ["v0"]
        assert set(levels[1]) == {"v1", "v2", "v3", "v4"}

    def test_bfs_levels_distances_match_shortest_paths(self):
        g = path_graph(6)
        levels = bfs_levels(g, "v0")
        dist = nx.single_source_shortest_path_length(g.to_networkx(), "v0")
        for d, level in enumerate(levels):
            for v in level:
                assert dist[v] == d

    def test_bfs_unknown_source_raises(self):
        with pytest.raises(KeyError):
            bfs_levels(path_graph(3), "zzz")

    def test_bfs_levels_are_exact_distances(self, corpus_graph):
        # Every vertex of the source's component sits in exactly one level,
        # the level of its shortest-path distance; nothing else appears.
        source = corpus_graph.vertices()[0]
        levels = bfs_levels(corpus_graph, source)
        dist = nx.single_source_shortest_path_length(corpus_graph.to_networkx(), source)
        flat = [v for level in levels for v in level]
        assert len(flat) == len(set(flat)) == len(dist)
        for d, level in enumerate(levels):
            assert level and all(dist[v] == d for v in level)

    def test_index_level_structure_matches_label_levels(self, corpus_graph):
        csr = CSRGraph.from_graph(corpus_graph)
        labels = csr.labels
        for v in corpus_graph.vertices():
            dist = _bfs_distances(csr.indptr, csr.indices, np.array([csr.index_of(v)]))
            got = [np.flatnonzero(dist == d) for d in range(dist.max() + 1)]
            want = bfs_levels(corpus_graph, v)
            assert [{labels[i] for i in level.tolist()} for level in got] == [
                set(level) for level in want
            ]


class TestPeripheral:
    def test_pseudo_peripheral_on_path_is_an_endpoint(self):
        g = path_graph(7)
        v = pseudo_peripheral_vertex(g)
        assert v in ("v0", "v6")

    def test_pseudo_peripheral_empty_graph_raises(self):
        with pytest.raises(ValueError):
            pseudo_peripheral_vertex(Graph())

    def test_pseudo_peripheral_unknown_start_raises(self):
        with pytest.raises(KeyError):
            pseudo_peripheral_vertex(path_graph(3), "zzz")

    def test_eccentricity_path(self):
        # From either end of P7 the BFS reaches the far end at depth 6.
        g = path_graph(7)
        v = pseudo_peripheral_vertex(g, "v3")
        assert len(bfs_levels(g, v)) - 1 == 6

    def test_index_pseudo_peripheral_matches_label(self, corpus_graph):
        # Same start, same George–Liu walk, same tie-break by label ``str``.
        csr = CSRGraph.from_graph(corpus_graph)
        deg = csr.degrees()
        str_ranks = label_sort_ranks(csr, str)
        root = _component_roots(csr.indptr, csr.indices)
        for v in corpus_graph.vertices():
            if corpus_graph.degree(v) == 0:
                continue
            i = csr.index_of(v)
            source = _pseudo_peripheral_sources(
                csr.indptr, csr.indices, root, deg, str_ranks, np.array([i])
            )
            assert csr.labels[source[root[i]]] == pseudo_peripheral_vertex(corpus_graph, v)

    def test_pseudo_peripheral_never_lowers_eccentricity(self, corpus_graph):
        for v in corpus_graph.vertices():
            p = pseudo_peripheral_vertex(corpus_graph, v)
            assert len(bfs_levels(corpus_graph, p)) >= len(bfs_levels(corpus_graph, v))


class TestIndexRCM:
    def test_index_rcm_matches_reference_from_every_start(self, corpus_graph):
        # Same George–Liu walks (tie-break by label ``str``), same Cuthill–McKee
        # numbering (tie-break by label ``repr``), whichever vertex, or none,
        # is the preferred start.
        csr = CSRGraph.from_graph(corpus_graph)
        assert csr.to_labels(rcm_order_indices(csr)) == reference_rcm_order(corpus_graph)
        for i, v in enumerate(csr.labels):
            got = csr.to_labels(rcm_order_indices(csr, start=i))
            assert got == reference_rcm_order(corpus_graph, start=v), v

"""Unit tests for the Graph data structure."""

from __future__ import annotations

import pytest

from repro.graph import Graph, edge_key


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key("b", "a") == ("a", "b")
        assert edge_key(2, 1) == (1, 2)

    def test_mixed_types_are_deterministic(self):
        assert edge_key("x", 1) == edge_key(1, "x")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            edge_key("a", "a")


class _ConstRepr:
    """Unorderable objects whose repr does not identify the instance."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<blob>"


class _OtherConstRepr:
    """A different type with the same repr as :class:`_ConstRepr`."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "<blob>"


class TestEdgeKeyMixedTypes:
    """Regression tests for the documented edge_key fallback contract.

    The seed fallback ordered incomparable endpoints by ``repr`` alone, so two
    unequal vertices of different types with identical reprs produced two
    *different* canonical keys for the same undirected edge.  The fallback now
    orders by (type module, type qualname, repr) and refuses truly
    indistinguishable pairs.
    """

    def test_mixed_int_str_is_canonical(self):
        assert edge_key(1, "1") == edge_key("1", 1)
        assert edge_key(2, "x") == edge_key("x", 2)

    def test_equal_repr_different_types_is_canonical(self):
        a, b = _ConstRepr(), _OtherConstRepr()
        assert edge_key(a, b) == edge_key(b, a)

    def test_indistinguishable_vertices_rejected(self):
        a, b = _ConstRepr(), _ConstRepr()
        with pytest.raises(ValueError):
            edge_key(a, b)

    def test_mixed_graph_round_trips_edges_and_attrs(self):
        g = Graph()
        g.add_edge(1, "1", weight=0.5)
        g.add_edge("a", 2)
        g.add_edge(1, 2)
        assert g.has_edge("1", 1)
        assert g.edge_attr(1, "1", "weight") == 0.5
        assert g.edge_attr("1", 1, "weight") == 0.5
        g.add_edge(2, "a", sign=-1)
        assert g.edge_attr("a", 2, "sign") == -1
        assert set(g.edges()) == {edge_key(1, "1"), edge_key("a", 2), edge_key(1, 2)}
        g.remove_edge("1", 1)
        assert not g.has_edge(1, "1")
        assert g.edge_attr(1, "1", "weight") is None


class TestConstruction:
    def test_empty_graph(self):
        g = Graph()
        assert g.n_vertices == 0
        assert g.n_edges == 0
        assert g.vertices() == []
        assert g.edges() == []

    def test_add_vertex_idempotent(self):
        g = Graph()
        g.add_vertex("a")
        g.add_vertex("a")
        assert g.n_vertices == 1

    def test_add_edge_creates_endpoints(self):
        g = Graph()
        g.add_edge("a", "b")
        assert g.has_vertex("a") and g.has_vertex("b")
        assert g.has_edge("a", "b") and g.has_edge("b", "a")
        assert g.n_edges == 1

    def test_add_edge_idempotent(self):
        g = Graph()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        g = Graph()
        with pytest.raises(ValueError):
            g.add_edge("a", "a")

    def test_constructor_with_edges_and_vertices(self):
        g = Graph(edges=[("a", "b"), ("b", "c")], vertices=["z"])
        assert g.vertices()[0] == "z"
        assert g.n_edges == 2

    def test_insertion_order_preserved(self):
        g = Graph(vertices=["c", "a", "b"])
        assert g.vertices() == ["c", "a", "b"]


class TestRemoval:
    def test_remove_edge(self):
        g = Graph(edges=[("a", "b")])
        g.remove_edge("a", "b")
        assert not g.has_edge("a", "b")
        assert g.n_edges == 0
        assert g.has_vertex("a")

    def test_remove_missing_edge_raises(self):
        g = Graph(edges=[("a", "b")])
        with pytest.raises(KeyError):
            g.remove_edge("a", "c")

    def test_remove_vertex_removes_incident_edges(self):
        g = Graph(edges=[("a", "b"), ("a", "c"), ("b", "c")])
        g.remove_vertex("a")
        assert not g.has_vertex("a")
        assert g.n_edges == 1
        assert g.has_edge("b", "c")

    def test_remove_missing_vertex_raises(self):
        with pytest.raises(KeyError):
            Graph().remove_vertex("x")


class TestQueries:
    def test_degree_and_neighbors(self):
        g = Graph(edges=[("a", "b"), ("a", "c")])
        assert g.degree("a") == 2
        assert g.degree("b") == 1
        assert set(g.neighbors("a")) == {"b", "c"}
        assert g.neighbor_set("a") == {"b", "c"}

    def test_edges_listed_once(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        assert len(g.edges()) == 3
        assert len(set(g.edges())) == 3

    def test_contains(self):
        g = Graph(edges=[("a", "b")])
        assert "a" in g
        assert "z" not in g

    def test_equality_ignores_order(self):
        g1 = Graph(edges=[("a", "b"), ("b", "c")])
        g2 = Graph(edges=[("b", "c"), ("a", "b")])
        assert g1 == g2

    def test_graphs_unhashable(self):
        with pytest.raises(TypeError):
            hash(Graph())


class TestEdgeAttributes:
    def test_attr_roundtrip(self):
        g = Graph()
        g.add_edge("a", "b", rho=0.97)
        assert g.edge_attr("a", "b", "rho") == pytest.approx(0.97)
        assert g.edge_attr("b", "a", "rho") == pytest.approx(0.97)
        assert g.edge_attr("a", "b", "missing", default=-1) == -1

    def test_attrs_survive_subgraph(self):
        g = Graph()
        g.add_edge("a", "b", rho=0.99)
        g.add_edge("b", "c", rho=0.96)
        sub = g.subgraph(["a", "b"])
        assert sub.edge_attr("a", "b", "rho") == pytest.approx(0.99)


class TestDerivedGraphs:
    def test_copy_is_independent(self):
        g = Graph(edges=[("a", "b")])
        c = g.copy()
        c.add_edge("b", "c")
        assert g.n_edges == 1
        assert c.n_edges == 2

    def test_subgraph_induced(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
        sub = g.subgraph(["a", "b", "c"])
        assert sub.n_vertices == 3
        assert sub.n_edges == 3
        assert not sub.has_vertex("d")

    def test_subgraph_ignores_unknown_vertices(self):
        g = Graph(edges=[("a", "b")])
        sub = g.subgraph(["a", "zzz"])
        assert sub.vertices() == ["a"]

    def test_edge_subgraph(self):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
        sub = g.edge_subgraph([("a", "b"), ("x", "y")])
        assert sub.n_edges == 1
        assert sub.n_vertices == 2

    def test_spanning_subgraph_keeps_all_vertices(self):
        g = Graph(edges=[("a", "b"), ("b", "c")])
        sub = g.spanning_subgraph([("a", "b")])
        assert sub.n_vertices == 3
        assert sub.n_edges == 1
        assert sub.degree("c") == 0


class TestInterop:
    def test_networkx_roundtrip(self):
        g = Graph()
        g.add_edge("a", "b", rho=0.99)
        g.add_vertex("isolated")
        nxg = g.to_networkx()
        assert list(nxg.nodes) == g.vertices()
        assert {tuple(sorted(e)) for e in nxg.edges} == set(g.edges())
        assert nxg.edges["a", "b"]["rho"] == pytest.approx(0.99)

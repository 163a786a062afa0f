"""Unit tests for edge-list I/O."""

from __future__ import annotations

import io

import pytest

from repro.graph import Graph, read_edge_list, write_edge_list


def make_graph() -> Graph:
    g = Graph()
    g.add_edge("geneA", "geneB", rho=0.97)
    g.add_edge("geneB", "geneC", rho=0.99)
    g.add_vertex("lonely")
    return g


class TestEdgeList:
    def test_roundtrip_via_file(self, tmp_path):
        g = make_graph()
        path = tmp_path / "net.tsv"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back == g

    def test_writer_emits_two_columns(self):
        # Edge attributes are not written: a line is ``u<TAB>v``.
        buf = io.StringIO()
        write_edge_list(make_graph(), buf)
        lines = buf.getvalue().splitlines()
        assert sorted(lines) == ["geneA\tgeneB", "geneB\tgeneC", "lonely"]

    def test_third_column_parsed_as_weight(self):
        g = read_edge_list(io.StringIO("geneA\tgeneB\t0.97\n"))
        assert g.edge_attr("geneA", "geneB", "weight") == 0.97

    def test_isolated_vertices_roundtrip(self, tmp_path):
        g = make_graph()
        path = tmp_path / "net.tsv"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert back.has_vertex("lonely")
        assert back.degree("lonely") == 0

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\na b\n"
        g = read_edge_list(io.StringIO(text))
        assert g.n_edges == 1

    def test_non_numeric_weight_kept_as_string(self):
        g = read_edge_list(io.StringIO("a b strong\n"))
        assert g.edge_attr("a", "b", "weight") == "strong"

    def test_write_to_stream(self):
        g = make_graph()
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert "geneA\tgeneB" in buf.getvalue()

    def test_format_options_refused(self):
        # One format: tab-separated, isolated vertices listed, "#" comments,
        # columns split on whitespace.
        g = make_graph()
        for kwargs in ({"delimiter": ","}, {"include_isolated": False}):
            with pytest.raises(TypeError):
                write_edge_list(g, io.StringIO(), **kwargs)
        for kwargs in ({"delimiter": ","}, {"comment": "%"}):
            with pytest.raises(TypeError):
                read_edge_list(io.StringIO("a b\n"), **kwargs)

"""Edge-list I/O for :class:`repro.graph.Graph`.

Correlation networks are conventionally exchanged as whitespace- or
tab-separated edge lists (optionally with a weight column holding the Pearson
correlation).  ``repro filter --output`` writes the filtered network in that
format; :func:`read_edge_list` reads it back.
"""

from __future__ import annotations

import os
from collections.abc import Hashable
from pathlib import Path
from typing import TextIO, Union

from .graph import Graph

__all__ = ["write_edge_list", "read_edge_list"]

PathLike = Union[str, os.PathLike]
Vertex = Hashable


def _open_for_write(target: Union[PathLike, TextIO]):
    if hasattr(target, "write"):
        return target, False
    return open(Path(target), "w", encoding="utf-8"), True


def _open_for_read(source: Union[PathLike, TextIO]):
    if hasattr(source, "read"):
        return source, False
    return open(Path(source), "r", encoding="utf-8"), True


def write_edge_list(
    graph: Graph,
    target: Union[PathLike, TextIO],
    weight_attr: str | None = None,
    delimiter: str = "\t",
    include_isolated: bool = True,
) -> None:
    """Write the graph as an edge list, one ``u<delim>v[<delim>weight]`` line per edge.

    Isolated vertices are emitted as single-column lines when
    ``include_isolated`` is true so that the vertex set round-trips.
    """
    handle, should_close = _open_for_write(target)
    try:
        written: set[Vertex] = set()
        for u, v in graph.iter_edges():
            if weight_attr is not None:
                w = graph.edge_attr(u, v, weight_attr, "")
                handle.write(f"{u}{delimiter}{v}{delimiter}{w}\n")
            else:
                handle.write(f"{u}{delimiter}{v}\n")
            written.add(u)
            written.add(v)
        if include_isolated:
            for v in graph.vertices():
                if v not in written and graph.degree(v) == 0:
                    handle.write(f"{v}\n")
    finally:
        if should_close:
            handle.close()


def read_edge_list(
    source: Union[PathLike, TextIO],
    weight_attr: str | None = None,
    delimiter: str | None = None,
    comment: str = "#",
) -> Graph:
    """Read an edge list written by :func:`write_edge_list`.

    ``delimiter=None`` splits on arbitrary whitespace.  Lines with a single
    token declare isolated vertices; a third column is parsed as a float and
    attached as ``weight_attr`` (default attribute name ``"weight"``).
    """
    attr = weight_attr or "weight"
    handle, should_close = _open_for_read(source)
    g = Graph()
    try:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith(comment):
                continue
            parts = line.split(delimiter) if delimiter else line.split()
            if len(parts) == 1:
                g.add_vertex(parts[0])
            elif len(parts) == 2:
                g.add_edge(parts[0], parts[1])
            else:
                try:
                    w = float(parts[2])
                except ValueError:
                    w = parts[2]
                g.add_edge(parts[0], parts[1], **{attr: w})
    finally:
        if should_close:
            handle.close()
    return g

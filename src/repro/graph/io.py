"""Edge-list I/O for :class:`repro.graph.Graph`.

Correlation networks are conventionally exchanged as whitespace- or
tab-separated edge lists (optionally with a weight column holding the Pearson
correlation).  ``repro filter --output`` writes the filtered network as two
columns; :func:`read_edge_list` reads it back, and reads a weight column
when one is there.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TextIO, Union

from .graph import Graph

__all__ = ["write_edge_list", "read_edge_list"]

PathLike = Union[str, os.PathLike]


def _open_for_write(target: Union[PathLike, TextIO]):
    if hasattr(target, "write"):
        return target, False
    return open(Path(target), "w", encoding="utf-8"), True


def _open_for_read(source: Union[PathLike, TextIO]):
    if hasattr(source, "read"):
        return source, False
    return open(Path(source), "r", encoding="utf-8"), True


def write_edge_list(graph: Graph, target: Union[PathLike, TextIO]) -> None:
    """Write the graph as an edge list, one tab-separated ``u v`` line per edge.

    Isolated vertices are emitted as single-column lines so that the vertex
    set round-trips.
    """
    handle, should_close = _open_for_write(target)
    try:
        for u, v in graph.iter_edges():
            handle.write(f"{u}\t{v}\n")
        for v in graph.vertices():
            if graph.degree(v) == 0:
                handle.write(f"{v}\n")
    finally:
        if should_close:
            handle.close()


def read_edge_list(source: Union[PathLike, TextIO]) -> Graph:
    """Read an edge list written by :func:`write_edge_list`.

    Columns split on arbitrary whitespace and ``#`` starts a comment line.
    Lines with a single token declare isolated vertices; a third column
    (such as a Pearson correlation from another tool) is parsed as a float,
    kept as a string when it is not numeric, and attached as the
    ``"weight"`` edge attribute.
    """
    handle, should_close = _open_for_read(source)
    g = Graph()
    try:
        for raw in handle:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) == 1:
                g.add_vertex(parts[0])
            elif len(parts) == 2:
                g.add_edge(parts[0], parts[1])
            else:
                try:
                    w = float(parts[2])
                except ValueError:
                    w = parts[2]
                g.add_edge(parts[0], parts[1], weight=w)
    finally:
        if should_close:
            handle.close()
    return g

"""Quasi-chordal subgraph (QCS) analysis.

Both parallel samplers can leave a few cycles longer than a triangle in the
filtered network: the with-communication algorithm because the sender never
learns which border edges the receiver accepted, and the communication-free
algorithm because independently admitted border edges can close cycles across
partitions.  The paper calls these outputs *quasi-chordal subgraphs* and argues
(Section III.A / IV.C) that the residual cycles are few and do not hurt the
downstream analysis — some even help by connecting clusters that the strict
sequential filter would have separated.

This module quantifies "how quasi" a filtered network is:

* :func:`chordality_deficit` — number of fill-in edges the elimination game
  needs, i.e. 0 exactly when the graph is chordal;
* :func:`long_cycle_census` — the multiset of fundamental-cycle lengths > 3;
* :func:`quasi_chordal_report` — a per-run summary combining global
  chordality, per-partition chordality, border-edge statistics and the cycle
  census, built either from a :class:`~repro.core.results.FilterResult` or
  from raw graphs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Hashable
from dataclasses import dataclass, field
from typing import Any, Optional

from ..graph.cycles import cycle_basis_sizes
from ..graph.graph import Graph
from ..graph.partition import Partition
from .chordal import fill_in_edges, is_chordal
from .results import FilterResult

__all__ = [
    "chordality_deficit",
    "long_cycle_census",
    "QuasiChordalReport",
    "quasi_chordal_report",
]

Vertex = Hashable


def chordality_deficit(graph: Graph) -> int:
    """Return the number of fill-in edges needed to triangulate the graph.

    Zero exactly when the graph is chordal; the larger the value, the further
    the quasi-chordal output is from a true chordal subgraph.  (The fill-in of
    the reverse-MCS elimination order is used; it is a convenient, monotone
    upper bound on the minimum fill-in, which is NP-hard to compute.)
    """
    return len(fill_in_edges(graph))


def long_cycle_census(graph: Graph) -> dict[int, int]:
    """Return ``{cycle length: count}`` for fundamental cycles longer than a triangle."""
    sizes = [s for s in cycle_basis_sizes(graph) if s > 3]
    return dict(Counter(sizes))


@dataclass
class QuasiChordalReport:
    """Summary of how far a filtered network is from being chordal."""

    is_chordal: bool
    chordality_deficit: int
    long_cycles: dict[int, int] = field(default_factory=dict)
    n_partitions: int = 1
    partitions_chordal: Optional[int] = None
    n_border_edges: int = 0
    n_accepted_border_edges: int = 0
    n_duplicate_border_edges: int = 0

    @property
    def n_long_cycles(self) -> int:
        return sum(self.long_cycles.values())

    @property
    def max_cycle_length(self) -> int:
        return max(self.long_cycles, default=3)

    def as_dict(self) -> dict[str, Any]:
        return {
            "is_chordal": self.is_chordal,
            "chordality_deficit": self.chordality_deficit,
            "n_long_cycles": self.n_long_cycles,
            "max_cycle_length": self.max_cycle_length,
            "n_partitions": self.n_partitions,
            "partitions_chordal": self.partitions_chordal,
            "border_edges": self.n_border_edges,
            "accepted_border_edges": self.n_accepted_border_edges,
            "duplicate_border_edges": self.n_duplicate_border_edges,
        }


def quasi_chordal_report(
    result: FilterResult,
    partition: Optional[Partition] = None,
) -> QuasiChordalReport:
    """Build a :class:`QuasiChordalReport` for a filter run.

    When ``partition`` is supplied (or can be reconstructed from the result's
    provenance) the report also states how many partition-induced subgraphs of
    the filtered network are individually chordal — the paper's observation is
    that *only border edges* can break chordality, so this count should equal
    the partition count.
    """
    graph = result.graph
    chordal = is_chordal(graph)
    report = QuasiChordalReport(
        is_chordal=chordal,
        chordality_deficit=0 if chordal else chordality_deficit(graph),
        long_cycles=long_cycle_census(graph) if not chordal else {},
        n_partitions=result.n_partitions,
        n_border_edges=result.n_border_edges,
        n_accepted_border_edges=result.n_accepted_border_edges,
        n_duplicate_border_edges=result.duplicate_border_edges,
    )
    if partition is not None:
        count = 0
        for part_vertices in partition.parts:
            if is_chordal(graph.subgraph(part_vertices)):
                count += 1
        report.partitions_chordal = count
    return report

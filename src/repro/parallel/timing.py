"""Analytical cost model for the scalability study (paper Figure 10).

The paper measured wall-clock times on the Firefly cluster.  Re-running on a
single offline machine cannot reproduce absolute times, and Python threads
share one interpreter, so the repository separates *what work each rank does*
(measured exactly: edges examined, chordality checks, border edges exchanged)
from *how long that work would take* on a distributed-memory machine (modelled
here).  The model captures the three regimes the paper reports:

* random walk — cheapest per-edge cost, no communication: fastest and
  perfectly scalable;
* chordal without communication — higher per-edge cost (chordality upkeep),
  no communication: scalable, always cheaper than the with-communication
  variant;
* chordal with communication — same per-edge cost **plus** a border-edge
  exchange whose per-processor cost grows as O(b²/d); for small graphs and
  many processors ``b`` grows and the curve turns upward (the paper's YNG
  curve rises sharply at 32 processors), while for large graphs it roughly
  doubles the 2-processor time.

The constants are configurable; the defaults were chosen so the model's output
is on the same order of magnitude as the published plots (seconds for graphs
with tens of thousands of edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = ["CostModel", "RankWork", "speedup", "efficiency"]


@dataclass
class RankWork:
    """The measured work performed by one rank of a parallel sampler.

    Attributes
    ----------
    edges_examined:
        number of candidate edges the rank's local algorithm inspected.
    chordality_checks:
        number of clique-membership / chordality-maintenance operations.
    border_edges:
        number of border edges this rank had to consider.
    messages:
        number of point-to-point messages this rank sent.
    items_sent:
        total payload items (edges) this rank sent.
    max_degree:
        maximum degree in the rank's partition (enters the O(b²/d) term).
    """

    edges_examined: int = 0
    chordality_checks: int = 0
    border_edges: int = 0
    messages: int = 0
    items_sent: int = 0
    max_degree: int = 1


@dataclass
class CostModel:
    """Maps :class:`RankWork` to simulated seconds on a distributed-memory machine.

    ``time(rank) = edge_cost·edges + check_cost·checks
                   + comm_latency·messages + comm_item_cost·items
                   + border_quadratic·border²/max(degree, 1)``

    The overall execution time of a run is the *maximum* over ranks (SPMD
    bulk-synchronous execution) plus a fixed ``startup`` overhead per run and a
    ``sequential_postprocess`` charge proportional to the duplicate border
    edges that must be removed serially (Section III.A of the paper).
    """

    edge_cost: float = 2.0e-5
    check_cost: float = 6.0e-6
    comm_latency: float = 2.0e-3
    comm_item_cost: float = 4.0e-6
    border_quadratic: float = 6.0e-7
    startup: float = 5.0e-3
    sequential_postprocess: float = 1.0e-6

    def rank_time(self, work: RankWork, with_communication: bool) -> float:
        """Simulated seconds spent by one rank."""
        t = self.edge_cost * work.edges_examined + self.check_cost * work.chordality_checks
        if with_communication:
            t += self.comm_latency * work.messages + self.comm_item_cost * work.items_sent
            t += self.border_quadratic * (work.border_edges ** 2) / max(work.max_degree, 1)
        return t

    def execution_time(
        self,
        works: Sequence[RankWork],
        with_communication: bool = False,
        duplicate_border_edges: int = 0,
    ) -> float:
        """Simulated wall-clock seconds of a bulk-synchronous SPMD run."""
        if not works:
            return self.startup
        slowest = max(self.rank_time(w, with_communication) for w in works)
        return self.startup + slowest + self.sequential_postprocess * duplicate_border_edges


def speedup(times: Mapping[int, float]) -> dict[int, float]:
    """Return speedup(P) = T(1) / T(P) for a mapping {processors: time}.

    Raises ``ValueError`` when the single-processor time is missing.
    """
    if 1 not in times:
        raise ValueError("speedup requires the single-processor time (key 1)")
    base = times[1]
    return {p: (base / t if t > 0 else float("inf")) for p, t in sorted(times.items())}


def efficiency(times: Mapping[int, float]) -> dict[int, float]:
    """Return parallel efficiency(P) = speedup(P) / P."""
    return {p: s / p for p, s in speedup(times).items()}

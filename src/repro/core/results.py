"""Result containers shared by all sampling filters.

Every filter — sequential or parallel, chordal or random walk — returns a
:class:`FilterResult` so that the downstream pipeline (clustering, enrichment,
overlap analysis, cost modelling) can treat them uniformly.  The result keeps
full provenance: which algorithm and ordering produced it, how the graph was
partitioned, how much work every rank performed, how many border edges were
duplicated and the simulated execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.graph import Graph
from ..parallel.timing import CostModel, RankWork

__all__ = ["FilterResult"]


def no_pairs() -> np.ndarray:
    """An empty ``(0, 2)`` index-pair array."""
    return np.empty((0, 2), dtype=np.int64)


def as_pairs(pairs: Any) -> np.ndarray:
    """``pairs`` (a list of index 2-tuples or an array) as a ``(k, 2)`` int64 array."""
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


@dataclass(eq=False)
class FilterResult:
    """The outcome of applying a sampling filter to a network.

    The result is *index-native*: the kept edges and the border edges are
    ``(k, 2)`` ``int64`` arrays of vertex indices into :attr:`csr`, and the
    label views (:attr:`original`, :attr:`graph`) are built from them the
    first time they are read, then cached.  Counts, summaries, the canonical
    payload and :meth:`filtered_csr` read the arrays, so a caller that never
    asks for labels never pays for them.

    Attributes
    ----------
    csr:
        The network the filter was applied to, as its CSR view
        (``CSRGraph.of(network)``); the index space of every pair array.
    kept:
        The surviving edges in admission order — the order the filter
        accepted them, which fixes every vertex's neighbour order in
        :attr:`graph`.
    method:
        Registry name of the filter (``"chordal"``, ``"chordal_comm"``,
        ``"random_walk"``, …).
    ordering:
        Name of the vertex ordering used (``"natural"``, ``"high_degree"``,
        ``"low_degree"``, ``"rcm"``) — ``None`` when not applicable.
    n_partitions:
        Number of partitions / simulated processors (1 for sequential runs).
    partition_method:
        Name of the partitioner used (``None`` for sequential runs).
    border_pairs:
        Border edges of the partition, in partition order (empty for
        sequential runs).
    accepted_border_pairs:
        Border edges that survived the filter, in merge order.
    duplicate_border_edges:
        Number of border edges accepted independently by both owning ranks;
        the paper notes these must be removed during the sequential analysis
        phase (at most ``b`` of them).
    rank_work:
        Per-rank work counters consumed by the scalability cost model.
    simulated_time:
        Modelled wall-clock seconds for the run (None until computed).
    wall_time:
        Actual seconds spent in this process (host measurement, informational).
    extra:
        Free-form provenance (seed, thresholds, cycle statistics, …).
    """

    csr: CSRGraph
    kept: np.ndarray
    method: str
    ordering: Optional[str] = None
    n_partitions: int = 1
    partition_method: Optional[str] = None
    border_pairs: np.ndarray = field(default_factory=no_pairs)
    accepted_border_pairs: np.ndarray = field(default_factory=no_pairs)
    duplicate_border_edges: int = 0
    rank_work: list[RankWork] = field(default_factory=list)
    simulated_time: Optional[float] = None
    wall_time: Optional[float] = None
    extra: dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # label views (built on first read)
    # ------------------------------------------------------------------
    @cached_property
    def original(self) -> Graph:
        """The network the filter was applied to, as a label :class:`Graph`.

        The input graph itself (not copied) when the filter was given one;
        for a CSR input, its :meth:`~repro.graph.csr.CSRGraph.label_graph`
        (a dataset's network with its ``rho`` attributes).
        """
        return self.csr.label_graph()

    @cached_property
    def graph(self) -> Graph:
        """The filtered network: all original vertices, the kept edges only.

        Edges are added in admission order and carry the original's edge
        attributes.
        """
        labels = self.csr.labels
        return self.original.spanning_subgraph(
            (labels[i], labels[j]) for i, j in self.kept.tolist()
        )

    def filtered_csr(self) -> CSRGraph:
        """The CSR of :attr:`graph`, built from :attr:`kept` without the graph.

        Bit-identical to ``CSRGraph.from_graph(self.graph)``: rows list
        neighbours in admission order, and its label graph is
        :attr:`graph`, built when first read.  Built on every call and not
        cached, so the result pins no second CSR in memory.
        """
        csr = CSRGraph.from_edge_sequence(self.csr.labels, self.kept[:, 0], self.kept[:, 1])
        csr.attach_label_graph(lambda: self.graph)
        return csr

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def n_edges_kept(self) -> int:
        return int(self.kept.shape[0])

    @property
    def n_edges_removed(self) -> int:
        return self.csr.n_edges - self.n_edges_kept

    @property
    def edge_reduction(self) -> float:
        """Fraction of original edges removed by the filter.

        The paper interprets this as an estimate of the noise content of the
        network ("ideally, if the data is noise free, no reduction should
        occur").
        """
        if self.csr.n_edges == 0:
            return 0.0
        return self.n_edges_removed / self.csr.n_edges

    @property
    def n_border_edges(self) -> int:
        return int(self.border_pairs.shape[0])

    @property
    def n_accepted_border_edges(self) -> int:
        return int(self.accepted_border_pairs.shape[0])

    def compute_simulated_time(self, model: Optional[CostModel] = None, with_communication: Optional[bool] = None) -> float:
        """Fill in and return :attr:`simulated_time` using the cost model.

        ``with_communication`` defaults to whether the method name indicates
        the communicating variant.
        """
        if with_communication is None:
            with_communication = "comm" in self.method and "nocomm" not in self.method
        model = model or CostModel()
        self.simulated_time = model.execution_time(
            self.rank_work,
            with_communication=with_communication,
            duplicate_border_edges=self.duplicate_border_edges,
        )
        return self.simulated_time

    def summary(self) -> dict[str, Any]:
        """Return a flat dict suitable for tabulation in reports."""
        return {
            "method": self.method,
            "ordering": self.ordering,
            "n_partitions": self.n_partitions,
            "partition_method": self.partition_method,
            "n_vertices": self.csr.n_vertices,
            "edges_original": self.csr.n_edges,
            "edges_kept": self.n_edges_kept,
            "edge_reduction": round(self.edge_reduction, 4),
            "border_edges": self.n_border_edges,
            "accepted_border_edges": self.n_accepted_border_edges,
            "duplicate_border_edges": self.duplicate_border_edges,
            "simulated_time": self.simulated_time,
        }

"""Cluster container shared by the clustering and evaluation code."""

from __future__ import annotations

from collections.abc import Hashable
from typing import Optional

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.graph import Graph, edge_key

__all__ = ["Cluster"]

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class Cluster:
    """A candidate gene complex found by a clustering algorithm.

    :func:`~repro.clustering.mcode.mcode_clusters` makes *index-native*
    clusters (:meth:`from_indices`): member indices, induced edge pairs and
    the CSR they index are the truth; ``members`` and ``seed`` are mapped
    to labels once, :meth:`edge_set` on each call, and :attr:`subgraph` is
    cut from the CSR's label graph on first read.  The hand-built form
    ``Cluster(cluster_id, members, subgraph, score)`` holds its subgraph and
    has no index view (``csr``, ``indices`` and ``pairs`` are ``None``).  It
    serves the oracle chain only (``reference_mcode_clusters`` makes it,
    ``reference_match_clusters`` / ``reference_lost_clusters`` match it and
    ``reference_score_cluster`` scores its subgraph); the product consumers,
    ``match_and_lost_clusters`` and ``EnrichmentScorer``, refuse it.

    Attributes
    ----------
    cluster_id:
        Index assigned by the clustering run (0 = highest scoring).
    members:
        The cluster's vertices, seed first.
    score:
        The MCODE score (density × size); the paper keeps clusters ≥ 3.0.
    seed:
        The seed vertex the complex was grown from.
    source:
        Free-form provenance label (e.g. ``"CRE/chordal/high_degree/64P"``).
    csr, indices, pairs:
        The clustered network, the ``int64`` member indices into it (member
        order) and the induced edges as ``(k, 2)`` indices, in the order
        ``Graph.subgraph(members)`` adds them.
    """

    def __init__(
        self,
        cluster_id: int,
        members: list[Vertex],
        subgraph: Optional[Graph],
        score: float,
        seed: Optional[Vertex] = None,
        source: str = "",
    ) -> None:
        self.cluster_id = cluster_id
        self.members = members
        self._subgraph = subgraph
        self.score = score
        self.seed = seed
        self.source = source
        self.csr: Optional[CSRGraph] = None
        self.indices: Optional[np.ndarray] = None
        self.pairs: Optional[np.ndarray] = None

    @classmethod
    def from_indices(
        cls,
        cluster_id: int,
        csr: CSRGraph,
        indices: np.ndarray,
        pairs: np.ndarray,
        score: float,
        seed: int,
        source: str = "",
    ) -> "Cluster":
        """An index-native cluster over ``csr`` (see the class docstring)."""
        labels = csr.labels
        cluster = cls(
            cluster_id,
            [labels[i] for i in indices.tolist()],
            None,
            score,
            seed=labels[seed],
            source=source,
        )
        cluster.csr, cluster.indices, cluster.pairs = csr, indices, pairs
        return cluster

    @property
    def subgraph(self) -> Graph:
        """The induced subgraph of the clustered network (built on first read)."""
        if self._subgraph is None:
            self._subgraph = self.csr.label_graph().subgraph(self.members)
        return self._subgraph

    @property
    def n_vertices(self) -> int:
        return len(self.members)

    @property
    def n_edges(self) -> int:
        if self.pairs is not None:
            return int(self.pairs.shape[0])
        return self.subgraph.n_edges

    def node_set(self) -> set[Vertex]:
        return set(self.members)

    def edge_set(self) -> set[Edge]:
        if self.pairs is not None:
            labels = self.csr.labels
            return {edge_key(labels[u], labels[v]) for u, v in self.pairs.tolist()}
        return {edge_key(u, v) for u, v in self.subgraph.iter_edges()}

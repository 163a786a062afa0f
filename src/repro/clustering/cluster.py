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
    has no index view (``csr``, ``indices`` and ``pairs`` are ``None``), so
    overlap matching runs the ``reference_*`` loops on it and enrichment
    scores it one cluster at a time; only index-native clusters take the
    fast paths.

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
        metadata: Optional[dict] = None,
    ) -> None:
        self.cluster_id = cluster_id
        self.members = members
        self._subgraph = subgraph
        self.score = score
        self.seed = seed
        self.source = source
        self.metadata = {} if metadata is None else metadata
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

    @property
    def density(self) -> float:
        n = self.n_vertices
        return 2.0 * self.n_edges / (n * (n - 1)) if n >= 2 else 0.0

    def node_set(self) -> set[Vertex]:
        return set(self.members)

    def edge_set(self) -> set[Edge]:
        if self.pairs is not None:
            labels = self.csr.labels
            return {edge_key(labels[u], labels[v]) for u, v in self.pairs.tolist()}
        return {edge_key(u, v) for u, v in self.subgraph.iter_edges()}

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self.node_set()

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Cluster(id={self.cluster_id}, n_vertices={self.n_vertices}, "
            f"n_edges={self.n_edges}, score={self.score:.2f}, source={self.source!r})"
        )

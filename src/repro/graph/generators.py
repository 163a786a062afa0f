"""Synthetic graph generators.

Used for tests, property-based checks and — most importantly — for building
correlation-network-like workloads: graphs with a handful of dense planted
modules (the "biologically real" clusters), a scale-free-ish noisy background
and a sprinkling of random noise edges that create long cycles.  The
benchmark harness uses :func:`correlation_like_graph` when a full microarray
simulation is not needed.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
import numpy as np

from .graph import Graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "star_graph",
    "grid_graph",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "planted_partition_graph",
    "correlation_like_graph",
    "random_tree",
]

Vertex = Hashable


def path_graph(n: int, prefix: str = "v") -> Graph:
    """Return a path on ``n`` vertices labelled ``{prefix}0 … {prefix}{n-1}``."""
    g = Graph(vertices=[f"{prefix}{i}" for i in range(n)])
    for i in range(n - 1):
        g.add_edge(f"{prefix}{i}", f"{prefix}{i + 1}")
    return g


def cycle_graph(n: int, prefix: str = "v") -> Graph:
    """Return a cycle on ``n >= 3`` vertices."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    g = path_graph(n, prefix)
    g.add_edge(f"{prefix}{n - 1}", f"{prefix}0")
    return g


def complete_graph(n: int, prefix: str = "v") -> Graph:
    """Return the complete graph K_n."""
    labels = [f"{prefix}{i}" for i in range(n)]
    g = Graph(vertices=labels)
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(labels[i], labels[j])
    return g


def star_graph(n_leaves: int, prefix: str = "v") -> Graph:
    """Return a star with one hub (``{prefix}0``) and ``n_leaves`` leaves."""
    g = Graph(vertices=[f"{prefix}{i}" for i in range(n_leaves + 1)])
    for i in range(1, n_leaves + 1):
        g.add_edge(f"{prefix}0", f"{prefix}{i}")
    return g


def grid_graph(rows: int, cols: int) -> Graph:
    """Return a ``rows × cols`` grid graph with tuple-labelled vertices."""
    g = Graph(vertices=[(r, c) for r in range(rows) for c in range(cols)])
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c))
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1))
    return g


def random_tree(n: int, seed: int = 0, prefix: str = "v") -> Graph:
    """Return a uniformly random labelled tree on ``n`` vertices (Prüfer-free attach)."""
    rng = np.random.default_rng(seed)
    labels = [f"{prefix}{i}" for i in range(n)]
    g = Graph(vertices=labels)
    for i in range(1, n):
        j = int(rng.integers(0, i))
        g.add_edge(labels[i], labels[j])
    return g


def erdos_renyi_graph(n: int, p: float, seed: int = 0, prefix: str = "v") -> Graph:
    """Return a G(n, p) random graph with deterministic seeding."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    labels = [f"{prefix}{i}" for i in range(n)]
    g = Graph(vertices=labels)
    if n < 2 or p == 0.0:
        return g
    # vectorised upper-triangle sampling
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.shape[0]) < p
    for i, j in zip(iu[mask], ju[mask]):
        g.add_edge(labels[int(i)], labels[int(j)])
    return g


def barabasi_albert_graph(n: int, m: int, seed: int = 0, prefix: str = "v") -> Graph:
    """Return a Barabási–Albert preferential-attachment graph.

    Each new vertex attaches to ``m`` existing vertices chosen with
    probability proportional to degree (sampled without replacement from the
    repeated-endpoint urn).  Correlation networks are approximately scale free,
    so this generator provides a realistic noisy background topology.
    """
    if m < 1 or n <= m:
        raise ValueError("need n > m >= 1")
    rng = np.random.default_rng(seed)
    labels = [f"{prefix}{i}" for i in range(n)]
    g = Graph(vertices=labels[: m + 1])
    # start from a star on m+1 vertices so every vertex has degree >= 1
    for i in range(1, m + 1):
        g.add_edge(labels[0], labels[i])
    urn: list[int] = []
    for i in range(m + 1):
        urn.extend([i] * g.degree(labels[i]))
    for new in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(int(urn[int(rng.integers(0, len(urn)))]))
        g.add_vertex(labels[new])
        for t in targets:
            g.add_edge(labels[new], labels[t])
            urn.append(t)
        urn.extend([new] * m)
    return g


def planted_partition_graph(
    module_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    seed: int = 0,
    prefix: str = "g",
) -> Graph:
    """Return a planted-partition graph with dense modules and sparse inter-module noise.

    ``module_sizes[k]`` vertices form module ``k``; edges inside a module
    appear with probability ``p_in`` and edges between modules with
    probability ``p_out``.  Vertex labels are ``{prefix}{index}`` and each
    vertex carries its module index retrievable via the returned graph's
    vertex order (modules are laid out contiguously).
    """
    if not 0.0 <= p_out <= p_in <= 1.0:
        raise ValueError("expect 0 <= p_out <= p_in <= 1")
    rng = np.random.default_rng(seed)
    n = int(sum(module_sizes))
    labels = [f"{prefix}{i}" for i in range(n)]
    module_of = np.empty(n, dtype=int)
    start = 0
    for k, size in enumerate(module_sizes):
        module_of[start : start + size] = k
        start += size
    g = Graph(vertices=labels)
    iu, ju = np.triu_indices(n, k=1)
    same = module_of[iu] == module_of[ju]
    probs = np.where(same, p_in, p_out)
    mask = rng.random(iu.shape[0]) < probs
    for i, j in zip(iu[mask], ju[mask]):
        g.add_edge(labels[int(i)], labels[int(j)])
    return g


def correlation_like_graph(
    n_modules: int = 6,
    module_size: int = 12,
    n_background: int = 120,
    p_in: float = 0.75,
    p_noise: float = 0.01,
    background_attachment: int = 1,
    seed: int = 0,
    prefix: str = "gene",
) -> Graph:
    """Return a graph shaped like a thresholded gene correlation network.

    The construction mirrors what the paper's real networks look like after the
    0.95 correlation threshold: a sparse overall graph (average degree ~2-3)
    containing a few dense modules (cliques / near cliques — the real
    co-expression clusters), a large scale-free-ish periphery of low-degree
    genes, and a small fraction of random noise edges that connect arbitrary
    genes and create long cycles.

    Parameters
    ----------
    n_modules, module_size, p_in:
        number/size/internal density of planted modules.
    n_background:
        number of background genes attached preferentially (low degree).
    p_noise:
        probability of a noise edge between any pair of vertices (kept tiny).
    background_attachment:
        number of attachment edges per background gene.
    """
    rng = np.random.default_rng(seed)
    g = Graph()
    module_members: list[list[str]] = []
    idx = 0
    for m in range(n_modules):
        members = [f"{prefix}{idx + i}" for i in range(module_size)]
        idx += module_size
        module_members.append(members)
        for v in members:
            g.add_vertex(v)
        for i in range(module_size):
            for j in range(i + 1, module_size):
                if rng.random() < p_in:
                    g.add_edge(members[i], members[j])
    # background periphery: preferential attachment onto the existing graph
    existing = g.vertices()
    degrees = np.array([max(g.degree(v), 1) for v in existing], dtype=float)
    for b in range(n_background):
        v = f"{prefix}{idx}"
        idx += 1
        g.add_vertex(v)
        probs = degrees / degrees.sum()
        choices = rng.choice(len(existing), size=min(background_attachment, len(existing)), replace=False, p=probs)
        for c in choices:
            g.add_edge(v, existing[int(c)])
            degrees[int(c)] += 1.0
        existing.append(v)
        degrees = np.append(degrees, float(background_attachment))
    # noise edges: uniform random pairs
    all_vertices = g.vertices()
    n = len(all_vertices)
    n_noise = int(p_noise * n * (n - 1) / 2)
    for _ in range(n_noise):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            g.add_edge(all_vertices[int(i)], all_vertices[int(j)])
    return g


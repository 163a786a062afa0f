"""Cluster overlap: matching filtered clusters against original-network clusters.

The paper compares every cluster of a filtered network with every cluster of
the original network using two measures:

* **node overlap** — the fraction of the original cluster's genes present in
  the filtered cluster;
* **edge overlap** — the fraction of the original cluster's edges present in
  the filtered cluster.

Clusters of the filtered network that share nothing with any original cluster
are *found* (newly uncovered structure); original clusters that share nothing
with any filtered cluster are *lost*.  Those categories, together with the
overlap values and the enrichment score, drive the TP/FP/FN/TN quadrant
analysis in :mod:`repro.clustering.evaluation`.

:func:`match_and_lost_clusters` finds both at once, by node overlap, over
index-native clusters of one network's label space (MCODE's, see
:class:`~repro.clustering.cluster.Cluster`).  It joins member indices and
packed edge pairs directly and computes only the nonzero pairwise
intersection counts, by a sorted element join (:func:`_shared_counts`).
Memory and time grow with the number of shared (element, cluster)
incidences, never with clusters × universe or original × filtered clusters.
It refuses any other input: hand-built clusters, two label spaces and other
matching keys are the business of the retained ``reference_match_clusters`` /
``reference_lost_clusters`` loops, which the test suite pins it to and which
are called by name.
"""

from __future__ import annotations

from collections.abc import Hashable, Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cluster import Cluster

__all__ = [
    "node_overlap",
    "edge_overlap",
    "ClusterMatch",
    "match_and_lost_clusters",
    "found_clusters",
    "reference_match_clusters",
    "reference_lost_clusters",
]

Vertex = Hashable


def node_overlap(original: Cluster, candidate: Cluster) -> float:
    """Fraction of the original cluster's nodes present in the candidate cluster."""
    orig = original.node_set()
    if not orig:
        return 0.0
    return len(orig & candidate.node_set()) / len(orig)


def edge_overlap(original: Cluster, candidate: Cluster) -> float:
    """Fraction of the original cluster's edges present in the candidate cluster."""
    orig = original.edge_set()
    if not orig:
        return 0.0
    return len(orig & candidate.edge_set()) / len(orig)


@dataclass
class ClusterMatch:
    """The best original-network counterpart of one filtered cluster."""

    filtered: Cluster
    original: Optional[Cluster]
    node_overlap: float
    edge_overlap: float

    @property
    def is_found(self) -> bool:
        """True when the filtered cluster has no counterpart at all (newly found)."""
        return self.original is None or (self.node_overlap == 0.0 and self.edge_overlap == 0.0)


# ----------------------------------------------------------------------
# index-native pairwise intersection counts
# ----------------------------------------------------------------------
def _shared_counts(
    orig_el: np.ndarray, orig_row: np.ndarray, filt_el: np.ndarray, filt_row: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero pairwise intersection sizes as ``(rows, cols, counts)``.

    The inputs are ``(element, set)`` incidences over integer element ids
    (original set ``orig_row[k]`` holds ``orig_el[k]``; ``width`` filtered
    sets).  Entry ``k`` says original set ``rows[k]`` shares ``counts[k]``
    elements with filtered set ``cols[k]``; pairs sharing nothing are absent
    and the entries come out row-major.  The filtered incidences are sorted
    by element, so ``searchsorted`` + ``repeat`` expand each original
    incidence into the filtered sets that share its element, and
    ``np.unique`` over the ``row × width + col`` keys counts them.  Counts
    are small exact integers in float64, so downstream divisions reproduce
    the set-based fractions bit-for-bit.
    """
    order = np.argsort(filt_el, kind="stable")
    filt_el, filt_row = filt_el[order], filt_row[order]
    start = np.searchsorted(filt_el, orig_el, side="left")
    shared = np.searchsorted(filt_el, orig_el, side="right") - start
    rows = np.repeat(orig_row, shared)
    # Position of each expanded pair inside its run of equal elements.
    offsets = np.arange(rows.size) - np.repeat(np.cumsum(shared) - shared, shared)
    cols = filt_row[np.repeat(start, shared) + offsets]
    width = max(width, 1)
    keys, counts = np.unique(rows * width + cols, return_counts=True)
    rows, cols = np.divmod(keys, width)
    return rows, cols, counts.astype(np.float64)


def _label_width(
    original_clusters: Sequence[Cluster], filtered_clusters: Sequence[Cluster]
) -> int:
    """The size of the one label space every cluster indexes.

    Each distinct ``labels`` tuple is compared once: the filtered network's
    view carries a tuple equal to, but not always the same object as, the
    original's.  A hand-built cluster or a second label space raises
    ``ValueError``.
    """
    spaces = {}
    for c in (*original_clusters, *filtered_clusters):
        labels = None if c.csr is None else c.csr.labels
        spaces.setdefault(id(labels), labels)
    first, *others = spaces.values() or [()]
    if first is None or any(other != first for other in others):
        raise ValueError(
            "match_and_lost_clusters takes index-native clusters of one label space; "
            "call reference_match_clusters / reference_lost_clusters for other input"
        )
    return len(first)


def _index_incidences(
    clusters: Sequence[Cluster], by_edges: bool, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(elements, owners, sizes)``: member indices or ``min × n + max`` edge keys."""
    parts = [c.pairs if by_edges else c.indices for c in clusters]
    sizes = np.array([p.shape[0] for p in parts], dtype=np.int64)
    elements = np.concatenate([np.empty((0, 2) if by_edges else 0, dtype=np.int64), *parts])
    if by_edges:
        elements = elements.min(axis=1) * n + elements.max(axis=1)
    owners = np.repeat(np.arange(len(clusters), dtype=np.int64), sizes)
    return elements, owners, sizes


def _overlap_entries(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    by_edges: bool,
    n: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero overlap fractions ``counts / |original|`` as ``(rows, cols, values)``.

    The clusters are index-native over one label space of ``n`` labels.
    Zero-count pairs (and so every pair with an empty original) have overlap
    0.0 and are absent, exactly the entries the seed loop scores as zero.
    """
    orig_el, orig_row, sizes = _index_incidences(original_clusters, by_edges, n)
    filt_el, filt_row, _ = _index_incidences(filtered_clusters, by_edges, n)
    rows, cols, counts = _shared_counts(
        orig_el, orig_row, filt_el, filt_row, len(filtered_clusters)
    )
    return rows, cols, counts / sizes[rows]


def _values_at(
    entries: tuple[np.ndarray, np.ndarray, np.ndarray],
    rows: np.ndarray,
    cols: np.ndarray,
    width: int,
) -> np.ndarray:
    """Look the ``(rows, cols)`` pairs up in row-major ``entries`` (0.0 when absent)."""
    entry_rows, entry_cols, values = entries
    # A sentinel key above every real one keeps each lookup position in range.
    keys = np.append(entry_rows * width + entry_cols, np.iinfo(np.int64).max)
    wanted = rows * width + cols
    pos = np.searchsorted(keys, wanted)
    return np.where(keys[pos] == wanted, np.append(values, 0.0)[pos], 0.0)


def _fast_matches(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    n: int,
) -> tuple[list[ClusterMatch], np.ndarray]:
    """Best matches plus the original rows with any nonzero node overlap.

    A filtered cluster's best original is the first one (lowest index)
    attaining its largest node overlap — the seed loop's strict ``>`` scan
    — found by one ``lexsort`` of the nonzero entries by (column, −value,
    row).  Filtered clusters with no nonzero entry are *found* (``None``).
    """
    width = len(filtered_clusters)
    node = _overlap_entries(original_clusters, filtered_clusters, False, n)
    edge = _overlap_entries(original_clusters, filtered_clusters, True, n)
    rows, cols, values = node
    order = np.lexsort((rows, -values, cols))
    first = order[np.diff(cols[order], prepend=-1) != 0]
    best_rows, best_cols = rows[first], cols[first]
    node_at = _values_at(node, best_rows, best_cols, width).tolist()
    edge_at = _values_at(edge, best_rows, best_cols, width).tolist()
    matches = [
        ClusterMatch(filtered=fc, original=None, node_overlap=0.0, edge_overlap=0.0)
        for fc in filtered_clusters
    ]
    for k, (r, j) in enumerate(zip(best_rows.tolist(), best_cols.tolist())):
        matches[j] = ClusterMatch(
            filtered=filtered_clusters[j],
            original=original_clusters[r],
            node_overlap=node_at[k],
            edge_overlap=edge_at[k],
        )
    return matches, rows


def _lost_from_rows(original_clusters: Sequence[Cluster], rows: np.ndarray) -> list[Cluster]:
    """Original clusters whose row has no nonzero overlap entry."""
    touched = np.bincount(rows, minlength=len(original_clusters))
    return [oc for r, oc in enumerate(original_clusters) if not touched[r]]


def match_and_lost_clusters(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
) -> tuple[list[ClusterMatch], list[Cluster]]:
    """Match every filtered cluster to its best original, and list the lost originals.

    "Best" is the largest node overlap; both node and edge overlap of the
    chosen pairing are reported.  Filtered clusters with zero overlap
    against every original cluster are matched to ``None`` — the paper's
    *found* clusters — and original clusters that share nothing with any
    filtered cluster are *lost*.

    Every cluster must be index-native over one label space (see
    :func:`_label_width`); the sparse overlap entries are computed once and
    the matches and the lost originals read off them.  Other inputs raise
    ``ValueError``: :func:`reference_match_clusters` and
    :func:`reference_lost_clusters` take them.
    """
    n = _label_width(original_clusters, filtered_clusters)
    matches, rows = _fast_matches(original_clusters, filtered_clusters, n)
    return matches, _lost_from_rows(original_clusters, rows)


def found_clusters(matches: Sequence[ClusterMatch]) -> list[Cluster]:
    """Filtered clusters with no original counterpart (structure uncovered by filtering)."""
    return [m.filtered for m in matches if m.is_found]


# ----------------------------------------------------------------------
# retained label-level references (any cluster form, any key)
# ----------------------------------------------------------------------
def reference_match_clusters(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    key: Callable[[Cluster, Cluster], float] = node_overlap,
) -> list[ClusterMatch]:
    """Seed all-pairs matching loop (the behavioural reference for the fast path)."""
    matches: list[ClusterMatch] = []
    for fc in filtered_clusters:
        best: Optional[Cluster] = None
        best_key = 0.0
        for oc in original_clusters:
            k = key(oc, fc)
            if k > best_key:
                best_key = k
                best = oc
        if best is None:
            matches.append(ClusterMatch(filtered=fc, original=None, node_overlap=0.0, edge_overlap=0.0))
        else:
            matches.append(
                ClusterMatch(
                    filtered=fc,
                    original=best,
                    node_overlap=node_overlap(best, fc),
                    edge_overlap=edge_overlap(best, fc),
                )
            )
    return matches


def reference_lost_clusters(
    original_clusters: Sequence[Cluster],
    filtered_clusters: Sequence[Cluster],
    key: Callable[[Cluster, Cluster], float] = node_overlap,
) -> list[Cluster]:
    """Seed lost-cluster scan (the behavioural reference for the fast path)."""
    lost: list[Cluster] = []
    for oc in original_clusters:
        if all(key(oc, fc) == 0.0 for fc in filtered_clusters):
            lost.append(oc)
    return lost

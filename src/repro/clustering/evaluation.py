"""Quadrant evaluation of matched clusters: TP/FP/FN/TN, sensitivity, specificity.

Section IV.A of the paper classifies every (filtered cluster, best original
match) pair by its average edge enrichment score and its overlap:

=====================  =========================  =====================
                       high overlap (> 50%)        low overlap (< 50%)
=====================  =========================  =====================
high AEES              true positive               false negative
low AEES               false positive              true negative
=====================  =========================  =====================

High-AEES/high-overlap clusters are real structure preserved by the filter;
low-AEES/high-overlap clusters are dense noise both networks report;
high-AEES/low-overlap clusters are real structure only the filtered network
exposes (hidden by noise originally); low/low pairs are noise either way.
Sensitivity and specificity of a matching criterion (node- vs edge-overlap)
follow directly from the quadrant counts — the paper's Figure 8 shows node
overlap to be sensitive but unspecific and edge overlap the opposite.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..ontology.enrichment import EnrichmentScorer
from .overlap import ClusterMatch

__all__ = [
    "Quadrant",
    "ScoredMatch",
    "QuadrantCounts",
    "classify_match",
    "classify_matches",
    "quadrant_counts",
    "EvaluationThresholds",
]


class Quadrant(str, Enum):
    """The four cluster categories of the paper's evaluation."""

    TRUE_POSITIVE = "TP"
    FALSE_POSITIVE = "FP"
    FALSE_NEGATIVE = "FN"
    TRUE_NEGATIVE = "TN"


@dataclass(frozen=True)
class EvaluationThresholds:
    """The two cut-offs of the quadrant analysis.

    ``aees_threshold`` separates biologically relevant clusters from noise
    (3.0 in the paper); ``overlap_threshold`` separates high from low overlap
    (50% in the paper).
    """

    aees_threshold: float = 3.0
    overlap_threshold: float = 0.5


@dataclass
class ScoredMatch:
    """A cluster match augmented with its enrichment score and quadrant."""

    match: ClusterMatch
    aees: float
    overlap: float
    quadrant: Quadrant


@dataclass
class QuadrantCounts:
    """Counts of the four quadrants plus derived rates."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    def add(self, quadrant: Quadrant) -> None:
        if quadrant is Quadrant.TRUE_POSITIVE:
            self.tp += 1
        elif quadrant is Quadrant.FALSE_POSITIVE:
            self.fp += 1
        elif quadrant is Quadrant.FALSE_NEGATIVE:
            self.fn += 1
        else:
            self.tn += 1

    @property
    def sensitivity(self) -> float:
        """TP / (TP + FN); 0.0 when undefined."""
        denom = self.tp + self.fn
        return self.tp / denom if denom else 0.0

    @property
    def specificity(self) -> float:
        """TN / (TN + FP); 0.0 when undefined."""
        denom = self.tn + self.fp
        return self.tn / denom if denom else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "TP": self.tp,
            "FP": self.fp,
            "FN": self.fn,
            "TN": self.tn,
            "sensitivity": self.sensitivity,
            "specificity": self.specificity,
        }


def classify_match(
    match: ClusterMatch,
    scorer: EnrichmentScorer,
    thresholds: EvaluationThresholds = EvaluationThresholds(),
    overlap_attr: str = "node_overlap",
    aees: Optional[float] = None,
) -> ScoredMatch:
    """Classify one cluster match into its quadrant.

    ``overlap_attr`` selects which overlap measure drives the classification
    (``"node_overlap"`` or ``"edge_overlap"``) — the paper compares both.
    The AEES is computed on the *filtered* cluster, which is the object whose
    biological relevance is being judged; a precomputed value can be passed
    as ``aees`` so classifying the same matches under both overlap criteria
    scores every cluster exactly once.
    """
    if overlap_attr not in ("node_overlap", "edge_overlap"):
        raise ValueError("overlap_attr must be 'node_overlap' or 'edge_overlap'")
    if aees is None:
        aees = scorer.cluster_aees([match.filtered])[0]
    overlap = getattr(match, overlap_attr)
    high_aees = aees >= thresholds.aees_threshold
    high_overlap = overlap > thresholds.overlap_threshold
    if high_aees and high_overlap:
        quadrant = Quadrant.TRUE_POSITIVE
    elif not high_aees and high_overlap:
        quadrant = Quadrant.FALSE_POSITIVE
    elif high_aees and not high_overlap:
        quadrant = Quadrant.FALSE_NEGATIVE
    else:
        quadrant = Quadrant.TRUE_NEGATIVE
    return ScoredMatch(match=match, aees=aees, overlap=overlap, quadrant=quadrant)


def classify_matches(
    matches: Sequence[ClusterMatch],
    scorer: EnrichmentScorer,
    thresholds: EvaluationThresholds = EvaluationThresholds(),
    overlap_attr: str = "node_overlap",
    aees: Optional[Sequence[float]] = None,
) -> list[ScoredMatch]:
    """Classify every match; see :func:`classify_match`.

    ``aees`` optionally supplies the per-match enrichment scores (aligned
    with ``matches``) so a second classification pass — the paper evaluates
    node- and edge-overlap criteria over the same matches — reuses the first
    pass's scores instead of re-walking every cluster's edges.

    When no scores are supplied, all matched clusters are scored in **one
    batched pass** over the scorer's array front-end
    (:meth:`~repro.ontology.enrichment.EnrichmentScorer.cluster_aees`), which
    reads index-native clusters' edge pairs directly — bit-identical to
    scoring each cluster subgraph separately, but resolved against the
    distinct-term-pair memo table instead of one Python loop per edge.
    """
    if aees is None:
        aees = scorer.cluster_aees([m.filtered for m in matches])
    elif len(aees) != len(matches):
        raise ValueError("aees must align one-to-one with matches")
    return [
        classify_match(m, scorer, thresholds, overlap_attr, aees=a)
        for m, a in zip(matches, aees)
    ]


def quadrant_counts(scored: Sequence[ScoredMatch]) -> QuadrantCounts:
    """Aggregate scored matches into quadrant counts."""
    counts = QuadrantCounts()
    for s in scored:
        counts.add(s.quadrant)
    return counts


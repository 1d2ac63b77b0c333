"""Multi-year pooling and change detection on NC scores.

The paper's conclusion sketches a future-work direction: "we plan to
study whether it is possible to distinguish real from spurious changes
in networks". The NC machinery already provides everything needed —
each yearly snapshot yields a score and a standard deviation per edge,
so changes can be z-tested and repeated measurements pooled by inverse
variance. This module implements that extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..backbones.base import ScoredEdges
from ..graph.edge_table import EdgeTable
from ..stats.distributions import normal_sf
from ..util.validation import require
from .noise_corrected import NoiseCorrectedBackbone


@dataclass(frozen=True)
class PooledScores:
    """Inverse-variance pooled NC scores across snapshots.

    ``score`` is the precision-weighted mean of the per-year transformed
    lifts; ``sdev`` is the pooled standard error. Pairs are the union of
    all years' edges (a year where the pair is absent contributes a
    boundary score of -1 with the variance of a zero-weight edge — i.e.
    honest uncertainty, not false confidence).
    """

    table: EdgeTable
    score: np.ndarray
    sdev: np.ndarray
    n_years: int

    def as_scored_edges(self) -> ScoredEdges:
        """Adapt to the common backbone interface."""
        return ScoredEdges(table=self.table, score=self.score,
                           method="Noise-Corrected (pooled)",
                           sdev=self.sdev)

    def backbone(self, delta: float = 1.64) -> EdgeTable:
        """Delta filter on the pooled scores."""
        return NoiseCorrectedBackbone(delta).extract_from_scores(
            self.as_scored_edges())


def _aligned_scores(years: Sequence[EdgeTable]
                    ) -> Tuple[EdgeTable, np.ndarray, np.ndarray]:
    """Score every year over the union of observed pairs.

    Returns ``(union_table, scores, variances)`` with per-year rows
    stacked along axis 0.
    """
    require(len(years) >= 1, "need at least one snapshot")
    directed = years[0].directed
    n_nodes = years[0].n_nodes
    for year in years:
        require(year.directed == directed and year.n_nodes == n_nodes,
                "snapshots must share directedness and node universe")
    union = years[0].without_self_loops()
    for year in years[1:]:
        union = union.union(year.without_self_loops())
    src, dst = union.src, union.dst

    method = NoiseCorrectedBackbone()
    scores = np.empty((len(years), union.m))
    variances = np.empty((len(years), union.m))
    for row, year in enumerate(years):
        # Rebuild each year over the union pair set so every pair gets a
        # score (zero weight where absent).
        dense = year.to_dense()
        weights = dense[src, dst]
        aligned = EdgeTable(src, dst, weights, n_nodes=n_nodes,
                            directed=directed, coalesce=False)
        # score() keeps zero-weight rows (only self-loops are removed),
        # so row alignment with the union pair set is preserved.
        scored = method.score(aligned)
        scores[row] = scored.score
        variances[row] = np.maximum(scored.sdev, 1e-12) ** 2
    return union, scores, variances


def pool_years(years: Sequence[EdgeTable]) -> PooledScores:
    """Pool NC scores across snapshots by inverse-variance weighting."""
    require(len(years) >= 2, "pooling needs at least two snapshots")
    union, scores, variances = _aligned_scores(years)
    precision = 1.0 / variances
    pooled_variance = 1.0 / precision.sum(axis=0)
    pooled_score = (scores * precision).sum(axis=0) * pooled_variance
    return PooledScores(table=union, score=pooled_score,
                        sdev=np.sqrt(pooled_variance),
                        n_years=len(years))


@dataclass(frozen=True)
class EdgeChange:
    """A tested year-on-year edge change."""

    src: int
    dst: int
    score_before: float
    score_after: float
    z_statistic: float
    p_value: float

    @property
    def difference(self) -> float:
        return self.score_after - self.score_before


def significant_changes(before: EdgeTable, after: EdgeTable,
                        level: float = 0.05) -> List[EdgeChange]:
    """Edges whose NC score moved significantly between two snapshots.

    This is the "real vs spurious change" test: a weight jump only
    counts as a real change when it exceeds what the two years' pooled
    score uncertainty can explain.
    """
    union, scores, variances = _aligned_scores([before, after])
    standard_error = np.sqrt(variances[0] + variances[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = (scores[1] - scores[0]) / standard_error
    z = np.where(standard_error > 0, z, 0.0)
    p_values = 2.0 * normal_sf(np.abs(z))
    out: List[EdgeChange] = []
    for row in np.flatnonzero(p_values < level):
        out.append(EdgeChange(src=int(union.src[row]),
                              dst=int(union.dst[row]),
                              score_before=float(scores[0, row]),
                              score_after=float(scores[1, row]),
                              z_statistic=float(z[row]),
                              p_value=float(p_values[row])))
    out.sort(key=lambda change: change.p_value)
    return out

"""The Noise-Corrected (NC) backbone — the paper's contribution.

The method runs in three steps (paper Section IV):

1. transform edge weights into deviations from their null expectation
   (the symmetric lift score of Eq. 1);
2. attach a standard deviation to each transformed weight via a
   beta-binomial posterior and the delta method;
3. keep an edge iff its score exceeds its expectation (zero) by at least
   ``δ`` standard deviations.

``δ`` is the method's only parameter; 1.28 / 1.64 / 2.32 approximate
one-tailed p-values of 0.1 / 0.05 / 0.01.

A p-value variant (the paper's footnote 2) skips the transformation and
scores edges by the upper tail of ``Binomial(N.., N_i. N_.j / N..²)``; it
cannot provide standard deviations (and therefore no edge-vs-edge
significance tests), which is why the δ formulation is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backbones.base import BackboneMethod, ScoredEdges, prepare_table
from ..graph.edge_table import EdgeTable, NodeTotals
from .lift import edge_marginals, transformed_lift
from .posterior import PosteriorResult, posterior_probability
from .variance import transformed_lift_sdev


@dataclass(frozen=True)
class NoiseCorrectedScores(ScoredEdges):
    """NC scores plus the intermediate posterior (for diagnostics)."""

    posterior: Optional[PosteriorResult] = None


class NoiseCorrectedBackbone(BackboneMethod):
    """Noise-Corrected backbone with the δ filter.

    Parameters
    ----------
    delta:
        Number of standard deviations by which an edge's transformed
        weight must exceed its null expectation to stay in the backbone.
    use_posterior:
        When ``False``, the plug-in probability estimate replaces the
        beta-binomial posterior (ablation of the paper's Bayesian step).
    """

    name = "Noise-Corrected"
    code = "NC"
    # delta shapes only the filter phase; scores/sdev are delta-free.
    extraction_only_params = ("delta",)

    def __init__(self, delta: float = 1.64, use_posterior: bool = True):
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.delta = float(delta)
        self.use_posterior = bool(use_posterior)

    def score(self, table: EdgeTable) -> NoiseCorrectedScores:
        """Return the transformed lift and its standard deviation."""
        table = prepare_table(table)
        return self.score_edges(table, table.node_totals())

    def score_edges(self, edges: EdgeTable,
                    totals: NodeTotals) -> NoiseCorrectedScores:
        """Score loop-free ``edges`` against the node marginals ``totals``.

        Row ``i``'s score and sdev read only row ``i`` and ``totals``,
        so any block of rows scores exactly like the same rows of the
        whole table.
        """
        posterior = posterior_probability(edges, totals) \
            if self.use_posterior else None
        score = transformed_lift(edges, totals)
        sdev = transformed_lift_sdev(edges, posterior=posterior,
                                     use_posterior=self.use_posterior,
                                     totals=totals)
        return NoiseCorrectedScores(table=edges, score=score,
                                    method=self.name, sdev=sdev,
                                    posterior=posterior)

    def default_budget(self):
        """The paper's rule: keep ``(i, j)`` iff ``c_ij - δ·sd(c_ij) > 0``."""
        return {"threshold": 0.0}

    def rank_values(self, scored: ScoredEdges) -> np.ndarray:
        """The δ rule's ranking values, ``score - δ·sdev``.

        Every NC budget (and the default δ rule) ranks and cuts by
        these values through the base filter phase, so edge-budget
        matched comparisons respect the NC ordering. The array is
        built in one buffer: ``δ·sdev``, then ``score`` minus it in
        place, the same operations and bits as the two-temporary
        expression.
        """
        if scored.sdev is None:
            raise ValueError("NC extraction needs per-edge sdev; these "
                             "scores carry none")
        ranked = np.multiply(scored.sdev, self.delta)
        return np.subtract(scored.score, ranked, out=ranked)

    #: NC's filter phase is the base one, which ranks by
    #: :meth:`rank_values`. It is bound here as well so that NC's
    #: extraction stays an attribute of this class: perfbench's
    #: ``extract`` layer times ``NoiseCorrectedBackbone``'s own
    #: ``extract_from_scores``.
    extract_from_scores = BackboneMethod.extract_from_scores

    def adjusted_scores(self, table: EdgeTable) -> ScoredEdges:
        """Scores shifted by ``-δ·sd`` (the distribution of paper Fig. 2)."""
        scored = self.score(table)
        return ScoredEdges(table=scored.table,
                           score=self.rank_values(scored),
                           method=self.name, sdev=scored.sdev)


class NoiseCorrectedPValue(BackboneMethod):
    """The footnote-2 variant: direct binomial p-values, no transform.

    Scores are ``1 - p`` so that "higher is more salient" holds across
    the library; ``extract(threshold=1 - p_cut)`` reproduces a p-value
    cut at ``p_cut``.

    Parameters
    ----------
    delta:
        Significance level expressed on the same scale as the δ
        formulation: with no explicit budget, :meth:`extract` keeps
        edges whose p-value is below the one-tailed normal tail of
        ``delta`` (1.28 / 1.64 / 2.32 map to p < 0.1 / 0.05 / 0.01), so
        the two NC variants share one strictness knob.
    """

    name = "Noise-Corrected (p-value)"
    code = "NCp"
    extraction_only_params = ("delta",)

    def __init__(self, delta: float = 1.64):
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        self.delta = float(delta)

    @property
    def p_cut(self) -> float:
        """One-tailed normal p-value equivalent of ``delta``."""
        return 0.5 * math.erfc(self.delta / math.sqrt(2.0))

    def default_budget(self):
        """With no explicit budget, keep edges with ``p < p_cut``."""
        return {"threshold": 1.0 - self.p_cut}

    def score(self, table: EdgeTable) -> ScoredEdges:
        table = prepare_table(table)
        return self.score_edges(table, table.node_totals())

    def score_edges(self, edges: EdgeTable,
                    totals: NodeTotals) -> ScoredEdges:
        """Per-edge ``1 - p`` of loop-free ``edges`` against ``totals``."""
        from ..stats import special

        ni, nj, total = edge_marginals(edges, totals)
        probability = np.clip((ni * nj) / total ** 2, 0.0, 1.0)
        weight = edges.weight
        # P(X >= k) = I_p(k, n - k + 1), valid for 0 < k <= n.
        inside = (weight > 0) & (weight <= total) & (probability > 0) \
            & (probability < 1)
        p_values = np.ones(edges.m, dtype=np.float64)
        k = weight[inside]
        p_values[inside] = special.betainc(k, total - k + 1.0,
                                           probability[inside])
        # Degenerate rows: positive weight with zero null probability is
        # maximally surprising.
        p_values[(probability <= 0) & (weight > 0)] = 0.0
        return ScoredEdges(table=edges, score=1.0 - p_values,
                           method=self.name)

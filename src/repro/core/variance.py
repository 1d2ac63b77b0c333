"""Delta-method variance of the transformed lift.

Paper Section IV. With ``c_ij = (κ N_ij - 1) / (κ N_ij + 1)`` and κ a
function of ``N_ij`` through the marginals, the first-order delta method
gives

``V[c_ij] = V[N_ij] * ( 2 (κ + N_ij dκ/dN_ij) / (κ N_ij + 1)^2 )^2``

with ``V[N_ij] = N.. P_ij (1 - P_ij)`` evaluated at the posterior mean of
``P_ij`` so that sparse edges keep a strictly positive variance.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..graph.edge_table import EdgeTable, NodeTotals
from ..stats.distributions import binomial_variance
from .lift import kappa, kappa_derivative
from .posterior import PosteriorResult, posterior_probability


def edge_weight_variance(table: EdgeTable,
                         posterior: Optional[PosteriorResult] = None,
                         use_posterior: bool = True,
                         totals: Optional[NodeTotals] = None) -> np.ndarray:
    """Binomial variance of ``N_ij`` (paper Eq. 2).

    ``use_posterior=False`` switches to the plug-in probability — the
    estimator the paper argues against — for ablation studies.
    """
    if totals is None:
        totals = table.node_totals()
    total = totals.grand_total
    if use_posterior:
        if posterior is None:
            posterior = posterior_probability(table, totals)
        probability = posterior.mean
    else:
        probability = table.weight / total
    return binomial_variance(total, probability)


def transformed_lift_variance(table: EdgeTable,
                              posterior: Optional[PosteriorResult] = None,
                              use_posterior: bool = True,
                              totals: Optional[NodeTotals] = None
                              ) -> np.ndarray:
    """``V[c_ij]``: the variance of the symmetric lift score.

    Rows with degenerate marginals (infinite κ) get zero variance; their
    score is pinned at the boundary and they are never selected by the
    δ filter anyway. The delta-method factor is evaluated only where κ
    is finite, so a zero-weight row (``inf * 0``) raises no warning.
    """
    if totals is None:
        totals = table.node_totals()
    kappa_values = kappa(table, totals)
    derivative = kappa_derivative(table, totals)
    weight_variance = edge_weight_variance(table, posterior=posterior,
                                           use_posterior=use_posterior,
                                           totals=totals)
    finite = np.isfinite(kappa_values)
    kappa_values = kappa_values[finite]
    weight = table.weight[finite]
    factor = np.zeros(table.m, dtype=np.float64)
    factor[finite] = (2.0 * (kappa_values + weight * derivative[finite])
                      / (kappa_values * weight + 1.0) ** 2)
    return weight_variance * factor ** 2


def transformed_lift_sdev(table: EdgeTable,
                          posterior: Optional[PosteriorResult] = None,
                          use_posterior: bool = True,
                          totals: Optional[NodeTotals] = None) -> np.ndarray:
    """Standard deviation of the transformed lift."""
    variance = transformed_lift_variance(table, posterior=posterior,
                                         use_posterior=use_posterior,
                                         totals=totals)
    return np.sqrt(np.clip(variance, 0.0, None))

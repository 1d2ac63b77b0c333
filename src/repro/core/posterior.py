"""Bayesian estimation of the interaction probability ``P_ij``.

Paper Section IV, Eqs. 3–8. The plug-in estimate ``P̂_ij = N_ij / N..``
degenerates for sparse data: zero-weight node pairs would get zero
variance, i.e. "no measurement error", exactly where information is
scarcest. The fix is a beta-binomial posterior whose prior moments come
from a hypergeometric edge-generation story (node ``i`` draws destination
nodes at random as its total weight grows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..graph.edge_table import EdgeTable, NodeTotals
from ..stats.distributions import hypergeometric_prior_moments
from .lift import edge_marginals


@dataclass(frozen=True)
class PosteriorResult:
    """Per-edge posterior for ``P_ij``.

    Attributes
    ----------
    mean:
        Posterior expectation of ``P_ij`` — always strictly positive, so
        downstream variance estimates never degenerate.
    alpha, beta:
        Posterior beta parameters ``(N_ij + α, N.. - N_ij + β)``.
    prior_mean, prior_variance:
        The hypergeometric prior moments.
    fallback:
        Boolean mask of edges where the prior was infeasible for a beta
        fit (degenerate marginals, e.g. one node holding all weight) and
        the clipped plug-in estimate was used instead.
    """

    mean: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    prior_mean: np.ndarray
    prior_variance: np.ndarray
    fallback: np.ndarray

    def variance(self) -> np.ndarray:
        """Posterior variance of ``P_ij`` (beta variance, Eq. 6)."""
        total = self.alpha + self.beta
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (self.alpha * self.beta) / (total ** 2 * (total + 1.0))
        return np.where(np.isfinite(out), out, 0.0)


def posterior_probability(table: EdgeTable,
                          totals: Optional[NodeTotals] = None
                          ) -> PosteriorResult:
    """Posterior of ``P_ij`` for every edge of ``table``.

    Implements Eqs. 4–8: prior moments from
    :func:`~repro.stats.distributions.hypergeometric_prior_moments`,
    method-of-moments ``(α, β)``, conjugate update with the observed
    ``N_ij`` successes out of ``N..`` trials.

    Edges whose prior moments cannot be matched by a beta distribution
    (prior variance not strictly inside ``(0, μ(1-μ))``) fall back to the
    plug-in frequency clipped away from {0, 1}; the ``fallback`` mask
    reports them. On connected count networks this never triggers. At
    ``N.. = 1`` the prior variance is undefined (it divides by
    ``N.. - 1``), so the prior moments are NaN and every edge falls back.
    """
    ni, nj, total = edge_marginals(table, totals)
    weight = table.weight
    if total == 1.0:
        prior_mean, prior_variance = np.full((2, len(weight)), np.nan)
    else:
        prior_mean, prior_variance = hypergeometric_prior_moments(
            ni, nj, total)

    feasible = ((prior_mean > 0.0) & (prior_mean < 1.0)
                & (prior_variance > 0.0)
                & (prior_variance < prior_mean * (1.0 - prior_mean)))

    alpha_prior = np.zeros_like(prior_mean)
    beta_prior = np.zeros_like(prior_mean)
    mu = prior_mean[feasible]
    var = prior_variance[feasible]
    alpha_prior[feasible] = (mu ** 2 / var) * (1.0 - mu) - mu
    beta_prior[feasible] = mu * ((1.0 - mu) ** 2 / var + 1.0) - 1.0

    alpha_post = weight + alpha_prior
    beta_post = total - weight + beta_prior

    mean = np.empty_like(prior_mean)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean[feasible] = (alpha_post[feasible]
                          / (alpha_post[feasible] + beta_post[feasible]))

    fallback = ~feasible
    if np.any(fallback):
        epsilon = 1.0 / (2.0 * total)
        plug_in = weight[fallback] / total
        mean[fallback] = np.clip(plug_in, epsilon, 1.0 - epsilon)
        alpha_post = np.where(fallback, np.nan, alpha_post)
        beta_post = np.where(fallback, np.nan, beta_post)

    return PosteriorResult(mean=mean, alpha=alpha_post, beta=beta_post,
                           prior_mean=prior_mean,
                           prior_variance=prior_variance,
                           fallback=fallback)


def plug_in_probability(table: EdgeTable) -> np.ndarray:
    """The naive estimator ``P̂_ij = N_ij / N..`` (for ablation).

    This is the estimator the paper *rejects*: it assigns zero variance
    to zero-weight pairs. Exposed so the ablation benchmark can quantify
    the difference.
    """
    return table.weight / table.grand_total

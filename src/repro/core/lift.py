"""Expected edge weights and the (transformed) lift.

Paper Section IV. Under the null model, each of the ``N..`` unit
interactions leaving node ``i`` finds destination ``j`` with probability
equal to ``j``'s share of total incoming weight, so

``E[N_ij] = N_i. * N_.j / N..``

The *lift* ``L_ij = N_ij / E[N_ij]`` measures how unexpectedly strong an
edge is; Eq. 1 maps it onto the symmetric score
``(L - 1) / (L + 1) ∈ [-1, 1)`` centred on zero.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..graph.edge_table import EdgeTable, NodeTotals


def edge_marginals(table: EdgeTable, totals: Optional[NodeTotals] = None
                   ) -> Tuple[np.ndarray, np.ndarray, float]:
    """Per-edge ``(N_i., N_.j)`` and the grand total ``N..``.

    For undirected tables the marginals are node strengths on the doubled
    representation, and ``N..`` is twice the stored weight — the same
    convention as the reference implementation.

    ``totals`` supplies the node marginals; it defaults to the table's
    own (:meth:`EdgeTable.node_totals`).
    """
    if totals is None:
        totals = table.node_totals()
    return (totals.out_strength[table.src], totals.in_strength[table.dst],
            totals.grand_total)


def expected_weights(table: EdgeTable,
                     totals: Optional[NodeTotals] = None) -> np.ndarray:
    """Null-model expectation ``E[N_ij]`` per edge."""
    ni, nj, total = edge_marginals(table, totals)
    return ni * nj / total


def lift(table: EdgeTable,
         totals: Optional[NodeTotals] = None) -> np.ndarray:
    """Observed over expected weight, ``L_ij``.

    Rows whose expectation is zero (possible only for zero-weight edges
    between otherwise isolated endpoints) get a lift of zero.
    """
    expectation = expected_weights(table, totals)
    out = np.zeros(table.m, dtype=np.float64)
    positive = expectation > 0
    out[positive] = table.weight[positive] / expectation[positive]
    return out


def transformed_lift(table: EdgeTable,
                     totals: Optional[NodeTotals] = None) -> np.ndarray:
    """The symmetric score of Eq. 1: ``(L - 1) / (L + 1)``.

    A value of 0 means "exactly as expected"; +x and -x are equally far
    from the expectation on either side (the paper's example: lifts 0.1
    and 10 map to -0.81 and +0.81).
    """
    return transform_lift_values(lift(table, totals))


def transform_lift_values(lift_values: np.ndarray) -> np.ndarray:
    """Apply Eq. 1 to raw lift values."""
    lift_values = np.asarray(lift_values, dtype=np.float64)
    return (lift_values - 1.0) / (lift_values + 1.0)


def transformed_lift_matrix(table: EdgeTable) -> np.ndarray:
    """Dense matrix of transformed lifts over *all* node pairs.

    Zero-weight pairs get the boundary score -1 (lift zero). Needed by
    the variance validation (paper Table I), which tracks how an edge's
    score moves across yearly snapshots — including years where the pair
    records no interactions. The diagonal is set to NaN.
    """
    dense = table.to_dense()
    out_strength = table.out_strength()
    in_strength = table.in_strength()
    total = table.grand_total
    expectation = np.outer(out_strength, in_strength) / total
    with np.errstate(divide="ignore", invalid="ignore"):
        lift_matrix = np.where(expectation > 0, dense / expectation, 0.0)
    scores = (lift_matrix - 1.0) / (lift_matrix + 1.0)
    np.fill_diagonal(scores, np.nan)
    return scores


def kappa(table: EdgeTable,
          totals: Optional[NodeTotals] = None) -> np.ndarray:
    """The paper's ``κ = 1 / E[N_ij] = N.. / (N_i. N_.j)`` per edge.

    Rows with a zero marginal product get ``κ = inf`` (their lift is
    undefined; callers mask them out).
    """
    ni, nj, total = edge_marginals(table, totals)
    product = ni * nj
    with np.errstate(divide="ignore"):
        return np.where(product > 0, total / product, np.inf)


def kappa_derivative(table: EdgeTable,
                     totals: Optional[NodeTotals] = None) -> np.ndarray:
    """``dκ/dN_ij`` used by the delta-method variance (paper Section IV).

    Raising ``N_ij`` by one unit raises ``N_i.``, ``N_.j`` and ``N..``
    each by one, hence

    ``dκ/dN_ij = 1/(N_i. N_.j) - N.. (N_i. + N_.j) / (N_i. N_.j)^2``
    """
    ni, nj, total = edge_marginals(table, totals)
    product = ni * nj
    with np.errstate(divide="ignore", invalid="ignore"):
        value = 1.0 / product - total * (ni + nj) / product ** 2
    return np.where(product > 0, value, 0.0)

"""The Disparity Filter (Serrano, Boguñá & Vespignani, 2009).

The state-of-the-art statistical backbone the paper compares against.
For a node with degree ``k`` and strength ``s``, the null model assumes
the node's total weight is split by ``k - 1`` uniform random cut points;
an incident edge of weight ``w`` then has p-value

``p = (1 - w / s) ** (k - 1)``

Each edge is tested from both of its endpoints' perspectives (source as
emitter, target as receiver; both endpoints for undirected networks) and
survives if *either* test rejects — i.e. its p-value is the minimum of
the two. Crucially, and this is the weakness the NC method addresses,
the two tests never consider the node *pair* jointly: periphery-to-hub
edges always look significant from the peripheral side.
"""

from __future__ import annotations

import numpy as np

from ..graph.edge_table import EdgeTable, NodeTotals
from .base import BackboneMethod, ScoredEdges, prepare_table


class DisparityFilter(BackboneMethod):
    """Disparity Filter scoring ``1 - min(p_source, p_target)``."""

    name = "Disparity Filter"
    code = "DF"

    def score(self, table: EdgeTable) -> ScoredEdges:
        table = prepare_table(table)
        return self.score_edges(table, table.node_totals())

    def score_edges(self, edges: EdgeTable,
                    totals: NodeTotals) -> ScoredEdges:
        """Per-edge scores of loop-free ``edges`` against ``totals``.

        Undirected totals share one array between out and in, so both
        endpoints are tested on their strength and degree.
        """
        p_source = _one_sided_p_values(edges.weight,
                                       totals.out_strength[edges.src],
                                       totals.out_degree[edges.src])
        p_target = _one_sided_p_values(edges.weight,
                                       totals.in_strength[edges.dst],
                                       totals.in_degree[edges.dst])
        p_values = np.minimum(p_source, p_target)
        return ScoredEdges(table=edges, score=1.0 - p_values,
                           method=self.name)


def _one_sided_p_values(weight: np.ndarray, strength: np.ndarray,
                        degree: np.ndarray) -> np.ndarray:
    """``(1 - w/s)^(k-1)`` with the degree-one convention ``p = 1``.

    A degree-one node concentrates its whole strength on its only edge;
    the null model has no cut points to compare against, so the edge is
    uninformative from that side (the standard DF convention).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        share = np.where(strength > 0, weight / strength, 0.0)
    share = np.clip(share, 0.0, 1.0)
    exponent = np.maximum(degree - 1, 0)
    p_values = np.power(1.0 - share, exponent)
    return np.where(exponent == 0, 1.0, p_values)

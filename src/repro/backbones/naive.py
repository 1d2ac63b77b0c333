"""Naive thresholding — keep the heaviest edges.

The baseline the paper criticises (Section III-B): with broadly
distributed, locally correlated weights there is no characteristic scale,
so a global weight cut-off either floods the backbone with hub edges or
disconnects the periphery. It is nevertheless the reference point every
sweep includes.
"""

from __future__ import annotations

from ..graph.edge_table import EdgeTable, NodeTotals
from .base import BackboneMethod, ScoredEdges, prepare_table


class NaiveThreshold(BackboneMethod):
    """Score each edge by its raw weight."""

    name = "Naive Threshold"
    code = "NT"

    def score(self, table: EdgeTable) -> ScoredEdges:
        table = prepare_table(table)
        return self.score_edges(table, table.node_totals())

    def score_edges(self, edges: EdgeTable,
                    totals: NodeTotals) -> ScoredEdges:
        """Each row's weight; ``totals`` is unused."""
        return ScoredEdges(table=edges, score=edges.weight.copy(),
                           method=self.name)

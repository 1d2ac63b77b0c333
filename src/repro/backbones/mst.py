"""Maximum Spanning Tree backbone (Kruskal, paper Section III-B).

The MST keeps, among all spanning trees, the one with the largest total
weight; it guarantees full node coverage but destroys transitivity and
communities (it is a tree by construction). Directed networks are
symmetrized by summing the two orientations before the tree is built,
and disconnected networks yield a maximum spanning *forest*.
"""

from __future__ import annotations

import numpy as np

from ..graph.edge_table import EdgeTable
from ..graph.union_find import UnionFind
from .base import BackboneMethod, ScoredEdges, prepare_table


class MaximumSpanningTree(BackboneMethod):
    """Parameter-free maximum spanning tree/forest."""

    name = "Maximum Spanning Tree"
    code = "MST"
    parameter_free = True

    def score(self, table: EdgeTable) -> ScoredEdges:
        """Score 1 for edges in the tree, 0 otherwise.

        Kruskal with deterministic tie-breaking: equal weights are taken
        in (src, dst) order, so repeated runs return the same tree even
        when multiple MSTs exist (the ambiguity the paper notes).
        """
        table = prepare_table(table)
        working = table if not table.directed else table.symmetrized("sum")
        order = np.lexsort((working.dst, working.src, -working.weight))
        ds = UnionFind(working.n_nodes)
        in_tree = np.zeros(working.m, dtype=bool)
        for row in order:
            if ds.union(int(working.src[row]), int(working.dst[row])):
                in_tree[row] = True
        return ScoredEdges(table=working,
                           score=in_tree.astype(np.float64),
                           method=self.name)

    def extract_from_scores(self, scored: ScoredEdges, threshold=None,
                            share=None, n_edges=None,
                            rank="method") -> EdgeTable:
        """Return the tree edges (budget arguments are rejected)."""
        self.cut(threshold, share, n_edges, rank=rank)
        return scored.table.subset(scored.score > 0.5)

"""Weighted Newman modularity (Newman 2006).

The case study (paper Section VI) compares the modularity of the expert
two-digit partition on the NC vs. the DF backbone. We use the standard
undirected weighted definition

``Q = (1/2W) Σ_ij (A_ij - s_i s_j / 2W) δ(c_i, c_j)``

computed community-by-community as ``Σ_c (w_c/W - (S_c/2W)^2)`` where
``w_c`` is the internal weight and ``S_c`` the summed strength of
community ``c``. Directed tables are symmetrized by summing orientations.
"""

from __future__ import annotations

import numpy as np

from ..graph.edge_table import EdgeTable
from ..util.validation import require
from .partition import Partition


def modularity(table: EdgeTable, partition: Partition) -> float:
    """Modularity of ``partition`` on the (undirected view of) ``table``."""
    require(len(partition) == table.n_nodes,
            f"partition covers {len(partition)} nodes, table has "
            f"{table.n_nodes}")
    working = table if not table.directed else table.symmetrized("sum")
    working = working.without_self_loops()
    total = working.total_weight
    if total <= 0:
        return 0.0
    labels = partition.labels
    same = labels[working.src] == labels[working.dst]
    k = partition.n_communities
    internal = np.bincount(labels[working.src[same]],
                           weights=working.weight[same], minlength=k)
    strength_by_community = np.bincount(labels, weights=working.strength(),
                                        minlength=k)
    return float((internal / total
                  - (strength_by_community / (2.0 * total)) ** 2).sum())

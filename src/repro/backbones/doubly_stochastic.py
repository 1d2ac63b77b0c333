"""Doubly-Stochastic filter (Slater, 2009; paper Section III-B).

Two stages:

1. the adjacency matrix is rescaled to doubly stochastic form (all row
   and column sums equal one) by Sinkhorn-Knopp alternation;
2. edges are re-added in descending normalized weight until the backbone
   spans every node in a single connected component.

The paper stresses two limitations that this implementation surfaces
explicitly: the matrix must be square (no bipartite networks), and not
every square matrix *can* be balanced — zero rows/columns or missing
total support make Sinkhorn diverge, in which case
:class:`SinkhornConvergenceError` is raised (the "n/a" cells of the
paper's Table II and Fig. 7).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.edge_table import EdgeTable
from ..graph.union_find import UnionFind
from .base import BackboneMethod, ScoredEdges, prepare_table


class SinkhornConvergenceError(RuntimeError):
    """Raised when the doubly-stochastic transformation is impossible.

    Whether a network can be balanced is a property of the network
    itself, so the verdict is deterministic per (table, method) pair;
    ``cache_negative`` marks the failure as cacheable, letting the
    pipeline store record it once instead of re-running the
    ``max_iterations`` Sinkhorn probe on every sweep.
    """

    cache_negative = "sinkhorn-nonconvergence"


def sinkhorn_knopp(table: EdgeTable, max_iterations: int = 1000,
                   tolerance: float = 1e-8
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Balance ``table``'s adjacency to doubly stochastic form.

    Returns ``(row_scale, col_scale)`` so that the balanced weight of
    edge ``(i, j)`` is ``w_ij * row_scale[i] * col_scale[j]``.

    Raises
    ------
    SinkhornConvergenceError
        If any node has zero out- or in-weight, or the alternation fails
        to reach the tolerance within ``max_iterations``.
    """
    working = table if table.directed else table.as_directed_doubled()
    n = working.n_nodes
    src, dst, weight = working.src, working.dst, working.weight
    row_scale = np.ones(n)
    col_scale = np.ones(n)
    out_zero = np.bincount(src, weights=weight, minlength=n) == 0
    in_zero = np.bincount(dst, weights=weight, minlength=n) == 0
    if out_zero.any() or in_zero.any():
        raise SinkhornConvergenceError(
            "matrix has empty rows or columns; the doubly-stochastic "
            "transformation is not possible")
    for _ in range(max_iterations):
        with np.errstate(divide="ignore", invalid="ignore",
                         over="ignore"):
            row_sums = np.bincount(src, weights=weight * col_scale[dst],
                                   minlength=n)
            row_scale = 1.0 / row_sums
            col_sums = np.bincount(dst, weights=weight * row_scale[src],
                                   minlength=n)
            col_scale = 1.0 / col_sums
        if not (np.all(np.isfinite(row_scale))
                and np.all(np.isfinite(col_scale))):
            raise SinkhornConvergenceError(
                "scaling factors diverged; the matrix cannot be balanced")
        # Convergence check: row sums after the column update.
        row_check = np.bincount(src,
                                weights=weight * row_scale[src]
                                * col_scale[dst],
                                minlength=n)
        if np.max(np.abs(row_check - 1.0)) < tolerance:
            return row_scale, col_scale
    raise SinkhornConvergenceError(
        f"Sinkhorn-Knopp did not converge in {max_iterations} iterations; "
        "the matrix likely lacks total support")


class DoublyStochastic(BackboneMethod):
    """Doubly-Stochastic filter with the connectivity sweep."""

    name = "Doubly Stochastic"
    code = "DS"
    parameter_free = True

    def __init__(self, max_iterations: int = 1000, tolerance: float = 1e-8):
        self.max_iterations = int(max_iterations)
        self.tolerance = float(tolerance)

    def score(self, table: EdgeTable) -> ScoredEdges:
        """Score each edge by its balanced (doubly stochastic) weight.

        For undirected tables the two orientations share one balanced
        value; the maximum is reported (they coincide up to symmetry of
        the scaling).
        """
        table = prepare_table(table)
        row_scale, col_scale = sinkhorn_knopp(
            table, max_iterations=self.max_iterations,
            tolerance=self.tolerance)
        balanced = table.weight * row_scale[table.src] \
            * col_scale[table.dst]
        if not table.directed:
            reverse = table.weight * row_scale[table.dst] \
                * col_scale[table.src]
            balanced = np.maximum(balanced, reverse)
        return ScoredEdges(table=table, score=balanced, method=self.name)

    def extract_from_scores(self, scored: ScoredEdges, threshold=None,
                            share=None, n_edges=None,
                            rank="method") -> EdgeTable:
        """Add edges by descending balanced weight until one component
        spans all non-isolated nodes of the input."""
        self.cut(threshold, share, n_edges, rank=rank)
        working = scored.table
        order = np.lexsort((working.dst, working.src, -scored.score))
        ds = UnionFind(working.n_nodes)
        isolated = frozenset(working.isolates().tolist())
        target_components = 1 + len(isolated)
        keep = np.zeros(working.m, dtype=bool)
        for row in order:
            keep[row] = True
            ds.union(int(working.src[row]), int(working.dst[row]))
            if ds.n_components == target_components:
                break
        return working.subset(keep)

"""Descriptive graph metrics used throughout the evaluation harness."""

from __future__ import annotations

from typing import Dict

import numpy as np

from .edge_table import EdgeTable
from .graph import Graph, concat_csr_slices


def density(table: EdgeTable) -> float:
    """Fraction of possible (non-loop) edges that are present."""
    n = table.n_nodes
    if n < 2:
        return 0.0
    present = table.nonloop_m
    possible = n * (n - 1)
    if not table.directed:
        possible //= 2
    return present / possible


def average_degree(table: EdgeTable) -> float:
    """Mean number of incident edges per node."""
    if table.n_nodes == 0:
        return 0.0
    return float(table.degree().mean())


def degree_histogram(table: EdgeTable) -> np.ndarray:
    """Counts of nodes by degree, ``hist[d]`` = number of nodes of degree d."""
    degrees = table.degree()
    if len(degrees) == 0:
        return np.zeros(1, dtype=np.int64)
    return np.bincount(degrees)


def jaccard_edge_similarity(a: EdgeTable, b: EdgeTable) -> float:
    """Jaccard coefficient between two edge sets (paper Section V-A).

    Both tables are compared on unordered node pairs when either is
    undirected, so a directed backbone can be scored against an undirected
    ground truth.
    """
    directed = a.directed and b.directed
    keys_a = _pair_set(a, directed)
    keys_b = _pair_set(b, directed)
    if not keys_a and not keys_b:
        return 1.0
    union = len(keys_a | keys_b)
    if union == 0:
        return 1.0
    return len(keys_a & keys_b) / union


def _pair_set(table: EdgeTable, directed: bool) -> frozenset:
    if directed:
        return table.edge_key_set()
    lo = np.minimum(table.src, table.dst)
    hi = np.maximum(table.src, table.dst)
    return frozenset(zip(lo.tolist(), hi.tolist()))


def clustering_coefficient(table: EdgeTable) -> np.ndarray:
    """Local (unweighted) clustering coefficient per node.

    Computed on the undirected simple graph underlying ``table``. Nodes of
    degree < 2 get coefficient 0.
    """
    simple = table.symmetrized("max").without_self_loops() if table.directed \
        else table.without_self_loops()
    graph = Graph(simple)
    indptr, nbrs = graph.indptr, graph.neighbors
    degree = np.diff(indptr)
    out = np.zeros(simple.n_nodes, dtype=np.float64)
    member = np.zeros(simple.n_nodes, dtype=bool)
    for v in np.flatnonzero(degree >= 2):
        neighborhood = nbrs[indptr[v]:indptr[v + 1]]
        member[neighborhood] = True
        # Count, over every neighbor u, how many of u's neighbors fall
        # inside v's neighborhood — one membership-mask gather over the
        # concatenated CSR slices instead of a Python pair loop.
        two_hop = nbrs[concat_csr_slices(indptr, neighborhood)]
        links = int(member[two_hop].sum())
        k = len(neighborhood)
        out[v] = links / (k * (k - 1))
        member[neighborhood] = False
    return out


def average_clustering(table: EdgeTable) -> float:
    """Mean local clustering coefficient over all nodes."""
    coefficients = clustering_coefficient(table)
    if len(coefficients) == 0:
        return 0.0
    return float(coefficients.mean())


def neighbor_weight_profile(table: EdgeTable) -> Dict[str, np.ndarray]:
    """Edge weight vs. average weight of adjacent edges (paper Fig. 6).

    For every edge ``(i, j)`` with weight ``w``, computes the mean weight
    of all *other* edges incident to ``i`` or ``j``. Returns a dict with
    aligned arrays ``weight`` and ``neighbor_avg`` (edges whose endpoints
    have no other incident edge are dropped).
    """
    strength = table.strength()
    degree = table.degree()
    s_pair = strength[table.src] + strength[table.dst]
    d_pair = degree[table.src] + degree[table.dst]
    # Each endpoint's strength counts the edge itself once, so remove both.
    other_weight = s_pair - 2.0 * table.weight
    other_count = d_pair - 2
    keep = other_count > 0
    return {
        "weight": table.weight[keep].copy(),
        "neighbor_avg": other_weight[keep] / other_count[keep],
    }

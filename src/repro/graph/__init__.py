"""Graph substrate: columnar edge tables, adjacency views and algorithms."""

from .components import (component_sizes, connected_components,
                         giant_component_mask, is_connected)
from .edge_table import EdgeTable, NodeTotals, coalesce_edges
from .graph import Graph
from .ingest import (EdgeTableBuilder, detect_format, read_edge_npz,
                     read_edges, write_edge_npz, write_edges)
from .io import read_edge_csv, write_edge_csv
from .metrics import (average_clustering, average_degree,
                      clustering_coefficient, degree_histogram, density,
                      jaccard_edge_similarity, neighbor_weight_profile)
from .paths import (all_pairs_distances, bfs_order, dijkstra,
                    dijkstra_reference, shortest_path_tree)
from .sp_engine import (ShortestPathEngine, ShortestPathForest,
                        effective_lengths)
from .subgraph import (Subgraph, giant_component_subgraph,
                       induced_subgraph, non_isolated_subgraph)
from .union_find import UnionFind
from .weighted_metrics import (average_weighted_clustering,
                               degree_assortativity, reciprocity,
                               weight_assortativity,
                               weighted_clustering_coefficient)

__all__ = [
    "EdgeTable",
    "EdgeTableBuilder",
    "Graph",
    "NodeTotals",
    "ShortestPathEngine",
    "ShortestPathForest",
    "Subgraph",
    "UnionFind",
    "average_weighted_clustering",
    "degree_assortativity",
    "giant_component_subgraph",
    "induced_subgraph",
    "non_isolated_subgraph",
    "reciprocity",
    "weight_assortativity",
    "weighted_clustering_coefficient",
    "all_pairs_distances",
    "average_clustering",
    "average_degree",
    "bfs_order",
    "clustering_coefficient",
    "coalesce_edges",
    "component_sizes",
    "connected_components",
    "degree_histogram",
    "density",
    "detect_format",
    "dijkstra",
    "dijkstra_reference",
    "effective_lengths",
    "giant_component_mask",
    "is_connected",
    "jaccard_edge_similarity",
    "neighbor_weight_profile",
    "read_edge_csv",
    "read_edge_npz",
    "read_edges",
    "shortest_path_tree",
    "write_edge_csv",
    "write_edge_npz",
    "write_edges",
]

"""repro — a full reproduction of *Network Backboning with Noisy Data*
(Coscia & Neffke, ICDE 2017).

The front door is :func:`repro.flow.flow`: one declarative,
fingerprinted request API from any source (path, ``file://`` URL,
in-memory table) to an extracted backbone, with batches of requests
deduplicated down to a single scoring pass per distinct input.

>>> from repro import EdgeTable, flow
>>> table = EdgeTable.from_pairs(
...     [(0, 1, 10.0), (0, 2, 10.0), (0, 3, 12.0), (0, 4, 12.0),
...      (0, 5, 12.0), (1, 2, 4.0)], directed=False)
>>> result = flow(table).method("nc", delta=1.0).metrics("edges").run()
>>> result.backbone.m == int(result.metrics["edges"])
True
>>> variants = flow(table).method("nc").run_many(delta=[0.5, 1.0, 2.0])
>>> len({r.cache_key for r in variants})  # one scoring pass for all 3
1

Beneath the flow layer the package implements the paper's
Noise-Corrected backbone and every substrate its evaluation depends
on: five baseline backbone methods, a columnar graph stack with
chunked/binary ingestion, a content-addressed score cache with three
backends, statistics (OLS, correlations, beta-binomial machinery),
community discovery (Louvain, Infomap-lite, NMI), synthetic data
generators replacing the proprietary datasets, and experiment modules
regenerating every table and figure.

The classic two-phase API remains (and is what plans lower onto):

>>> from repro import NoiseCorrectedBackbone
>>> backbone = NoiseCorrectedBackbone(delta=1.0).extract(table)
>>> backbone == result.backbone
True
"""

from .backbones import (BackboneMethod, DisparityFilter, DoublyStochastic,
                        HighSalienceSkeleton, MaximumSpanningTree,
                        NaiveThreshold, ScoredEdges,
                        SinkhornConvergenceError, get_method,
                        paper_methods)
from .community import (Partition, infomap, label_propagation, louvain,
                        map_equation_codelength, modularity,
                        normalized_mutual_information)
from .core import (NoiseCorrectedBackbone, NoiseCorrectedPValue,
                   compare_edges, confidence_intervals, expected_weights,
                   lift, posterior_probability, transformed_lift,
                   transformed_lift_variance)
from .evaluation import (average_stability, coverage,
                         predicted_vs_observed_variance, quality_ratio,
                         recovery_jaccard, stability_spearman)
from .flow import (FlowResult, Plan, RemoteSource, flow,
                   register_scheme, serve)
from .generators import (SyntheticWorld, add_noise, barabasi_albert,
                         erdos_renyi_gnm, generate_occupation_study,
                         planted_partition)
from .graph import (EdgeTable, EdgeTableBuilder, Graph, read_edge_csv,
                    read_edges, write_edge_csv, write_edges)
from .pipeline import ScoreStore

__version__ = "1.1.0"

__all__ = [
    "BackboneMethod",
    "DisparityFilter",
    "DoublyStochastic",
    "EdgeTable",
    "EdgeTableBuilder",
    "FlowResult",
    "Graph",
    "HighSalienceSkeleton",
    "MaximumSpanningTree",
    "NaiveThreshold",
    "NoiseCorrectedBackbone",
    "NoiseCorrectedPValue",
    "Partition",
    "Plan",
    "RemoteSource",
    "ScoreStore",
    "ScoredEdges",
    "SinkhornConvergenceError",
    "SyntheticWorld",
    "add_noise",
    "average_stability",
    "barabasi_albert",
    "compare_edges",
    "confidence_intervals",
    "coverage",
    "erdos_renyi_gnm",
    "expected_weights",
    "flow",
    "generate_occupation_study",
    "get_method",
    "infomap",
    "label_propagation",
    "lift",
    "louvain",
    "map_equation_codelength",
    "modularity",
    "normalized_mutual_information",
    "paper_methods",
    "planted_partition",
    "posterior_probability",
    "predicted_vs_observed_variance",
    "quality_ratio",
    "read_edge_csv",
    "read_edges",
    "recovery_jaccard",
    "register_scheme",
    "serve",
    "stability_spearman",
    "transformed_lift",
    "transformed_lift_variance",
    "write_edge_csv",
    "write_edges",
    "__version__",
]

"""Multilayer Noise-Corrected backboning (paper future work, Section VII).

The paper closes with: "we can extend the NC methodology to consider
multilayer networks, where nodes in different layers are coupled
together and where these couplings influence the backbone structure."
This module implements that extension with two null models:

* **independent** — each layer is backboned on its own marginals, as if
  the other layers did not exist (the baseline);
* **coupled** — node propensities are pooled across layers and each
  layer only contributes its *activity share*:

  ``E[N_ij^l] = (N_i.^tot * N_.j^tot / N..^tot) * (N..^l / N..^tot)``

  Under the coupled null a node that is a hub in *any* layer is expected
  to attract weight in *every* layer, so an edge is only salient when it
  beats the node pair's cross-layer propensity — the "couplings
  influence the backbone" behaviour the paper anticipates.

Scores and variances reuse the single-layer NC machinery: within each
layer the coupled null only rescales the node marginals, and
:meth:`NoiseCorrectedBackbone.score_edges` scores the layer against
those coupled totals, so the transformed lift, its posterior and its
delta-method variance follow unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Mapping

import numpy as np

from ..backbones.base import ScoredEdges
from ..graph.edge_table import EdgeTable
from ..util.validation import require
from .noise_corrected import NoiseCorrectedBackbone


@dataclass(frozen=True)
class MultilayerScores:
    """Per-layer NC scores under a shared multilayer null model."""

    layers: Dict[str, ScoredEdges]
    null_model: str

    def backbone(self, delta: float = 1.64) -> Dict[str, EdgeTable]:
        """Per-layer δ-filtered backbones."""
        method = NoiseCorrectedBackbone(delta)
        return {name: method.extract_from_scores(scored)
                for name, scored in self.layers.items()}

    def flattened_backbone(self, delta: float = 1.64) -> EdgeTable:
        """Union of the per-layer backbones over the shared node set."""
        backbones = list(self.backbone(delta).values())
        merged = backbones[0]
        for layer in backbones[1:]:
            merged = merged.union(layer)
        return merged


class MultilayerNetwork:
    """Edge tables per layer over one shared node universe."""

    def __init__(self, layers: Mapping[str, EdgeTable]):
        require(len(layers) >= 1, "need at least one layer")
        names = list(layers)
        first = layers[names[0]]
        for name in names:
            table = layers[name]
            require(table.n_nodes == first.n_nodes,
                    f"layer {name!r} has {table.n_nodes} nodes, expected "
                    f"{first.n_nodes}")
            require(table.directed == first.directed,
                    f"layer {name!r} directedness differs")
        self.layers: Dict[str, EdgeTable] = {
            name: layers[name].without_self_loops() for name in names}
        self.n_nodes = first.n_nodes
        self.directed = first.directed

    def layer_names(self) -> List[str]:
        return list(self.layers)

    def total_out_strength(self) -> np.ndarray:
        """Cross-layer pooled outgoing strength per node."""
        total = np.zeros(self.n_nodes)
        for table in self.layers.values():
            total += table.out_strength()
        return total

    def total_in_strength(self) -> np.ndarray:
        """Cross-layer pooled incoming strength per node."""
        total = np.zeros(self.n_nodes)
        for table in self.layers.values():
            total += table.in_strength()
        return total

    def grand_total(self) -> float:
        """Pooled ``N..`` over all layers."""
        return float(sum(table.grand_total
                         for table in self.layers.values()))


def multilayer_noise_corrected(network: MultilayerNetwork,
                               null_model: str = "coupled"
                               ) -> MultilayerScores:
    """Score every layer's edges under the chosen multilayer null.

    ``null_model="independent"`` reduces exactly to running the
    single-layer NC on each layer. ``"coupled"`` pools node propensities
    across layers (see module docstring).
    """
    require(null_model in ("independent", "coupled"),
            f"unknown null model {null_model!r}")
    method = NoiseCorrectedBackbone()
    scored_layers: Dict[str, ScoredEdges] = {}
    if null_model == "independent":
        for name, table in network.layers.items():
            scored_layers[name] = method.score(table)
        return MultilayerScores(layers=scored_layers,
                                null_model=null_model)

    pooled_out = network.total_out_strength()
    pooled_in = network.total_in_strength()
    pooled_total = network.grand_total()
    require(pooled_total > 1, "multilayer network has no weight")
    for name, table in network.layers.items():
        own = table.node_totals()
        scale = np.sqrt(own.grand_total / pooled_total)
        coupled = replace(own, out_strength=pooled_out * scale,
                          in_strength=pooled_in * scale,
                          grand_total=pooled_total)
        scored_layers[name] = replace(
            method.score_edges(table, coupled),
            method=f"Noise-Corrected (coupled, layer={name})")
    return MultilayerScores(layers=scored_layers, null_model="coupled")

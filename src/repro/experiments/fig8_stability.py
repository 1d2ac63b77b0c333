"""Fig. 8: stability of backbone edge weights across years.

Same sweep structure as Fig. 7, but the metric is the average Spearman
correlation between consecutive years' weights on the backbone's edges.
The paper finds no clear winner: every method stays above ~0.84, with
NC comparable to DF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..backbones.base import BackboneMethod
from ..backbones.registry import paper_methods
from ..evaluation.sweep import DEFAULT_SHARES, SweepSeries
from ..flow.sweep import sweep_methods
from ..generators.world import NETWORK_NAMES, SyntheticWorld
from ..pipeline.tasks import StabilityMetric
from .report import series_table


@dataclass(frozen=True)
class Fig8Result:
    """Stability sweeps per network and method."""

    shares: List[float]
    sweeps: Dict[str, Dict[str, SweepSeries]]

    def minimum_stability(self) -> float:
        """Smallest stability across all methods/networks/shares."""
        values = []
        for by_method in self.sweeps.values():
            for sweep in by_method.values():
                values.extend(v for v in sweep.values if np.isfinite(v))
        return float(min(values)) if values else float("nan")


def run(world: Optional[SyntheticWorld] = None,
        shares: Sequence[float] = DEFAULT_SHARES,
        networks: Sequence[str] = NETWORK_NAMES,
        methods: Optional[Sequence[BackboneMethod]] = None,
        store=None, workers: Optional[int] = None) -> Fig8Result:
    """Regenerate the Fig. 8 sweeps.

    Each network's sweep is one :mod:`repro.flow` plan batch, scored
    over ``store`` (a fresh memory-only one per batch when none is
    given) and optionally across ``workers`` processes; neither
    changes any value.
    """
    if world is None:
        world = SyntheticWorld(seed=0)
    if methods is None:
        methods = paper_methods()
    sweeps: Dict[str, Dict[str, SweepSeries]] = {}
    for name in networks:
        years = world.years(name)
        table = years[0]
        metric = StabilityMetric(tuple(years))
        sweeps[name] = sweep_methods(methods, table, metric,
                                     shares=shares, store=store,
                                     workers=workers)
    return Fig8Result(shares=list(shares), sweeps=sweeps)


def format_result(result: Fig8Result) -> str:
    """Render one stability table per network."""
    blocks = []
    for name, by_method in result.sweeps.items():
        series = {code: sweep.values
                  for code, sweep in by_method.items()
                  if not sweep.parameter_free}
        block = series_table(
            f"Fig. 8 — stability vs share of edges ({name})", "share",
            result.shares, series)
        points = [f"{code}: stability {sweep.values[0]:.4f}"
                  for code, sweep in by_method.items()
                  if sweep.parameter_free and sweep.shares]
        if points:
            block += "\n  parameter-free points: " + "; ".join(points)
        blocks.append(block)
    return "\n\n".join(blocks)

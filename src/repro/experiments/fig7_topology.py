"""Fig. 7: coverage as a function of the share of edges kept.

For each of the six networks and each method, sweep the kept-edge share
and measure coverage (non-isolated node retention). MST and DS appear as
single points (parameter-free); the paper's headline observations are
that MST/DS/HSS cover by construction, NC and DF trade blows, and DF
*underperforms the naive threshold* on Ownership — a critical failure.
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
from ..pipeline.tasks import CoverageMetric
from .report import series_table


@dataclass(frozen=True)
class Fig7Result:
    """Coverage sweeps per network and method."""

    shares: List[float]
    sweeps: Dict[str, Dict[str, SweepSeries]]

    def coverage_at(self, network: str, code: str, share: float) -> float:
        """Coverage of one method at (approximately) one share."""
        series = self.sweeps[network][code]
        if not series.shares:
            return float("nan")
        index = int(np.argmin(np.abs(np.asarray(series.shares) - share)))
        return series.values[index]


def run(world: Optional[SyntheticWorld] = None,
        shares: Sequence[float] = DEFAULT_SHARES,
        networks: Sequence[str] = NETWORK_NAMES,
        methods: Optional[Sequence[BackboneMethod]] = None,
        store=None, workers: Optional[int] = None) -> Fig7Result:
    """Regenerate the Fig. 7 sweeps.

    Each network's sweep is one :mod:`repro.flow` plan batch (via
    ``sweep_methods``). Scored tables come from (and land in)
    ``store``, a fresh memory-only one per batch when none is given,
    and ``workers`` fans scoring out across processes; neither changes
    any series value.
    """
    if world is None:
        world = SyntheticWorld(seed=0)
    if methods is None:
        methods = paper_methods()
    sweeps: Dict[str, Dict[str, SweepSeries]] = {}
    for name in networks:
        table = world.network(name, 0)
        metric = CoverageMetric(table)
        sweeps[name] = sweep_methods(methods, table, metric,
                                     shares=shares, store=store,
                                     workers=workers)
    return Fig7Result(shares=list(shares), sweeps=sweeps)


def format_result(result: Fig7Result) -> str:
    """Render one coverage table per network."""
    blocks = []
    for name, by_method in result.sweeps.items():
        series = {}
        for code, sweep in by_method.items():
            if sweep.parameter_free:
                continue
            series[code] = sweep.values
        block = series_table(
            f"Fig. 7 — coverage vs share of edges ({name})", "share",
            result.shares, series)
        points = [f"{code}: coverage {sweep.values[0]:.4f} at share "
                  f"{sweep.shares[0]:.4f}"
                  for code, sweep in by_method.items()
                  if sweep.parameter_free and sweep.shares]
        missing = [code for code, sweep in by_method.items()
                   if not sweep.shares]
        if points:
            block += "\n  parameter-free points: " + "; ".join(points)
        if missing:
            block += "\n  n/a (not balanceable): " + ", ".join(missing)
        blocks.append(block)
    return "\n\n".join(blocks)

"""Share-of-edges sweeps (the x-axis of paper Figs. 7 and 8).

Each budgeted method is scored once; the sweep then re-filters the same
scores at every requested share. Parameter-free methods (MST, DS)
contribute a single point at their natural edge share, exactly as the
paper plots them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from ..backbones.base import BackboneMethod
from ..backbones.doubly_stochastic import SinkhornConvergenceError
from ..graph.edge_table import EdgeTable

Metric = Callable[[EdgeTable], float]

#: Default share grid (log-spaced, as in the paper's log-x plots).
DEFAULT_SHARES = (0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SweepSeries:
    """One method's metric values across edge shares."""

    code: str
    shares: List[float]
    values: List[float]
    parameter_free: bool


def share_sweep(method: BackboneMethod, table: EdgeTable,
                metric: Metric,
                shares: Sequence[float] = DEFAULT_SHARES) -> SweepSeries:
    """Evaluate ``metric`` on the method's backbone at each share.

    Raises ``SinkhornConvergenceError`` through for the caller to map to
    the paper's "n/a" cells.
    """
    if method.parameter_free:
        backbone = method.extract(table)
        share = backbone.m / max(table.nonloop_m, 1)
        return SweepSeries(code=method.code, shares=[share],
                           values=[metric(backbone)], parameter_free=True)
    scored = method.score(table)
    values = [metric(scored.top_share(share)) for share in shares]
    return SweepSeries(code=method.code, shares=list(shares),
                       values=values, parameter_free=False)


def sweep_methods(methods: Sequence[BackboneMethod], table: EdgeTable,
                  metric: Metric,
                  shares: Sequence[float] = DEFAULT_SHARES,
                  store=None,
                  workers: Optional[int] = None
                  ) -> Dict[str, SweepSeries]:
    """Sweep every method; inapplicable ones map to an empty series.

    ``store`` (a :class:`repro.pipeline.ScoreStore`) serves scored
    tables from cache, and ``workers`` fans scoring out across
    processes. Either knob compiles the sweep into a
    :mod:`repro.flow` plan batch (one plan per method and share,
    served over the shared store); the result is bit-identical to the
    plain serial loop below (the contract asserted by
    ``benchmarks/bench_pipeline_cache.py``).
    """
    if store is not None or workers is not None:
        # Imported lazily: the flow subsystem builds on this module.
        from ..flow.sweep import run_sweep_plans
        return run_sweep_plans(methods, table, metric, shares=shares,
                               store=store, workers=workers)
    out: Dict[str, SweepSeries] = {}
    for method in methods:
        try:
            out[method.code] = share_sweep(method, table, metric,
                                           shares=shares)
        except SinkhornConvergenceError:
            out[method.code] = SweepSeries(code=method.code, shares=[],
                                           values=[],
                                           parameter_free=True)
    return out

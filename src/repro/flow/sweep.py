"""Share sweeps as plan batches.

A share sweep — the workload behind paper Figs. 7-8 — is just a
structured batch of flow requests: for every budgeted method, one plan
per share with the raw-score sweep ranking (``rank="score"``); for
every parameter-free method, a single plan at its natural share.
:func:`sweep_plans` performs that compilation, :func:`fold_sweep`
folds served results back into the ``{code: SweepSeries}`` mapping,
and :func:`sweep_methods` does both around one :func:`serve` batch.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..backbones.base import BackboneMethod
from ..backbones.doubly_stochastic import SinkhornConvergenceError
from ..evaluation.sweep import DEFAULT_SHARES, SweepSeries
from .plan import Plan, flow
from .serve import FlowResult, serve


def sweep_plans(methods: Sequence[BackboneMethod], source,
                metric, shares: Sequence[float] = DEFAULT_SHARES
                ) -> List[Plan]:
    """Compile ``sweep_methods(methods, source, metric, shares)`` into
    a plan batch.

    ``source`` is anything :func:`repro.flow.flow` accepts (or an
    existing partial plan); ``metric`` is a registered metric name or
    a picklable callable. Plan order is methods-major, shares-minor —
    the order :func:`fold_sweep` consumes.
    """
    base = source if isinstance(source, Plan) else flow(source)
    base = base.metrics(metric)
    plans: List[Plan] = []
    for method in methods:
        stem = base.method(method)
        if method.parameter_free:
            plans.append(stem)
        else:
            plans.extend(stem.budget(share=share, rank="score")
                         for share in shares)
    return plans


def fold_sweep(methods: Sequence[BackboneMethod],
               results: Sequence[FlowResult],
               shares: Sequence[float] = DEFAULT_SHARES
               ) -> Dict[str, SweepSeries]:
    """Fold served :func:`sweep_plans` results into sweep series.

    Parameter-free methods contribute one point at their natural
    share, a method whose scoring is inapplicable (Sinkhorn
    non-convergence) maps to an empty series, and any other plan error
    is raised, in method order.
    """
    series: Dict[str, SweepSeries] = {}
    cursor = 0
    for method in methods:
        width = 1 if method.parameter_free else len(shares)
        chunk = results[cursor:cursor + width]
        cursor += width
        errors = [result.error for result in chunk if not result.ok]
        if errors and not isinstance(errors[0], SinkhornConvergenceError):
            raise errors[0]
        if errors:
            series[method.code] = SweepSeries(code=method.code, shares=[],
                                              values=[],
                                              parameter_free=True)
        elif method.parameter_free:
            series[method.code] = SweepSeries(
                code=method.code, shares=[chunk[0].kept_share],
                values=[chunk[0].values[0]], parameter_free=True)
        else:
            series[method.code] = SweepSeries(
                code=method.code, shares=list(shares),
                values=[result.values[0] for result in chunk],
                parameter_free=False)
    return series


def sweep_methods(methods: Sequence[BackboneMethod], source, metric,
                  shares: Sequence[float] = DEFAULT_SHARES,
                  store=None, workers: Optional[int] = None
                  ) -> Dict[str, SweepSeries]:
    """Sweep every method over ``source`` as one served plan batch.

    ``source`` is anything :func:`sweep_plans` accepts. ``store`` (a
    :class:`repro.pipeline.ScoreStore`) serves scored tables from
    cache and defaults to a memory-only store for this batch;
    ``workers`` fans cold scoring out across processes. Neither
    changes a value.
    """
    plans = sweep_plans(methods, source, metric, shares=shares)
    results = serve(plans, store=store, workers=workers)
    return fold_sweep(methods, results, shares=shares)

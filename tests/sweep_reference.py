"""Direct-scoring references for the paper's sweep-shaped experiments.

The experiments run only as :mod:`repro.flow` plan batches. These
helpers compute the same numbers from the methods alone
(``scored.top_k(share_to_k(share, scored.m))`` on
``method.score(table)``, and ``method.extract``), so identity checks
compare plans against the methods themselves rather than against a
second plan run. Lives in its own module so test files
can import it by name.
"""

from repro.backbones.base import share_to_k
from repro.backbones.doubly_stochastic import SinkhornConvergenceError
from repro.backbones.registry import paper_methods
from repro.evaluation.quality import (backbone_pair_mask, network_design,
                                      quality_ratio)
from repro.evaluation.sweep import DEFAULT_SHARES, SweepSeries


def direct_sweep(methods, table, metric, shares=DEFAULT_SHARES):
    """``{code: SweepSeries}`` for a share sweep, scored method by method.

    A parameter-free method is one point at its natural share, and a
    method that cannot be balanced is an empty series; any other
    error is raised.
    """
    out = {}
    for method in methods:
        try:
            if method.parameter_free:
                backbone = method.extract(table)
                share = backbone.m / max(table.nonloop_m, 1)
                out[method.code] = SweepSeries(method.code, [share],
                                               [metric(backbone)], True)
            else:
                scored = method.score(table)
                values = [metric(scored.top_k(share_to_k(share, scored.m)))
                          for share in shares]
                out[method.code] = SweepSeries(method.code, list(shares),
                                               values, False)
        except SinkhornConvergenceError:
            out[method.code] = SweepSeries(method.code, [], [], True)
    return out


def direct_table2_ratios(world, budgets, hss_sets_budget=False):
    """Table II ratios ``{network: {code: ratio or None}}``.

    Every budgeted paper method is extracted at ``budgets[network]``
    edges; parameter-free methods, and HSS when its own backbone set
    the budget, keep their natural size.
    """
    ratios = {}
    for name, budget in budgets.items():
        table = world.network(name, 0)
        y, X, _, src, dst = network_design(world, name)
        ratios[name] = {}
        for method in paper_methods():
            natural = method.parameter_free or (
                hss_sets_budget and method.code == "HSS")
            try:
                backbone = method.extract(table) if natural \
                    else method.extract(table, n_edges=budget)
                mask = backbone_pair_mask(backbone, src, dst)
                ratios[name][method.code] = quality_ratio(y, X, mask).ratio
            except (SinkhornConvergenceError, ValueError):
                ratios[name][method.code] = None
    return ratios

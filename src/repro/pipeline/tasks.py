"""Picklable metric specs for share sweeps.

A share sweep (the workload behind paper Figs. 7-8 and Table II)
evaluates one metric on every backbone it extracts. Sweeps compile to
:mod:`repro.flow` plan batches whose scoring may fan out across worker
processes, so metrics must survive ``pickle``: they are small
module-level callable classes instead of the closures the experiment
modules used to build. ``CoverageMetric(table)`` replaces
``lambda b: coverage(table, b)`` with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..evaluation.coverage import coverage
from ..evaluation.stability import average_stability
from ..graph.edge_table import EdgeTable
from ..graph.metrics import average_degree, density
from ..util.validation import require

Metric = Callable[[EdgeTable], float]


@dataclass(frozen=True)
class CoverageMetric:
    """Share of the base table's non-isolated nodes kept by a backbone."""

    base: EdgeTable

    def __call__(self, backbone: EdgeTable) -> float:
        return coverage(self.base, backbone)


@dataclass(frozen=True)
class StabilityMetric:
    """Average cross-year Spearman stability on a backbone's edges."""

    years: Tuple[EdgeTable, ...]

    def __call__(self, backbone: EdgeTable) -> float:
        return average_stability(list(self.years), backbone)


@dataclass(frozen=True)
class DensityMetric:
    """Edge density of the backbone itself."""

    def __call__(self, backbone: EdgeTable) -> float:
        return density(backbone)


@dataclass(frozen=True)
class AverageDegreeMetric:
    """Average degree of the backbone itself."""

    def __call__(self, backbone: EdgeTable) -> float:
        return average_degree(backbone)


@dataclass(frozen=True)
class EdgeCountMetric:
    """Number of edges kept (useful for eyeballing budgets)."""

    def __call__(self, backbone: EdgeTable) -> float:
        return float(backbone.m)


#: Metric names accepted by the CLI ``sweep`` subcommand.
METRIC_BUILDERS: Dict[str, Callable[[EdgeTable], Metric]] = {
    "coverage": lambda table: CoverageMetric(table),
    "density": lambda table: DensityMetric(),
    "average-degree": lambda table: AverageDegreeMetric(),
    "edges": lambda table: EdgeCountMetric(),
}


def named_metric(name: str, table: EdgeTable) -> Metric:
    """Resolve a CLI metric name against the input ``table``."""
    require(name in METRIC_BUILDERS,
            f"unknown metric {name!r}; choose from "
            f"{sorted(METRIC_BUILDERS)}")
    return METRIC_BUILDERS[name](table)

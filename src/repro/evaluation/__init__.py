"""Evaluation harness: the paper's four success criteria."""

from .coverage import coverage
from .quality import (QualityResult, backbone_pair_mask, network_design,
                      pair_grid, quality_ratio)
from .recovery import (extract_with_budget, recovery_by_method,
                       recovery_jaccard)
from .stability import (average_stability, stability_spearman,
                        weights_for_pairs)
from .sweep import DEFAULT_SHARES, SweepSeries
from .variance_validation import predicted_vs_observed_variance

__all__ = [
    "DEFAULT_SHARES",
    "QualityResult",
    "SweepSeries",
    "average_stability",
    "backbone_pair_mask",
    "coverage",
    "extract_with_budget",
    "network_design",
    "pair_grid",
    "predicted_vs_observed_variance",
    "quality_ratio",
    "recovery_by_method",
    "recovery_jaccard",
    "stability_spearman",
    "weights_for_pairs",
]

"""Share-of-edges sweeps (the x-axis of paper Figs. 7 and 8).

:func:`repro.flow.sweep.sweep_methods` scores each budgeted method once
and re-filters the same scores at every requested share.
Parameter-free methods (MST, DS) contribute a single point at their
natural edge share, exactly as the paper plots them. This module holds
the share grid and the series a sweep returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: Default share grid (log-spaced, as in the paper's log-x plots).
DEFAULT_SHARES = (0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class SweepSeries:
    """One method's metric values across edge shares."""

    code: str
    shares: List[float]
    values: List[float]
    parameter_free: bool

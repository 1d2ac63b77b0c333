"""The daemon's batch engine: every plan answers in its own slot.

:func:`serve_isolated` is :func:`~repro.flow.serve.serve_compiled`
over :func:`~repro.flow.compile.compile_plans`, both of which isolate
failures per plan. Unlike :func:`repro.flow.serve`, it never raises
for a bad plan, so one client's typo cannot fail the other clients in
the daemon's batch.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..flow.compile import compile_plans
from ..flow.serve import FlowResult, serve_compiled
from ..pipeline.store import ScoreStore


def serve_isolated(plans: Sequence[object],
                   store: Optional[ScoreStore] = None,
                   workers: Optional[int] = None) -> List[FlowResult]:
    """Serve a batch with per-plan compile *and* execution isolation.

    Accepts anything — objects that are not plans, plans without a
    method, plans over unreadable sources — and always returns one
    :class:`FlowResult` per input, in input order. ``store`` defaults
    to a fresh memory-only :class:`ScoreStore`.
    """
    if store is None:
        store = ScoreStore()
    return serve_compiled(compile_plans(list(plans), store), store,
                          workers)

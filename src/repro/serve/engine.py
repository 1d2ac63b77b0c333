"""Compile-isolated batch execution: the daemon's request engine.

:func:`repro.flow.serve.serve` already isolates *execution* failures
per plan (scoring, filtering, metrics) — but it compiles the batch in
one call, so a single unreadable source or unknown method code would
fail every request in flight. A long-lived daemon cannot afford that:
one client's typo must not poison seven other clients' plans that
happen to share its admission window.

:func:`serve_isolated` therefore compiles defensively, in three rings:

1. **per plan** — method specs are built (registry lookups, parameter
   validation) individually, so an unknown code or bad parameter fails
   exactly one plan;
2. **per source group** — plans are grouped by source spec and each
   group is compiled on its own, so a missing file or a parse error
   fails the plans over that source and nobody else (while same-source
   plans still share one hash + parse, the PR 5 contract). A source
   with a warm binding parses later, only on a score miss, through its
   batch-wide handle, which fails just that source's plans the same
   way;
3. **per batch** — everything that compiled is handed to
   :func:`repro.flow.serve.serve_compiled` as *one* batch, so scoring
   deduplication (8 deltas over one source, one scoring pass) still
   spans every surviving plan across every client in the window.

The result list is aligned with the input plans: every slot holds a
:class:`~repro.flow.serve.FlowResult`, failed slots carrying the
exception in ``.error`` exactly like execution-time failures do.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..flow.compile import compile_plans
from ..flow.plan import Plan
from ..flow.serve import FlowResult, serve_compiled
from ..flow.spec import TableSource
from ..pipeline.store import ScoreStore


def serve_isolated(plans: Sequence[object],
                   store: Optional[ScoreStore] = None,
                   workers: Optional[int] = None) -> List[FlowResult]:
    """Serve a batch with per-plan compile *and* execution isolation.

    Accepts anything — objects that are not plans, plans without a
    method, plans over unreadable sources — and always returns one
    :class:`FlowResult` per input, in input order. Well-formed plans
    are served as a single deduplicated batch.
    """
    plans = list(plans)
    if store is None:
        store = ScoreStore()
    results: List[Optional[FlowResult]] = [None] * len(plans)

    # Ring 1: per-plan validation (type, method spec buildability).
    valid: List[int] = []
    for index, plan in enumerate(plans):
        try:
            if not isinstance(plan, Plan):
                raise TypeError("expected a Plan, got "
                                f"{type(plan).__name__}")
            if plan.method_spec is None:
                raise ValueError("plan has no method; call "
                                 ".method(code) before serving")
            plan.method_spec.build()
        except Exception as error:
            results[index] = FlowResult(plan=plan, cache_key="",
                                        error=error)
        else:
            valid.append(index)

    # Ring 2: compile per source group, preserving same-source sharing.
    groups: "Dict[object, List[int]]" = {}
    for index in valid:
        groups.setdefault(_source_key(plans[index]), []).append(index)
    compiled, compiled_indices = [], []
    for indices in groups.values():
        try:
            group = compile_plans([plans[i] for i in indices], store)
        except Exception as error:
            for i in indices:
                results[i] = FlowResult(plan=plans[i], cache_key="",
                                        error=error)
        else:
            compiled.extend(group)
            compiled_indices.extend(indices)

    # Ring 3: one batch for everything that survived — scoring dedup
    # and per-plan execution isolation both live in serve_compiled.
    for index, result in zip(compiled_indices,
                             serve_compiled(compiled, store, workers)):
        results[index] = result
    return results


def _source_key(plan: Plan) -> object:
    """Grouping key mirroring the compiler's source memoization."""
    if isinstance(plan.source, TableSource):
        return id(plan.source.table)
    return plan.source

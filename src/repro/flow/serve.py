"""Batched execution: N plans, one scoring pass per distinct request.

:func:`serve` is the service-shaped entry point the ROADMAP's
"score once, filter many ways" north star asks for: hand it a batch of
plans — many users, many deltas, many budgets, same sources — and it

1. compiles the batch (:mod:`repro.flow.compile`): each distinct
   source parsed once, each plan lowered to a score-cache key;
2. runs every *distinct* scoring request at most once, consulting the
   :class:`~repro.pipeline.store.ScoreStore` first and fanning cold
   requests out across worker processes (the ``workers=`` knob of
   :mod:`repro.util.parallel`; workers reopen the store's backend
   spec, and ship their results back for the parent to adopt);
3. applies each plan's filter and metrics serially — cheap compared
   to scoring.

Per-plan failures are *isolated*: any scoring, filtering or metric
exception — the deterministic Sinkhorn non-convergence (recorded as a
negative cache entry), a budget that the method rejects, an unexpected
bug in one method — is surfaced as that plan's :attr:`FlowResult.error`
instead of poisoning the batch; :meth:`Plan.run` re-raises it to match
the legacy single-call path bit for bit. A worker process dying
mid-batch degrades to a serial re-run of the lost scoring requests
(see :func:`repro.util.parallel.parallel_map`); it never surfaces a
raw ``BrokenProcessPool``. :func:`serve_compiled` is the
already-compiled entry point the long-lived daemon
(:mod:`repro.serve`) builds on to add compile-time isolation too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..backbones.doubly_stochastic import SinkhornConvergenceError
from ..graph.edge_table import EdgeTable
from ..obs.trace import span
from ..pipeline.backends import NegativeEntry
from ..pipeline.store import ScoreStore, score_with_store
from ..util.parallel import parallel_map, resolve_workers
from .compile import CompiledPlan, compile_plans
from .plan import Plan


@dataclass
class FlowResult:
    """Outcome of one plan in a served batch.

    ``backbone`` is the extracted edge table (``None`` when scoring
    failed), ``values`` the metric values aligned with the plan's
    metric specs, ``kept_share`` the backbone's share of the source's
    non-loop edges, and ``cache_key`` the score-store key the request
    resolved to. ``table`` references the resolved source table
    (shared across the batch, not a copy).
    """

    plan: Plan
    cache_key: str
    table: Optional[EdgeTable] = None
    backbone: Optional[EdgeTable] = None
    values: Tuple[float, ...] = ()
    kept_share: Optional[float] = None
    error: Optional[Exception] = field(default=None, repr=False)
    #: O(1) summary of the source table (always set for streamed
    #: plans, whose ``table`` is ``None`` by design).
    base: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def metrics(self) -> Dict[str, float]:
        """Metric values keyed by metric name."""
        keys = [spec.key for spec in self.plan.metric_specs]
        return dict(zip(keys, self.values))


def serve(plans: Sequence[Plan], store: Optional[ScoreStore] = None,
          workers: Optional[int] = None) -> List[FlowResult]:
    """Execute a batch of plans; see the module docstring.

    ``store`` defaults to a fresh memory-only :class:`ScoreStore`, so
    deduplication across the batch always happens; pass a persistent
    store (or backend spec via ``ScoreStore("…")``) to reuse scores
    across batches and processes. Results are returned in plan order.
    """
    plans = list(plans)
    if not plans:
        return []
    if store is None:
        store = ScoreStore()
    compiled = compile_plans(plans, store)
    return serve_compiled(compiled, store, workers)


def serve_compiled(compiled: Sequence[CompiledPlan],
                   store: ScoreStore,
                   workers: Optional[int] = None) -> List[FlowResult]:
    """Score, filter and measure an already-compiled batch.

    The execution half of :func:`serve`, split out so callers that
    compile with their own isolation policy (the daemon compiles per
    source group to contain unreadable sources) reuse the exact same
    scheduling, deduplication and per-plan error handling.
    """
    scored_by_key, error_by_key = _score_batch(compiled, store, workers)
    stream_backbones, stream_errors = _serve_streams(
        compiled, scored_by_key, error_by_key)
    results = []
    nonloop_m: Dict[int, int] = {}  # per shared table, computed once
    for index, item in enumerate(compiled):
        base = None if item.stream is None else item.stream.summary
        error = error_by_key.get(item.key)
        if error is None:
            error = stream_errors.get(index)
        if error is not None:
            results.append(FlowResult(plan=item.plan, cache_key=item.key,
                                      table=item.table, base=base,
                                      error=error))
            continue
        try:
            with span("plan.extract", key=item.key[:16]):
                backbone = stream_backbones.get(index)
                if backbone is None:
                    backbone = _apply_filter(item,
                                             scored_by_key[item.key])
                if item.stream is not None:
                    base_m = item.stream.nonloop_m
                else:
                    base_m = nonloop_m.get(id(item.table))
                    if base_m is None:
                        base_m = item.table.nonloop_m
                        nonloop_m[id(item.table)] = base_m
                kept = backbone.m / max(base_m, 1)
                values = tuple(metric(backbone)
                               for metric in item.metrics)
        except Exception as error:
            # Filter/metric isolation: a budget the method rejects (or
            # a metric blowing up) fails this plan, not its batchmates.
            results.append(FlowResult(plan=item.plan, cache_key=item.key,
                                      table=item.table, base=base,
                                      error=error))
            continue
        results.append(FlowResult(plan=item.plan, cache_key=item.key,
                                  table=item.table, backbone=backbone,
                                  values=values, kept_share=kept,
                                  base=base))
    return results


# ----------------------------------------------------------------------
# Scoring
# ----------------------------------------------------------------------

def _score_batch(compiled: Sequence[CompiledPlan], store: ScoreStore,
                 workers: Optional[int]):
    """Run every distinct scoring request at most once.

    Exactly one store lookup per distinct cache key (so hit-rate
    accounting matches the request count users see). Cold keys are
    optionally fanned out across worker processes first: a worker's
    own store counts the lookup, and the parent adopts the entry the
    worker ships back and serves it as is, without a second lookup.
    """
    unique: Dict[str, CompiledPlan] = {}
    for item in compiled:
        found = unique.get(item.key)
        # Prefer an in-memory representative: when a streamed and an
        # in-memory plan share a key (same source, same scoring), the
        # one scoring pass must run on the materialized table so both
        # can consume it.
        if found is None or (found.stream is not None
                             and item.stream is None):
            unique[item.key] = item

    with span("flow.score", requests=len(compiled),
              unique=len(unique)):
        scored_by_key, error_by_key = {}, {}
        count = min(resolve_workers(workers), len(unique))
        if count > 1:
            pending = [item for key, item in unique.items()
                       if item.stream is None and key not in store]
            if len(pending) > 1:
                spec = store.worker_spec()
                payloads = [(item.method, item.table, spec, item.key)
                            for item in pending]
                # retry_serial: a worker killed mid-batch degrades to
                # scoring the lost requests in-process, never to a raw
                # BrokenProcessPool surfacing to the caller.
                outcomes = parallel_map(_score_remote, payloads,
                                        workers=min(count,
                                                    len(pending)),
                                        retry_serial=True)
                for worker_stats, extras in outcomes:
                    for key, entry in extras:
                        store.adopt(key, entry)
                        if isinstance(entry, NegativeEntry):
                            error_by_key[key] = entry.to_exception()
                        else:
                            scored_by_key[key] = entry
                    store.stats.merge(worker_stats)

        for key, item in unique.items():
            if key in scored_by_key or key in error_by_key:
                continue  # a worker scored it
            if item.stream is not None:
                # Streamed request: a warm cache answers with the full
                # ScoredEdges (the stream's fingerprint matches the
                # in-memory table's, so keys are shared); a miss is
                # served by pass 2 instead — streaming never
                # materializes the score array, so it cannot warm the
                # store itself.
                cached = store.get(key)
                if cached is not None:
                    scored_by_key[key] = cached
                continue
            try:
                scored_by_key[key] = score_with_store(
                    item.method, item.table, store, key=key)
            except Exception as error:
                # Per-plan isolation: deterministic failures (Sinkhorn
                # non-convergence) are negative-cached by the store;
                # any other scoring exception still fails only the
                # plans that share this key, never the batch.
                error_by_key[key] = error
    return scored_by_key, error_by_key


def _score_remote(payload) -> Tuple[object, tuple]:
    """Worker-side scoring (module-level for picklability).

    With a reopenable backend spec the worker writes straight through
    it. Either way it ships its entry (a scored table or a negative
    verdict) back with its traffic counters, for the parent to adopt.
    """
    method, table, spec, key = payload
    store = ScoreStore(spec)
    try:
        score_with_store(method, table, store, key=key)
    except SinkhornConvergenceError:
        pass  # the negative entry is cached; the parent re-raises it
    except Exception:
        # Non-cacheable failure: ship nothing; the parent's serial
        # pass recomputes, hits the same error and isolates it per
        # plan instead of this worker poisoning the pool map.
        pass
    return store.stats, tuple(store.memory_entries())


# ----------------------------------------------------------------------
# Streaming (pass 2 of repro.stream)
# ----------------------------------------------------------------------

def _serve_streams(compiled: Sequence[CompiledPlan], scored_by_key,
                   error_by_key):
    """Run the out-of-core pass 2 once per stream for the plans the
    score cache could not answer.

    Plans over one stream are extracted together (each distinct cache
    key scored once per block); job ids are the compiled indexes, so
    the results drop straight into the per-plan loop. Per-job errors
    come back with in-memory precedence and isolation.
    """
    from ..stream import stream_extract

    by_stream: Dict[int, Tuple[object, List[Tuple[int, CompiledPlan]]]]
    by_stream = {}
    for index, item in enumerate(compiled):
        if (item.stream is None or item.key in scored_by_key
                or item.key in error_by_key):
            continue
        entry = by_stream.setdefault(id(item.stream),
                                     (item.stream, []))
        entry[1].append((index, item))
    backbones: Dict[int, EdgeTable] = {}
    errors: Dict[int, Exception] = {}
    for stream, members in by_stream.values():
        jobs = [(index, item.key, item.method, item.budget)
                for index, item in members]
        got, bad = stream_extract(stream, jobs)
        backbones.update(got)
        errors.update(bad)
    return backbones, errors


# ----------------------------------------------------------------------
# Filtering
# ----------------------------------------------------------------------

def _apply_filter(item: CompiledPlan, scored) -> EdgeTable:
    """One plan's filter phase on (possibly cached) scores.

    ``rank="method"`` (and no budget at all) routes through the
    method's own ``extract_from_scores`` — the exact code path
    ``method.extract`` runs, which is what makes plan-vs-legacy
    bit-identity hold by construction. ``rank="score"`` applies the
    raw-score filters share sweeps use.
    """
    budget = item.budget
    if budget is None or budget.rank == "method":
        kwargs = {} if budget is None else budget.budget_kwargs()
        return item.method.extract_from_scores(scored, **kwargs)
    if item.method.parameter_free:
        # Passing the budget through makes an explicit budget on a
        # parameter-free method raise exactly as rank="method" does,
        # instead of being silently ignored.
        return item.method.extract_from_scores(scored,
                                               **budget.budget_kwargs())
    if budget.threshold is not None:
        return scored.filter(budget.threshold)
    if budget.share is not None:
        return scored.top_share(budget.share)
    if budget.n_edges is not None:
        return scored.top_k(budget.n_edges)
    return item.method.extract_from_scores(scored)

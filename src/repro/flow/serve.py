"""Batched execution: N plans, one scoring pass per distinct request.

:func:`serve` is the service-shaped entry point the ROADMAP's
"score once, filter many ways" north star asks for: hand it a batch of
plans — many users, many deltas, many budgets, same sources — and it

1. compiles the batch (:mod:`repro.flow.compile`): each distinct
   source resolved once to a handle carrying its fingerprints and
   table summary, each plan lowered to a score-cache key;
2. runs every *distinct* scoring request at most once, consulting the
   :class:`~repro.pipeline.store.ScoreStore` first and fanning cold
   requests out across worker processes (the ``workers=`` knob of
   :mod:`repro.util.parallel`; workers reopen the store's backend
   spec, and ship their results back for the parent to adopt). A
   source whose binding is warm is read only here, and only when one
   of its keys misses the store. In-memory requests score first, and
   a streamed miss whose handle then holds the parsed table is scored
   from it, so the batch reads the source once: by a parse, or by
   pass 1 when only streamed keys miss;
3. applies each plan's filter and metrics serially — cheap compared
   to scoring. The filter is the method's own ``extract_from_scores``,
   called with the plan's ``FilterSpec.filter_kwargs()``; in memory
   and streamed (:func:`repro.stream.stream_extract`),
   :meth:`~repro.backbones.base.BackboneMethod.cut` turns them into
   the one cut both paths make. The kept share and ``"coverage"`` read
   the source's summary, never the parsed table.

Per-plan failures are *isolated*: any scoring, filtering or metric
exception — the deterministic Sinkhorn non-convergence (recorded as a
negative cache entry), a budget that the method rejects, a source that
fails to read on a score miss, an unexpected bug in one method — is
surfaced as that plan's :attr:`FlowResult.error`
instead of poisoning the batch; :meth:`Plan.run` re-raises it to match
the legacy single-call path bit for bit. A worker process dying
mid-batch degrades to a serial re-run of the lost scoring requests
(see :func:`repro.util.parallel.parallel_map`); it never surfaces a
raw ``BrokenProcessPool``. Compile errors are isolated per plan too
(:func:`~repro.flow.compile.compile_plans`): :func:`serve` raises the
first, in plan order, before anything is scored, and
:func:`serve_compiled`, which the daemon (:mod:`repro.serve`) runs,
answers each in its plan's slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..backbones.doubly_stochastic import SinkhornConvergenceError
from ..graph.edge_table import EdgeTable, TableSummary
from ..obs.trace import span
from ..pipeline.backends import NegativeEntry
from ..pipeline.store import ScoreStore, score_with_store
from ..util.parallel import parallel_map, resolve_workers
from .compile import CompiledPlan, SourceHandle, compile_plans
from .plan import Plan


@dataclass
class FlowResult:
    """Outcome of one plan in a served batch.

    ``backbone`` is the extracted edge table (``None`` when scoring
    failed), ``values`` the metric values aligned with the plan's
    metric specs, ``kept_share`` the backbone's share of the source's
    non-loop edges, and ``cache_key`` the score-store key the request
    resolved to.

    ``base`` is the source table's
    :class:`~repro.graph.edge_table.TableSummary` (``n_nodes``, ``m``,
    ``nonloop_m``, ``non_isolated_count()``), set on every result of a
    compiled plan, in memory, streamed or warm alike. ``table`` is the
    parsed source table (shared across the batch, not a copy) only
    when the batch parsed it: for an in-memory plan over a cold source
    or an in-memory table, or on a score miss. Neither a warm request
    nor pass 1 parses, so their ``table`` is ``None`` unless a
    batchmate parsed the source.
    """

    plan: Plan
    cache_key: str
    table: Optional[EdgeTable] = None
    backbone: Optional[EdgeTable] = None
    values: Tuple[float, ...] = ()
    kept_share: Optional[float] = None
    error: Optional[Exception] = field(default=None, repr=False)
    base: Optional[TableSummary] = None

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
    The whole batch compiles before the first compile error is raised,
    so later plans' sources are still hashed (and parsed when cold).
    """
    plans = list(plans)
    if not plans:
        return []
    if store is None:
        store = ScoreStore()
    compiled = compile_plans(plans, store)
    for item in compiled:
        if item.error is not None:
            raise item.error
    return serve_compiled(compiled, store, workers)


def serve_compiled(compiled: Sequence[CompiledPlan],
                   store: ScoreStore,
                   workers: Optional[int] = None) -> List[FlowResult]:
    """Score, filter and measure an already-compiled batch.

    The execution half of :func:`serve`. A plan that failed to compile
    gets a result carrying its compile error in its own slot; every
    other plan is served as one deduplicated batch.
    """
    scored_by_key, error_by_key = _score_batch(
        [item for item in compiled if item.error is None], store, workers)
    stream_backbones, stream_errors = _serve_streams(
        compiled, scored_by_key, error_by_key)
    results = []
    for index, item in enumerate(compiled):
        if item.error is not None:
            results.append(FlowResult(plan=item.plan, cache_key="",
                                      error=item.error))
            continue
        result = FlowResult(plan=item.plan, cache_key=item.key,
                            table=item.handle.parsed_table,
                            base=item.handle.summary)
        results.append(result)
        result.error = error_by_key.get(item.key)
        if result.error is None:
            result.error = stream_errors.get(index)
        if result.error is not None:
            continue
        try:
            with span("plan.extract", key=item.key[:16]):
                backbone = stream_backbones.get(index)
                if backbone is None:
                    backbone = item.method.extract_from_scores(
                        scored_by_key[item.key],
                        **item.budget.filter_kwargs())
                kept = backbone.m / max(item.handle.summary.nonloop_m, 1)
                values = tuple(metric(backbone)
                               for metric in item.metrics)
        except Exception as error:
            # Filter/metric isolation: a budget the method rejects (or
            # a metric blowing up) fails this plan, not its batchmates.
            result.error = error
            continue
        result.backbone, result.values = backbone, values
        result.kept_share = kept
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
    # In-memory plans first, in plan order. They represent a key they
    # share with a streamed plan, so its one scoring pass runs on the
    # materialized table both can consume. They also score first, so a
    # streamed miss whose handle then holds the parsed table is scored
    # from it (bit-identical to pass 2, and it warms the store): no
    # source is read twice.
    unique: Dict[str, CompiledPlan] = {}
    for item in sorted(compiled, key=lambda item: item.streamed):
        unique.setdefault(item.key, item)

    with span("flow.score", requests=len(compiled),
              unique=len(unique)):
        scored_by_key, error_by_key = {}, {}
        count = min(resolve_workers(workers), len(unique))
        if count > 1:
            pending = [item for key, item in unique.items()
                       if not item.streamed and key not in store]
            if len(pending) > 1:
                spec = store.worker_spec()
                payloads = []
                for item in pending:
                    try:
                        payloads.append((item.method, item.handle.table(),
                                         spec, item.key))
                    except Exception as error:
                        # An unparseable source fails only its plans.
                        error_by_key[item.key] = error
                # retry_serial: a worker killed mid-batch degrades to
                # scoring the lost requests in-process, never to a raw
                # BrokenProcessPool surfacing to the caller.
                outcomes = parallel_map(_score_remote, payloads,
                                        workers=min(count,
                                                    len(payloads)),
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
            if item.streamed and item.handle.parsed_table is None:
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
                # The handle parses only if the store misses this key.
                scored_by_key[key] = score_with_store(
                    item.method, item.handle.table, store, key=key)
            except Exception as error:
                # Per-plan isolation: deterministic failures (Sinkhorn
                # non-convergence) are negative-cached by the store;
                # any other scoring or parse exception still fails
                # only the plans that share this key, never the batch.
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
    """Run the out-of-core pass 2 once per source for the streamed
    plans the score cache could not answer.

    Only these plans read the source's stream (pass 1 runs here for a
    source that compiled warm); if it fails, it fails them in their
    slots. Plans over one source are extracted together (each distinct
    cache key scored once per block); job ids are the compiled
    indexes, so the results drop straight into the per-plan loop.
    Per-job errors come back with in-memory precedence and isolation.
    """
    from ..stream import stream_extract

    by_handle: Dict[SourceHandle, List[Tuple[int, CompiledPlan]]] = {}
    for index, item in enumerate(compiled):
        if (item.streamed and item.key not in scored_by_key
                and item.key not in error_by_key):
            by_handle.setdefault(item.handle, []).append((index, item))
    backbones: Dict[int, EdgeTable] = {}
    errors: Dict[int, Exception] = {}
    for handle, members in by_handle.items():
        try:
            stream = handle.stream()
        except Exception as error:
            errors.update((index, error) for index, _ in members)
            continue
        jobs = [(index, item.key, item.method,
                 item.budget.filter_kwargs())
                for index, item in members]
        got, bad = stream_extract(stream, jobs)
        backbones.update(got)
        errors.update(bad)
    return backbones, errors

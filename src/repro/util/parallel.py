"""Process-based fan-out shared by the shortest-path engine and serving.

Heavy root-parallel work (one shortest-path tree per root in the
High-Salience Skeleton) splits naturally into independent chunks. This
module is the single home of the ``workers=`` knob: callers hand over a
picklable chunk function and a list of chunk payloads, and either get a
plain serial map (``workers`` unset, zero or one) or a process-pool map.

The pool uses the ``fork`` start method when the platform offers it, so
read-only numpy arrays bound into the chunk function are shared
copy-on-write instead of being re-pickled into every worker.

Worker-pool *infrastructure* failures — a worker process killed by the
OS (OOM, signal), a task that cannot cross the process boundary — are
distinct from the chunk function raising: the chunk function's own
exceptions propagate unchanged, while pool failures surface as a typed
:class:`WorkerPoolError` carrying the ids (input indices) of the tasks
whose results were lost. Callers that must survive worker death pass
``retry_serial=True`` and the lost tasks are transparently re-run in
the parent process instead — the documented degradation path
:func:`repro.flow.serve` (and through it the serve daemon and every
cached or sharded sweep) relies on.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import (Any, Callable, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar)

from ..obs.metrics import get_registry
from ..obs.trace import (SpanContext, activate, add_attributes,
                         current_context, extend_current)

_T = TypeVar("_T")
_R = TypeVar("_R")

# Declared at import so every series exists (at 0) on first scrape.
_REGISTRY = get_registry()
_POOL_TASKS = _REGISTRY.counter(
    "repro_pool_tasks_total",
    "Tasks dispatched to worker pools (parallel_map, workers > 1).")
_POOL_LOST = _REGISTRY.counter(
    "repro_pool_tasks_lost_total",
    "Tasks whose results were lost to a pool infrastructure fault.")
_POOL_RETRIES = _REGISTRY.counter(
    "repro_pool_serial_retries_total",
    "Lost tasks transparently re-run serially in the parent process.")
_POOL_ERRORS = _REGISTRY.counter(
    "repro_pool_errors_total",
    "WorkerPoolError raised to callers (no retry_serial requested).")


class WorkerPoolError(RuntimeError):
    """The worker pool itself failed (dead worker, unpicklable task).

    ``failed`` holds the input indices (task ids) whose results were
    lost; completed tasks' results are gone with the call. ``cause`` is
    the underlying pool exception (``BrokenProcessPool``, a pickling
    error). Raised only for infrastructure faults — exceptions raised
    *by* the mapped function propagate as themselves.
    """

    def __init__(self, message: str, failed: Sequence[int] = (),
                 cause: Optional[BaseException] = None):
        super().__init__(message)
        self.failed: Tuple[int, ...] = tuple(failed)
        self.cause = cause


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers=`` knob into a concrete process count.

    ``None``, ``0`` and ``1`` mean "stay serial"; a negative value means
    "one per available CPU"; anything else is used as given.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers in (0, 1):
        return 1
    if workers < 0:
        return max(1, os.cpu_count() or 1)
    return workers


def parallel_map(fn: Callable[[_T], _R], items: Iterable[_T],
                 workers: Optional[int] = None,
                 retry_serial: bool = False) -> List[_R]:
    """Map ``fn`` over ``items``, optionally across worker processes.

    Serial when :func:`resolve_workers` says so or there is at most one
    item; otherwise a process pool is used, which requires ``fn`` and
    every item to be picklable. Result order matches item order either
    way, and exceptions raised by ``fn`` propagate unchanged.

    Pool *infrastructure* failures — a worker process dying mid-task
    or while tasks are still being submitted (``BrokenProcessPool``),
    a payload that fails to pickle — raise :class:`WorkerPoolError`
    naming the lost task ids (the unsubmitted ones included). With
    ``retry_serial=True`` the lost tasks are re-run serially in the
    parent process instead, so a crashed worker degrades to slower,
    not broken: the returned list is complete and identical to a fully
    serial run (``fn`` is deterministic for every caller in this
    codebase).

    When a trace is active in the caller (:mod:`repro.obs`), its
    :class:`SpanContext` ships with every task; spans the mapped
    function opens in a worker are recorded under that parent and
    adopted back into the caller's trace with the results, and serial
    retries stamp a ``pool.retry_serial`` attribute on the enclosing
    span so healed worker deaths stay visible.
    """
    items = list(items)
    count = min(resolve_workers(workers), len(items))
    if count <= 1:
        return [fn(item) for item in items]

    ctx = current_context()
    if ctx is not None:
        payloads: List[Any] = [_TracedTask(fn, item, ctx)
                               for item in items]
        run: Callable[[Any], Any] = _traced_call
    else:
        payloads, run = items, fn
    _POOL_TASKS.inc(len(items))

    results: List[Optional[_R]] = [None] * len(items)
    failed: List[int] = []
    cause: Optional[BaseException] = None
    executor = ProcessPoolExecutor(max_workers=count,
                                   mp_context=_pool_context())
    try:
        futures = []
        try:
            for payload in payloads:
                futures.append(executor.submit(run, payload))
        except (BrokenProcessPool, pickle.PicklingError) as error:
            # A worker died while tasks were still being submitted:
            # the unsubmitted ones are lost like those in flight.
            cause = error
        fn_error: Optional[BaseException] = None
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BaseException as error:
                if _is_pool_failure(error):
                    failed.append(index)
                    cause = error
                elif fn_error is None:  # fn's own exception
                    fn_error = error
        failed.extend(range(len(futures), len(items)))
        if fn_error is not None:
            raise fn_error
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    if failed:
        _POOL_LOST.inc(len(failed))
        if not retry_serial:
            _POOL_ERRORS.inc()
            raise WorkerPoolError(
                f"worker pool lost {len(failed)} of {len(items)} tasks "
                f"(ids {list(failed)}): {cause}; pass retry_serial=True "
                "to re-run lost tasks serially in the parent process",
                failed=failed, cause=cause)
        _POOL_RETRIES.inc(len(failed))
        add_attributes(**{"pool.retry_serial": len(failed),
                          "pool.retry_ids": sorted(failed)})
        for index in failed:
            results[index] = run(payloads[index])
    if ctx is not None:
        results = [_adopt(wrapped) for wrapped in results]
    return results


class _TracedTask(NamedTuple):
    """A task plus the trace coordinates it must record under."""

    fn: Callable[[Any], Any]
    item: Any
    ctx: SpanContext


class _TaskSpans(NamedTuple):
    """A task result plus the spans recorded while computing it."""

    result: Any
    spans: Tuple[Any, ...]


def _traced_call(task: _TracedTask) -> _TaskSpans:
    """Run one task under a fresh activation of the parent context.

    The activation's sink starts empty in every process, so a forked
    worker ships back only the spans *this* task recorded — never
    state inherited from the parent — and the in-parent serial-retry
    path behaves identically. Spans are dropped when ``fn`` raises;
    the exception itself propagates unchanged.
    """
    with activate(task.ctx) as activation:
        result = task.fn(task.item)
    return _TaskSpans(result, tuple(activation.spans))


def _adopt(wrapped: Any) -> Any:
    if isinstance(wrapped, _TaskSpans):
        extend_current(wrapped.spans)
        return wrapped.result
    return wrapped


def _is_pool_failure(error: BaseException) -> bool:
    """Infrastructure fault (vs. the mapped function's own exception)?

    ``BrokenProcessPool`` is a dead worker; pickling failures of the
    payload surface as ``PicklingError`` or — from the feeder thread —
    as ``AttributeError``/``TypeError`` whose message names pickling.
    """
    if isinstance(error, (BrokenProcessPool, pickle.PicklingError)):
        return True
    return isinstance(error, (AttributeError, TypeError)) \
        and "pickle" in str(error).lower()


def chunked(items: Sequence[_T], size: int) -> List[Sequence[_T]]:
    """Split ``items`` into consecutive chunks of at most ``size``."""
    size = max(1, int(size))
    return [items[start:start + size] for start in range(0, len(items), size)]


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else methods[0])

"""Lowering plans onto the pipeline: sources, fingerprints, cache keys.

Compilation is the step between the declarative :class:`Plan` and the
execution machinery (:func:`repro.pipeline.store.score_with_store`,
backend spec strings, ``workers=``). For a batch of plans it

1. resolves every *distinct* source exactly once, into one
   :class:`SourceHandle`, whether its plans run in memory or streamed.
   A file is hashed once per batch, and the store's source binding
   (``bind_source`` / ``source_binding``, keyed by the file-content
   hash plus parse options) supplies the table fingerprint and the
   table's :class:`~repro.graph.edge_table.TableSummary`, so a warm
   source is not read here at all, only later, when a score key
   misses the store or a worker payload needs the table. A cold
   source is read right away, hashed and bound (a binding recorded
   without a summary is upgraded by that read). In-memory plans bind
   their sources first, so that read is a parse whenever any plan
   over the source runs in memory, and pass 1 of :mod:`repro.stream`
   only when all of them stream. Either way the batch reads each
   source once (see :class:`SourceHandle`);
2. builds the configured method instance and derives the score-cache
   key (:func:`~repro.pipeline.fingerprint.fingerprint_score_request`)
   — the key deliberately excludes extraction-only knobs, which is
   what lets N plans at different deltas or shares share one scoring
   pass;
3. resolves metric specs against the source's summary (so
   ``"coverage"`` measures retention against the input).

The result, one :class:`CompiledPlan` per plan, is everything
:func:`repro.flow.serve` needs to schedule scoring and apply filters.

Each plan compiles on its own: a bad plan, or a source that fails
(tried once per batch), sets the ``error`` of the plans it concerns.
:func:`repro.flow.serve` raises the first such error, and
:func:`~repro.flow.serve.serve_compiled` answers it in its plan's slot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..backbones.base import BackboneMethod
from ..graph.edge_table import EdgeTable, TableSummary
from ..obs.trace import span
from ..pipeline.fingerprint import (fingerprint_score_request,
                                    fingerprint_table)
from ..pipeline.store import ScoreStore
from ..stream import (CanonicalStream, StreamingUnsupported, auto_streams,
                      open_stream, supports_streaming)
from ..util.validation import require
from .plan import Plan
from .sources import RemoteSource
from .spec import FileSource, FilterSpec, TableSource

#: Source specs with a local file behind them: the only ones that stream.
_STREAMABLE_SOURCES = (FileSource, RemoteSource)


class SourceHandle:
    """One distinct source of a compiled batch.

    Holds the source and table fingerprints and the table's summary,
    and reads the source once: :meth:`table` parses it, :meth:`stream`
    runs pass 1 over it, and pass 1 runs only when no plan needed the
    parse. Compile binds in-memory plans first and
    :func:`~repro.flow.serve.serve_compiled` scores them first, so a
    streamed plan's miss is scored from :attr:`parsed_table` once the
    handle holds it (bit-identical to pass 2). Each read keeps its
    result, or its error, which every later call re-raises, so a
    source that fails to read fails only the plans that needed it. A
    warm source starts with neither and is read only when a score key
    misses the store. :attr:`parsed_table` is the table once the batch
    holds it (a cold source parsed at compile, an in-memory table, or
    a parse on a score miss), else ``None``.
    """

    def __init__(self, source, source_fp: str, table_fp: str,
                 summary: TableSummary,
                 table: Optional[EdgeTable] = None,
                 stream: Optional[CanonicalStream] = None):
        self.source = source
        self.source_fp = source_fp
        self.table_fp = table_fp
        self.summary = summary
        self.parsed_table = table
        self._stream = stream
        self._errors: Dict[str, Exception] = {}

    def table(self) -> EdgeTable:
        """The source's table, parsed on the first call."""
        if self.parsed_table is None:
            self.parsed_table = self._read("table", self.source.resolve)
        return self.parsed_table

    def stream(self) -> CanonicalStream:
        """The source's pass-1 stream, built on the first call."""
        if self._stream is None:
            self._stream = self._read("stream",
                                      lambda: _open_stream(self.source))
        return self._stream

    def _read(self, form: str, read):
        if form in self._errors:
            raise self._errors[form]
        try:
            return read()
        except Exception as error:
            self._errors[form] = error
            raise


@dataclass
class CompiledPlan:
    """A plan lowered onto its source handle and score-cache key, or,
    when it failed to compile, just the plan and its ``error``."""

    plan: Plan
    handle: Optional[SourceHandle] = None
    method: Optional[BackboneMethod] = None
    key: str = ""  # score-cache key (table x score-relevant config)
    #: The plan's filter; ``FilterSpec()`` (the method's default
    #: budget) when the plan set none.
    budget: Optional[FilterSpec] = None
    metrics: Tuple = ()
    #: Whether the plan compiled to the streaming path: a score miss
    #: runs pass 2 over ``handle.stream()``. The cache key is
    #: unchanged — the stream's fingerprint equals the in-memory
    #: table's — so a hit is filtered in memory like any other plan.
    streamed: bool = False
    error: Optional[Exception] = field(default=None, repr=False)


def compile_plans(plans: Sequence[Plan],
                  store: Optional[ScoreStore]) -> List[CompiledPlan]:
    """Compile a batch, resolving each distinct source exactly once.

    Returns one :class:`CompiledPlan` per input, in order; a plan that
    fails to compile carries the exception instead of raising it:

    >>> from repro.flow import flow
    >>> from repro.graph.edge_table import EdgeTable
    >>> table = EdgeTable([0, 1], [1, 2], [1.0, 2.0], directed=False)
    >>> compiled = compile_plans([flow(table).method("NT"), flow(table)],
    ...                          None)
    >>> [item.error is None for item in compiled]
    [True, False]

    ``store`` may be ``None`` (no source bindings are read or written,
    so every file source is read); callers that want batch
    deduplication pass at least a memory-only :class:`ScoreStore`.
    """
    # Source -> handle, or the exception resolving it raised; table
    # sources memoize by table identity.
    memo: Dict[object, object] = {}
    with span("flow.compile", plans=len(plans)):
        compiled = [_lower(plan) for plan in plans]
        # In-memory plans bind their sources first (plan order within
        # each group), so a cold source that any plan needs in memory
        # is parsed, and never also streamed.
        for index in sorted(range(len(compiled)),
                            key=lambda i: compiled[i].streamed):
            item = compiled[index]
            if item.error is None:
                try:
                    compiled[index] = _bind(item, store, memo)
                except Exception as error:
                    compiled[index] = CompiledPlan(plan=item.plan,
                                                   error=error)
    return compiled


def _lower(plan) -> CompiledPlan:
    """The plan's method, budget and stream decision, or its error."""
    try:
        if not isinstance(plan, Plan):
            raise TypeError(f"expected a Plan, got {type(plan).__name__}")
        require(plan.method_spec is not None,
                "plan has no method; call .method(code) before running")
        method = plan.method_spec.build()
        return CompiledPlan(plan=plan, method=method,
                            budget=plan.budget_spec or FilterSpec(),
                            streamed=_wants_stream(plan, method))
    except Exception as error:
        return CompiledPlan(plan=plan, error=error)


def _bind(item: CompiledPlan, store, memo) -> CompiledPlan:
    """``item`` on its source handle, score-cache key and metrics."""
    source = item.plan.source
    memo_key = (id(source.table) if isinstance(source, TableSource)
                else source)
    handle = _once(memo, memo_key,
                   lambda: _resolve_source(source, store, item.streamed))
    key = fingerprint_score_request(None, item.method,
                                    table_fingerprint=handle.table_fp)
    metrics = tuple(spec.build(handle.summary)
                    for spec in item.plan.metric_specs)
    return replace(item, handle=handle, key=key, metrics=metrics)


def _once(memo: Dict[object, object], key, resolve):
    """``resolve()`` once per key, re-raising a remembered failure."""
    try:
        found = memo.get(key)
    except TypeError:  # unhashable third-party spec: no memoization
        return resolve()
    if found is None:
        try:
            found = resolve()
        except Exception as error:
            found = error
        memo[key] = found
    if isinstance(found, Exception):
        raise found
    return found


def _wants_stream(plan: Plan, method) -> bool:
    """The compile decision: does this plan run out-of-core?

    ``streaming=True`` demands it (and raises
    :class:`StreamingUnsupported` for whole-graph methods);
    ``"auto"`` streams supported methods when
    :func:`~repro.stream.auto_streams` says the source's file is large
    enough — the rule ``repro convert`` applies too — silently staying
    in memory otherwise (also for sources other than files and remote
    sources, which have no local file to stream).
    """
    streaming, source = plan.streaming, plan.source
    if streaming is False:
        return False
    if isinstance(source, TableSource):
        require(streaming is not True,
                "streaming=True needs a file or remote source; an "
                "in-memory EdgeTable is already materialized")
        return False
    if streaming is True:
        if not supports_streaming(method):
            raise StreamingUnsupported(method)
        require(isinstance(source, _STREAMABLE_SOURCES),
                f"cannot stream from {type(source).__name__}: only "
                "file and remote sources stream")
        return True
    if not (supports_streaming(method)
            and isinstance(source, _STREAMABLE_SOURCES)):
        return False
    try:
        return auto_streams(source.local_path())
    except (OSError, ValueError):
        return False


def _open_stream(source) -> CanonicalStream:
    """Pass 1 over a file or remote source (fetching remote bytes)."""
    with span("flow.stream", source=source.describe()):
        return open_stream(source.local_path(), directed=source.directed,
                           delimiter=source.delimiter,
                           format=source.format)


def _resolve_source(source, store: Optional[ScoreStore],
                    streamed: bool) -> SourceHandle:
    """The handle of one source, read now only when it is cold.

    For table sources the source fingerprint *is* the table
    fingerprint, and the table is already at hand. A file source whose
    binding carries a summary is resolved from the file hash alone (no
    read, no :func:`fingerprint_table`). Otherwise it is read now, by
    pass 1 when ``streamed`` (the stream carries the table
    fingerprint), else by a parse, and its binding is recorded, or
    upgraded with the summary (a parse keeps the bound table
    fingerprint).
    """
    if isinstance(source, TableSource):
        table = source.table
        table_fp = fingerprint_table(table)
        return SourceHandle(source, table_fp, table_fp, table.summary(),
                            table)
    source_fp = source.fingerprint()
    binding = None if store is None else store.source_binding(source_fp)
    if binding is not None and binding[1] is not None:
        return SourceHandle(source, source_fp, *binding)
    if streamed:
        stream = _open_stream(source)
        handle = SourceHandle(source, source_fp, stream.table_fp,
                              stream.summary, stream=stream)
    else:
        table = source.resolve()
        table_fp = binding[0] if binding else fingerprint_table(table)
        handle = SourceHandle(source, source_fp, table_fp,
                              table.summary(), table)
    if store is not None:
        store.bind_source(source_fp, handle.table_fp, handle.summary)
    return handle

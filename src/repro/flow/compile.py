"""Lowering plans onto the pipeline: sources, fingerprints, cache keys.

Compilation is the step between the declarative :class:`Plan` and the
execution machinery (:func:`repro.pipeline.store.score_with_store`,
backend spec strings, ``workers=``). For a batch of plans it

1. resolves every *distinct* source exactly once, into one
   :class:`SourceHandle`. A file is hashed once per batch, and the
   store's source binding (``bind_source`` / ``source_binding``, keyed
   by the file-content hash plus parse options) supplies the table
   fingerprint and the table's
   :class:`~repro.graph.edge_table.TableSummary`, so a warm source is
   not parsed here at all: its handle parses at most once, later, and
   only when a score key misses the store or a worker payload needs
   the table. A cold source is parsed, hashed and bound right away; a
   binding recorded without a summary is upgraded by that one parse;
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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..backbones.base import BackboneMethod
from ..graph.edge_table import EdgeTable, TableSummary
from ..obs.trace import span
from ..pipeline.fingerprint import (fingerprint_score_request,
                                    fingerprint_table)
from ..pipeline.store import ScoreStore
from ..stream import (StreamingUnsupported, auto_streams, open_stream,
                      supports_streaming)
from ..util.validation import require
from .plan import Plan
from .spec import FilterSpec, TableSource


class SourceHandle:
    """One distinct source of a compiled batch.

    Holds the source and table fingerprints and the table's summary,
    and parses the source at most once: :meth:`table` parses on its
    first call and keeps the table, or the error, which every later
    call re-raises, so a failed parse fails only the plans over this
    source. :attr:`parsed_table` is the table once the batch holds it
    (a cold source, an in-memory table, or a parse on a score miss),
    else ``None``.
    """

    def __init__(self, source, source_fp: str, table_fp: str,
                 summary: TableSummary,
                 table: Optional[EdgeTable] = None):
        self.source = source
        self.source_fp = source_fp
        self.table_fp = table_fp
        self.summary = summary
        self.parsed_table = table
        self._error: Optional[Exception] = None

    def table(self) -> EdgeTable:
        """The source's table, parsed on the first call."""
        if self.parsed_table is None:
            if self._error is not None:
                raise self._error
            try:
                self.parsed_table = self.source.resolve()
            except Exception as error:
                self._error = error
                raise
        return self.parsed_table


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
    #: The out-of-core handle when the plan compiled to the streaming
    #: path (its source handle never parses; the cache key is
    #: unchanged — the stream's fingerprint equals the in-memory
    #: table's).
    stream: Optional[object] = field(default=None, repr=False)
    error: Optional[Exception] = field(default=None, repr=False)


def compile_plans(plans: Sequence[Plan], store: Optional[ScoreStore],
                  allow_streaming: bool = True) -> List[CompiledPlan]:
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
    so every file source is parsed); callers that want batch
    deduplication pass at least a memory-only :class:`ScoreStore`.
    ``allow_streaming=False`` forces the in-memory path regardless of
    the plans' ``streaming`` setting (used by entry points that
    materialize full score arrays or only derive keys:
    :meth:`Plan.scores` and :meth:`Plan.describe`).
    """
    # Source -> handle, or the exception resolving it raised; table
    # sources memoize by table identity.
    memo: Dict[object, object] = {}
    compiled = []
    with span("flow.compile", plans=len(plans)):
        for plan in plans:
            try:
                compiled.append(_compile_one(plan, store, memo,
                                             allow_streaming))
            except Exception as error:
                compiled.append(CompiledPlan(plan=plan, error=error))
    return compiled


def _compile_one(plan, store, memo, allow_streaming) -> CompiledPlan:
    if not isinstance(plan, Plan):
        raise TypeError(f"expected a Plan, got {type(plan).__name__}")
    require(plan.method_spec is not None,
            "plan has no method; call .method(code) before running")
    method = plan.method_spec.build()
    source, stream = plan.source, None
    if _wants_stream(plan, method, allow_streaming):
        handle, stream = _once(memo, ("stream", source),
                               lambda: _resolve_stream(source, store))
    else:
        memo_key = (id(source.table) if isinstance(source, TableSource)
                    else source)
        handle = _once(memo, memo_key,
                       lambda: _resolve_source(source, store))
    key = fingerprint_score_request(None, method,
                                    table_fingerprint=handle.table_fp)
    metrics = tuple(spec.build(handle.summary)
                    for spec in plan.metric_specs)
    return CompiledPlan(plan=plan, handle=handle, method=method, key=key,
                        budget=plan.budget_spec or FilterSpec(),
                        metrics=metrics,
                        stream=stream)


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


def _wants_stream(plan, method, allow_streaming) -> bool:
    """The compile decision: does this plan run out-of-core?

    ``streaming=True`` demands it (and raises
    :class:`StreamingUnsupported` for whole-graph methods);
    ``"auto"`` streams supported methods when
    :func:`~repro.stream.auto_streams` says the source's file is large
    enough — the rule ``repro convert`` applies too — silently staying
    in memory otherwise (also when the source has no local file).
    """
    streaming = getattr(plan, "streaming", "auto")
    if streaming is False or not allow_streaming:
        return False
    if isinstance(plan.source, TableSource):
        require(streaming is not True,
                "streaming=True needs a file or remote source; an "
                "in-memory EdgeTable is already materialized")
        return False
    if streaming is True:
        if not supports_streaming(method):
            raise StreamingUnsupported(method)
        return True
    if not supports_streaming(method):
        return False
    try:
        return auto_streams(_stream_path(plan.source))
    except (OSError, ValueError):
        return False


def _stream_path(source) -> Path:
    """The local file behind a source spec (fetching remote bytes)."""
    local = getattr(source, "local_path", None)
    if callable(local):
        return Path(local())
    path = getattr(source, "path", None)
    require(path is not None,
            f"cannot stream from {type(source).__name__}: it exposes "
            "neither a local path nor local_path()")
    return Path(path)


def _resolve_stream(source, store: Optional[ScoreStore]):
    """(source handle, CanonicalStream) for one source.

    Pass 1 always runs — even on a warm store — because scoring needs
    the node aggregates; what warm runs skip is pass-2 scoring (the
    store answers by cache key, and the stream's fingerprint matches
    the in-memory table's). Pass 1 records the same source binding as
    the in-memory path, summary included, so a later in-memory request
    over the file parses nothing on a score hit.
    """
    source_fp = source.fingerprint()
    fmt = getattr(source, "format", None)
    formatter = getattr(source, "_format", None)
    if fmt is None and callable(formatter):
        fmt = formatter()
    with span("flow.stream", source=source.describe()):
        stream = open_stream(_stream_path(source),
                             directed=getattr(source, "directed", True),
                             delimiter=getattr(source, "delimiter", ","),
                             format=fmt)
    if store is not None:
        binding = store.source_binding(source_fp)
        if binding is None or binding[1] is None:
            store.bind_source(source_fp, stream.table_fp, stream.summary)
    return (SourceHandle(source, source_fp, stream.table_fp,
                         stream.summary), stream)


def _resolve_source(source, store: Optional[ScoreStore]) -> SourceHandle:
    """The in-memory handle of one source.

    For table sources the source fingerprint *is* the table
    fingerprint, and the table is already at hand. A file source whose
    binding carries a summary is resolved from the file hash alone
    (no parse, no :func:`fingerprint_table`); otherwise it is parsed
    now and its binding recorded, or upgraded with the summary while
    keeping the bound table fingerprint.
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
    table = source.resolve()
    table_fp = fingerprint_table(table) if binding is None else binding[0]
    summary = table.summary()
    if store is not None:
        store.bind_source(source_fp, table_fp, summary)
    return SourceHandle(source, source_fp, table_fp, summary, table)

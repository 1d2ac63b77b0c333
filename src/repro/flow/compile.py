"""Lowering plans onto the pipeline: tables, fingerprints, cache keys.

Compilation is the step between the declarative :class:`Plan` and the
execution machinery (:func:`repro.pipeline.store.score_with_store`,
backend spec strings, ``workers=``). For a batch of plans it

1. resolves every *distinct* source exactly once — a file is hashed
   once and parsed at most once per batch, however many plans point at
   it, and a store's source binding (``bind_source`` /
   ``resolve_source``, persisted since PR 4) supplies the table
   fingerprint on warm runs so key derivation never re-hashes a parsed
   table;
2. builds the configured method instance and derives the score-cache
   key (:func:`~repro.pipeline.fingerprint.fingerprint_score_request`)
   — the key deliberately excludes extraction-only knobs, which is
   what lets N plans at different deltas or shares share one scoring
   pass;
3. resolves metric specs against the source table (so ``"coverage"``
   measures retention against the input).

The result, one :class:`CompiledPlan` per plan, is everything
:func:`repro.flow.serve` needs to schedule scoring and apply filters.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..backbones.base import BackboneMethod
from ..graph.edge_table import EdgeTable
from ..obs.trace import span
from ..pipeline.fingerprint import (fingerprint_score_request,
                                    fingerprint_table)
from ..pipeline.store import ScoreStore
from ..stream import (StreamingUnsupported, auto_threshold_bytes,
                      open_stream, supports_streaming)
from ..util.validation import require
from .plan import Plan
from .spec import FilterSpec, TableSource


@dataclass
class CompiledPlan:
    """A plan lowered onto concrete data and cache keys."""

    plan: Plan
    table: Optional[EdgeTable]  # None only in key-derivation mode
    table_fp: str
    source_fp: str
    method: BackboneMethod
    key: str  # score-cache key (table x score-relevant method config)
    budget: Optional[FilterSpec]
    metrics: Tuple
    #: The out-of-core handle when the plan compiled to the streaming
    #: path (``table`` is then ``None``; the cache key is unchanged —
    #: the stream's fingerprint equals the in-memory table's).
    stream: Optional[object] = field(default=None, repr=False)


def compile_plans(plans: Sequence[Plan], store: Optional[ScoreStore],
                  need_tables: bool = True,
                  allow_streaming: bool = True) -> List[CompiledPlan]:
    """Compile a batch, resolving each distinct source exactly once.

    ``store`` may be ``None`` (no source bindings are read or written);
    callers that want batch deduplication pass at least a memory-only
    :class:`ScoreStore`. ``need_tables=False`` is the key-derivation
    mode behind ``--explain``: when the store's source binding already
    supplies a file's table fingerprint, the file is not parsed at all
    (``table`` is ``None`` and metric specs stay unresolved).
    ``allow_streaming=False`` forces the in-memory path regardless of
    the plans' ``streaming`` setting (used by entry points that must
    materialize full score arrays, e.g. :meth:`Plan.scores`).
    """
    # source spec -> (source_fp, table, table_fp); file sources are
    # hashable frozen specs, table sources memoize by table identity.
    by_spec: Dict[object, Tuple[str, Optional[EdgeTable], str]] = {}
    streams: Dict[object, Tuple[str, object]] = {}
    compiled = []
    with span("flow.compile", plans=len(plans)):
        _compile_into(plans, store, need_tables, by_spec, streams,
                      compiled, allow_streaming)
    return compiled


def _compile_into(plans, store, need_tables, by_spec, streams, compiled,
                  allow_streaming):
    for plan in plans:
        require(isinstance(plan, Plan),
                f"serve expects Plan objects, got {type(plan).__name__}")
        require(plan.method_spec is not None,
                "plan has no method; call .method(code) before running")
        method = plan.method_spec.build()
        if _wants_stream(plan, method, need_tables, allow_streaming):
            source_fp, stream = _resolve_stream(plan.source, store,
                                                streams)
            key = fingerprint_score_request(
                None, method, table_fingerprint=stream.table_fp)
            metrics = tuple(spec.build(stream.summary)
                            for spec in plan.metric_specs)
            compiled.append(CompiledPlan(plan=plan, table=None,
                                         table_fp=stream.table_fp,
                                         source_fp=source_fp,
                                         method=method, key=key,
                                         budget=plan.budget_spec,
                                         metrics=metrics, stream=stream))
            continue
        memo_key = (id(plan.source.table)
                    if isinstance(plan.source, TableSource)
                    else plan.source)
        found = by_spec.get(memo_key)
        if found is None:
            found = _resolve_source(plan.source, store,
                                    need_table=need_tables)
            by_spec[memo_key] = found
        source_fp, table, table_fp = found
        key = fingerprint_score_request(table, method,
                                        table_fingerprint=table_fp)
        metrics = () if table is None else tuple(
            spec.build(table) for spec in plan.metric_specs)
        compiled.append(CompiledPlan(plan=plan, table=table,
                                     table_fp=table_fp,
                                     source_fp=source_fp, method=method,
                                     key=key, budget=plan.budget_spec,
                                     metrics=metrics))


def _wants_stream(plan, method, need_tables, allow_streaming) -> bool:
    """The compile decision: does this plan run out-of-core?

    ``streaming=True`` demands it (and raises
    :class:`StreamingUnsupported` for whole-graph methods);
    ``"auto"`` streams supported methods when the source file reaches
    :func:`auto_threshold_bytes`, silently staying in memory
    otherwise. Key-derivation mode (``need_tables=False``) never
    streams — it never touches the data at all when bindings are warm.
    """
    streaming = getattr(plan, "streaming", "auto")
    if streaming is False or not allow_streaming or not need_tables:
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
    size = _source_size(plan.source)
    return size is not None and size >= auto_threshold_bytes()


def _source_size(source) -> Optional[int]:
    """Source bytes for the ``"auto"`` decision; ``None`` = unknown."""
    try:
        return _stream_path(source).stat().st_size
    except (OSError, ValueError):
        return None


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


def _resolve_stream(source, store: Optional[ScoreStore], streams):
    """(source fingerprint, CanonicalStream) for one source, memoized.

    Pass 1 always runs — even on a warm store — because scoring needs
    the node aggregates and metrics need the table summary; what warm
    runs skip is pass-2 scoring (the store answers by cache key, and
    the stream's fingerprint matches the in-memory table's).
    """
    try:
        found = streams.get(source)
    except TypeError:  # unhashable third-party spec: no memoization
        found = None
    if found is not None:
        return found
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
    if store is not None and store.resolve_source(source_fp) is None:
        store.bind_source(source_fp, stream.table_fp)
    found = (source_fp, stream)
    with suppress(TypeError):
        streams[source] = found
    return found


def _resolve_source(source, store: Optional[ScoreStore],
                    need_table: bool = True):
    """(source fingerprint, table, table fingerprint) for one source.

    For table sources the source fingerprint *is* the table
    fingerprint. For file sources the store's source binding supplies
    the table fingerprint when known (warm runs never call
    :func:`fingerprint_table`, and key-only callers passing
    ``need_table=False`` skip the parse entirely); a fresh binding is
    recorded otherwise.
    """
    if isinstance(source, TableSource):
        table = source.table
        table_fp = fingerprint_table(table)
        return table_fp, table, table_fp
    source_fp = source.fingerprint()
    table_fp = None if store is None else store.resolve_source(source_fp)
    if table_fp is not None and not need_table:
        return source_fp, None, table_fp
    table = source.resolve()
    if table_fp is None:
        table_fp = fingerprint_table(table)
        if store is not None:
            store.bind_source(source_fp, table_fp)
    return source_fp, table, table_fp

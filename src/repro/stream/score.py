"""Pass 2 of the out-of-core pipeline: score blocks, keep survivors.

Every streamable method (NC, NCp, disparity, naive) scores through a
per-edge kernel, ``score_edges(edges, totals)``: row ``i``'s score
reads only row ``i`` and the node marginals in ``totals``. The
in-memory ``score`` runs that kernel once over the whole loop-free
table with the table's own :class:`~repro.graph.edge_table.NodeTotals`;
pass 2 runs it on each loop-free canonical block with the stream's
pass-1 totals — the same marginals — so every block yields bit for bit
the matching slice of the full-table score array.

Extraction then runs on the fly:

* threshold budgets keep each block's strict survivors
  (``score > t``, exactly :meth:`ScoredEdges.filter`);
* share / edge-count budgets maintain a running top-``k`` under the
  total order ``(-score, -weight, row)`` through
  :func:`~repro.graph.edge_table.top_k_rows`, the selection
  :meth:`EdgeTable.top_k_by` makes. Candidates are buffered in global
  row order, so buffer position stands in for the row and periodic
  truncation of the buffer cannot change the final selection;
* the method's own budgets rank by :meth:`BackboneMethod.rank_values`
  per block (NC's ``score - δ·sdev``), mirroring its
  ``extract_from_scores``.

Memory stays O(nodes + block + backbone): only survivors accumulate.

Methods whose extraction is a whole-graph computation (HSS, MST,
doubly stochastic, k-core) cannot stream; they raise
:class:`StreamingUnsupported` at compile time.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backbones.base import BackboneMethod, require_edges, share_to_k
from ..backbones.disparity import DisparityFilter
from ..backbones.naive import NaiveThreshold
from ..core.noise_corrected import (NoiseCorrectedBackbone,
                                    NoiseCorrectedPValue)
from ..graph.edge_table import EdgeTable, top_k_rows
from ..obs.trace import span
from ..util.validation import require
from .pipeline import CanonicalStream

#: Methods whose scores are per-edge functions of O(nodes) aggregates.
#: Matched by exact type: a subclass may override scoring in ways that
#: read the whole table, so it does not silently inherit streamability.
STREAMABLE_METHODS = (NoiseCorrectedBackbone, NoiseCorrectedPValue,
                      DisparityFilter, NaiveThreshold)


class StreamingUnsupported(ValueError):
    """The method needs the full graph in memory and cannot stream."""

    def __init__(self, method: BackboneMethod):
        menu = ", ".join(cls.code for cls in STREAMABLE_METHODS)
        super().__init__(
            f"{method.code} ({method.name}) cannot run out-of-core: "
            f"its extraction needs the full graph in memory; "
            f"streaming supports {menu}")
        self.method_code = method.code


def supports_streaming(method: BackboneMethod) -> bool:
    """Whether ``method`` can run through the streaming pipeline."""
    return type(method) in STREAMABLE_METHODS


# ----------------------------------------------------------------------
# Budget resolution (mirrors serve._apply_filter + extract_from_scores)
# ----------------------------------------------------------------------

def _job_mode(method: BackboneMethod, budget) -> Tuple[bool, str, float]:
    """Flatten the filter phase into ``(by_method, kind, value)``.

    ``by_method`` ranks by ``method.rank_values`` (the method's own
    budgets) instead of the raw score; ``kind`` is one of
    ``threshold`` / ``share`` / ``n_edges``. Raises exactly the
    diagnostics the in-memory filter phase raises for bad budgets.
    """
    if budget is None or budget.rank == "method" \
            or method.parameter_free:
        kwargs = {} if budget is None else budget.budget_kwargs()
        return _method_mode(method, kwargs)
    if budget.threshold is not None:
        return False, "threshold", float(budget.threshold)
    if budget.share is not None:
        return False, "share", float(budget.share)
    if budget.n_edges is not None:
        return False, "n_edges", int(budget.n_edges)
    return _method_mode(method, {})


def _method_mode(method: BackboneMethod, kwargs) -> Tuple[bool, str, float]:
    threshold, share, n_edges = method._resolve_budget(
        kwargs.get("threshold"), kwargs.get("share"),
        kwargs.get("n_edges"))
    if method.parameter_free:
        return False, "threshold", 0.0
    if threshold is not None:
        return True, "threshold", float(threshold)
    if share is not None:
        return True, "share", float(share)
    return True, "n_edges", int(n_edges)


# ----------------------------------------------------------------------
# Streaming selectors
# ----------------------------------------------------------------------

class _ThresholdSelector:
    """``ScoredEdges.filter``: keep rows scoring strictly above ``t``."""

    def __init__(self, threshold: float, nonloop_m: int):
        self.threshold = float(threshold)
        self._parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def feed(self, values: np.ndarray, block: EdgeTable) -> None:
        mask = values > self.threshold
        if np.any(mask):
            self._parts.append((block.src[mask], block.dst[mask],
                                block.weight[mask]))

    def parts(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        return self._parts


class _TopKSelector:
    """``EdgeTable.top_k_by`` as a running selection.

    Blocks arrive in global loop-free row order and every truncation
    keeps its survivors in buffer order (:func:`top_k_rows` returns
    ascending positions), so the candidate buffer is always in global
    row order: buffer position ranks exactly like the row index of the
    in-memory table. The order ``(-value, -weight, row)`` is total, so
    truncating the buffer to the best ``k`` after any prefix of blocks
    keeps exactly the rows one selection over all rows would keep.
    Once ``k`` candidates are held, the floor is the smallest kept
    value (NaN when a kept value is NaN); rows scoring strictly below
    it are strictly worse than every kept row and are dropped at feed
    time (``~(values < floor)``, so a NaN floor drops nothing). Buffer
    memory is O(k + block), and the final selection is already in row
    order.
    """

    #: Column layout of the candidate buffer; ``values``/``weight``
    #: double as the ranking key.
    _VALUES, _SRC, _DST, _WEIGHT = range(4)

    def __init__(self, k: int, nonloop_m: int):
        k = int(k)
        require(0 <= k <= nonloop_m,
                f"k={k} out of range [0, {nonloop_m}]")
        self.k = k
        self._columns: List[List[np.ndarray]] = [[] for _ in range(4)]
        self._count = 0
        self._floor: Optional[float] = None

    def feed(self, values: np.ndarray, block: EdgeTable) -> None:
        if self.k == 0:
            return
        src, dst, weight = block.src, block.dst, block.weight
        if self._floor is not None:
            keep = ~(values < self._floor)
            if not keep.all():
                values = values[keep]
                src, dst, weight = src[keep], dst[keep], weight[keep]
        if not len(values):
            return
        for column, array in zip(self._columns,
                                 (values, src, dst, weight)):
            column.append(array)
        self._count += len(values)
        if self._count > self.k + max(self.k, 1 << 18):
            self._truncate()

    def _gather(self, index: int) -> np.ndarray:
        column = self._columns[index]
        return column[0] if len(column) == 1 else np.concatenate(column)

    def _selection(self) -> np.ndarray:
        return top_k_rows(self._gather(self._VALUES),
                          self._gather(self._WEIGHT), self.k)

    def _truncate(self) -> None:
        keep = self._selection()
        # Replace columns one at a time so each block's originals are
        # released before the next column concatenates.
        for index in range(4):
            self._columns[index] = [self._gather(index)[keep]]
        self._count = len(keep)  # exactly k: truncation needs more
        self._floor = float(self._columns[self._VALUES][0].min())

    def parts(self) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        if self.k == 0 or not self._count:
            return []
        keep = self._selection()
        return [(self._gather(self._SRC)[keep],
                 self._gather(self._DST)[keep],
                 self._gather(self._WEIGHT)[keep])]


def _make_selector(kind: str, value: float, nonloop_m: int):
    if kind == "threshold":
        return _ThresholdSelector(value, nonloop_m)
    if kind == "share":
        return _TopKSelector(share_to_k(value, nonloop_m), nonloop_m)
    return _TopKSelector(min(int(value), nonloop_m), nonloop_m)


def _build_backbone(parts, stream: CanonicalStream) -> EdgeTable:
    if parts:
        src = np.concatenate([part[0] for part in parts])
        dst = np.concatenate([part[1] for part in parts])
        weight = np.concatenate([part[2] for part in parts])
    else:
        src = np.empty(0, dtype=np.int64)
        dst = np.empty(0, dtype=np.int64)
        weight = np.empty(0, dtype=np.float64)
    return EdgeTable(src, dst, weight, n_nodes=stream.n_nodes,
                     directed=stream.directed, labels=stream.labels,
                     coalesce=False)


# ----------------------------------------------------------------------
# The pass-2 driver
# ----------------------------------------------------------------------

def stream_extract(stream: CanonicalStream, jobs: Sequence[Tuple]
                   ) -> Tuple[Dict[object, EdgeTable],
                              Dict[object, Exception]]:
    """Score the stream once per distinct key, extract every job.

    ``jobs`` is a sequence of ``(job_id, key, method, budget)`` tuples
    — ``key`` the score-cache key (jobs sharing it have
    score-identical methods and are scored once per block), ``budget``
    a :class:`~repro.flow.spec.FilterSpec` or ``None``. Returns
    ``(backbones, errors)`` keyed by ``job_id``; failures are isolated
    with the in-memory precedence (a scoring error beats a budget
    error, exactly as ``serve`` skips the filter phase for keys that
    failed to score).
    """
    jobs = list(jobs)
    rep: Dict[str, BackboneMethod] = {}
    groups: Dict[str, List[Tuple[object, BackboneMethod, bool,
                                 object]]] = {}
    resolve_errors: Dict[object, Exception] = {}
    for job_id, key, method, budget in jobs:
        rep.setdefault(key, method)
        groups.setdefault(key, [])
        try:
            by_method, kind, value = _job_mode(method, budget)
            selector = _make_selector(kind, value, stream.nonloop_m)
        except Exception as error:
            resolve_errors[job_id] = error
            continue
        groups[key].append((job_id, method, by_method, selector))

    failed: Dict[str, Exception] = {}
    for key in rep:
        try:
            require_edges(stream.m)  # score()'s prepare_table check
        except ValueError as error:
            failed[key] = error
    job_errors: Dict[object, Exception] = {}
    with span("stream.pass2", keys=len(rep), jobs=len(jobs)):
        for src, dst, weight in _scoring_blocks(stream):
            block = EdgeTable(src, dst, weight, n_nodes=stream.n_nodes,
                              directed=stream.directed, coalesce=False)
            for key, method in rep.items():
                if key in failed:
                    continue
                try:
                    scored = method.score_edges(block, stream.totals)
                except Exception as error:
                    failed[key] = error
                    continue
                for job_id, job_method, by_method, selector in groups[key]:
                    if job_id in job_errors:
                        continue
                    try:
                        selector.feed(job_method.rank_values(scored)
                                      if by_method else scored.score,
                                      block)
                    except Exception as error:
                        job_errors[job_id] = error

    backbones: Dict[object, EdgeTable] = {}
    errors: Dict[object, Exception] = {}
    for job_id, key, method, budget in jobs:
        if key in failed:
            errors[job_id] = failed[key]
        elif job_id in resolve_errors:
            errors[job_id] = resolve_errors[job_id]
        elif job_id in job_errors:
            errors[job_id] = job_errors[job_id]
    for key, group in groups.items():
        if key in failed:
            continue
        for job_id, _method, _by_method, selector in group:
            if job_id in errors:
                continue
            try:
                backbones[job_id] = _build_backbone(selector.parts(),
                                                    stream)
            except Exception as error:
                errors[job_id] = error
    return backbones, errors


def _scoring_blocks(stream: CanonicalStream):
    """The stream's loop-free blocks — or one empty block when there
    are none, so scoring (and its diagnostics, e.g. NC on a loops-only
    network) runs exactly once as it would in memory."""
    empty = True
    for item in stream.iter_scoring_blocks():
        empty = False
        yield item
    if empty:
        yield (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
               np.empty(0, dtype=np.float64))

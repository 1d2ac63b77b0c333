"""The declarative request: ``flow(source).method(...).budget(...)``.

A :class:`Plan` is a pure description — source spec, method spec,
filter spec, metric specs — with no parsed table, no scores and no file
handles inside. Builder methods return *new* plans (plans are frozen),
so partial plans are safely shared and specialized::

    base = flow("edges.csv", directed=False).method("nc")
    strict = base.budget(threshold=0.0)           # the paper's rule
    matched = base.budget(share=0.1)              # budget-matched

Nothing touches the data until :meth:`Plan.run` (one request),
:meth:`Plan.run_many` (a grid of variants) or :func:`repro.flow.serve`
(an arbitrary batch) — and compilation deduplicates scoring across a
batch, so N requests over one source at different deltas or shares
perform a single scoring pass.

Plans are picklable, JSON round-trippable when built from paths and
registry codes (:meth:`Plan.to_json` / :meth:`Plan.from_json` — the
``repro flow run plan.json`` artifact format) and fingerprinted:
:meth:`Plan.fingerprint` hashes the full request identity (source
bytes, method class + complete config, filter, metrics), while the
coarser score-cache key (which deliberately *excludes*
extraction-only knobs like NC's delta) appears in
:meth:`Plan.describe` / :meth:`Plan.explain`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..backbones.base import ScoredEdges
from ..pipeline.fingerprint import canonical_json
from ..util.validation import require
from .spec import (BUDGET_KEYS, FilterSpec, MethodSpec, as_metric,
                   as_source, filter_from_json, method_from_json,
                   metrics_from_json, source_from_json)

#: Version tag of the plan JSON artifact and the plan fingerprint.
PLAN_SCHEMA_VERSION = 1


def flow(source, directed: bool = True, delimiter: str = ",",
         format: Optional[str] = None, streaming="auto") -> "Plan":
    """Start a plan from a source: path, ``file://`` URL or EdgeTable.

    ``directed`` / ``delimiter`` / ``format`` apply to file sources
    exactly as in :func:`repro.graph.ingest.read_edges` (and are
    ignored for ``.npz``, which is self-describing).

    ``streaming`` chooses the execution path: ``False`` always
    materializes the table in memory, ``True`` always runs the
    out-of-core two-pass pipeline (:mod:`repro.stream`; compile raises
    :class:`~repro.stream.StreamingUnsupported` for methods that need
    the full graph), and ``"auto"`` (the default) streams supported
    methods when :func:`repro.stream.auto_streams` finds the source
    file large enough (``REPRO_STREAM_THRESHOLD_BYTES``). Results and
    cache keys are identical either way — streaming is an execution
    knob, not part of the request identity.

    >>> from repro.flow import flow
    >>> plan = flow("edges.csv", directed=False).method("nc", delta=1.0)
    >>> plan = plan.budget(share=0.1).metrics("density", "coverage")
    >>> plan.method_spec.code
    'NC'
    """
    return Plan(source=as_source(source, directed=directed,
                                 delimiter=delimiter, format=format),
                streaming=_checked_streaming(streaming))


def _checked_streaming(streaming):
    require(streaming in (True, False, "auto"),
            f"streaming must be True, False or 'auto', "
            f"got {streaming!r}")
    return streaming


@dataclass(frozen=True, eq=False)
class Plan:
    """A fingerprinted backbone request; see the module docstring."""

    source: object
    method_spec: Optional[object] = None
    budget_spec: Optional[FilterSpec] = None
    metric_specs: Tuple[object, ...] = ()
    #: Execution knob (``True`` / ``False`` / ``"auto"``): whether the
    #: out-of-core pipeline runs. Deliberately excluded from
    #: :meth:`fingerprint` — both paths produce identical results.
    streaming: object = "auto"

    # ------------------------------------------------------------------
    # Builders (each returns a new Plan)
    # ------------------------------------------------------------------

    def method(self, method, **params) -> "Plan":
        """Choose the backbone method: a registry code (case-insensitive)
        plus constructor params, or a live ``BackboneMethod``."""
        return replace(self, method_spec=MethodSpec.of(method, **params))

    def budget(self, threshold: Optional[float] = None,
               share: Optional[float] = None,
               n_edges: Optional[int] = None,
               rank: str = "method") -> "Plan":
        """Choose the filter budget (at most one of the three).

        With no arguments the method's own default budget applies at
        run time (NC's ``score - delta*sdev > 0`` rule, HSS's salience
        threshold, ...). ``rank="score"`` selects the raw-score sweep
        ranking instead of the method's extraction rule.
        """
        spec = FilterSpec(threshold=threshold, share=share,
                          n_edges=n_edges, rank=rank)
        return replace(self, budget_spec=spec)

    def metrics(self, *specs) -> "Plan":
        """Attach metrics (names like ``"density"`` or callables) to be
        evaluated on the extracted backbone."""
        return replace(self, metric_specs=tuple(as_metric(spec)
                                                for spec in specs))

    # ------------------------------------------------------------------
    # Execution (the only methods that touch data)
    # ------------------------------------------------------------------

    def run(self, store=None, workers: Optional[int] = None):
        """Execute this plan; returns a :class:`repro.flow.FlowResult`.

        Scoring failures that the legacy path raises (e.g. Sinkhorn
        non-convergence) are raised here too.
        """
        from .serve import serve

        result = serve([self], store=store, workers=workers)[0]
        if result.error is not None:
            raise result.error
        return result

    def run_many(self, store=None, workers: Optional[int] = None,
                 **grid) -> List[object]:
        """Run a grid of variants of this plan as one deduplicated batch.

        Keyword arguments name either a budget knob (``share=[...]``,
        ``threshold=[...]``, ``n_edges=[...]``) or a method constructor
        parameter (``delta=[...]``); each maps to a sequence of values
        and the cartesian product is served. Because compilation
        deduplicates score work by cache key, k variants that differ
        only in extraction knobs (deltas, shares) trigger exactly one
        scoring pass.
        """
        from .serve import serve

        return serve(self.variants(**grid), store=store, workers=workers)

    def scores(self, store=None) -> ScoredEdges:
        """Score the source with the plan's method (cached; no filter)."""
        from ..pipeline.store import score_with_store

        # In memory: the full ScoredEdges, which streaming never
        # materializes. A warm source parses only on a score miss.
        compiled = self._compiled_in_memory(store)
        return score_with_store(compiled.method, compiled.handle.table,
                                store, key=compiled.key)

    def _compiled_in_memory(self, store):
        """This plan compiled with ``streaming=False``, or its error."""
        from .compile import compile_plans
        from ..pipeline.store import ScoreStore

        # Explicit None check: an *empty* ScoreStore is falsy (len 0)
        # but must still be used, not silently replaced.
        compiled = compile_plans([replace(self, streaming=False)],
                                 ScoreStore() if store is None else store)[0]
        if compiled.error is not None:
            raise compiled.error
        return compiled

    # ------------------------------------------------------------------
    # Variants
    # ------------------------------------------------------------------

    def variants(self, **grid) -> List["Plan"]:
        """The cartesian grid of plans :meth:`run_many` would serve."""
        plans: List[Plan] = [self]
        for name, values in grid.items():
            values = list(values)
            require(len(values) > 0,
                    f"variant grid for {name!r} is empty")
            plans = [plan._with(name, value)
                     for plan in plans for value in values]
        return plans

    def _with(self, name: str, value) -> "Plan":
        """One variant: replace a budget knob or a method parameter."""
        if name in BUDGET_KEYS:
            rank = self.budget_spec.rank if self.budget_spec else "method"
            return self.budget(rank=rank, **{name: value})
        require(isinstance(self.method_spec, MethodSpec),
                f"variant parameter {name!r} needs a symbolic method "
                "spec (build the plan with a registry code)")
        params = dict(self.method_spec.params)
        params[name] = value
        spec = MethodSpec(code=self.method_spec.code,
                          params=tuple(sorted(params.items())))
        return replace(self, method_spec=spec)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Hex digest of the full request identity.

        Two plans share a fingerprint exactly when running them must
        produce the same backbone and metrics: source content (file
        bytes + parse options, or table content), method class and
        complete configuration (extraction-only knobs *included* —
        unlike the score-cache key), filter spec and metric names.
        """
        identity = {
            "schema": PLAN_SCHEMA_VERSION,
            "source": self.source.fingerprint(),
            "method": (None if self.method_spec is None
                       else self.method_spec.build().describe()),
            "filter": (None if self.budget_spec is None
                       else self.budget_spec.to_json()),
            "metrics": [spec.key for spec in self.metric_specs],
        }
        digest = hashlib.sha256()
        digest.update(f"repro.plan/v{PLAN_SCHEMA_VERSION}".encode())
        digest.update(canonical_json(identity).encode())
        return digest.hexdigest()

    def describe(self, store=None) -> Dict[str, object]:
        """The compiled plan as data: fingerprints, config, cache key.

        Never scores. Compiles in memory, so it parses the source only
        when ``store`` holds no binding (with a table summary) for it —
        a warm store answers from the file hash alone. ``"filter"`` is
        the method's :meth:`~repro.backbones.base.BackboneMethod.cut` of
        the plan's budget, with the rank that cut uses (a default budget
        ranks by the method). This is what ``--explain`` prints.
        """
        compiled = self._compiled_in_memory(store)
        method = compiled.method
        cut = method.cut(**compiled.budget.filter_kwargs())
        payload: Dict[str, object] = {
            "plan": self.fingerprint(),
            "source": {
                "spec": self.source.describe(),
                "fingerprint": compiled.handle.source_fp,
            },
            "method": method.describe(),
            "filter": dict(cut.describe(),
                           rank="method" if cut.by_method else "score"),
            "metrics": [spec.key for spec in self.metric_specs],
            "cache": {
                "table": compiled.handle.table_fp,
                "score_key": compiled.key,
            },
        }
        return payload

    def explain(self, store=None) -> str:
        """Human-readable :meth:`describe` (the ``--explain`` output)."""
        info = self.describe(store=store)
        method = info["method"]
        config = ", ".join(f"{key}={value!r}" for key, value
                           in sorted(method["config"].items()))
        filt = dict(info["filter"])
        rank = filt.pop("rank")
        kind = filt.pop("kind")
        budget = ", ".join(f"{key}={value!r}"
                           for key, value in filt.items())
        lines = [
            f"plan        {info['plan']}",
            f"source      {info['source']['spec']}",
            f"            fingerprint {info['source']['fingerprint']}",
            f"method      {method['code']} — {method['name']}"
            + (f" ({config})" if config else ""),
            f"filter      {budget} [rank={rank}]"
            if budget else f"filter      {kind}",
            f"metrics     {', '.join(info['metrics']) or '(none)'}",
            f"cache       table {info['cache']['table']}",
            f"            score key {info['cache']['score_key']}",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # JSON artifacts
    # ------------------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to the ``plan.json`` artifact format.

        Only plans built from file paths, registry method codes and
        named metrics serialize; in-memory escape hatches raise
        :class:`~repro.flow.spec.PlanSerializationError`.
        """
        require(self.method_spec is not None,
                "cannot serialize a plan without a method")
        payload = {
            "plan": PLAN_SCHEMA_VERSION,
            "source": self.source.to_json(),
            "method": self.method_spec.to_json(),
            "filter": (None if self.budget_spec is None
                       else self.budget_spec.to_json()),
            "metrics": [spec.to_json() for spec in self.metric_specs],
        }
        if self.streaming != "auto":
            payload["streaming"] = self.streaming
        return json.dumps(payload, indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        """Inverse of :meth:`to_json` (validated)."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"plan JSON is not valid JSON: {error}") \
                from None
        require(isinstance(payload, dict), "plan JSON must be an object")
        require(payload.get("plan") == PLAN_SCHEMA_VERSION,
                f"unsupported plan schema {payload.get('plan')!r} "
                f"(expected {PLAN_SCHEMA_VERSION})")
        plan = cls(source=source_from_json(payload["source"]),
                   method_spec=method_from_json(payload["method"]))
        if payload.get("filter") is not None:
            plan = replace(plan,
                           budget_spec=filter_from_json(payload["filter"]))
        if payload.get("metrics"):
            plan = replace(plan, metric_specs=metrics_from_json(
                payload["metrics"]))
        if "streaming" in payload:
            plan = replace(plan, streaming=_checked_streaming(
                payload["streaming"]))
        # Surface config errors (unknown codes, bad budgets) at load
        # time, not at run time on a remote worker.
        budget = plan.budget_spec or FilterSpec()
        plan.method_spec.build().cut(**budget.filter_kwargs())
        return plan

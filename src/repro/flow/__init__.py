"""One declarative, fingerprinted request API from source to backbone.

``repro.flow`` turns the library's hand-wired entry points
(``method.extract``, the CLI) into a single shape:
build a *plan* — a pure, picklable, fingerprinted description of
source, method, budget and metrics — and hand it (or a whole batch of
them) to the runtime, which scores it through the cached
:class:`~repro.pipeline.store.ScoreStore`, optionally across worker
processes. Nothing touches data until ``.run()``.

>>> from repro.flow import flow
>>> from repro.graph.edge_table import EdgeTable
>>> table = EdgeTable.from_pairs(
...     [(0, 1, 10.0), (0, 2, 10.0), (0, 3, 12.0), (0, 4, 12.0),
...      (0, 5, 12.0), (1, 2, 4.0)], directed=False)
>>> result = (flow(table).method("nc", delta=1.0)
...           .metrics("density", "edges").run())
>>> result.backbone.m == int(result.metrics["edges"])
True

The same plan shape scales from one request to a served batch:
``serve(plans, store=..., workers=...)`` deduplicates score work by
cache key, so N requests over one source at different deltas or
budgets perform exactly one scoring pass — the "score once, filter
many ways" regime of the paper's evaluation (Secs. V-D/E/F), served
concurrently. ``Plan.run_many`` builds such batches from parameter
grids, and :func:`sweep_methods` serves a whole share sweep as one
batch. Paper Figs. 7-8 and Table II always run as such batches.

Plans built from file paths and registry codes round-trip through
JSON (``Plan.to_json`` / ``Plan.from_json``), making them shippable
artifacts: ``repro flow run plan.json`` executes one, and
``repro backbone --explain`` prints the compiled form (source
fingerprint, method config, cache key) without executing anything.

Sources are pluggable by URL scheme (:mod:`repro.flow.sources`):
``flow("http://…/edges.npz")`` and ``flow("kv://host:port/edges.npz")``
fetch the bytes (ranged reads / digest-verified KV objects), spool
them locally and fingerprint them exactly like a local file — so the
score cache is shared between local and remote copies of the same
table — and :func:`register_scheme` adds new schemes without touching
this package.
"""

from ..stream import StreamingUnsupported
from .compile import CompiledPlan, compile_plans
from .plan import PLAN_SCHEMA_VERSION, Plan, flow
from .serve import FlowResult, serve
from .sources import (RemoteSource, register_scheme, registered_schemes,
                      unregister_scheme)
from .spec import (BUDGET_KEYS, CallableMetric, FileSource, FilterSpec,
                   MethodInstance, MethodSpec, MetricSpec,
                   PlanSerializationError, TableSource, as_metric,
                   as_source)
from .sweep import fold_sweep, sweep_methods, sweep_plans

__all__ = [
    "BUDGET_KEYS",
    "CallableMetric",
    "CompiledPlan",
    "FileSource",
    "FilterSpec",
    "FlowResult",
    "MethodInstance",
    "MethodSpec",
    "MetricSpec",
    "PLAN_SCHEMA_VERSION",
    "Plan",
    "PlanSerializationError",
    "RemoteSource",
    "StreamingUnsupported",
    "TableSource",
    "as_metric",
    "as_source",
    "compile_plans",
    "flow",
    "fold_sweep",
    "register_scheme",
    "registered_schemes",
    "serve",
    "sweep_methods",
    "sweep_plans",
    "unregister_scheme",
]

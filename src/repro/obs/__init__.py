"""repro.obs — tracing, metrics, and exporters for the whole stack.

Every layer below the daemon already *counts* things — the store has
:class:`~repro.pipeline.store.CacheStats`, the worker pool raises
typed errors — and the daemon keeps its counters as instruments of
its own registry, but nothing says *where* a request's time went.
This package is the one place those signals meet:

- :mod:`repro.obs.trace` — ``Span``/``Tracer`` with wall and CPU
  time, propagated through ``contextvars`` and, via a picklable
  :class:`SpanContext`, into ``parallel_map`` worker processes whose
  spans are adopted back into the parent trace exactly like
  worker-computed scores already are.
- :mod:`repro.obs.metrics` — a threadsafe registry of counters,
  gauges and fixed-bucket histograms (stdlib only), shared by the
  store, the pool, the KV client and the daemon.
- :mod:`repro.obs.export` — Prometheus text exposition (served by
  the daemon at ``GET /v1/metrics``), a small validating parser for
  tests, and JSON trace artifacts (span tree + stage durations).

The package is a *leaf*: it imports nothing from the rest of
``repro``, so any module — including ``util.parallel`` and the cache
backends — can instrument itself without import cycles. When no trace
is active, :func:`span` returns a shared no-op so instrumented hot
paths cost one ``contextvars`` read.
"""

from .export import (parse_prometheus, render_families,
                     render_prometheus, span_tree, trace_to_dict)
from .metrics import (Counter, Gauge, Histogram, MetricFamily,
                      MetricsRegistry, Sample, get_registry,
                      make_family)
from .trace import (TRACER, Span, SpanContext, Tracer, activate,
                    add_attributes, current_context, extend_current,
                    span, trace)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricFamily",
    "MetricsRegistry", "Sample", "Span", "SpanContext", "TRACER",
    "Tracer", "activate", "add_attributes", "current_context",
    "extend_current", "get_registry", "make_family",
    "parse_prometheus", "render_families", "render_prometheus",
    "span", "span_tree", "trace", "trace_to_dict",
]

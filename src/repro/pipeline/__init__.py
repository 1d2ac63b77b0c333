"""Fingerprints, the score cache and sweep metric specs.

This package is the storage layer beneath :mod:`repro.flow`. Scored
tables are content-addressed (:mod:`repro.pipeline.fingerprint`) and
cached (:class:`ScoreStore`), so every plan, sweep and experiment
served through :func:`repro.flow.serve` scores a (table, method) pair
at most once per store. :func:`score_with_store` is the cached scoring
call they all share, and :mod:`repro.pipeline.tasks` holds the
picklable metric specs that sweeps evaluate.

Typical use: score once, then filter many ways.

>>> from repro.flow import flow, sweep_methods
>>> from repro.graph.edge_table import EdgeTable
>>> from repro.pipeline import DensityMetric, ScoreStore
>>> table = EdgeTable.from_pairs(
...     [(0, 1, 10.0), (0, 2, 10.0), (0, 3, 12.0), (0, 4, 12.0),
...      (0, 5, 12.0), (1, 2, 4.0)], directed=False)
>>> store = ScoreStore()  # memory-only; ScoreStore(".repro-cache") persists
>>> plan = flow(table).method("NC", delta=1.0)
>>> plan.budget(share=0.5).run(store=store).backbone.m
3
>>> plan.budget(n_edges=2).run(store=store).backbone.m  # no rescoring
2
>>> series = sweep_methods([plan.method_spec.build()], table,
...                        DensityMetric(), store=store)
>>> (store.stats.misses, store.stats.hits)
(1, 2)

The persistent tier is pluggable (:mod:`repro.pipeline.backends`):
``ScoreStore("scores.sqlite")`` keeps the cache in one WAL-mode SQLite
file, ``ScoreStore(backend=KVBackend(...))`` talks to a remote-style
key-value service, and ``store.gc(max_bytes=...)`` evicts
least-recently-used entries from any of them.

Cached and sharded paths are bit-identical by construction; see
:mod:`repro.flow.serve` for the contract.
"""

from .backends import (DirectoryBackend, GCPolicy, GCResult, KVBackend,
                       NegativeEntry, SQLiteBackend, StoreBackend,
                       open_backend)
from .fingerprint import (canonical_json, fingerprint_file,
                          fingerprint_method, fingerprint_score_request,
                          fingerprint_source_request, fingerprint_table,
                          method_config)
from .store import CacheStats, ScoreStore, score_with_store
from .tasks import (AverageDegreeMetric, CoverageMetric, DensityMetric,
                    EdgeCountMetric, METRIC_BUILDERS, StabilityMetric)

__all__ = [
    "AverageDegreeMetric",
    "CacheStats",
    "CoverageMetric",
    "DensityMetric",
    "DirectoryBackend",
    "EdgeCountMetric",
    "GCPolicy",
    "GCResult",
    "KVBackend",
    "METRIC_BUILDERS",
    "NegativeEntry",
    "SQLiteBackend",
    "ScoreStore",
    "StoreBackend",
    "StabilityMetric",
    "canonical_json",
    "fingerprint_file",
    "fingerprint_method",
    "fingerprint_score_request",
    "fingerprint_source_request",
    "fingerprint_table",
    "method_config",
    "open_backend",
    "score_with_store",
]

"""Tier-2 perf smoke: the pluggable store backends on real workloads.

Scores the Fig. 7 trade network with every budgeted paper method
through each backend (directory, SQLite, in-memory KV) and asserts the
backend contract at paper scale:

* a warm store serves the whole scoring pass at least 5x faster than
  recomputing it from scratch, for *every* backend — persistence
  layers must never cost more than rescoring;
* every backend round-trips the scored tables bit-identically;
* ``migrate`` between the directory and SQLite layouts preserves
  payload bytes exactly, so a migrated cache keeps serving hits;
* GC respects its byte bound while keeping the most recently used
  entries servable.
"""

import numpy as np

from conftest import emit

from repro.backbones.registry import paper_methods
from repro.pipeline import ScoreStore, score_with_store
from repro.pipeline.backends import (DirectoryBackend, KVBackend,
                                     SQLiteBackend)
from repro.util.tables import format_table
from repro.util.timing import time_call

#: Required recompute/warm speedup per backend on the scoring workload.
MIN_WARM_SPEEDUP = 5.0


def _score_all(methods, table, store):
    return [score_with_store(method, table, store)
            for method in methods]


def _backends(tmp_path):
    return (
        ("directory", lambda: DirectoryBackend(tmp_path / "dir-cache")),
        ("sqlite", lambda: SQLiteBackend(tmp_path / "cache.sqlite")),
        ("kv", lambda: KVBackend()),
    )


def test_backends_speedup_and_identity(benchmark, world, tmp_path):
    table = world.network("trade", 0)
    methods = [method for method in paper_methods()
               if not method.parameter_free]

    def run():
        baseline_s, baseline = time_call(_score_all, methods, table, None)
        rows = []
        for name, factory in _backends(tmp_path):
            backend = factory()
            cold_store = ScoreStore(backend=backend)
            cold_s, cold = time_call(_score_all, methods, table,
                                     cold_store)
            # A fresh store over the same backend: the persistent tier
            # alone must carry the hits (no warm memory tier).
            warm_store = ScoreStore(backend=factory()
                                    if name != "kv" else backend)
            warm_s, warm = time_call(_score_all, methods, table,
                                     warm_store)
            rows.append((name, cold_s, warm_s, cold, warm,
                         warm_store.stats))
        return baseline_s, baseline, rows

    baseline_s, baseline, rows = benchmark.pedantic(run, rounds=1,
                                                    iterations=1)
    emit(format_table(
        ("backend", "cold s", "warm s", "vs recompute"),
        [(name, f"{cold_s:.3f}", f"{warm_s:.3f}",
          f"{baseline_s / warm_s:.1f}x")
         for name, cold_s, warm_s, _, _, _ in rows],
        title=f"scoring {len(methods)} methods on the Fig. 7 trade "
              f"network (serial baseline {baseline_s:.3f}s)"))

    for name, cold_s, warm_s, cold, warm, stats in rows:
        assert stats.disk_hits == len(methods), \
            f"{name}: warm pass not served from the persistent tier"
        for computed, cached_cold, cached_warm in zip(baseline, cold,
                                                      warm):
            assert np.array_equal(computed.score, cached_cold.score), \
                f"{name}: cold pass perturbed scores"
            assert np.array_equal(computed.score, cached_warm.score), \
                f"{name}: warm pass perturbed scores"
        speedup = baseline_s / warm_s
        assert speedup >= MIN_WARM_SPEEDUP, \
            f"{name}: warm only {speedup:.1f}x faster than recomputing " \
            f"(need >= {MIN_WARM_SPEEDUP}x)"


def test_migrate_preserves_service(benchmark, world, tmp_path):
    table = world.network("trade", 0)
    methods = [method for method in paper_methods()
               if not method.parameter_free]

    def run():
        source = DirectoryBackend(tmp_path / "migrate-src")
        _score_all(methods, table, ScoreStore(backend=source))
        dest = SQLiteBackend(tmp_path / "migrate.sqlite")
        migrate_s, _ = time_call(
            lambda: [dest.put(key, source.get(key, touch=False))
                     for key in source.keys()])
        migrated = ScoreStore(backend=dest)
        warm_s, served = time_call(_score_all, methods, table, migrated)
        return migrate_s, warm_s, source, dest, served, migrated.stats

    migrate_s, warm_s, source, dest, served, stats = benchmark.pedantic(
        run, rounds=1, iterations=1)
    emit(f"migrated {len(source.keys())} entries in {migrate_s:.3f}s; "
         f"warm scoring from sqlite in {warm_s:.3f}s")
    assert stats.disk_hits == len(methods)
    for key in source.keys():
        assert source.get(key, touch=False).payload \
            == dest.get(key, touch=False).payload
    # GC down to the two most recent entries keeps the cache servable.
    result = ScoreStore(backend=dest).gc(max_entries=2)
    assert result.kept == 2
    assert len(dest.keys()) == 2

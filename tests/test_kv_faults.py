"""KV retry/backoff edge cases and store degradation (ISSUE 6).

Three layers under test:

* :class:`KVBackend` retry semantics against scripted fault sequences
  (transient→transient→ok, transient→unavailable, exhaustion), with a
  fake clock proving backoff monotonicity without real sleeping;
* fault-injection parity: :meth:`InMemoryKVServer.inject_faults`
  applies to every operation the backend issues, not just reads;
* :class:`ScoreStore` degradation: a backend that goes away mid-flight
  makes the store log once, flip ``degraded``/``CacheStats`` and keep
  serving memory-only — never crash a caller.
"""

import logging

import numpy as np
import pytest

from repro.backbones.base import ScoredEdges
from repro.backbones.registry import get_method
from repro.graph.edge_table import EdgeTable
from repro.pipeline.backends import (InMemoryKVServer, KVBackend,
                                     KVTimeoutError, KVTransientError,
                                     KVUnavailableError)
from repro.pipeline.store import CacheStats, ScoreStore
from repro.serve.faults import FlakyBackend


def scored_fixture(seed=0):
    rng = np.random.default_rng(seed)
    n = 18
    src = rng.integers(0, n, 40)
    dst = rng.integers(0, n, 40)
    weight = rng.integers(1, 30, 40).astype(float)
    table = EdgeTable(src, dst, weight, n_nodes=n, directed=False)
    method = get_method("DF")
    return table, method, method.score(table)


def raw_entry(backend_cls=KVBackend):
    """A RawEntry round-trippable through any backend."""
    from repro.pipeline.backends import RawEntry
    return RawEntry(meta={"kind": "test", "n": 1}, payload=b"payload")


class FakeClock:
    """Collects sleeps instead of sleeping."""

    def __init__(self):
        self.sleeps = []

    def __call__(self, seconds):
        self.sleeps.append(seconds)


# ----------------------------------------------------------------------
# Retry / backoff semantics
# ----------------------------------------------------------------------

class TestRetrySequences:
    def test_transient_transient_ok(self):
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=3)
        server.inject_faults(KVTransientError("reset"),
                             KVTransientError("reset again"))
        backend.put("k", raw_entry())
        assert backend.contains("k")
        assert backend.retries == 2

    def test_transient_then_timeout_still_counts_and_recovers(self):
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=3)
        server.inject_faults(KVTransientError("reset"),
                             KVTimeoutError("slow"))
        backend.put("k", raw_entry())
        assert backend.retries == 2

    def test_exhaustion_is_terminal_unavailable(self):
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=3)
        server.inject_faults(*[KVTransientError(f"fault {i}")
                               for i in range(3)])
        with pytest.raises(KVUnavailableError) as info:
            backend.get("k")
        assert "3 attempts" in str(info.value)
        assert isinstance(info.value.__cause__, KVTransientError)

    def test_fault_budget_is_per_call_not_per_backend(self):
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=2)
        server.inject_faults(KVTransientError("a"), KVTransientError("b"))
        with pytest.raises(KVUnavailableError):
            backend.get("k")
        # The next call starts with a fresh attempt budget.
        backend.put("k", raw_entry())
        assert backend.contains("k")

    def test_max_attempts_one_means_no_retry(self):
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=1)
        server.inject_faults(KVTransientError("once"))
        with pytest.raises(KVUnavailableError):
            backend.get("k")
        assert backend.retries == 1

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            KVBackend(InMemoryKVServer(), max_attempts=0)


class TestBackoff:
    def test_backoff_doubles_monotonically(self):
        clock = FakeClock()
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=4, retry_wait=0.1,
                            sleep=clock)
        server.inject_faults(*[KVTransientError(str(i))
                               for i in range(4)])
        with pytest.raises(KVUnavailableError):
            backend.get("k")
        # One wait per retry except after the final attempt.
        assert clock.sleeps == pytest.approx([0.1, 0.2, 0.4])
        assert all(b > a for a, b in zip(clock.sleeps,
                                         clock.sleeps[1:]))

    def test_no_wait_after_final_attempt(self):
        clock = FakeClock()
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=2, retry_wait=0.5,
                            sleep=clock)
        server.inject_faults(KVTransientError("a"), KVTransientError("b"))
        with pytest.raises(KVUnavailableError):
            backend.get("k")
        assert clock.sleeps == [0.5]

    def test_zero_retry_wait_never_sleeps(self):
        clock = FakeClock()
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=3, sleep=clock)
        server.inject_faults(KVTransientError("a"))
        backend.put("k", raw_entry())
        assert clock.sleeps == []

    def test_success_path_never_sleeps(self):
        clock = FakeClock()
        backend = KVBackend(InMemoryKVServer(), max_attempts=3,
                            retry_wait=1.0, sleep=clock)
        backend.put("k", raw_entry())
        assert backend.get("k").payload == b"payload"
        assert clock.sleeps == []


class TestFaultParityAcrossOps:
    """inject_faults fires on whatever op comes next — get, put, delete."""

    @pytest.mark.parametrize("op", ["get", "put", "delete", "contains",
                                    "keys", "entries"])
    def test_single_transient_fault_is_healed_for(self, op):
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=2)
        backend.put("k", raw_entry())
        server.inject_faults(KVTransientError("hiccup"))
        result = {
            "get": lambda: backend.get("k").payload,
            "put": lambda: backend.put("k2", raw_entry()) or True,
            "delete": lambda: backend.delete("k"),
            "contains": lambda: backend.contains("k"),
            "keys": lambda: backend.keys(),
            "entries": lambda: backend.entries(),
        }[op]()
        assert result not in (None, False)
        assert backend.retries == 1

    @pytest.mark.parametrize("op", ["get", "put", "delete"])
    def test_exhaustion_parity_for(self, op):
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=2)
        server.inject_faults(*[KVTransientError(str(i))
                               for i in range(2)])
        call = {
            "get": lambda: backend.get("k"),
            "put": lambda: backend.put("k", raw_entry()),
            "delete": lambda: backend.delete("k"),
        }[op]
        with pytest.raises(KVUnavailableError):
            call()


# ----------------------------------------------------------------------
# Store degradation (satellite: degrade, don't crash)
# ----------------------------------------------------------------------

class TestStoreDegradation:
    def _store_with_flaky(self):
        inner = KVBackend(InMemoryKVServer(), max_attempts=1)
        flaky = FlakyBackend(inner)
        return ScoreStore(backend=flaky), flaky

    def test_get_put_survive_outage_memory_only(self, caplog):
        table, method, scored = scored_fixture()
        store, flaky = self._store_with_flaky()
        flaky.outage()
        with caplog.at_level(logging.WARNING, logger="repro.pipeline"):
            store.put("key", scored)          # backend write fails
            assert store.get("key") is not None  # memory tier serves
        assert store.degraded
        assert store.stats.degraded
        assert store.stats.backend_failures >= 1

    def test_degradation_logs_once(self, caplog):
        table, method, scored = scored_fixture()
        store, flaky = self._store_with_flaky()
        flaky.outage()
        with caplog.at_level(logging.WARNING, logger="repro.pipeline"):
            store.put("a", scored)
            store.put("b", scored)
            _ = "c" in store
        warnings = [r for r in caplog.records
                    if "degrading" in r.getMessage()]
        assert len(warnings) == 1

    def test_degraded_store_skips_backend_entirely(self):
        table, method, scored = scored_fixture()
        store, flaky = self._store_with_flaky()
        flaky.outage()
        store.put("a", scored)
        calls_after_trip = len(flaky.calls)
        store.put("b", scored)
        store.get("b")
        assert "b" in store
        assert len(flaky.calls) == calls_after_trip, \
            "a degraded store must not hammer a dead backend"

    def test_probe_backend_restores_service(self):
        table, method, scored = scored_fixture()
        store, flaky = self._store_with_flaky()
        flaky.outage()
        store.put("a", scored)
        assert store.degraded
        assert not store.probe_backend()  # still down
        flaky.restore()
        assert store.probe_backend()
        assert not store.degraded
        store.put("b", scored)
        assert flaky.inner.contains("b")

    def test_transient_fault_inside_backend_is_invisible(self):
        """The KV retry layer absorbs transients before the store sees
        anything — no degradation for a single hiccup."""
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=3)
        store = ScoreStore(backend=backend)
        table, method, scored = scored_fixture()
        server.inject_faults(KVTransientError("hiccup"))
        store.put("k", scored)
        assert not store.degraded
        store2 = ScoreStore(backend=KVBackend(server, max_attempts=3))
        assert store2.get("k") is not None

    def test_get_or_compute_keeps_working_degraded(self):
        table, method, scored = scored_fixture()
        store, flaky = self._store_with_flaky()
        flaky.outage()
        calls = []

        def compute():
            calls.append(1)
            return method.score(table)

        first = store.get_or_compute("k", compute)
        second = store.get_or_compute("k", compute)
        assert isinstance(first, ScoredEdges)
        assert len(calls) == 1, "memory tier must still deduplicate"
        assert second is not None
        assert store.degraded

    def test_merged_worker_stats_leave_parent_flag_alone(self):
        """A worker whose backend failed ships ``degraded=True``; the
        parent still has a working backend, so only the failure count
        folds in."""
        store = ScoreStore(backend=KVBackend(InMemoryKVServer()))
        store.stats.merge(CacheStats(backend_failures=1, degraded=True))
        assert not store.degraded
        assert not store.stats.degraded
        assert store.stats.backend_failures == 1
        assert "DEGRADED" not in store.stats.summary()

    def test_worker_spec_is_none_when_degraded(self):
        store, flaky = self._store_with_flaky()
        table, method, scored = scored_fixture()
        flaky.outage()
        store.put("k", scored)
        assert store.degraded
        assert store.worker_spec() is None, \
            "workers must ship results back, not reopen a dead backend"

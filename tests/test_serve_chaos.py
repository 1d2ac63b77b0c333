"""Chaos tests: every degradation path in ISSUE 6, provoked on purpose.

Each test injects exactly one failure through
:mod:`repro.serve.faults` and asserts the promised degradation — not
merely "no crash", but the *specific* downgraded behavior: memory-only
recompute with the ``degraded`` flag, serial retry with bit-identical
results, per-plan structured errors with untouched batchmates.
"""

import numpy as np

from repro.backbones.doubly_stochastic import SinkhornConvergenceError
from repro.backbones.registry import get_method
from repro.flow import flow, serve
from repro.graph.edge_table import EdgeTable
from repro.pipeline.backends import (InMemoryKVServer, KVBackend,
                                     KVTransientError)
from repro.pipeline.store import ScoreStore
from repro.serve import BackboneDaemon, ServeClient, serve_isolated
from repro.serve.faults import (ChaosFailure, ChaosMethod, FlakyBackend,
                                KillWorkerOnce, RaiseOnce)


def random_table(seed=0, n_nodes=26, n_edges=100):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    weight = rng.integers(1, 60, n_edges).astype(float)
    return EdgeTable(src, dst, weight, n_nodes=n_nodes, directed=False)


def flaky_store():
    flaky = FlakyBackend(KVBackend(InMemoryKVServer(), max_attempts=1))
    return ScoreStore(backend=flaky), flaky


# ----------------------------------------------------------------------
# Path 1: backend outage → memory-only fallback, degraded flag
# ----------------------------------------------------------------------

class TestBackendOutage:
    def test_serve_falls_back_to_memory_and_flags_degraded(self):
        table = random_table()
        store, flaky = flaky_store()
        flaky.outage()
        plans = [flow(table).method("NC", delta=d) for d in (1.0, 2.0)]
        results = serve(plans, store=store)
        assert all(r.ok for r in results)
        assert store.degraded
        assert store.stats.degraded
        # Memory tier still deduplicates: one scoring pass.
        assert store.stats.puts == 1

    def test_daemon_response_carries_degraded_flag(self, tmp_path):
        table = random_table(1)
        store, flaky = flaky_store()
        flaky.outage()
        from repro.graph.ingest import write_edges
        path = tmp_path / "edges.csv"
        write_edges(table, path)
        plan = flow(str(path)).method("NC", delta=1.5)
        with BackboneDaemon(port=0, store=store) as daemon:
            client = ServeClient(port=daemon.port)
            reply = client.run([plan.to_json()])
            assert reply["results"][0]["ok"]
            assert reply["degraded"] is True
            assert client.status()["degraded"] is True

    def test_outage_mid_session_keeps_earlier_results_served(self):
        table = random_table(2)
        store, flaky = flaky_store()
        plan = flow(table).method("DF").budget(share=0.2)
        healthy = serve([plan], store=store)[0]
        assert not store.degraded
        flaky.outage()
        degraded = serve([plan], store=store)[0]
        assert degraded.ok
        assert degraded.backbone == healthy.backbone
        # Served from the memory tier without touching the dead backend.
        assert store.stats.memory_hits >= 1

    def test_recovery_via_probe_restores_writes(self):
        table = random_table(3)
        store, flaky = flaky_store()
        flaky.outage()
        serve([flow(table).method("DF").budget(share=0.2)], store=store)
        assert store.degraded
        flaky.restore()
        assert store.probe_backend()
        serve([flow(table).method("NT").budget(share=0.2)], store=store)
        assert not store.degraded
        assert len(flaky.inner.keys()) >= 1


# ----------------------------------------------------------------------
# Path 2: worker death → serial retry, identical results
# ----------------------------------------------------------------------

class TestWorkerDeath:
    def _methods(self, tmp_path):
        nt = get_method("NT")
        df = get_method("DF")
        killer = ChaosMethod(nt, hooks=[KillWorkerOnce(
            str(tmp_path / "killed"))])
        return killer, ChaosMethod(df)

    def test_killed_worker_degrades_to_serial_and_matches(self, tmp_path):
        table = random_table(4)
        killer, plain = self._methods(tmp_path)
        plans = [flow(table).method(killer).budget(share=0.4),
                 flow(table).method(plain).budget(share=0.4)]
        results = serve(plans, workers=2)
        assert all(r.ok for r in results), \
            [str(r.error) for r in results]
        assert (tmp_path / "killed").exists(), \
            "the kill hook must actually have fired"
        # Bit-identical to the unwrapped methods' own extractions.
        assert results[0].backbone \
            == get_method("NT").extract(table, share=0.4)
        assert results[1].backbone \
            == get_method("DF").extract(table, share=0.4)

    def test_daemon_survives_worker_death(self, tmp_path):
        table = random_table(5)
        killer, plain = self._methods(tmp_path)
        with BackboneDaemon(port=0, workers=2) as daemon:
            results = daemon.submit(
                [flow(table).method(killer).budget(share=0.4),
                 flow(table).method(plain).budget(share=0.4)],
                deadline=60.0)
            assert all(r.ok for r in results)
            assert ServeClient(port=daemon.port).healthy()


# ----------------------------------------------------------------------
# Path 3: per-plan scoring failure → batch unaffected
# ----------------------------------------------------------------------

class TestPerPlanFailure:
    def test_sinkhorn_failure_isolated_in_daemon_batch(self, tmp_path):
        # A star graph cannot be balanced: DS fails deterministically.
        star = EdgeTable([0, 0, 0], [1, 2, 3], [5.0, 4.0, 3.0],
                         directed=False)
        with BackboneDaemon(port=0) as daemon:
            results = daemon.submit(
                [flow(star).method("DS"),
                 flow(star).method("NT").budget(share=0.5)])
            assert isinstance(results[0].error,
                              SinkhornConvergenceError)
            assert results[1].ok and results[1].backbone.m > 0
            # And the daemon still serves the next request.
            again = daemon.submit(
                [flow(star).method("NT").budget(share=0.5)])
            assert again[0].ok

    def test_chaos_failure_fails_one_plan_not_the_batch(self, tmp_path):
        table = random_table(6)
        # No flag file reuse across plans: this hook fires on the
        # serial scoring path and is re-raised for its plan only.
        flag = str(tmp_path / "raised")
        bad = ChaosMethod(get_method("NT"),
                          hooks=[RaiseOnce(flag), RaiseOnce(flag)])
        good = ChaosMethod(get_method("DF"))
        results = serve_isolated(
            [flow(table).method(bad).budget(share=0.4),
             flow(table).method(good).budget(share=0.4)])
        assert isinstance(results[0].error, ChaosFailure)
        assert results[1].ok

    def test_transient_scoring_failure_healed_by_worker_retry(
            self, tmp_path):
        # The hook fires once, inside a worker; the worker ships
        # nothing back, and the parent's serial pass recomputes
        # cleanly — a transient fault costs a recompute, not an error.
        table = random_table(7)
        once = ChaosMethod(get_method("NT"),
                           hooks=[RaiseOnce(str(tmp_path / "flag"))])
        plain = ChaosMethod(get_method("DF"))
        results = serve(
            [flow(table).method(once).budget(share=0.4),
             flow(table).method(plain).budget(share=0.4)],
            workers=2)
        assert all(r.ok for r in results), \
            [str(r.error) for r in results]
        assert (tmp_path / "flag").exists()


# ----------------------------------------------------------------------
# Transient backend faults below the degradation threshold
# ----------------------------------------------------------------------

class TestTransientBackendFaults:
    def test_single_transient_fault_absorbed_by_kv_retries(self):
        table = random_table(8)
        server = InMemoryKVServer()
        backend = KVBackend(server, max_attempts=3)
        store = ScoreStore(backend=backend)
        server.inject_faults(KVTransientError("blip"))
        results = serve([flow(table).method("DF").budget(share=0.3)],
                        store=store)
        assert results[0].ok
        assert not store.degraded
        assert backend.retries == 1

    def test_fault_sequence_transient_then_outage_degrades(self):
        table = random_table(9)
        store, flaky = flaky_store()
        flaky.inject(KVTransientError("blip"))
        flaky.outage()  # after the queued fault drains
        results = serve([flow(table).method("DF").budget(share=0.3)],
                        store=store)
        assert results[0].ok
        assert store.degraded


class TestChaosHarnessItself:
    def test_chaos_method_is_fingerprint_stable(self):
        from repro.pipeline.fingerprint import fingerprint_method
        nt = get_method("NT")
        a = fingerprint_method(ChaosMethod(nt))
        b = fingerprint_method(ChaosMethod(nt))
        assert a == b
        assert a != fingerprint_method(nt)
        assert a != fingerprint_method(ChaosMethod(get_method("DF")))

    def test_chaos_method_scores_match_inner(self):
        table = random_table(10)
        nt = get_method("NT")
        chaos = ChaosMethod(nt)
        assert chaos.score(table).score.tolist() \
            == nt.score(table).score.tolist()

    def test_flaky_backend_records_operations(self):
        flaky = FlakyBackend(KVBackend(InMemoryKVServer()))
        flaky.contains("x")
        flaky.keys()
        assert flaky.calls == ["contains", "keys"]

    def test_flaky_spec_is_process_local(self):
        flaky = FlakyBackend(KVBackend(InMemoryKVServer()))
        assert flaky.spec() is None

    def test_latency_uses_injected_sleep(self):
        sleeps = []
        flaky = FlakyBackend(KVBackend(InMemoryKVServer()),
                             latency=0.25, sleep=sleeps.append)
        flaky.contains("x")
        assert sleeps == [0.25]

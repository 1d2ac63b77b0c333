"""Tests for the repro.pipeline subsystem.

Covers the cache-correctness contract: fingerprints identify content
exactly, cached ``ScoredEdges`` round-trip bit-identically, poisoned
store entries are detected and recomputed (never served), and cached
and sharded execution through :func:`repro.flow.serve` matches direct
scoring by the methods themselves, with the store's traffic counted
once per request.
"""

import importlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_reference import direct_sweep, direct_table2_ratios

from repro.backbones.base import ScoredEdges
from repro.backbones.disparity import DisparityFilter
from repro.backbones.doubly_stochastic import SinkhornConvergenceError
from repro.backbones.high_salience import HighSalienceSkeleton
from repro.backbones.kcore import KCore
from repro.backbones.mst import MaximumSpanningTree
from repro.backbones.naive import NaiveThreshold
from repro.backbones.registry import paper_methods
from repro.core.noise_corrected import (NoiseCorrectedBackbone,
                                        NoiseCorrectedPValue)
from repro.flow import flow, serve, sweep_methods
from repro.flow.spec import MetricSpec
from repro.graph.edge_table import EdgeTable
from repro.pipeline import (CoverageMetric, DensityMetric, ScoreStore,
                            SQLiteBackend, fingerprint_method,
                            fingerprint_table, score_with_store)


def random_table(seed: int, n_nodes: int = 24, n_edges: int = 80,
                 directed: bool = False) -> EdgeTable:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    weight = rng.integers(1, 60, n_edges).astype(float)
    return EdgeTable(src, dst, weight, n_nodes=n_nodes, directed=directed)


def count_scoring(monkeypatch, *classes):
    """Record the code of every ``score`` call on ``classes``."""
    calls = []
    for cls in classes:
        original = cls.score

        def counting(self, arg, _original=original):
            calls.append(self.code)
            return _original(self, arg)

        monkeypatch.setattr(cls, "score", counting)
    return calls


def assert_scored_identical(a: ScoredEdges, b: ScoredEdges) -> None:
    """Bit-identity across every field the cache must preserve."""
    assert np.array_equal(a.score, b.score)
    if a.sdev is None:
        assert b.sdev is None
    else:
        assert np.array_equal(a.sdev, b.sdev)
    assert a.method == b.method
    assert a.info == b.info
    assert np.array_equal(a.table.src, b.table.src)
    assert np.array_equal(a.table.dst, b.table.dst)
    assert np.array_equal(a.table.weight, b.table.weight)
    assert a.table.n_nodes == b.table.n_nodes
    assert a.table.directed == b.table.directed
    assert a.table.labels == b.table.labels


class TestFingerprints:
    def test_table_fingerprint_deterministic(self):
        table = random_table(0)
        assert fingerprint_table(table) == fingerprint_table(table.copy())

    def test_table_fingerprint_sees_weights(self):
        table = random_table(1)
        bumped = table.with_weights(table.weight + 1.0)
        assert fingerprint_table(table) != fingerprint_table(bumped)

    def test_table_fingerprint_sees_directedness(self):
        directed = random_table(2, directed=True)
        undirected = EdgeTable(directed.src, directed.dst, directed.weight,
                               n_nodes=directed.n_nodes, directed=False)
        assert fingerprint_table(directed) != fingerprint_table(undirected)

    def test_table_fingerprint_sees_labels(self):
        table = random_table(3, n_nodes=5, n_edges=8)
        labeled = EdgeTable(table.src, table.dst, table.weight,
                            n_nodes=5, labels=[f"n{i}" for i in range(5)])
        plain = EdgeTable(table.src, table.dst, table.weight, n_nodes=5)
        assert fingerprint_table(labeled) != fingerprint_table(plain)

    def test_method_fingerprint_sees_score_parameters(self):
        # roots/seed change the (sampled) salience estimate itself.
        assert fingerprint_method(HighSalienceSkeleton(roots=8, seed=0)) \
            != fingerprint_method(HighSalienceSkeleton(roots=8, seed=1))
        assert fingerprint_method(NoiseCorrectedBackbone()) \
            != fingerprint_method(
                NoiseCorrectedBackbone(use_posterior=False))

    def test_method_fingerprint_ignores_extraction_only_knobs(self):
        # delta/k/default_threshold shape only the filter phase, so
        # different strictness settings share one cached scored table.
        assert fingerprint_method(NoiseCorrectedBackbone(delta=1.64)) \
            == fingerprint_method(NoiseCorrectedBackbone(delta=2.32))
        assert fingerprint_method(KCore(k=2)) \
            == fingerprint_method(KCore(k=3))
        assert fingerprint_method(HighSalienceSkeleton()) \
            == fingerprint_method(
                HighSalienceSkeleton(default_threshold=0.7))

    def test_method_fingerprint_ignores_workers(self):
        # workers= changes wall-clock only, never scores.
        assert fingerprint_method(HighSalienceSkeleton(workers=4)) \
            == fingerprint_method(HighSalienceSkeleton(workers=None))

    def test_nc_delta_variants_share_one_cache_entry(self, tmp_path):
        table = random_table(24)
        store = ScoreStore(tmp_path)
        loose = flow(table).method(NoiseCorrectedBackbone(delta=0.5)) \
            .run(store=store).backbone
        strict = flow(table).method(NoiseCorrectedBackbone(delta=3.0)) \
            .run(store=store).backbone
        assert store.stats.misses == 1 and store.stats.hits == 1
        assert loose == NoiseCorrectedBackbone(delta=0.5).extract(table)
        assert strict == NoiseCorrectedBackbone(delta=3.0).extract(table)

    def test_method_fingerprint_separates_classes(self):
        assert fingerprint_method(NaiveThreshold()) \
            != fingerprint_method(MaximumSpanningTree())


class TestScoreStoreRoundTrip:
    def test_memory_round_trip(self):
        store = ScoreStore()
        scored = NoiseCorrectedBackbone().score(random_table(4))
        store.put("key", scored)
        assert store.get("key") is scored
        assert store.stats.memory_hits == 1

    def test_disk_round_trip_bit_identical(self, tmp_path):
        store = ScoreStore(tmp_path)
        scored = NoiseCorrectedBackbone().score(random_table(5))
        store.put("key", scored)
        store.clear_memory()
        loaded = store.get("key")
        assert store.stats.disk_hits == 1
        assert_scored_identical(loaded, scored)

    def test_disk_round_trip_preserves_info_and_labels(self, tmp_path):
        table = random_table(6, n_nodes=10, n_edges=30)
        labeled = EdgeTable(table.src, table.dst, table.weight,
                            n_nodes=10,
                            labels=[f"c{i}" for i in range(10)],
                            directed=False)
        scored = HighSalienceSkeleton(roots=4, seed=7).score(labeled)
        assert scored.info is not None
        store = ScoreStore(tmp_path)
        store.put("key", scored)
        store.clear_memory()
        assert_scored_identical(store.get("key"), scored)

    def test_round_trip_preserves_table_order(self, tmp_path):
        # top_k output order must survive so budget filters match exactly.
        scored = DisparityFilter().score(random_table(7))
        store = ScoreStore(tmp_path)
        store.put("key", scored)
        store.clear_memory()
        loaded = store.get("key")
        assert np.array_equal(loaded.top_k(11).weight,
                              scored.top_k(11).weight)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           directed=st.booleans(),
           method_index=st.integers(0, 3))
    def test_property_round_trip_bit_identical(self, tmp_path_factory,
                                               seed, directed,
                                               method_index):
        method = (NoiseCorrectedBackbone(), DisparityFilter(),
                  NaiveThreshold(),
                  HighSalienceSkeleton(roots=3, seed=1))[method_index]
        table = random_table(seed, n_nodes=12, n_edges=40,
                             directed=directed)
        scored = method.score(table)
        store = ScoreStore(tmp_path_factory.mktemp("prop"))
        store.put("key", scored)
        store.clear_memory()
        assert_scored_identical(store.get("key"), scored)

    def test_lru_eviction(self):
        store = ScoreStore(memory_items=2)
        scored = NaiveThreshold().score(random_table(8))
        for key in ("a", "b", "c"):
            store.put(key, scored)
        assert store.get("a") is None  # evicted, no disk tier
        assert store.stats.evictions == 1


class TestScoreStorePoisoning:
    def _stored(self, tmp_path):
        store = ScoreStore(tmp_path)
        scored = NoiseCorrectedBackbone().score(random_table(9))
        store.put("key", scored)
        store.clear_memory()
        npz_path, json_path = store.backend._paths("key")
        return store, scored, npz_path, json_path

    def test_truncated_npz_is_a_miss(self, tmp_path):
        store, _, npz_path, _ = self._stored(tmp_path)
        npz_path.write_bytes(npz_path.read_bytes()[:40])
        assert store.get("key") is None
        assert store.stats.corrupt == 1

    def test_tampered_scores_detected_by_digest(self, tmp_path):
        store, scored, npz_path, _ = self._stored(tmp_path)
        # Rewrite the entry with poisoned scores but the old sidecar:
        # the payload digest no longer matches, so it must not be served.
        poisoned = {
            "src": scored.table.src.astype(np.int64),
            "dst": scored.table.dst.astype(np.int64),
            "weight": scored.table.weight,
            "score": scored.score + 1e-9,
            "sdev": scored.sdev,
        }
        with open(npz_path, "wb") as handle:
            np.savez(handle, **poisoned)
        assert store.get("key") is None
        assert store.stats.corrupt == 1

    def test_garbage_sidecar_is_a_miss(self, tmp_path):
        store, _, _, json_path = self._stored(tmp_path)
        json_path.write_text("{not json")
        assert store.get("key") is None
        assert store.stats.corrupt == 1

    def test_poisoned_entry_is_recomputed_and_healed(self, tmp_path):
        store, scored, npz_path, _ = self._stored(tmp_path)
        npz_path.write_bytes(b"garbage")
        calls = []

        def recompute():
            calls.append(1)
            return scored

        served = store.get_or_compute("key", recompute)
        assert calls == [1]  # recomputed, not served from the bad entry
        assert_scored_identical(served, scored)
        store.clear_memory()
        assert_scored_identical(store.get("key"), scored)  # healed

    def test_half_written_entry_is_quarantined(self, tmp_path):
        # Crash between the npz and json renames: the remnant must not
        # count as cached, and the next read clears it for rewriting.
        store, scored, npz_path, json_path = self._stored(tmp_path)
        json_path.unlink()
        assert "key" not in store
        assert store.get("key") is None
        assert store.stats.corrupt == 1
        assert not npz_path.exists()  # remnant cleared
        store.adopt("key", scored)  # adopt may heal it now
        store.clear_memory()
        assert_scored_identical(store.get("key"), scored)

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store, _, _, json_path = self._stored(tmp_path)
        meta = json.loads(json_path.read_text())
        meta["schema"] = -1
        json_path.write_text(json.dumps(meta))
        assert store.get("key") is None


class TestExecutor:
    """Cached and sharded sweeps, served through ``flow.serve``."""

    def test_cached_and_sharded_match_serial(self, tmp_path):
        table = random_table(10, n_nodes=30, n_edges=140)
        methods = paper_methods()
        metric = CoverageMetric(table)
        direct = direct_sweep(methods, table, metric)
        plain = sweep_methods(methods, table, metric)
        store = ScoreStore(tmp_path)
        cached = sweep_methods(methods, table, metric, store=store)
        warm = sweep_methods(methods, table, metric, store=store)
        sharded = sweep_methods(methods, table, metric, store=store,
                                workers=2)
        assert direct == plain == cached == warm == sharded
        assert store.stats.hits > 0

    def test_cached_and_sharded_raise_what_serial_raises(self):
        # Self-loops only: NC's grand total is zero. Scoring NC
        # directly raises; plain, cached and sharded sweeps must raise
        # the same error, not fold it into an empty "n/a" series. (Two
        # methods, so workers=2 really fans the scoring out.)
        table = EdgeTable([0, 1], [0, 1], [1.0, 2.0], directed=False)
        methods = [NaiveThreshold(), NoiseCorrectedBackbone()]
        with pytest.raises(ValueError, match="grand_total") as direct:
            direct_sweep(methods, table, DensityMetric())
        for store, workers in ((None, None), (ScoreStore(), None),
                               (ScoreStore(), 2)):
            with pytest.raises(ValueError, match="grand_total") as info:
                sweep_methods(methods, table, DensityMetric(),
                              store=store, workers=workers)
            assert str(info.value) == str(direct.value)

    def test_warm_store_skips_rescoring(self, tmp_path, monkeypatch):
        table = random_table(11)
        store = ScoreStore(tmp_path)
        sweep_methods([NaiveThreshold()], table, DensityMetric(),
                      store=store)
        calls = count_scoring(monkeypatch, NaiveThreshold)
        sweep_methods([NaiveThreshold()], table, DensityMetric(),
                      store=store)
        assert calls == []

    def test_interrupted_sweep_resumes_from_store(self, tmp_path,
                                                  monkeypatch):
        table = random_table(12)
        store = ScoreStore(tmp_path)
        methods = [NaiveThreshold(), DisparityFilter(),
                   NoiseCorrectedBackbone()]
        # "Interruption": only the first two methods completed.
        sweep_methods(methods[:2], table, DensityMetric(), store=store)
        scored_codes = count_scoring(monkeypatch, NaiveThreshold,
                                     DisparityFilter,
                                     NoiseCorrectedBackbone)
        result = sweep_methods(methods, table, DensityMetric(),
                               store=store)
        assert scored_codes == ["NC"]  # only the missing method scored
        assert set(result) == {"NT", "DF", "NC"}
        assert (store.stats.misses, store.stats.puts) == (3, 3)
        assert store.stats.memory_hits == 2

    def test_memory_only_store_caches_across_workers(self):
        # Regression: workers used to bypass a store with no disk tier,
        # and each cold key was then counted twice (a miss in the
        # worker plus a hit when the parent read the adopted entry).
        table = random_table(23)
        store = ScoreStore()  # memory-only
        methods = [NaiveThreshold(), DisparityFilter()]
        first = sweep_methods(methods, table, DensityMetric(),
                              store=store, workers=2)
        assert len(store) == 2  # worker results adopted by the parent
        assert store.stats.puts == 2 and store.stats.misses == 2
        assert store.stats.requests == 2
        second = sweep_methods(methods, table, DensityMetric(),
                               store=store)
        assert first == second
        assert store.stats.memory_hits == 2  # served without rescoring

    def test_directory_store_counts_cold_sharded_keys_once(self,
                                                           tmp_path):
        table = random_table(28)
        store = ScoreStore(tmp_path)
        methods = [NaiveThreshold(), DisparityFilter()]
        sharded = sweep_methods(methods, table, DensityMetric(),
                                store=store, workers=2)
        assert (store.stats.misses, store.stats.puts) == (2, 2)
        assert store.stats.hits == 0
        assert sharded == direct_sweep(methods, table, DensityMetric())

    def test_warm_parent_store_serves_sharded_sweeps(self, monkeypatch):
        # Regression: a warm memory-only store must be consulted before
        # shipping scoring requests to workers, or everything is
        # recomputed. (importlib: ``repro.flow.serve`` is also the name
        # of the serve() function.)
        serve_mod = importlib.import_module("repro.flow.serve")
        table = random_table(25)
        store = ScoreStore()
        methods = [NaiveThreshold(), DisparityFilter()]
        sweep_methods(methods, table, DensityMetric(), store=store)
        calls = count_scoring(monkeypatch, NaiveThreshold,
                              DisparityFilter)
        shipped = []
        original = serve_mod.parallel_map

        def spying(fn, items, **kwargs):
            items = list(items)
            shipped.extend(items)
            return original(fn, items, **kwargs)

        monkeypatch.setattr(serve_mod, "parallel_map", spying)
        sweep_methods(methods, table, DensityMetric(), store=store,
                      workers=2)
        assert calls == []  # served from the parent memory tier
        assert shipped == []  # nothing shipped to workers

    def test_unscorable_method_maps_to_empty_series(self):
        class Unbalanceable(NaiveThreshold):
            def score(self, table):
                raise SinkhornConvergenceError("nope")

        table = random_table(13)
        series = sweep_methods([Unbalanceable()], table, DensityMetric(),
                               store=ScoreStore())
        assert series["NT"].shares == [] and series["NT"].values == []

    def test_parameter_free_series_matches_serial(self, tmp_path):
        table = random_table(14)
        direct = direct_sweep([MaximumSpanningTree()], table,
                              DensityMetric())
        plain = sweep_methods([MaximumSpanningTree()], table,
                              DensityMetric())
        cached = sweep_methods([MaximumSpanningTree()], table,
                               DensityMetric(),
                               store=ScoreStore(tmp_path))
        assert direct == plain == cached
        assert cached["MST"].parameter_free


class TestPipelineFacade:
    """Score once, extract many times: plan runs over one store."""

    @pytest.mark.parametrize("method", [
        NoiseCorrectedBackbone(delta=1.0),
        NoiseCorrectedPValue(delta=1.0),
        HighSalienceSkeleton(),
        KCore(k=2),
        MaximumSpanningTree(),
        NaiveThreshold(),
        DisparityFilter(),
    ], ids=lambda m: m.code)
    def test_cached_extract_matches_direct(self, tmp_path, method):
        table = random_table(17, n_nodes=20, n_edges=90)
        store = ScoreStore(tmp_path)
        plan = flow(table).method(method)

        def extract(**budget):
            staged = plan.budget(**budget) if budget else plan
            return staged.run(store=store).backbone

        if method.parameter_free:
            assert extract() == method.extract(table)
        elif method.code in ("NC", "NCp", "HSS", "KC"):
            assert extract() == method.extract(table)
            assert extract(n_edges=12) \
                == method.extract(table, n_edges=12)
        else:
            assert extract(share=0.25) \
                == method.extract(table, share=0.25)

    def test_extract_hits_cache_across_budgets(self, tmp_path):
        table = random_table(18)
        store = ScoreStore(tmp_path)
        plan = flow(table).method(NoiseCorrectedBackbone())
        plan.budget(n_edges=10).run(store=store)
        plan.budget(n_edges=20).run(store=store)
        plan.budget(share=0.5).run(store=store)
        assert store.stats.misses == 1
        assert store.stats.hits == 2

    def test_warm_serial_and_parallel(self, tmp_path):
        table = random_table(19)
        plans = [flow(table).method(method).budget(share=0.5)
                 for method in (NaiveThreshold(), DisparityFilter())]
        store = ScoreStore(tmp_path)
        assert all(result.ok for result in serve(plans, store=store))
        assert len(store) == 2
        fresh = ScoreStore()  # memory-only store
        assert all(result.ok
                   for result in serve(plans, store=fresh, workers=2))
        plans[0].scores(store=fresh)
        assert fresh.stats.hits >= 1

    def test_named_metric_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown metric"):
            MetricSpec("sparkle").build(random_table(21))

    def test_score_with_store_without_store(self):
        table = random_table(22)
        scored = score_with_store(NaiveThreshold(), table, None)
        assert scored.m == table.without_self_loops().m

    def test_default_budget_hook(self):
        assert NaiveThreshold().default_budget() is None
        assert HighSalienceSkeleton(default_threshold=0.7) \
            .default_budget() == {"threshold": 0.7}
        assert KCore(k=3).default_budget() == {"threshold": 2.5}
        assert NoiseCorrectedBackbone().default_budget() \
            == {"threshold": 0.0}
        ncp = NoiseCorrectedPValue(delta=1.64)
        assert ncp.default_budget() == {"threshold": 1.0 - ncp.p_cut}


class TestNegativeCaching:
    """Sinkhorn non-convergence is probed once per store, not per sweep."""

    def unbalanceable(self) -> EdgeTable:
        # An undirected star: the doubled adjacency lacks total support
        # (hub column needs mass 2, row only provides 1), so Sinkhorn
        # runs its full 1000-iteration probe and gives up.
        return EdgeTable.from_pairs([(0, 1, 1.0), (0, 2, 1.0)],
                                    directed=False)

    def counting_sinkhorn(self, monkeypatch):
        from repro.backbones import doubly_stochastic as ds_module

        calls = []
        original = ds_module.sinkhorn_knopp

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(ds_module, "sinkhorn_knopp", counting)
        return calls

    def test_repeat_sweep_skips_sinkhorn_probe(self, tmp_path,
                                               monkeypatch):
        from repro.backbones.doubly_stochastic import DoublyStochastic

        calls = self.counting_sinkhorn(monkeypatch)
        table = self.unbalanceable()
        store = ScoreStore(tmp_path)
        first = sweep_methods([DoublyStochastic()], table,
                              DensityMetric(), store=store)
        assert calls == [1]
        assert first["DS"].shares == []  # the paper's "n/a" cell
        second = sweep_methods([DoublyStochastic()], table,
                               DensityMetric(), store=store)
        assert calls == [1]  # zero Sinkhorn iterations the second time
        assert second == first
        assert store.stats.negative_hits == 1
        assert store.stats.negative_puts == 1

    def test_negative_survives_process_restart(self, tmp_path,
                                               monkeypatch):
        from repro.backbones.doubly_stochastic import DoublyStochastic

        table = self.unbalanceable()
        sweep_methods([DoublyStochastic()], table, DensityMetric(),
                      store=ScoreStore(tmp_path))
        calls = self.counting_sinkhorn(monkeypatch)
        fresh = ScoreStore(tmp_path)  # same directory, empty memory tier
        series = sweep_methods([DoublyStochastic()], table,
                               DensityMetric(), store=fresh)
        assert calls == []  # served from the persisted negative entry
        assert series["DS"].shares == []
        assert fresh.stats.negative_hits == 1

    def test_negative_cached_in_memory_only_store(self, monkeypatch):
        from repro.backbones.doubly_stochastic import DoublyStochastic

        calls = self.counting_sinkhorn(monkeypatch)
        store = ScoreStore()
        for _ in range(3):
            sweep_methods([DoublyStochastic()], self.unbalanceable(),
                          DensityMetric(), store=store)
        assert calls == [1]
        assert store.stats.negative_hits == 2


class TestSQLiteThroughPipeline:
    def test_sqlite_store_matches_serial_and_shards(self, tmp_path):
        table = random_table(26, n_nodes=30, n_edges=140)
        methods = paper_methods()
        metric = CoverageMetric(table)
        direct = direct_sweep(methods, table, metric)
        store = ScoreStore(tmp_path / "scores.sqlite")
        cold = sweep_methods(methods, table, metric, store=store)
        warm = sweep_methods(methods, table, metric, store=store)
        sharded = sweep_methods(methods, table, metric, store=store,
                                workers=2)
        assert direct == cold == warm == sharded
        assert store.stats.hits > 0

    def test_workers_share_sqlite_file(self, tmp_path, monkeypatch):
        # A fresh store over the same file is warm — workers wrote
        # their scored tables through the sqlite:// worker spec.
        table = random_table(27)
        path = tmp_path / "scores.sqlite"
        store = ScoreStore(path)
        assert store.worker_spec().startswith("sqlite://")
        # Forked workers run this spy too, but append to their own copy
        # of the list: only writes made by this process show up here.
        parent_writes = []
        original_put = SQLiteBackend.put

        def recording(self, key, entry):
            parent_writes.append(key)
            return original_put(self, key, entry)

        monkeypatch.setattr(SQLiteBackend, "put", recording)
        sweep_methods([NaiveThreshold(), DisparityFilter()], table,
                      DensityMetric(), store=store, workers=2)
        assert parent_writes == []  # the workers wrote every entry
        calls = count_scoring(monkeypatch, NaiveThreshold)
        fresh = ScoreStore(path)
        sweep_methods([NaiveThreshold()], table, DensityMetric(),
                      store=fresh)
        assert calls == []
        assert fresh.stats.disk_hits == 1


class TestExperimentsThroughPipeline:
    def test_fig7_with_store_and_workers_matches_serial(self, tmp_path):
        from repro.experiments import fig7_topology
        from repro.generators.world import SyntheticWorld

        world = SyntheticWorld(n_countries=25, n_years=2, seed=0)
        shares = (0.1, 0.5, 1.0)
        networks = ("trade", "country_space")
        kwargs = dict(world=world, shares=shares, networks=networks)
        plain = fig7_topology.run(**kwargs)
        store = ScoreStore(tmp_path)
        cached = fig7_topology.run(store=store, **kwargs)
        sharded = fig7_topology.run(store=store, workers=2, **kwargs)
        direct = {}
        for name in networks:
            table = world.network(name, 0)
            direct[name] = direct_sweep(paper_methods(), table,
                                        CoverageMetric(table),
                                        shares=shares)
        assert direct == plain.sweeps == cached.sweeps == sharded.sweeps
        assert store.stats.hits > 0

    def test_fig8_matches_direct_scoring(self, tmp_path):
        from repro.experiments import fig8_stability
        from repro.generators.world import SyntheticWorld
        from repro.pipeline import StabilityMetric

        world = SyntheticWorld(n_countries=25, n_years=2, seed=0)
        shares = (0.1, 0.5, 1.0)
        networks = ("migration", "trade")
        kwargs = dict(world=world, shares=shares, networks=networks)
        plain = fig8_stability.run(**kwargs)
        cached = fig8_stability.run(store=ScoreStore(tmp_path), **kwargs)
        sharded = fig8_stability.run(workers=2, **kwargs)
        direct = {}
        for name in networks:
            years = world.years(name)
            direct[name] = direct_sweep(paper_methods(), years[0],
                                        StabilityMetric(tuple(years)),
                                        shares=shares)
        assert direct == plain.sweeps == cached.sweeps == sharded.sweeps
        values = [value for by_method in direct.values()
                  for series in by_method.values()
                  for value in series.values]
        assert values and not any(np.isnan(values))

    def test_table2_with_store_matches_serial(self, tmp_path):
        from repro.experiments import table2_quality
        from repro.generators.world import SyntheticWorld

        world = SyntheticWorld(n_countries=25, n_years=2, seed=0)
        kwargs = dict(world=world, networks=("trade",), budget_share=0.2)
        plain = table2_quality.run(**kwargs)
        cached = table2_quality.run(store=ScoreStore(tmp_path), **kwargs)
        m = world.network("trade", 0).without_self_loops().m
        budgets = {"trade": max(10, round(0.2 * m))}
        direct = direct_table2_ratios(world, budgets)
        assert direct == plain.ratios == cached.ratios
        assert budgets == plain.budgets == cached.budgets

    def test_table2_hss_budget_matches_direct_scoring(self):
        # Without budget_share, a plan run of HSS sets the budget and
        # HSS itself keeps its natural size in the extraction batch.
        from repro.experiments import table2_quality
        from repro.generators.world import SyntheticWorld

        world = SyntheticWorld(n_countries=25, n_years=2, seed=0)
        result = table2_quality.run(world=world, networks=("trade",))
        hss_m = HighSalienceSkeleton().extract(world.network("trade", 0)).m
        assert hss_m >= 10  # the HSS backbone, not the fallback, sets it
        assert result.budgets == {"trade": hss_m}
        assert result.ratios == direct_table2_ratios(
            world, result.budgets, hss_sets_budget=True)

"""Tests for the repro.flow request API.

Covers the acceptance contract of ISSUE 5: for every backbone method
a plan run is bit-identical to the legacy extraction path, a compiled
sweep is bit-identical to direct scoring, and a batch of
same-source plans performs exactly one scoring pass (verified against
the store's traffic counters and a score spy). Plus: plan JSON
artifacts, fingerprints, the ``cut``/``describe`` hooks, the
share-rounding unification and the flow-facing CLI subcommands.
"""

import dataclasses
import importlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sweep_reference import direct_sweep

from repro.backbones.base import Cut, ScoredEdges, share_to_k
from repro.backbones.doubly_stochastic import SinkhornConvergenceError
from repro.backbones.naive import NaiveThreshold
from repro.backbones.registry import get_method, method_codes, paper_methods
from repro.cli import main
from repro.flow import (FlowResult, Plan, PlanSerializationError, flow,
                        serve, sweep_methods, sweep_plans)
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import write_edges
from repro.pipeline import ScoreStore
from repro.pipeline.tasks import CoverageMetric, DensityMetric


def random_table(seed: int, n_nodes: int = 24, n_edges: int = 80,
                 directed: bool = False) -> EdgeTable:
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    weight = rng.integers(1, 60, n_edges).astype(float)
    return EdgeTable(src, dst, weight, n_nodes=n_nodes, directed=directed)


@pytest.fixture()
def table():
    return random_table(0)


@pytest.fixture()
def edges_csv(tmp_path, table):
    path = tmp_path / "edges.csv"
    write_edges(table, path)
    return path


class ParseSpy:
    """Counts source parses, pass-1 runs, table hashes and file hashes
    on every path a request can reach them by. After :meth:`forbid` a
    parse, a pass 1 or a table hash fails the test; file hashes are
    only counted, since every request still hashes its file."""

    def __init__(self, monkeypatch):
        from repro.flow import compile as compile_mod
        from repro.flow import sources as sources_mod
        from repro.flow import spec as spec_mod
        from repro.graph import ingest as ingest_mod

        self.parses = 0
        self.passes = 0
        self.table_hashes = 0
        self.file_hashes = 0
        self.forbidden = False
        self._depth = 0  # read_edges -> read_edge_npz is one parse
        for module in (spec_mod, sources_mod):
            monkeypatch.setattr(module, "read_edges",
                                self._parse(module.read_edges))
            monkeypatch.setattr(module, "fingerprint_file", self._count(
                "file_hashes", module.fingerprint_file))
        monkeypatch.setattr(ingest_mod, "read_edge_npz",
                            self._parse(ingest_mod.read_edge_npz))
        monkeypatch.setattr(compile_mod, "fingerprint_table", self._count(
            "table_hashes", compile_mod.fingerprint_table,
            "hashed its table"))
        monkeypatch.setattr(compile_mod, "open_stream", self._count(
            "passes", compile_mod.open_stream, "ran pass 1"))

    def forbid(self):
        self.forbidden = True

    def _parse(self, original):
        def parse(*args, **kwargs):
            if self.forbidden:
                raise AssertionError("a warm request parsed its source")
            self.parses += self._depth == 0
            self._depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                self._depth -= 1
        return parse

    def _count(self, counter, original, refusal=None):
        """``original``, counting its calls in ``counter``; after
        :meth:`forbid`, failing with ``refusal`` when one is given."""
        def spy(*args, **kwargs):
            if self.forbidden and refusal:
                raise AssertionError(f"a warm request {refusal}")
            setattr(self, counter, getattr(self, counter) + 1)
            return original(*args, **kwargs)
        return spy


@pytest.fixture()
def parse_spy(monkeypatch):
    return ParseSpy(monkeypatch)


# ----------------------------------------------------------------------
# Plan-vs-legacy bit identity (the acceptance contract)
# ----------------------------------------------------------------------

class TestPlanLegacyEquivalence:
    @pytest.mark.parametrize("code", sorted(method_codes()))
    def test_share_budget_matches_extract(self, table, code):
        method = get_method(code)
        plan = flow(table).method(code)
        if method.parameter_free:
            assert plan.run().backbone == method.extract(table)
        else:
            assert plan.budget(share=0.2).run().backbone \
                == method.extract(table, share=0.2)

    @pytest.mark.parametrize("code", ["NT", "DF", "NC", "NCp", "HSS",
                                      "KC"])
    def test_n_edges_budget_matches_extract(self, table, code):
        method = get_method(code)
        plan = flow(table).method(code).budget(n_edges=11)
        assert plan.run().backbone == method.extract(table, n_edges=11)

    @pytest.mark.parametrize("code", ["NC", "NCp", "HSS", "KC"])
    def test_default_budget_matches_extract(self, table, code):
        method = get_method(code)
        assert flow(table).method(code).run().backbone \
            == method.extract(table)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000),
           share=st.floats(0.0, 1.0),
           code=st.sampled_from(["NT", "DF", "NC", "NCp", "KC"]),
           delta=st.floats(0.0, 3.0))
    def test_property_share_budget_bit_identical(self, seed, share, code,
                                                 delta):
        table = random_table(seed, n_nodes=16, n_edges=50)
        params = {"delta": delta} if code in ("NC", "NCp") else {}
        method = get_method(code, **params)
        legacy = method.extract(table, share=share)
        result = flow(table).method(code, **params) \
            .budget(share=share).run()
        assert result.backbone == legacy
        assert np.array_equal(result.backbone.weight, legacy.weight)

    def test_nc_delta_reaches_extraction(self, table):
        loose = flow(table).method("NC", delta=0.5).run().backbone
        strict = flow(table).method("NC", delta=3.0).run().backbone
        assert strict.m < loose.m
        assert strict == get_method("NC", delta=3.0).extract(table)

    def test_method_codes_case_insensitive(self, table):
        assert flow(table).method("nc").run().backbone \
            == flow(table).method("NC").run().backbone

    def test_live_instance_accepted(self, table):
        method = get_method("NC", delta=1.0)
        assert flow(table).method(method).run().backbone \
            == method.extract(table)

    def test_run_raises_what_legacy_raises(self, table):
        with pytest.raises(ValueError, match="exactly one"):
            flow(table).method("NT").run()  # NT has no default budget
        with pytest.raises(ValueError, match="parameter-free"):
            flow(table).method("MST").budget(share=0.5).run()

    def test_parameter_free_budget_raises_under_score_rank(self, table):
        """A budget on MST must raise for rank="score" too, not be
        silently dropped."""
        with pytest.raises(ValueError, match="parameter-free"):
            flow(table).method("MST").budget(share=0.5,
                                             rank="score").run()

    @pytest.mark.parametrize("code", ["NC", "NCp", "HSS", "KC", "MST",
                                      "DS"])
    def test_default_budget_ranks_by_method_under_score_rank(self, table,
                                                             code):
        """With no explicit budget, rank="score" changes nothing: the
        default budget (NC's δ rule) ranks by the method."""
        got = flow(table).method(code).budget(rank="score").run().backbone
        want = get_method(code).extract(table)
        assert got.src.tobytes() == want.src.tobytes()
        assert got.dst.tobytes() == want.dst.tobytes()
        assert got.weight.tobytes() == want.weight.tobytes()


# ----------------------------------------------------------------------
# Batched serving: one scoring pass per distinct request
# ----------------------------------------------------------------------

class TestBatchDeduplication:
    def test_run_many_deltas_single_scoring_pass(self, table):
        """The acceptance contract: k deltas, exactly one score call."""
        store = ScoreStore()
        results = flow(table).method("NC").run_many(
            store=store, delta=[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
        assert len(results) == 8
        # Store-verified: the batch resolves to one request — a single
        # miss and put; the duplicate keys never even hit the store.
        assert store.stats.puts == 1
        assert store.stats.misses == 1
        assert store.stats.requests == 1
        assert len({result.cache_key for result in results}) == 1
        for result, delta in zip(results, [0.5, 1.0, 1.5, 2.0, 2.5, 3.0,
                                           3.5, 4.0]):
            assert result.backbone \
                == get_method("NC", delta=delta).extract(table)

    def test_batch_spy_on_method_score(self, table, monkeypatch):
        calls = []
        original = NaiveThreshold.score

        def counting(self, arg):
            calls.append(1)
            return original(self, arg)

        monkeypatch.setattr(NaiveThreshold, "score", counting)
        plans = [flow(table).method("NT").budget(share=share)
                 for share in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0)]
        results = serve(plans)
        assert calls == [1]  # eight plans, one scoring pass
        assert [r.backbone.m for r in results] \
            == [get_method("NT").extract(table, share=s).m
                for s in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0)]

    def test_run_many_grid_is_cartesian(self, table):
        plans = flow(table).method("NC").variants(
            delta=[0.5, 1.0], share=[0.1, 0.2, 0.3])
        assert len(plans) == 6
        deltas = [dict(plan.method_spec.params)["delta"]
                  for plan in plans]
        shares = [plan.budget_spec.share for plan in plans]
        assert deltas == [0.5, 0.5, 0.5, 1.0, 1.0, 1.0]
        assert shares == [0.1, 0.2, 0.3] * 2

    def test_batch_across_methods_scores_each_once(self, table,
                                                   monkeypatch):
        store = ScoreStore()
        plans = [flow(table).method(code).budget(share=share)
                 for code in ("NT", "DF")
                 for share in (0.1, 0.5, 0.9)]
        serve(plans, store=store)
        assert store.stats.puts == 2  # one scored table per method
        assert store.stats.misses == 2

    def test_workers_match_serial(self, table):
        plans = [flow(table).method("NT").budget(share=s)
                 for s in (0.1, 0.5)] \
            + [flow(table).method("DF").budget(share=0.3)]
        serial = serve(plans)
        fanned = serve(plans, workers=2)
        assert [r.backbone for r in serial] \
            == [r.backbone for r in fanned]

    def test_sinkhorn_failure_is_per_plan(self):
        # A star graph is not balanceable: DS must fail, NT must not.
        star = EdgeTable([0, 0, 0], [1, 2, 3], [5.0, 4.0, 3.0],
                         directed=False)
        results = serve([flow(star).method("DS"),
                         flow(star).method("NT").budget(share=0.5)])
        assert isinstance(results[0].error, SinkhornConvergenceError)
        assert results[0].backbone is None
        assert results[1].ok and results[1].backbone.m > 0
        with pytest.raises(SinkhornConvergenceError):
            flow(star).method("DS").run()

    def test_file_source_parsed_once_per_batch(self, edges_csv,
                                               parse_spy):
        results = flow(str(edges_csv), directed=False).method("NC") \
            .run_many(store=ScoreStore(), delta=[1.0, 1.64, 2.0, 3.0],
                      share=[0.1, 0.2])
        assert len(results) == 8 and all(r.ok for r in results)
        assert parse_spy.parses == 1 and parse_spy.table_hashes == 1
        assert results[0].table is not None
        assert all(r.table is results[0].table for r in results)


# ----------------------------------------------------------------------
# Sweep compilation
# ----------------------------------------------------------------------

class TestSweepCompilation:
    def test_plan_batch_matches_sweep_methods(self, table):
        metric = CoverageMetric(table)
        shares = (0.1, 0.35, 1.0)
        direct = direct_sweep(paper_methods(), table, metric,
                              shares=shares)
        compiled = sweep_methods(paper_methods(), table, metric,
                                 shares=shares)
        assert direct == compiled

    def test_sweep_methods_always_serves_one_batch(self, table,
                                                   monkeypatch):
        # With or without a store, a sweep is one served plan batch:
        # no caller option picks a second code path.
        flow_sweep = importlib.import_module("repro.flow.sweep")
        batches = []
        original = flow_sweep.serve

        def spying(plans, **kwargs):
            batches.append(len(plans))
            return original(plans, **kwargs)

        monkeypatch.setattr(flow_sweep, "serve", spying)
        metric = DensityMetric()
        shares = (0.2, 0.8)
        plain = sweep_methods([NaiveThreshold()], table, metric,
                              shares=shares)
        cached = sweep_methods([NaiveThreshold()], table, metric,
                               shares=shares, store=ScoreStore())
        assert batches == [2, 2]
        direct = direct_sweep([NaiveThreshold()], table, metric,
                              shares=shares)
        assert plain == cached == direct

    def test_unscorable_method_maps_to_empty_series(self):
        star = EdgeTable([0, 0, 0], [1, 2, 3], [5.0, 4.0, 3.0],
                         directed=False)
        methods = [get_method("DS"), NaiveThreshold()]
        metric = DensityMetric()
        direct = direct_sweep(methods, star, metric, shares=(0.5, 1.0))
        compiled = sweep_methods(methods, star, metric, shares=(0.5, 1.0))
        assert compiled == direct
        assert compiled["DS"].shares == []

    def test_sweep_plans_shape(self, table):
        plans = sweep_plans(paper_methods(), table, "density",
                            shares=(0.1, 0.5))
        budgeted = [plan for plan in plans
                    if plan.budget_spec is not None]
        # 4 budgeted paper methods x 2 shares + MST + DS natural points.
        assert len(plans) == 10
        assert len(budgeted) == 8
        assert all(plan.budget_spec.rank == "score" for plan in budgeted)

    def test_file_sweep_matches_table_sweep(self, table, edges_csv):
        metric = DensityMetric()
        by_table = sweep_methods([NaiveThreshold()], table, metric,
                                 shares=(0.2, 0.8))
        by_file = sweep_methods([NaiveThreshold()],
                                flow(str(edges_csv), directed=False),
                                metric, shares=(0.2, 0.8))
        assert by_table == by_file


# ----------------------------------------------------------------------
# Warm file sources: key derivation without re-hashing tables
# ----------------------------------------------------------------------

class TestFileSourceBindings:
    def test_warm_run_never_hashes_the_table(self, edges_csv, tmp_path,
                                             monkeypatch):
        store = ScoreStore(tmp_path / "cache")
        plan = flow(str(edges_csv), directed=False).method("NT") \
            .budget(share=0.5)
        cold = plan.run(store=store)

        from repro.flow import compile as compile_mod

        def forbidden(arg):
            raise AssertionError("fingerprint_table called on a warm "
                                 "file run")

        monkeypatch.setattr(compile_mod, "fingerprint_table", forbidden)
        warm = plan.run(store=store)
        assert warm.backbone == cold.backbone
        assert store.stats.disk_hits + store.stats.memory_hits >= 1

    def test_warm_describe_never_parses_the_file(self, edges_csv,
                                                 tmp_path, parse_spy):
        """--explain against a warm store answers from the file hash
        and the stored binding alone — no parse, no table hash."""
        store = ScoreStore(tmp_path / "cache")
        plan = flow(str(edges_csv), directed=False).method("NT") \
            .budget(share=0.5)
        cold_info = plan.describe(store=store)
        parse_spy.forbid()
        warm_info = plan.describe(store=store)
        assert warm_info == cold_info

    @pytest.mark.parametrize("suffix", ["csv", "npz"])
    def test_warm_requests_parse_nothing(self, table, tmp_path, parse_spy,
                                         suffix):
        """Warm run, 8-plan run_many and a reopened store: the binding's
        summary answers kept share and coverage; nothing is parsed."""
        path = tmp_path / f"edges.{suffix}"
        write_edges(table, path)
        plan = flow(str(path), directed=False).method("NC") \
            .budget(share=0.2).metrics("coverage", "density")
        grid = {"delta": [1.0, 1.64, 2.0, 3.0], "share": [0.1, 0.2]}
        cold_grid = plan.run_many(**grid)
        store = ScoreStore(tmp_path / "cache")
        cold = plan.run(store=store)
        assert parse_spy.parses == 2 and cold.table is not None
        assert cold.base.to_json() == cold.table.summary().to_json()
        parse_spy.forbid()
        warm = plan.run(store=store)
        warm_grid = plan.run_many(store=store, **grid)
        reopened = plan.run(store=ScoreStore(tmp_path / "cache"))
        assert len(warm_grid) == 8
        for got, want in [(warm, cold), (reopened, cold),
                          *zip(warm_grid, cold_grid)]:
            assert got.table is None
            assert got.base.to_json() == want.base.to_json()
            assert got.backbone == want.backbone
            assert got.kept_share == want.kept_share
            assert got.metrics == want.metrics

    def test_warm_daemon_request_parses_nothing(self, edges_csv,
                                                parse_spy):
        from repro.serve import BackboneDaemon, ServeClient

        plan = flow(str(edges_csv), directed=False).method("NC", delta=1.5)
        local = plan.run()
        with BackboneDaemon(port=0) as daemon:
            client = ServeClient(port=daemon.port)
            assert client.run([plan.to_json()])["results"][0]["ok"]
            parse_spy.forbid()
            (result,) = client.run([plan.to_json()])["results"]
        assert result["ok"], result
        assert result["backbone"]["m"] == local.backbone.m
        assert result["kept_share"] == local.kept_share

    def test_warm_kv_source_parses_nothing(self, table, tmp_path,
                                           parse_spy):
        from repro.flow.sources import clear_fetch_cache
        from repro.net import SocketKVServer, put_object

        path = tmp_path / "edges.csv"
        write_edges(table, path)
        clear_fetch_cache()
        with SocketKVServer() as server:
            spec = f"kv://127.0.0.1:{server.port}"
            url = put_object(spec, "edges.csv", path)
            plan = flow(url, directed=False).method("NC", delta=1.0)
            cold = plan.run(store=ScoreStore(spec))
            parse_spy.forbid()
            warm = plan.run(store=ScoreStore(spec))
        assert warm.table is None and warm.base.m == table.m
        assert warm.backbone == cold.backbone

    def test_rewritten_file_parses_again(self, edges_csv, parse_spy):
        """The binding is keyed by the file's bytes: new bytes at the
        same path miss it, parse, and serve the new backbone."""
        from repro.graph.ingest import read_edges

        store = ScoreStore()
        plan = flow(str(edges_csv), directed=False).method("NT") \
            .budget(share=0.5)
        old = plan.run(store=store)
        write_edges(random_table(9), edges_csv)
        new = plan.run(store=store)
        assert parse_spy.parses == 2 and new.table is not None
        assert new.backbone == get_method("NT").extract(
            read_edges(edges_csv, directed=False), share=0.5)
        assert new.backbone != old.backbone

    def test_binding_without_summary_upgraded_by_one_parse(
            self, edges_csv, table, tmp_path, parse_spy):
        from repro.flow.spec import FileSource
        from repro.pipeline import fingerprint_table

        store = ScoreStore(tmp_path / "cache")
        source = FileSource(str(edges_csv), directed=False)
        store.bind_source(source.fingerprint(), fingerprint_table(table))
        plan = flow(str(edges_csv), directed=False).method("NT") \
            .budget(share=0.5)
        first = plan.run(store=store)
        # One parse; the bound table fingerprint is trusted, not redone.
        assert parse_spy.parses == 1 and parse_spy.table_hashes == 0
        parse_spy.forbid()
        again = plan.run(store=ScoreStore(tmp_path / "cache"))
        assert again.table is None
        assert again.base.to_json() == first.base.to_json()
        assert again.backbone == first.backbone

    def test_streamed_cold_run_binds_the_summary(self, edges_csv, table,
                                                 parse_spy):
        """Pass 1 records the same binding, so an in-memory request
        over the file parses nothing once its scores are cached."""
        store = ScoreStore()
        flow(table).method("NC").run(store=store)  # same key, no binding
        streamed = flow(str(edges_csv), directed=False, streaming=True) \
            .method("NC").run(store=store)
        parse_spy.forbid()
        warm = flow(str(edges_csv), directed=False, streaming=False) \
            .method("NC").run(store=store)
        assert warm.table is None
        assert warm.base.to_json() == streamed.base.to_json()
        assert warm.backbone == streamed.backbone

    @pytest.mark.parametrize("workers", [None, 2])
    def test_lazy_parse_failure_fails_only_its_source(self, tmp_path,
                                                      monkeypatch,
                                                      workers):
        from repro.flow.spec import FileSource
        from repro.serve import serve_isolated

        broken, healthy = tmp_path / "a.csv", tmp_path / "b.csv"
        write_edges(random_table(1), broken)
        write_edges(random_table(2), healthy)
        store = ScoreStore()
        for path in (broken, healthy):  # bind both sources
            flow(str(path)).method("NT").budget(share=0.5).run(store=store)
        expected = {code: flow(str(healthy)).method(code)
                    .budget(share=0.3).run().backbone
                    for code in ("NC", "DF")}
        attempts = []
        original = FileSource.resolve

        def resolve(self):
            if self.path == str(broken):
                attempts.append(self.path)
                raise OSError("source vanished")
            return original(self)

        monkeypatch.setattr(FileSource, "resolve", resolve)
        plans = [flow(str(path)).method(code).budget(share=0.3)
                 for path in (broken, healthy) for code in ("NC", "DF")]
        results = serve_isolated(plans, store=store, workers=workers)
        assert [r.ok for r in results] == [False, False, True, True]
        assert all(isinstance(r.error, OSError) for r in results[:2])
        assert attempts == [str(broken)]  # one parse attempt per batch
        assert [r.backbone for r in results[2:]] \
            == [expected["NC"], expected["DF"]]

    def test_file_url_source(self, edges_csv, table):
        result = flow(f"file://{edges_csv}", directed=False) \
            .method("NT").budget(share=0.5).run()
        assert result.backbone \
            == get_method("NT").extract(table, share=0.5)

    def test_remote_scheme_rejected(self):
        with pytest.raises(ValueError, match="unsupported source scheme"):
            flow("s3://bucket/edges.csv")


class TestSharedSourceHandle:
    """Streamed and in-memory plans over one source share one handle:
    one file hash and at most one read per batch, and pass 1 only on a
    score miss that no batchmate's parse can answer."""

    @pytest.mark.parametrize("streamed_first, streamed_code", [
        (True, "NC"), (False, "NC"), (True, "DF"), (False, "DF"),
    ], ids=["stream-first-NC", "memory-first-NC", "stream-first-DF",
            "memory-first-DF"])
    def test_cold_mixed_batch_hashes_the_file_once(
            self, edges_csv, parse_spy, streamed_first, streamed_code):
        """A cold source that an in-memory plan needs is parsed once and
        never streamed, in either plan order, also when the streamed
        plan's key is its own: its miss is scored from the parse."""
        def plans(streaming):
            over = flow(str(edges_csv), directed=False, streaming=streaming)
            if streaming and streamed_code == "DF":
                return [over.method("DF").budget(share=0.3)]
            return [over.method("NC", delta=delta) for delta in (1.0, 2.0)]

        streamed, memory = plans(True), plans(False)
        batch = streamed + memory if streamed_first else memory + streamed
        results = serve(batch)
        assert parse_spy.file_hashes == 1
        assert parse_spy.parses == 1 and parse_spy.passes == 0
        for plan, result in zip(batch, results):
            want = dataclasses.replace(plan, streaming=False).run()
            assert edge_bytes(result.backbone) == edge_bytes(want.backbone)

    @pytest.mark.parametrize("via", ["serial", "workers", "daemon"])
    def test_warm_streamed_plans_run_no_pass_1(self, edges_csv,
                                               parse_spy, via):
        from repro.serve import BackboneDaemon, ServeClient

        store = ScoreStore()
        plans = [flow(str(edges_csv), directed=False, streaming=False)
                 .method(code).budget(share=0.3) for code in ("NC", "DF")]
        want = serve(plans, store=store)
        streamed = [flow(str(edges_csv), directed=False, streaming=True)
                    .method(code).budget(share=0.3) for code in ("NC", "DF")]
        parse_spy.forbid()
        if via == "daemon":
            with BackboneDaemon(port=0, store=store) as daemon:
                reply = ServeClient(port=daemon.port).run(
                    [plan.to_json() for plan in streamed],
                    return_edges=True)
            assert [result["edges"] for result in reply["results"]] \
                == [[[backbone.label_of(u), backbone.label_of(v), w]
                     for u, v, w in backbone.iter_edges()]
                    for backbone in (result.backbone for result in want)]
        else:
            got = serve(streamed, store=store,
                        workers=2 if via == "workers" else None)
            for result, expected in zip(got, want):
                assert result.table is None
                assert edge_bytes(result.backbone) \
                    == edge_bytes(expected.backbone)
                assert result.kept_share == expected.kept_share
        assert parse_spy.passes == 0

    def test_missed_key_on_warm_binding_runs_pass_1_once(self, edges_csv,
                                                         table, parse_spy):
        store = ScoreStore()
        flow(str(edges_csv), directed=False).method("NT") \
            .budget(share=0.5).run(store=store)  # binds; DF stays cold
        budgets = ({"share": 0.3}, {"n_edges": 7})
        plans = [flow(str(edges_csv), directed=False, streaming=True)
                 .method("DF").budget(**budget) for budget in budgets]
        results = serve(plans, store=store)
        assert parse_spy.passes == 1
        for result, budget in zip(results, budgets):
            want = flow(table).method("DF").budget(**budget).run()
            assert result.table is None
            assert edge_bytes(result.backbone) == edge_bytes(want.backbone)

    def test_lazy_pass_1_failure_fails_only_its_plans(self, tmp_path,
                                                      monkeypatch):
        from repro.flow import compile as compile_mod

        broken, healthy = tmp_path / "a.csv", tmp_path / "b.csv"
        write_edges(random_table(1), broken)
        write_edges(random_table(2), healthy)
        store = ScoreStore()
        for path in (broken, healthy):  # bind both sources
            flow(str(path)).method("NT").budget(share=0.5).run(store=store)
        want = flow(str(healthy)).method("DF").budget(share=0.3).run()
        attempts = []
        original = compile_mod.open_stream

        def open_stream(path, **options):
            if str(path) == str(broken):
                attempts.append(str(path))
                raise OSError("pass 1 failed")
            return original(path, **options)

        monkeypatch.setattr(compile_mod, "open_stream", open_stream)
        plans = [flow(str(broken), streaming=True).method(code)
                 .budget(share=0.3) for code in ("NC", "DF")]
        plans.append(flow(str(healthy), streaming=True).method("DF")
                     .budget(share=0.3))
        results = serve(plans, store=store)
        assert [result.ok for result in results] == [False, False, True]
        assert [str(result.error) for result in results[:2]] \
            == ["pass 1 failed"] * 2
        assert attempts == [str(broken)]  # one pass-1 attempt per batch
        assert edge_bytes(results[2].backbone) == edge_bytes(want.backbone)


def loopy_directed_table(seed: int = 3) -> EdgeTable:
    """Directed, with self-loops, fractional weights and an isolate."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 20, 90)
    dst = rng.integers(0, 20, 90)
    dst[:6] = src[:6]
    src[src == 5] = 6
    dst[dst == 5] = 6
    weight = np.round(rng.uniform(0.1, 40.0, 90), 3)
    return EdgeTable(src, dst, weight, directed=True)


class TestWarmColdIdentity:
    @pytest.mark.parametrize("code,budget", [
        ("NC", {}), ("NCp", {}), ("DF", {"share": 0.3}),
        ("NT", {"share": 0.3}), ("MST", {})])
    def test_warm_results_byte_identical(self, tmp_path, parse_spy, code,
                                         budget):
        path = tmp_path / "loopy.csv"
        write_edges(loopy_directed_table(), path)
        plan = flow(str(path)).method(code).metrics("coverage", "density")
        if budget:
            plan = plan.budget(**budget)
        store = ScoreStore(tmp_path / "cache")
        cold = plan.run(store=store)
        assert cold.table.nonloop_m < cold.table.m  # loops survived
        parse_spy.forbid()
        for warm in (plan.run(store=store),
                     plan.run(store=ScoreStore(tmp_path / "cache"))):
            assert warm.table is None
            assert warm.base.to_json() == cold.base.to_json()
            for column in ("src", "dst", "weight"):
                assert getattr(warm.backbone, column).tobytes() \
                    == getattr(cold.backbone, column).tobytes()
            assert warm.kept_share == cold.kept_share
            assert warm.metrics == cold.metrics


# ----------------------------------------------------------------------
# Identity: fingerprints and JSON artifacts
# ----------------------------------------------------------------------

class TestPlanIdentity:
    def test_fingerprint_deterministic(self, edges_csv):
        build = lambda: flow(str(edges_csv)).method("NC", delta=1.0) \
            .budget(share=0.1).metrics("density")  # noqa: E731
        assert build().fingerprint() == build().fingerprint()

    def test_fingerprint_sees_extraction_only_knobs(self, edges_csv):
        """Unlike the score-cache key, the plan fingerprint includes
        NC's delta — two deltas are two different requests."""
        base = flow(str(edges_csv)).method("NC", delta=1.0)
        other = flow(str(edges_csv)).method("NC", delta=2.0)
        assert base.fingerprint() != other.fingerprint()

    def test_fingerprint_sees_file_content(self, tmp_path, table):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_edges(table, a)
        write_edges(table.with_weights(table.weight * 2), b)
        assert flow(str(a)).method("NT").fingerprint() \
            != flow(str(b)).method("NT").fingerprint()

    def test_json_round_trip(self, edges_csv, table):
        plan = flow(str(edges_csv), directed=False) \
            .method("NC", delta=1.0).budget(share=0.1) \
            .metrics("density", "coverage")
        clone = Plan.from_json(plan.to_json())
        assert clone.fingerprint() == plan.fingerprint()
        assert clone.run().backbone == plan.run().backbone

    def test_json_rejects_in_memory_sources(self, table):
        with pytest.raises(PlanSerializationError, match="in-memory"):
            flow(table).method("NT").to_json()

    def test_json_rejects_live_instances(self, edges_csv):
        plan = flow(str(edges_csv)).method(NaiveThreshold())
        with pytest.raises(PlanSerializationError, match="live method"):
            plan.to_json()

    def test_from_json_validates(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            Plan.from_json("{nope")
        with pytest.raises(ValueError, match="unsupported plan schema"):
            Plan.from_json(json.dumps({"plan": 99}))
        with pytest.raises(ValueError, match="unknown backbone code"):
            Plan.from_json(json.dumps({
                "plan": 1, "source": {"kind": "file", "path": "x.csv"},
                "method": {"code": "XYZ"}}))
        # Budgets are typed at the plan boundary, before any scoring.
        for budget in ({"n_edges": 2.5}, {"n_edges": True},
                       {"n_edges": "7"}, {"n_edges": -3},
                       {"threshold": "x"}, {"threshold": [1]},
                       {"share": "0.5"}, {"threshold": float("nan")}):
            [field] = budget
            with pytest.raises(ValueError, match=field):
                Plan.from_json(json.dumps({
                    "plan": 1,
                    "source": {"kind": "file", "path": "x.csv"},
                    "method": {"code": "NT"}, "filter": budget}))

    def test_plans_are_picklable(self, edges_csv, table):
        for plan in (flow(str(edges_csv)).method("NC", delta=2.0)
                     .budget(share=0.1).metrics("density"),
                     flow(table).method(NaiveThreshold())
                     .metrics(DensityMetric())):
            clone = pickle.loads(pickle.dumps(plan))
            assert clone.method_spec.build().code \
                == plan.method_spec.build().code

    def test_describe_exposes_cache_key(self, edges_csv, table):
        from repro.pipeline import fingerprint_score_request

        info = flow(str(edges_csv), directed=False).method("NT") \
            .budget(share=0.5).describe()
        assert info["cache"]["score_key"] \
            == fingerprint_score_request(table, NaiveThreshold())
        assert info["method"]["code"] == "NT"
        assert info["filter"] == {"kind": "share", "share": 0.5,
                                  "rank": "method"}
        # The default δ rule ranks by the method whatever rank says.
        info = flow(table).method("NC").budget(rank="score").describe()
        assert info["filter"] == {"kind": "threshold", "threshold": 0.0,
                                  "rank": "method"}


# ----------------------------------------------------------------------
# The BackboneMethod hooks the compiler relies on
# ----------------------------------------------------------------------

class TestMethodHooks:
    def test_describe_includes_extraction_only_config(self):
        info = get_method("NC", delta=2.5).describe()
        assert info["code"] == "NC"
        assert info["config"]["delta"] == 2.5
        assert info["config"]["use_posterior"] is True
        assert not info["parameter_free"]

    def test_cut_resolves_defaults(self):
        assert get_method("NC").cut().describe() \
            == {"kind": "threshold", "threshold": 0.0}
        assert get_method("MST").cut().describe() == {"kind": "natural"}
        assert get_method("NT").cut(share=0.25).describe() \
            == {"kind": "share", "share": 0.25}
        assert get_method("NT").cut(n_edges=7).describe() \
            == {"kind": "n_edges", "n_edges": 7}
        # rank="score" ranks an explicit budget by the raw score; a
        # default budget ranks by the method either way.
        nc = get_method("NC")
        assert nc.cut(n_edges=5).by_method
        assert not nc.cut(n_edges=5, rank="score").by_method
        assert nc.cut(rank="score") == Cut("threshold", 0.0, True)

    def test_cut_validates_like_extract(self):
        with pytest.raises(ValueError, match="exactly one"):
            get_method("NT").cut()
        with pytest.raises(ValueError, match="parameter-free"):
            get_method("MST").cut(share=0.1)

    @pytest.mark.parametrize("code", [
        code for code in method_codes()
        if not get_method(code).parameter_free])
    def test_nan_threshold_rejected(self, table, code):
        method = get_method(code)
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            method.extract(table, threshold=float("nan"))
        scored = method.score(table)
        with pytest.raises(ValueError, match="threshold must not be NaN"):
            method.extract_from_scores(scored, threshold=float("nan"))


# ----------------------------------------------------------------------
# Share rounding unification (satellite fix)
# ----------------------------------------------------------------------

class TestShareRounding:
    def scored(self, m=40, seed=3):
        table = random_table(seed, n_nodes=20, n_edges=m)
        scores = np.linspace(1.0, 2.0, table.m)
        return ScoredEdges(table=table, score=scores, method="test")

    def test_threshold_and_top_share_agree_at_tiny_shares(self):
        scored = self.scored()
        for share in (0.0, 1e-6, 0.004, 0.011, 0.02, 0.5, 1.0):
            k = share_to_k(share, scored.m)
            assert k == min(int(round(share * scored.m)), scored.m)
            assert scored.top_k(k).m == k
            # Every share cut, in memory and streamed, rounds the same.
            assert Cut("share", share).k(scored.m) == k

    def test_k_zero_threshold_keeps_nothing(self):
        scored = self.scored()
        assert scored.top_k(share_to_k(0.0, scored.m)).m == 0

    def test_share_validation(self):
        scored = self.scored()
        with pytest.raises(ValueError, match=r"share must be in \[0, 1\]"):
            scored.top_k(share_to_k(1.5, scored.m))
        with pytest.raises(ValueError, match=r"share must be in \[0, 1\]"):
            Cut("share", -0.1).k(scored.m)


# ----------------------------------------------------------------------
# CLI: plan artifacts and --explain
# ----------------------------------------------------------------------

#: Both CLI commands that read a plan artifact from a file.
PLAN_COMMANDS = pytest.mark.parametrize(
    "command", [["flow", "run"], ["obs", "trace"]],
    ids=["flow-run", "obs-trace"])


class TestFlowCLI:
    def test_flow_run_plan_json(self, edges_csv, tmp_path, capsys):
        plan = flow(str(edges_csv), directed=False).method("NT") \
            .budget(share=0.2).metrics("density", "edges")
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan.to_json())
        out_path = tmp_path / "backbone.csv"
        assert main(["flow", "run", str(plan_path), "--output",
                     str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "kept" in out and "density:" in out
        from repro.graph.ingest import read_edges
        assert read_edges(out_path, directed=False) \
            == plan.run().backbone

    def test_flow_run_explain_does_not_execute(self, edges_csv,
                                               tmp_path, capsys,
                                               monkeypatch):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(flow(str(edges_csv)).method("NC")
                             .budget(share=0.1).to_json())
        monkeypatch.setattr(
            NaiveThreshold, "score",
            lambda *a: (_ for _ in ()).throw(AssertionError))
        import repro.core.noise_corrected as nc_mod
        monkeypatch.setattr(
            nc_mod.NoiseCorrectedBackbone, "score",
            lambda *a: (_ for _ in ()).throw(
                AssertionError("explain must not score")))
        assert main(["flow", "run", str(plan_path), "--explain"]) == 0
        out = capsys.readouterr().out
        assert "score key" in out and "NC" in out

    @PLAN_COMMANDS
    def test_flow_run_missing_plan_errors(self, tmp_path, capsys, command):
        missing = tmp_path / "nope.json"
        assert main([*command, str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "No such file or directory" in err

    @PLAN_COMMANDS
    @pytest.mark.parametrize("code, budget, message", [
        ("MST", {"share": 0.5}, "parameter-free"),
        ("NT", None, "needs exactly one")], ids=["MST-share", "NT-none"])
    def test_bad_budget_plan_fails_before_parsing(
            self, edges_csv, tmp_path, capsys, monkeypatch, parse_spy,
            command, code, budget, message):
        artifact = json.loads(flow(str(edges_csv)).method(code).to_json())
        artifact["filter"] = budget
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(artifact))
        parse_spy.forbid()
        monkeypatch.setattr(
            type(get_method(code)), "score",
            lambda *a: (_ for _ in ()).throw(
                AssertionError("a bad budget was scored")))
        assert main([*command, str(plan_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @PLAN_COMMANDS
    def test_flow_run_invalid_plan_errors(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main([*command, str(bad)]) == 2
        assert "unsupported plan schema" in capsys.readouterr().err

    def test_backbone_explain_prints_plan(self, edges_csv, tmp_path,
                                          capsys):
        out = tmp_path / "backbone.csv"
        assert main(["backbone", str(edges_csv), str(out), "--method",
                     "NC", "--share", "0.1", "--explain"]) == 0
        text = capsys.readouterr().out
        assert "source" in text and "fingerprint" in text
        assert "delta=1.64" in text
        assert "score key" in text
        assert not out.exists()  # nothing was executed or written

    def test_backbone_cache_dir_serves_repeat_extractions(self,
                                                          edges_csv,
                                                          tmp_path,
                                                          monkeypatch,
                                                          capsys):
        cache = tmp_path / "cache"
        argv = ["backbone", str(edges_csv), str(tmp_path / "o.csv"),
                "--method", "NT", "--share", "0.3", "--cache-dir",
                str(cache)]
        assert main(argv) == 0
        first = (tmp_path / "o.csv").read_text()
        monkeypatch.setattr(
            NaiveThreshold, "score",
            lambda *a: (_ for _ in ()).throw(
                AssertionError("warm backbone rescored")))
        assert main(argv) == 0
        assert (tmp_path / "o.csv").read_text() == first

    def test_backbone_explain_respects_validation(self, edges_csv,
                                                  tmp_path, capsys):
        out = tmp_path / "backbone.csv"
        assert main(["backbone", str(edges_csv), str(out), "--method",
                     "MST", "--share", "0.1", "--explain"]) == 2
        assert "parameter-free" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Serving details
# ----------------------------------------------------------------------

class TestServeDetails:
    def test_results_align_with_plans(self, table):
        plans = [flow(table).method("NT").budget(share=0.1),
                 flow(table).method("MST"),
                 flow(table).method("NC").budget(n_edges=5)]
        results = serve(plans)
        assert [r.plan for r in results] == plans
        assert all(isinstance(r, FlowResult) for r in results)

    def test_metrics_resolved_against_source(self, table):
        result = flow(table).method("NT").budget(share=0.3) \
            .metrics("coverage", "density", "edges").run()
        from repro.evaluation.coverage import coverage
        from repro.graph.metrics import density
        backbone = result.backbone
        assert result.metrics["coverage"] \
            == coverage(table, backbone)
        assert result.metrics["density"] == density(backbone)
        assert result.metrics["edges"] == float(backbone.m)

    def test_kept_share_matches_sweep_convention(self, table):
        result = flow(table).method("MST").run()
        expected = result.backbone.m \
            / max(table.without_self_loops().m, 1)
        assert result.kept_share == expected

    def test_unknown_metric_rejected_at_build(self, table):
        with pytest.raises(ValueError, match="unknown metric"):
            flow(table).method("NT").metrics("bogus")

    def test_budget_validation_at_build(self, table):
        with pytest.raises(ValueError, match="at most one"):
            flow(table).method("NT").budget(share=0.1, n_edges=3)
        with pytest.raises(ValueError, match="share must be in"):
            flow(table).method("NT").budget(share=1.5)

    def test_empty_batch(self):
        assert serve([]) == []

    def test_serve_persistent_store_round_trip(self, table, tmp_path):
        store = ScoreStore(tmp_path / "cache")
        plan = flow(table).method("NC").budget(share=0.1)
        cold = plan.run(store=store)
        fresh = ScoreStore(tmp_path / "cache")
        warm = plan.run(store=fresh)
        assert warm.backbone == cold.backbone
        assert fresh.stats.disk_hits == 1
        assert fresh.stats.misses == 0


# ----------------------------------------------------------------------
# One compile policy: every plan compiles on its own
# ----------------------------------------------------------------------

def edge_bytes(table: EdgeTable):
    return (table.src.tobytes(), table.dst.tobytes(),
            table.weight.tobytes(), table.n_nodes, table.directed)


class TestOneCompilePolicy:
    """``compile_plans`` isolates each plan and source; ``serve``
    raises the first compile error, the daemon's engine answers it in
    the plan's slot."""

    DELTAS = (1.0, 1.64, 2.0)

    @pytest.fixture()
    def batch(self, edges_csv, tmp_path):
        good, missing = str(edges_csv), str(tmp_path / "missing.csv")
        return ["junk",
                flow(good),
                flow(good).method("nc", bogus=1),
                flow(missing).method("NC"),
                flow(good, streaming=True).method("MST"),
                *[flow(good).method("NC", delta=delta)
                  for delta in self.DELTAS]]

    def test_one_compiled_plan_per_input(self, batch):
        from repro.flow.compile import compile_plans
        from repro.stream import StreamingUnsupported

        compiled = compile_plans(batch, ScoreStore())
        assert len(compiled) == len(batch)
        assert all(item.plan is plan for item, plan in zip(compiled, batch))
        assert [type(item.error) for item in compiled[:5]] \
            == [TypeError, ValueError, TypeError, FileNotFoundError,
                StreamingUnsupported]
        assert "expected a Plan" in str(compiled[0].error)
        assert "has no method" in str(compiled[1].error)
        good = compiled[5:]
        assert all(item.error is None for item in good)
        assert len({id(item.handle) for item in good}) == 1

    def test_a_failing_source_is_tried_once_per_batch(self, edges_csv,
                                                      tmp_path,
                                                      monkeypatch):
        from repro.flow import compile as compile_mod
        from repro.flow.spec import FileSource

        missing = str(tmp_path / "missing.csv")
        hashed, opened = [], []
        original = FileSource.fingerprint

        def fingerprint(self):
            if self.path == missing:
                hashed.append(self.path)
            return original(self)

        def open_stream(path, **options):
            opened.append(str(path))
            raise OSError("pass 1 failed")

        monkeypatch.setattr(FileSource, "fingerprint", fingerprint)
        monkeypatch.setattr(compile_mod, "open_stream", open_stream)
        plans = [flow(missing).method("NC", delta=delta)
                 for delta in self.DELTAS] \
            + [flow(str(edges_csv), streaming=True).method("NC",
                                                           delta=delta)
               for delta in self.DELTAS]
        compiled = compile_mod.compile_plans(plans, ScoreStore())
        assert hashed == [missing]
        assert opened == [str(edges_csv)]
        assert all(isinstance(item.error, FileNotFoundError)
                   for item in compiled[:3])
        assert [str(item.error) for item in compiled[3:]] \
            == ["pass 1 failed"] * 3

    def test_serve_raises_the_first_error_before_scoring(self, batch):
        store = ScoreStore()
        with pytest.raises(TypeError, match="expected a Plan"):
            serve(batch, store=store)
        with pytest.raises(FileNotFoundError):
            serve(batch[3:], store=store)
        assert store.stats.requests == 0

    def test_plan_entry_points_raise_their_compile_error(self, batch):
        with pytest.raises(FileNotFoundError):
            batch[3].scores()
        with pytest.raises(ValueError, match="has no method"):
            batch[1].describe()
        with pytest.raises(TypeError, match="bogus"):
            batch[2].run()

    def test_isolated_healthy_slots_equal_serve_of_healthy_plans(
            self, batch):
        from repro.serve import serve_isolated
        from repro.stream import StreamingUnsupported

        store = ScoreStore()
        isolated = serve_isolated(batch, store=store)
        assert len(isolated) == len(batch)
        assert [type(result.error) for result in isolated[:5]] \
            == [TypeError, ValueError, TypeError, FileNotFoundError,
                StreamingUnsupported]
        assert all(result.cache_key == "" for result in isolated[:5])
        assert store.stats.puts == 1
        alone = serve(batch[5:])
        for got, want in zip(isolated[5:], alone):
            assert got.ok and want.ok
            assert edge_bytes(got.backbone) == edge_bytes(want.backbone)
            assert got.kept_share == want.kept_share
            assert got.cache_key == want.cache_key

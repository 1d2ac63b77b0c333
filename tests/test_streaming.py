"""Tests for repro.stream: out-of-core scoring bit-identical to memory.

The acceptance contract of ISSUE 9: for every streamable method and
budget shape, ``flow(source, streaming=True)`` produces byte-identical
backbones to the in-memory path — including duplicate edges straddling
block boundaries, string labels, both directednesses, empty inputs and
pathological block/run sizes down to 1 — while whole-graph methods
fail at compile time with :class:`StreamingUnsupported`. Plus: the
pass-1 aggregates and fingerprint parity, the external pairwise sum,
streaming conversion, the ``"auto"`` threshold knob, warm-cache
sharing and the CLI surface.
"""

import dataclasses
import gzip
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backbones.registry import get_method
from repro.cli import main
from repro.flow import StreamingUnsupported, flow, serve
from repro.graph.edge_table import EdgeTable, NodeTotals
from repro.graph.ingest import read_edges, write_edges
from repro.pipeline import ScoreStore
from repro.pipeline.fingerprint import fingerprint_table
from repro.stream import (StreamingUnsupported as StreamPkgError,
                          open_stream, stream_convert, stream_extract,
                          supports_streaming)
from repro.stream.merge import pairwise_file_sum
from repro.stream.score import _TopKSelector

STREAMABLE = ("NC", "NCp", "DF", "NT")
WHOLE_GRAPH = ("MST", "DS", "HSS", "KC")


#: Positive edge weights: exact integers, plus non-integers whose sums
#: depend on summation order (the order node totals must keep).
WEIGHTS = st.one_of(st.integers(1, 40), st.floats(0.01, 40.0))


def write_csv(path, rows, labels=False):
    """An edge csv with a header row from (src, dst, weight) triples."""
    with open(path, "w") as handle:
        handle.write("src,dst,weight\n")
        for s, d, w in rows:
            if labels:
                handle.write(f"n{s},n{d},{w}\n")
            else:
                handle.write(f"{s},{d},{w}\n")
    return path


def assert_same_backbone(got, want):
    assert got.m == want.m
    assert got.src.tobytes() == want.src.tobytes()
    assert got.dst.tobytes() == want.dst.tobytes()
    assert got.weight.tobytes() == want.weight.tobytes()
    assert got.n_nodes == want.n_nodes
    assert got.directed == want.directed
    assert got.labels == want.labels


def run_one(path, directed, code, budget, streaming, block_rows=None,
            run_rows=None):
    """One plan run with the stream geometry pinned via env knobs."""
    env = {}
    if block_rows is not None:
        env["REPRO_STREAM_BLOCK_ROWS"] = str(block_rows)
    if run_rows is not None:
        env["REPRO_STREAM_RUN_ROWS"] = str(run_rows)
    old = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    try:
        plan = flow(str(path), directed=directed,
                    streaming=streaming).method(code)
        if budget:
            plan = plan.budget(**budget)
        return plan.metrics("density", "edges", "coverage").run()
    finally:
        for key, value in old.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def run_pair(path, directed, code, budget=None, block_rows=None,
             run_rows=None):
    """(in-memory result, streamed result) for one plan shape."""
    return (run_one(path, directed, code, budget, False,
                    block_rows=block_rows, run_rows=run_rows),
            run_one(path, directed, code, budget, True,
                    block_rows=block_rows, run_rows=run_rows))


# ----------------------------------------------------------------------
# Bit identity (hypothesis): every streamable method, nasty shapes
# ----------------------------------------------------------------------

class TestStreamBitIdentity:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_flow_streaming_matches_memory(self, data):
        n_nodes = data.draw(st.integers(1, 10), label="n_nodes")
        n_rows = data.draw(st.integers(1, 48), label="n_rows")
        directed = data.draw(st.booleans(), label="directed")
        labels = data.draw(st.booleans(), label="labels")
        # Small node universe + many rows = duplicates straddling
        # blocks; weights are positive and round-trip the csv exactly.
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, n_nodes - 1),
                      st.integers(0, n_nodes - 1),
                      WEIGHTS),
            min_size=n_rows, max_size=n_rows), label="rows")
        block_rows = data.draw(st.integers(1, 9), label="block_rows")
        run_rows = data.draw(st.integers(2, 24), label="run_rows")
        code = data.draw(st.sampled_from(STREAMABLE), label="method")
        budget = data.draw(st.sampled_from([
            None, {"threshold": 0.5}, {"share": 0.3},
            {"n_edges": 5}, {"share": 0.5, "rank": "score"},
            {"threshold": 2.0, "rank": "score"}]), label="budget")
        if budget is None and code in ("DF", "NT"):
            budget = {"share": 0.4}  # no default budget for these

        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "edges.csv", rows,
                             labels=labels)
            for streaming in (False, True):
                try:
                    outcomes.append(run_one(path, directed, code,
                                            budget, streaming,
                                            block_rows=block_rows,
                                            run_rows=run_rows))
                except ValueError as error:
                    outcomes.append(str(error))
        mem, streamed = outcomes
        if isinstance(mem, str) or isinstance(streamed, str):
            # Both paths must agree on input rejection too (e.g. a
            # loops-only table has no extractable backbone).
            assert mem == streamed
            return
        assert_same_backbone(streamed.backbone, mem.backbone)
        assert streamed.metrics == mem.metrics
        assert streamed.kept_share == mem.kept_share
        assert streamed.table is None and streamed.base is not None
        assert streamed.base.n_nodes == mem.table.n_nodes

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_pass1_aggregates_and_fingerprint(self, data):
        n_nodes = data.draw(st.integers(1, 8))
        rows = data.draw(st.lists(
            st.tuples(st.integers(0, n_nodes - 1),
                      st.integers(0, n_nodes - 1),
                      WEIGHTS),
            min_size=0, max_size=40))
        block_rows = data.draw(st.integers(1, 7))
        run_rows = data.draw(st.integers(2, 16))
        with tempfile.TemporaryDirectory() as tmp:
            path = write_csv(Path(tmp) / "edges.csv", rows)
            for directed in (False, True):
                stream = open_stream(path, directed=directed,
                                     block_rows=block_rows,
                                     run_rows=run_rows)
                try:
                    table = read_edges(path, directed=directed)
                    prepared = table.without_self_loops()
                    assert stream.table_fp == fingerprint_table(table)
                    assert stream.m == table.m
                    assert stream.nonloop_m == prepared.m
                    want = prepared.node_totals()
                    for field in dataclasses.fields(NodeTotals):
                        got = np.asarray(getattr(stream.totals,
                                                 field.name))
                        expected = np.asarray(getattr(want, field.name))
                        assert got.tobytes() == expected.tobytes(), \
                            field.name
                finally:
                    stream.close()

    def test_zero_weight_edges_raise_no_warning(self, tmp_path):
        # A zero-weight row whose source has no other out-weight has
        # kappa = inf; its sdev is 0 and neither path may warn.
        rows = [(0, 1, 0.0), (1, 2, 3.0), (2, 0, 2.0)]
        path = write_csv(tmp_path / "zero.csv", rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scored = get_method("NC").score(
                EdgeTable(*zip(*rows), directed=True))
            mem, streamed = run_pair(path, True, "NC",
                                     budget={"share": 1.0})
        assert scored.sdev[0] == 0.0
        assert_same_backbone(streamed.backbone, mem.backbone)

    def test_duplicates_straddling_every_block_size(self, tmp_path):
        # One heavily duplicated pair repeated across the whole file:
        # every block boundary splits a duplicate group.
        rows = [(0, 1, 3), (1, 2, 5)] * 20 + [(2, 0, 7)] * 9
        path = write_csv(tmp_path / "dups.csv", rows)
        want = flow(str(path), directed=False,
                    streaming=False).method("NC").run().backbone
        for block_rows in (1, 2, 3, 5, 8, 49):
            mem, streamed = run_pair(path, False, "NC",
                                     block_rows=block_rows, run_rows=4)
            assert_same_backbone(streamed.backbone, want)

    def test_gzip_and_npz_inputs(self, tmp_path):
        rows = [(i % 6, (i * 5 + 1) % 6, i % 9 + 1) for i in range(60)]
        csv_path = write_csv(tmp_path / "edges.csv", rows, labels=True)
        gz_path = tmp_path / "edges.csv.gz"
        gz_path.write_bytes(gzip.compress(csv_path.read_bytes()))
        npz_path = tmp_path / "edges.npz"
        write_edges(read_edges(csv_path, directed=False), npz_path)
        want = None
        for path in (csv_path, gz_path, npz_path):
            mem, streamed = run_pair(path, False, "NC",
                                     block_rows=7, run_rows=16)
            assert_same_backbone(streamed.backbone, mem.backbone)
            if want is None:
                want = mem.backbone
            assert_same_backbone(streamed.backbone, want)
            assert streamed.backbone.labels is not None


# ----------------------------------------------------------------------
# The compile gate: supported methods, errors, auto threshold
# ----------------------------------------------------------------------

class TestStreamingGate:
    def test_unsupported_methods_raise_at_compile(self, tmp_path):
        path = write_csv(tmp_path / "edges.csv",
                         [(0, 1, 2), (1, 2, 3), (2, 0, 4)])
        for code in WHOLE_GRAPH:
            with pytest.raises(StreamingUnsupported) as error:
                flow(str(path), streaming=True).method(code).run()
            assert "streaming supports NC, NCp, DF, NT" in \
                str(error.value)
            assert error.value.method_code == \
                get_method(code).code
        assert StreamingUnsupported is StreamPkgError

    def test_supports_streaming_predicate(self):
        for code in STREAMABLE:
            assert supports_streaming(get_method(code))
        for code in WHOLE_GRAPH:
            assert not supports_streaming(get_method(code))

    def test_table_source_rejects_streaming_true(self):
        table = EdgeTable.from_pairs([(0, 1, 2.0), (1, 2, 3.0)],
                                     directed=False)
        with pytest.raises(ValueError, match="already materialized"):
            flow(table, streaming=True).method("NC").run()
        # "auto" on a table source silently stays in memory.
        result = flow(table, streaming="auto").method("NC").run()
        assert result.table is not None

    def test_streaming_knob_validated(self, tmp_path):
        path = write_csv(tmp_path / "edges.csv", [(0, 1, 2)])
        with pytest.raises(ValueError, match="streaming must be"):
            flow(str(path), streaming="yes")

    def test_auto_threshold_env_knob(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path / "edges.csv",
                         [(i % 5, (i + 1) % 5, i + 1)
                          for i in range(30)])
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD_BYTES", "1")
        streamed = flow(str(path), streaming="auto").method("NC").run()
        assert streamed.table is None and streamed.base is not None
        # Unsupported methods silently stay in memory under "auto".
        in_memory = flow(str(path), streaming="auto").method("MST").run()
        assert in_memory.table is not None
        monkeypatch.setenv("REPRO_STREAM_THRESHOLD_BYTES",
                           str(1 << 40))
        small = flow(str(path), streaming="auto").method("NC").run()
        assert small.table is not None

    def test_plan_json_round_trips_streaming(self, tmp_path):
        from repro.flow import Plan

        path = write_csv(tmp_path / "edges.csv", [(0, 1, 2)])
        plan = flow(str(path), streaming=True).method("NC")
        again = Plan.from_json(plan.to_json())
        assert again.streaming is True
        default = Plan.from_json(flow(str(path)).method("NC").to_json())
        assert default.streaming == "auto"
        assert "streaming" not in flow(str(path)).method("NC").to_json()
        # streaming is an execution knob, not part of plan identity.
        assert plan.fingerprint() == \
            flow(str(path)).method("NC").fingerprint()

    def test_scores_entry_point_stays_in_memory(self, tmp_path):
        path = write_csv(tmp_path / "edges.csv",
                         [(i % 4, (i + 1) % 4, i + 1)
                          for i in range(12)])
        scored = flow(str(path), streaming=True).method("NC").scores()
        assert scored.score.shape[0] > 0


# ----------------------------------------------------------------------
# Caching: streamed and in-memory runs share one score lineage
# ----------------------------------------------------------------------

class TestStreamCacheSharing:
    def test_memory_then_streaming_hits_store(self, tmp_path):
        path = write_csv(tmp_path / "edges.csv",
                         [(i % 7, (i + 2) % 7, i % 5 + 1)
                          for i in range(50)])
        store = ScoreStore(tmp_path / "cache")
        warm = flow(str(path), streaming=False).method("NC").run(
            store=store)
        hits_before = store.stats.hits
        streamed = flow(str(path), streaming=True).method("NC").run(
            store=store)
        assert store.stats.hits > hits_before
        assert_same_backbone(streamed.backbone, warm.backbone)

    def test_streaming_then_memory(self, tmp_path):
        path = write_csv(tmp_path / "edges.csv",
                         [(i % 7, (i + 2) % 7, i % 5 + 1)
                          for i in range(50)])
        store = ScoreStore(tmp_path / "cache")
        streamed = flow(str(path), streaming=True).method("NC").run(
            store=store)
        warm = flow(str(path), streaming=False).method("NC").run(
            store=store)
        assert_same_backbone(streamed.backbone, warm.backbone)

    def test_mixed_batch_shares_one_scoring_pass(self, tmp_path):
        path = write_csv(tmp_path / "edges.csv",
                         [(i % 7, (i + 2) % 7, i % 5 + 1)
                          for i in range(50)])
        plans = [flow(str(path), streaming=True).method("NC"),
                 flow(str(path), streaming=False).method("NC")
                 .budget(share=0.2)]
        results = serve(plans)
        assert results[0].error is None and results[1].error is None
        want = flow(str(path), streaming=False).method("NC").run()
        assert_same_backbone(results[0].backbone, want.backbone)

    def test_run_many_streaming_grid(self, tmp_path):
        path = write_csv(tmp_path / "edges.csv",
                         [(i % 8, (i + 3) % 8, i % 6 + 1)
                          for i in range(60)])
        grid = flow(str(path), streaming=True).method("NC").run_many(
            n_edges=[5, 10, 20])
        for k, result in zip((5, 10, 20), grid):
            want = flow(str(path), streaming=False).method("NC") \
                .budget(n_edges=k).run()
            assert_same_backbone(result.backbone, want.backbone)


# ----------------------------------------------------------------------
# stream_extract: the pass-2 engine, driven directly
# ----------------------------------------------------------------------

class TestStreamExtract:
    def test_error_isolation_and_precedence(self, tmp_path):
        path = write_csv(tmp_path / "edges.csv",
                         [(i % 5, (i + 1) % 5, i + 1)
                          for i in range(20)])
        stream = open_stream(path, directed=False, block_rows=4,
                             run_rows=8)
        try:
            jobs = [("good", "k1", get_method("NC"), None),
                    ("bad-budget", "k2", get_method("DF"), None)]
            backbones, errors = stream_extract(stream, jobs)
            assert "good" in backbones
            assert "bad-budget" in errors
            assert isinstance(errors["bad-budget"], ValueError)
        finally:
            stream.close()

    def test_empty_stream_scores_like_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("src,dst,weight\n")
        stream = open_stream(path, directed=False)
        try:
            backbones, errors = stream_extract(
                stream, [("j", "k", get_method("NC"), None)])
            assert "j" in errors
            assert "empty network" in str(errors["j"])
        finally:
            stream.close()


class TestTopKSelectorTruncation:
    """Pass 2's running top-``k`` over enough rows to truncate its
    candidate buffer (past ``k + 2**18`` buffered rows), with ties,
    about 1% NaN values and ``-0.0`` beside ``0.0``."""

    ROWS = 10 * (1 << 16)
    BLOCK = 1 << 16

    @pytest.fixture(scope="class")
    def columns(self):
        rng = np.random.default_rng(15)
        values = rng.integers(-40, 160, self.ROWS) / 8.0
        values[rng.random(self.ROWS) < 0.01] = np.nan
        zeros = np.flatnonzero(values == 0.0)
        values[zeros[::2]] = -0.0
        weight = rng.integers(1, 4, self.ROWS) / 2.0
        src = np.arange(self.ROWS)  # row i is the edge (i, i + 1)
        return values, src, src + 1, weight

    @pytest.mark.parametrize("k", [1, 4239, 300_000, ROWS - 1])
    def test_matches_one_lexsort_over_all_rows(self, columns, k):
        values, src, dst, weight = columns
        selector = _TopKSelector(k, self.ROWS)
        truncate = _TopKSelector._truncate
        with mock.patch.object(_TopKSelector, "_truncate", autospec=True,
                               side_effect=truncate) as spy:
            for start in range(0, self.ROWS, self.BLOCK):
                rows = slice(start, start + self.BLOCK)
                block = EdgeTable(src[rows], dst[rows], weight[rows],
                                  n_nodes=self.ROWS + 1, coalesce=False)
                selector.feed(values[rows], block)
        if k + (1 << 18) < self.ROWS:
            assert spy.called
        order = np.lexsort((src, -weight, -values))
        want = np.sort(order[:k])
        [(got_src, got_dst, got_weight)] = selector.parts()
        assert got_src.tobytes() == src[want].tobytes()
        assert got_dst.tobytes() == dst[want].tobytes()
        assert got_weight.tobytes() == weight[want].tobytes()


# ----------------------------------------------------------------------
# Streaming conversion
# ----------------------------------------------------------------------

class TestStreamConvert:
    def test_content_identical_to_memory_convert(self, tmp_path):
        rows = [(i % 9, (i * 4 + 2) % 9, i % 7 + 1) for i in range(80)]
        path = write_csv(tmp_path / "edges.csv", rows, labels=True)
        mem_npz = tmp_path / "mem.npz"
        write_edges(read_edges(path, directed=True), mem_npz)
        stream_npz = tmp_path / "stream.npz"
        summary = stream_convert(path, stream_npz, directed=True,
                                 block_rows=7, run_rows=16)
        a = read_edges(mem_npz)
        b = read_edges(stream_npz)
        assert a == b
        assert a.weight.tobytes() == b.weight.tobytes()
        assert summary.m == a.m and summary.n_nodes == a.n_nodes

    def test_cli_convert_streaming(self, tmp_path):
        rows = [(i % 6, (i + 1) % 6, i % 4 + 1) for i in range(40)]
        path = write_csv(tmp_path / "edges.csv", rows)
        out_mem = tmp_path / "mem.npz"
        out_stream = tmp_path / "stream.npz"
        assert main(["convert", str(path), str(out_mem),
                     "--streaming", "never"]) == 0
        assert main(["convert", str(path), str(out_stream),
                     "--streaming", "always"]) == 0
        a, b = read_edges(out_mem), read_edges(out_stream)
        assert a == b and a.weight.tobytes() == b.weight.tobytes()
        assert main(["convert", str(path), str(tmp_path / "out.csv"),
                     "--streaming", "always"]) == 2


# ----------------------------------------------------------------------
# CLI backbone surface
# ----------------------------------------------------------------------

class TestStreamingCLI:
    def test_backbone_streaming_identical(self, tmp_path):
        rows = [(i % 9, (i * 2 + 1) % 9, i % 6 + 1) for i in range(70)]
        path = write_csv(tmp_path / "edges.csv", rows)
        out_mem = tmp_path / "mem.csv"
        out_stream = tmp_path / "stream.csv"
        assert main(["backbone", str(path), str(out_mem), "--method",
                     "NC", "--streaming", "never"]) == 0
        assert main(["backbone", str(path), str(out_stream),
                     "--method", "NC", "--streaming", "always"]) == 0
        assert out_mem.read_text() == out_stream.read_text()

    def test_backbone_streaming_unsupported_exits_2(self, tmp_path):
        path = write_csv(tmp_path / "edges.csv",
                         [(0, 1, 2), (1, 2, 3)])
        assert main(["backbone", str(path), str(tmp_path / "o.csv"),
                     "--method", "MST", "--streaming", "always"]) == 2


# ----------------------------------------------------------------------
# The external pairwise sum
# ----------------------------------------------------------------------

class TestPairwiseFileSum:
    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 127, 128, 129,
                                       1000, 4099, 100003])
    def test_matches_numpy_sum(self, tmp_path, count):
        rng = np.random.default_rng(count)
        values = rng.random(count) * 1e3 - 200.0
        path = tmp_path / "col.bin"
        path.write_bytes(values.tobytes())
        for window in (64, 1 << 20):
            got = pairwise_file_sum(path, count, window_rows=window)
            assert got == float(np.sum(values))

"""Tests for the command-line interface."""

import importlib

import numpy as np
import pytest

from repro.cli import main
from repro.graph import (EdgeTable, read_edge_csv, read_edges,
                         write_edge_csv)


@pytest.fixture()
def edges_csv(tmp_path):
    rng = np.random.default_rng(0)
    src, dst = np.triu_indices(20, k=1)
    weight = rng.integers(1, 50, len(src)).astype(float)
    table = EdgeTable(src, dst, weight, n_nodes=20, directed=False,
                      coalesce=False)
    path = tmp_path / "edges.csv"
    write_edge_csv(table, path)
    return path


class TestBackboneCommand:
    def test_nc_default_delta(self, edges_csv, tmp_path, capsys):
        out = tmp_path / "backbone.csv"
        code = main(["backbone", str(edges_csv), str(out)])
        assert code == 0
        backbone = read_edge_csv(out, directed=False)
        original = read_edge_csv(edges_csv, directed=False)
        assert 0 < backbone.m < original.m
        assert "kept" in capsys.readouterr().out

    def test_share_budget(self, edges_csv, tmp_path):
        out = tmp_path / "backbone.csv"
        assert main(["backbone", str(edges_csv), str(out), "--method",
                     "NT", "--share", "0.2"]) == 0
        backbone = read_edge_csv(out, directed=False)
        original = read_edge_csv(edges_csv, directed=False)
        assert backbone.m == round(0.2 * original.m)

    def test_n_edges_budget(self, edges_csv, tmp_path):
        out = tmp_path / "backbone.csv"
        assert main(["backbone", str(edges_csv), str(out), "--method",
                     "DF", "--n-edges", "15"]) == 0
        assert read_edge_csv(out, directed=False).m == 15

    def test_mst_parameter_free(self, edges_csv, tmp_path):
        out = tmp_path / "backbone.csv"
        assert main(["backbone", str(edges_csv), str(out), "--method",
                     "MST"]) == 0
        backbone = read_edge_csv(out, directed=False)
        assert backbone.m == 19  # spanning tree of 20 connected nodes

    def test_mst_rejects_budget(self, edges_csv, tmp_path, capsys):
        out = tmp_path / "backbone.csv"
        code = main(["backbone", str(edges_csv), str(out), "--method",
                     "MST", "--share", "0.5"])
        assert code == 2
        assert "parameter-free" in capsys.readouterr().err

    def test_budgeted_method_requires_budget(self, edges_csv, tmp_path,
                                             capsys):
        out = tmp_path / "backbone.csv"
        code = main(["backbone", str(edges_csv), str(out), "--method",
                     "NT"])
        assert code == 2
        assert "needs" in capsys.readouterr().err

    def test_budget_flags_mutually_exclusive(self, edges_csv, tmp_path):
        out = tmp_path / "backbone.csv"
        with pytest.raises(SystemExit):
            main(["backbone", str(edges_csv), str(out), "--share", "0.5",
                  "--n-edges", "3"])


class TestNCpDelta:
    def test_delta_reaches_ncp(self):
        """Regression: --delta used to be silently dropped for NCp."""
        from repro.cli import _make_method

        strict = _make_method("NCp", 3.0)
        loose = _make_method("NCp", 0.5)
        assert strict.delta == 3.0
        assert loose.delta == 0.5
        assert strict.p_cut < loose.p_cut

    def test_ncp_extracts_without_budget(self, edges_csv, tmp_path):
        out = tmp_path / "backbone.csv"
        assert main(["backbone", str(edges_csv), str(out), "--method",
                     "NCp"]) == 0
        backbone = read_edge_csv(out, directed=False)
        original = read_edge_csv(edges_csv, directed=False)
        assert 0 < backbone.m <= original.m

    def test_ncp_delta_changes_strictness(self, edges_csv, tmp_path):
        loose_out = tmp_path / "loose.csv"
        strict_out = tmp_path / "strict.csv"
        assert main(["backbone", str(edges_csv), str(loose_out),
                     "--method", "NCp", "--delta", "0.1"]) == 0
        assert main(["backbone", str(edges_csv), str(strict_out),
                     "--method", "NCp", "--delta", "3.0"]) == 0
        loose = read_edge_csv(loose_out, directed=False)
        strict = read_edge_csv(strict_out, directed=False)
        assert strict.m < loose.m


class TestSweepCommand:
    def test_sweep_prints_series(self, edges_csv, capsys):
        assert main(["sweep", str(edges_csv), "--methods", "NT,DF,MST",
                     "--metric", "density", "--shares", "0.2,0.6"]) == 0
        out = capsys.readouterr().out
        assert "density across shares" in out
        assert "NT" in out and "DF" in out
        assert "MST" in out and "natural share" in out

    def test_sweep_cache_dir_round_trip(self, edges_csv, tmp_path,
                                        capsys):
        cache = tmp_path / "cache"
        argv = ["sweep", str(edges_csv), "--methods", "NT,NC",
                "--metric", "coverage", "--cache-dir", str(cache)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "cache:" in cold and "cache:" in warm
        # Identical series; the second run is served from the store.
        strip = lambda text: [line for line in text.splitlines()  # noqa: E731
                              if not line.startswith("cache:")]
        assert strip(cold) == strip(warm)
        assert any(f.suffix == ".npz" for f in cache.rglob("*"))

    def test_sweep_writes_output_csv(self, edges_csv, tmp_path):
        out = tmp_path / "series.csv"
        assert main(["sweep", str(edges_csv), "--methods", "NT",
                     "--metric", "edges", "--shares", "0.5",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,share,value"
        assert lines[1].startswith("NT,0.5,")

    def test_sweep_rejects_unknown_metric(self, edges_csv, capsys):
        assert main(["sweep", str(edges_csv), "--metric", "bogus"]) == 2
        assert "unknown metric" in capsys.readouterr().err

    def test_sweep_reports_a_scoring_error(self, tmp_path, capsys):
        path = tmp_path / "loops.csv"
        write_edge_csv(EdgeTable([0, 1], [0, 1], [1.0, 2.0],
                                 directed=False), path)
        assert main(["sweep", str(path), "--methods", "NT,NC"]) == 2
        assert "error: grand_total must be positive" \
            in capsys.readouterr().err


class TestCacheCommand:
    def warm_cache(self, edges_csv, spec):
        assert main(["sweep", str(edges_csv), "--methods", "NT,NC",
                     "--metric", "density", "--shares", "0.5",
                     "--cache-dir", spec]) == 0

    def test_sweep_accepts_sqlite_cache(self, edges_csv, tmp_path,
                                        capsys):
        db = tmp_path / "scores.sqlite"
        self.warm_cache(edges_csv, str(db))
        cold = capsys.readouterr().out
        self.warm_cache(edges_csv, str(db))
        warm = capsys.readouterr().out
        assert db.exists()
        assert "hits" in warm
        strip = lambda text: [line for line in text.splitlines()  # noqa: E731
                              if not line.startswith("cache:")]
        assert strip(cold) == strip(warm)

    def test_stats_reports_entries(self, edges_csv, tmp_path, capsys):
        # Two scored tables plus the file-fingerprint source binding.
        cache = tmp_path / "cache"
        self.warm_cache(edges_csv, str(cache))
        capsys.readouterr()
        assert main(["cache", "stats", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "entries:  3" in out
        assert "1 source binding" in out
        assert "bytes:" in out

    def test_gc_max_bytes_enforces_bound(self, edges_csv, tmp_path,
                                         capsys):
        cache = tmp_path / "cache"
        self.warm_cache(edges_csv, str(cache))
        capsys.readouterr()
        assert main(["cache", "gc", str(cache), "--max-bytes", "1"]) == 0
        assert "deleted 3/3" in capsys.readouterr().out
        assert main(["cache", "stats", str(cache)]) == 0
        assert "entries:  0" in capsys.readouterr().out

    def test_gc_dry_run_keeps_entries(self, edges_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        self.warm_cache(edges_csv, str(cache))
        capsys.readouterr()
        assert main(["cache", "gc", str(cache), "--max-entries", "0",
                     "--dry-run"]) == 0
        assert "would delete 3/3" in capsys.readouterr().out
        assert main(["cache", "stats", str(cache)]) == 0
        assert "entries:  3" in capsys.readouterr().out

    def test_gc_without_bounds_errors(self, edges_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        self.warm_cache(edges_csv, str(cache))
        capsys.readouterr()
        assert main(["cache", "gc", str(cache)]) == 2
        assert "at least one bound" in capsys.readouterr().err

    def test_migrate_then_warm_sweep_from_dest(self, edges_csv, tmp_path,
                                               capsys):
        cache = tmp_path / "cache"
        self.warm_cache(edges_csv, str(cache))
        capsys.readouterr()
        db = tmp_path / "scores.sqlite"
        assert main(["cache", "migrate", str(cache), str(db)]) == 0
        assert "migrated 3 entries" in capsys.readouterr().out
        # The migrated cache serves the same sweep without rescoring.
        self.warm_cache(edges_csv, str(db))
        assert "2/2 hits" in capsys.readouterr().out


class TestConvertCommand:
    def test_csv_to_npz_and_back_is_identity(self, edges_csv, tmp_path):
        npz = tmp_path / "edges.npz"
        back = tmp_path / "back.csv"
        assert main(["convert", str(edges_csv), str(npz)]) == 0
        assert main(["convert", str(npz), str(back)]) == 0
        assert back.read_text() == edges_csv.read_text()

    def test_npz_preserves_directedness_and_labels(self, tmp_path,
                                                   capsys):
        src = tmp_path / "labeled.csv"
        src.write_text("src,dst,weight\nusa,deu,3.0\ndeu,jpn,1.5\n")
        npz = tmp_path / "labeled.npz"
        assert main(["convert", str(src), str(npz), "--directed"]) == 0
        assert "directed, labeled" in capsys.readouterr().out
        table = read_edges(npz)
        assert table.directed
        assert table.labels == ("usa", "deu", "jpn")

    def test_csv_gz_output(self, edges_csv, tmp_path):
        gz = tmp_path / "edges.csv.gz"
        assert main(["convert", str(edges_csv), str(gz)]) == 0
        assert gz.read_bytes()[:2] == b"\x1f\x8b"
        assert read_edges(gz, directed=False) \
            == read_edges(edges_csv, directed=False)

    def test_convert_reports_parse_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("src,dst,weight\n0,1\n")
        assert main(["convert", str(bad), str(tmp_path / "o.npz")]) == 2
        assert "line 2" in capsys.readouterr().err


class TestFormatAutodetect:
    def test_backbone_npz_to_npz(self, edges_csv, tmp_path):
        npz = tmp_path / "edges.npz"
        main(["convert", str(edges_csv), str(npz)])
        out = tmp_path / "backbone.npz"
        assert main(["backbone", str(npz), str(out), "--method", "NT",
                     "--share", "0.2"]) == 0
        backbone = read_edges(out)
        original = read_edges(npz)
        assert not backbone.directed  # carried through the npz chain
        assert backbone.m == round(0.2 * original.m)

    def test_info_reports_npz_format(self, edges_csv, tmp_path,
                                     capsys):
        npz = tmp_path / "edges.npz"
        main(["convert", str(edges_csv), str(npz)])
        capsys.readouterr()
        assert main(["info", str(npz)]) == 0
        out = capsys.readouterr().out
        assert "format:    npz" in out
        assert "directed:  False" in out

    def test_sweep_reads_npz(self, edges_csv, tmp_path, capsys):
        npz = tmp_path / "edges.npz"
        main(["convert", str(edges_csv), str(npz)])
        capsys.readouterr()
        assert main(["sweep", str(npz), "--methods", "NT",
                     "--metric", "edges", "--shares", "0.5"]) == 0
        assert "NT" in capsys.readouterr().out


class TestSweepFileFingerprint:
    def test_warm_sweep_never_hashes_the_table(self, edges_csv,
                                               tmp_path, monkeypatch):
        """The acceptance contract: a repeat sweep over the same file
        derives its cache keys from the streamed file fingerprint and
        the stored source binding — fingerprint_table is never called
        (so key derivation needs no parse)."""
        # importlib: ``repro.flow`` is also the name of the flow()
        # function, so ``import repro.flow.compile as m`` fails.
        compile_mod = importlib.import_module("repro.flow.compile")

        cache = tmp_path / "cache"
        argv = ["sweep", str(edges_csv), "--methods", "NT,NC",
                "--metric", "density", "--shares", "0.5",
                "--cache-dir", str(cache)]
        assert main(argv) == 0

        def forbidden(table):
            raise AssertionError("fingerprint_table called on a warm "
                                 "file sweep")

        # The flow compiler's binding is the one the CLI sweep calls.
        monkeypatch.setattr(compile_mod, "fingerprint_table", forbidden)
        assert main(argv) == 0

    def test_warm_sweep_hits_for_both_methods(self, edges_csv,
                                              tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["sweep", str(edges_csv), "--methods", "NT,NC",
                "--metric", "density", "--shares", "0.5",
                "--cache-dir", str(cache)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "2/2 hits" in capsys.readouterr().out

    def test_changed_file_misses(self, edges_csv, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["sweep", str(edges_csv), "--methods", "NT",
                "--metric", "density", "--shares", "0.5",
                "--cache-dir", str(cache)]
        assert main(argv) == 0
        text = edges_csv.read_text().splitlines()
        text[1] = text[1].rsplit(",", 1)[0] + ",999.0"
        edges_csv.write_text("\n".join(text) + "\n")
        capsys.readouterr()
        assert main(argv) == 0
        assert "0/1 hits" in capsys.readouterr().out


class TestScoreCommand:
    def test_nc_scores_include_sdev(self, edges_csv, tmp_path):
        out = tmp_path / "scored.csv"
        assert main(["score", str(edges_csv), str(out)]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "src,dst,weight,score,sdev"

    def test_df_scores_no_sdev(self, edges_csv, tmp_path):
        out = tmp_path / "scored.csv"
        assert main(["score", str(edges_csv), str(out), "--method",
                     "DF"]) == 0
        header = out.read_text().splitlines()[0]
        assert header == "src,dst,weight,score"

    def test_score_rows_cover_all_edges(self, edges_csv, tmp_path):
        out = tmp_path / "scored.csv"
        main(["score", str(edges_csv), str(out)])
        original = read_edge_csv(edges_csv, directed=False)
        assert len(out.read_text().splitlines()) == original.m + 1


class TestInfoCommand:
    def test_info_output(self, edges_csv, capsys):
        assert main(["info", str(edges_csv)]) == 0
        out = capsys.readouterr().out
        assert "nodes:     20" in out
        assert "directed:  False" in out
        assert "density:" in out
        # 190 edges: the median is the upper of the two middle weights.
        weights = sorted(read_edges(edges_csv, directed=False).weight)
        assert len(weights) % 2 == 0
        assert f"median={weights[len(weights) // 2]:g} " in out

    def test_unknown_method_rejected(self, edges_csv, tmp_path):
        with pytest.raises(SystemExit):
            main(["backbone", str(edges_csv), str(tmp_path / "o.csv"),
                  "--method", "XYZ"])


class TestNetCommand:
    def test_put_stats_and_kv_source_backbone(self, edges_csv,
                                              tmp_path, capsys):
        import json

        from repro.net import SocketKVServer

        with SocketKVServer() as server:
            address = f"127.0.0.1:{server.port}"
            assert main(["net", "put", address, "edges.csv",
                         str(edges_csv)]) == 0
            url = capsys.readouterr().out.strip()
            assert url == f"kv://{address}/edges.csv"

            assert main(["net", "stats", f"kv://{address}"]) == 0
            stats = json.loads(capsys.readouterr().out)
            assert stats["entries"] == 1

            out = tmp_path / "backbone.csv"
            assert main(["backbone", url, str(out), "--method", "NC",
                         "--delta", "1.0",
                         "--cache-dir", f"kv://{address}"]) == 0
            remote = read_edge_csv(out, directed=False)
            local_out = tmp_path / "local.csv"
            assert main(["backbone", str(edges_csv), str(local_out),
                         "--method", "NC", "--delta", "1.0"]) == 0
            local = read_edge_csv(local_out, directed=False)
            assert remote.m == local.m
            assert np.array_equal(remote.weight, local.weight)

    def test_down_server_reports_cleanly(self, edges_csv, capsys):
        assert main(["net", "stats", "kv://127.0.0.1:1"]) == 1
        assert "no KV server" in capsys.readouterr().err
        assert main(["net", "put", "127.0.0.1:1", "k",
                     str(edges_csv)]) == 1
        assert "no KV server" in capsys.readouterr().err

    def test_bad_address_rejected(self, edges_csv, capsys):
        assert main(["net", "stats", "not-an-address"]) == 2
        assert "bad KV address" in capsys.readouterr().err

    def test_missing_upload_file_reports(self, tmp_path, capsys):
        from repro.net import SocketKVServer

        missing = tmp_path / "nope.csv"
        with SocketKVServer() as server:
            assert main(["net", "put", f"127.0.0.1:{server.port}",
                         "k", str(missing)]) == 2
        err = capsys.readouterr().err
        assert str(missing) in err and "No such file or directory" in err


#: Bad input on every input-reading command: ``(argv, a fragment of
#: the message, whether it must fail before the input is parsed)``.
#: ``{good}`` is a valid edge list, ``{bad}`` has a malformed line,
#: ``{missing}`` does not exist and ``{tmp}`` is the test directory.
ERROR_MATRIX = {
    "share-above-1": (["backbone", "{good}", "{tmp}/o.csv", "--method",
                       "NT", "--share", "1.5"], "share must be in", True),
    "negative-n-edges": (["backbone", "{good}", "{tmp}/o.csv",
                          "--method", "NT", "--n-edges", "-3"],
                         "n_edges must be a non-negative", True),
    "missing-backbone": (["backbone", "{missing}", "{tmp}/o.csv"],
                         "No such file", False),
    "missing-score": (["score", "{missing}", "{tmp}/o.csv"],
                      "No such file", False),
    "missing-info": (["info", "{missing}"], "No such file", False),
    "missing-convert": (["convert", "{missing}", "{tmp}/o.npz"],
                        "No such file", False),
    "missing-sweep": (["sweep", "{missing}"], "No such file", False),
    "malformed-info": (["info", "{bad}"], "line 3", False),
    "malformed-backbone": (["backbone", "{bad}", "{tmp}/o.csv"],
                           "line 3", False),
    "malformed-score": (["score", "{bad}", "{tmp}/o.csv"], "line 3",
                        False),
    "output-dir-missing": (["backbone", "{good}", "{tmp}/no-dir/o.csv"],
                           "No such file", False),
    "bogus-cache-dir": (["backbone", "{good}", "{tmp}/o.csv",
                         "--cache-dir", "bogus://x"],
                        "unknown backend scheme", True),
    "mst-share": (["backbone", "{good}", "{tmp}/o.csv", "--method", "MST",
                   "--share", "0.5"], "parameter-free", True),
    "nt-no-budget": (["backbone", "{good}", "{tmp}/o.csv", "--method",
                      "NT"], "needs exactly one", True),
    "nan-delta": (["backbone", "{good}", "{tmp}/o.csv", "--delta", "nan"],
                  "delta must be non-negative", True),
    "nan-threshold": (["backbone", "{good}", "{tmp}/o.csv", "--method",
                       "NT", "--threshold", "nan"],
                      "threshold must not be NaN", True),
}


class TestErrorBoundary:
    @pytest.mark.parametrize("case", sorted(ERROR_MATRIX))
    def test_bad_input_is_one_error_line(self, case, edges_csv, tmp_path,
                                         monkeypatch, capsys):
        argv, fragment, before_parsing = ERROR_MATRIX[case]
        bad = tmp_path / "bad.csv"
        bad.write_text("src,dst,weight\n0,1,3\n1,2\n")
        paths = {"good": edges_csv, "bad": bad, "tmp": tmp_path,
                 "missing": tmp_path / "missing.csv"}
        if before_parsing:
            from repro import cli
            from repro.flow import sources, spec

            def forbidden(*args, **kwargs):
                raise AssertionError("bad input parsed its source")

            for module in (cli, spec, sources):
                monkeypatch.setattr(module, "read_edges", forbidden)
        assert main([arg.format(**paths) for arg in argv]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert fragment in lines[0] and "Traceback" not in lines[0]

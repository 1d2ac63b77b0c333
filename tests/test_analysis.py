"""repro.analysis: checkers, suppression layers, and the repo gate.

Each checker gets true-positive fixtures (a seeded violation must
fire) and false-positive guards (the idioms the real codebase uses
must stay clean — several guards are distilled from actual repo code:
the daemon's condition-variable batching, the KV server's lock-held
dispatch helpers, the chunk spool's owner-attribute handle). The last
section is the repo-wide gate: ``src/`` must analyze to zero
non-baselined findings.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (Baseline, Checker, Finding, all_checkers,
                            analyze_paths, analyze_source, checker_table,
                            register_checker, registered_checkers)

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def run(source, path="mod.py"):
    return analyze_source(path, textwrap.dedent(source))


def codes(source, path="mod.py"):
    return [f.code for f in run(source, path).findings]


# ---------------------------------------------------------------------
# RPA001 — lock discipline
# ---------------------------------------------------------------------

class TestLockDiscipline:
    def test_unguarded_write_to_guarded_attr_fires(self):
        report = run("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def add(self, x):
                    with self._lock:
                        self.items.append(x)

                def reset(self):
                    self.items = []
        """)
        assert [f.code for f in report.findings] == ["RPA001"]
        finding = report.findings[0]
        assert finding.scope == "Box.reset"
        assert finding.detail == "items"

    def test_mutating_call_counts_as_write(self):
        assert codes("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def add(self, x):
                    with self._lock:
                        self.items.append(x)

                def drain(self):
                    self.items.clear()
        """) == ["RPA001"]

    def test_subscript_store_counts_as_write(self):
        # self.entries[k] = v mutates `entries` exactly like
        # assignment: it both establishes lock-guard evidence and,
        # unlocked, violates it.
        report = run("""
            import threading

            class Cache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.entries = {}

                def put(self, k, v):
                    with self._lock:
                        self.entries[k] = v

                def evict(self, k):
                    del self.entries[k]
        """)
        assert [f.code for f in report.findings] == ["RPA001"]
        assert report.findings[0].scope == "Cache.evict"
        assert report.findings[0].detail == "entries"

    def test_init_writes_are_exempt(self):
        assert codes("""
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def add(self, x):
                    with self._lock:
                        self.items.append(x)
        """) == []

    def test_condition_variable_counts_as_lock(self):
        # Distilled from BackboneDaemon: a Condition guards _pending
        # and _stopping; every non-init write must hold it.
        assert codes("""
            import threading

            class Daemon:
                def __init__(self):
                    self._cond = threading.Condition()
                    self._stopping = False

                def stop(self):
                    with self._cond:
                        self._stopping = True
                        self._cond.notify_all()

                def start(self):
                    self._stopping = False
        """) == ["RPA001"]

    def test_lock_held_helper_inference(self):
        # Distilled from SocketKVServer.serve -> _dispatch: a private
        # helper whose every call site holds the lock may write
        # guarded attributes lock-free (lexically).
        assert codes("""
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.data = {}

                def serve(self, key, value):
                    with self._lock:
                        self._dispatch(key, value)

                def flush(self):
                    with self._lock:
                        self.data = {}

                def _dispatch(self, key, value):
                    self.data[key] = value
                    self.data.update({})
        """) == []

    def test_helper_with_unlocked_call_site_not_inferred(self):
        assert codes("""
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def locked(self):
                    with self._lock:
                        self._bump()

                def unlocked(self):
                    self._bump()

                def _bump(self):
                    self.count += 1
        """) == ["RPA001"]

    def test_class_without_lock_is_out_of_scope(self):
        assert codes("""
            class Plain:
                def __init__(self):
                    self.items = []

                def reset(self):
                    self.items = []
        """) == []

    def test_never_guarded_attr_not_flagged(self):
        # An attribute that is *never* written under the lock is not
        # part of the guarded set (e.g. ChaosProxy.connections).
        assert codes("""
            import threading

            class Proxy:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.connections = 0
                    self._behaviors = []

                def push(self, b):
                    with self._lock:
                        self._behaviors.append(b)

                def handle(self):
                    self.connections += 1
        """) == []

    def test_module_level_lock_discipline(self):
        report = run("""
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            def put(key, value):
                with _LOCK:
                    _CACHE[key] = value

            def evict(key):
                _CACHE.pop(key, None)
        """)
        assert [f.code for f in report.findings] == ["RPA001"]
        assert report.findings[0].detail == "_CACHE"

    def test_module_level_lock_held_function_inference(self):
        # Distilled from flow/sources.py: _spool_insert only ever runs
        # under _SPOOL_LOCK, so its lock-free mutations are fine.
        assert codes("""
            import threading

            _LOCK = threading.Lock()
            _CACHE = {}

            def fetch(key, value):
                with _LOCK:
                    _insert(key, value)

            def trim():
                with _LOCK:
                    _CACHE.clear()

            def _insert(key, value):
                _CACHE[key] = value
        """) == []

    def test_local_shadowing_is_not_a_global_write(self):
        assert codes("""
            import threading

            _LOCK = threading.Lock()
            _TOTAL = 0

            def bump():
                global _TOTAL
                with _LOCK:
                    _TOTAL += 1

            def report():
                _TOTAL = 99
                return _TOTAL
        """) == []


# ---------------------------------------------------------------------
# RPA002 — cross-process picklability
# ---------------------------------------------------------------------

class TestPicklability:
    def test_lambda_to_parallel_map_fires(self):
        report = run("""
            from repro.util.parallel import parallel_map

            def go(items):
                return parallel_map(lambda x: x + 1, items, workers=2)
        """)
        assert [f.code for f in report.findings] == ["RPA002"]
        assert report.findings[0].detail == "lambda"

    def test_nested_def_to_parallel_map_fires(self):
        assert codes("""
            from repro.util.parallel import parallel_map

            def go(items):
                def work(x):
                    return x + 1
                return parallel_map(work, items, workers=2)
        """) == ["RPA002"]

    def test_module_level_function_and_partial_are_fine(self):
        # The repo idiom (sp_engine, executor): module-level worker +
        # functools.partial for bound arguments.
        assert codes("""
            from functools import partial
            from repro.util.parallel import parallel_map

            def _work(csr, chunk):
                return chunk

            def go(csr, chunks):
                return parallel_map(partial(_work, csr), chunks,
                                    workers=2)
        """) == []

    def test_seam_class_holding_lock_fires(self):
        report = run("""
            import threading
            from repro.backbones.base import BackboneMethod

            class Racy(BackboneMethod):
                def __init__(self):
                    self._lock = threading.Lock()
        """)
        assert [f.code for f in report.findings] == ["RPA002"]
        assert report.findings[0].detail == "_lock"

    def test_transitive_seam_subclass_fires(self):
        assert codes("""
            from repro.backbones.base import BackboneMethod

            class Base(BackboneMethod):
                pass

            class Leaky(Base):
                def __init__(self, path):
                    self._handle = open(path, "rb")
        """) == ["RPA002"]

    def test_seam_class_with_plain_state_is_fine(self):
        # Distilled from ChaosMethod: wrapped method + tuple of hooks.
        assert codes("""
            from repro.backbones.base import BackboneMethod

            class Wrapper(BackboneMethod):
                def __init__(self, inner, hooks=()):
                    self._inner = inner
                    self._hooks = tuple(hooks)
        """) == []

    def test_non_seam_class_may_hold_locks(self):
        assert codes("""
            import threading

            class LocalOnly:
                def __init__(self):
                    self._lock = threading.Lock()
        """) == []


# ---------------------------------------------------------------------
# RPA003 — fingerprint purity
# ---------------------------------------------------------------------

class TestFingerprintPurity:
    def test_execution_knob_read_fires(self):
        report = run("""
            def fingerprint_request(table, params):
                return hash((table, params.workers))
        """)
        assert [f.code for f in report.findings] == ["RPA003"]
        assert report.findings[0].detail == "workers"

    def test_nondeterminism_call_fires(self):
        assert codes("""
            import time

            def fingerprint_run(table):
                return hash((table, time.time()))
        """) == ["RPA003"]

    def test_os_environ_read_fires(self):
        assert codes("""
            import os

            def fingerprint_env(table):
                return hash((table, os.environ.get("HOME")))
        """) == ["RPA003"]

    def test_fingerprint_module_checked_wholesale(self):
        assert codes("""
            import random

            def _helper():
                return random.random()
        """, path="src/repro/pipeline/fingerprint.py") == ["RPA003"]

    def test_string_key_exclusion_is_the_fix_not_a_leak(self):
        # Distilled from method_config: excluding knobs by string key
        # must not trip the checker.
        assert codes("""
            def method_config(method):
                config = dict(vars(method))
                config.pop("workers", None)
                extraction = getattr(method,
                                     "extraction_only_params", ())
                return {k: v for k, v in config.items()
                        if k not in set(extraction)}
        """) == []

    def test_non_fingerprint_code_may_read_knobs(self):
        assert codes("""
            def score(table, params):
                return params.workers * 2
        """) == []


# ---------------------------------------------------------------------
# RPA004 — resource leaks
# ---------------------------------------------------------------------

class TestResourceLeaks:
    PATH = "src/repro/net/demo.py"

    def test_bare_open_fires(self):
        report = run("""
            def read_all(path):
                handle = open(path, "rb")
                data = handle.read(4096)
                handle.close()
                return data
        """, path=self.PATH)
        assert [f.code for f in report.findings] == ["RPA004"]

    def test_with_block_is_fine(self):
        assert codes("""
            def read_all(path):
                with open(path, "rb") as handle:
                    return handle.read(4096)
        """, path=self.PATH) == []

    def test_owner_attribute_with_teardown_is_fine(self):
        # Distilled from ChunkSpool: the class owns the handle and
        # exposes close().
        assert codes("""
            class Spool:
                def __init__(self, path):
                    self._handle = open(path, "wb")

                def close(self):
                    self._handle.close()
        """, path=self.PATH) == []

    def test_owner_attribute_without_teardown_fires(self):
        assert codes("""
            class Reader:
                def __init__(self, path):
                    self._handle = open(path, "rb")

                def more(self):
                    return self._handle.read(4096)
        """, path=self.PATH) == ["RPA004"]

    def test_close_in_finally_is_fine(self):
        # Distilled from ChaosProxy._forward: connect, then guarantee
        # teardown in the finally.
        assert codes("""
            import socket

            def forward(addr, payload):
                upstream = socket.create_connection(addr)
                try:
                    upstream.sendall(payload)
                finally:
                    upstream.close()
        """, path=self.PATH) == []

    def test_factory_return_transfers_ownership(self):
        assert codes("""
            def open_run(path):
                return open(path, "rb")
        """, path=self.PATH) == []

    def test_comprehension_into_owner_attribute_is_fine(self):
        # Distilled from _CanonicalWriter: a list of handles is still
        # owned if the class can tear them down.
        assert codes("""
            class Writer:
                def __init__(self, names):
                    self._handles = [open(n, "wb") for n in names]

                def close(self):
                    for handle in self._handles:
                        handle.close()
        """, path=self.PATH) == []

    def test_only_applies_to_net_stream_serve(self):
        assert codes("""
            def read_all(path):
                handle = open(path, "rb")
                return handle
        """, path="src/repro/graph/metrics.py") == []


# ---------------------------------------------------------------------
# RPA005 — streaming-memory discipline
# ---------------------------------------------------------------------

class TestStreamingMemory:
    PATH = "src/repro/stream/demo.py"

    def test_unbounded_read_fires(self):
        report = run("""
            def slurp(handle):
                return handle.read()
        """, path=self.PATH)
        assert [f.code for f in report.findings] == ["RPA005"]

    def test_sized_read_is_fine(self):
        assert codes("""
            def chunk(handle):
                return handle.read(1 << 20)
        """, path=self.PATH) == []

    def test_read_text_fires(self):
        assert codes("""
            def slurp(path):
                return path.read_text()
        """, path=self.PATH) == ["RPA005"]

    def test_unbounded_loadtxt_fires(self):
        assert codes("""
            import numpy as np

            def load(path):
                return np.loadtxt(path)
        """, path=self.PATH) == ["RPA005"]

    def test_bounded_fromfile_is_fine(self):
        # Distilled from _RunReader._column: every np.fromfile carries
        # an explicit count.
        assert codes("""
            import numpy as np

            def column(handle, rows):
                return np.fromfile(handle, dtype=np.int64,
                                   count=rows)
        """, path=self.PATH) == []

    def test_only_applies_to_streaming_surfaces(self):
        assert codes("""
            def slurp(handle):
                return handle.read()
        """, path="src/repro/flow/spec.py") == []


# ---------------------------------------------------------------------
# Inline ignores
# ---------------------------------------------------------------------

class TestIgnores:
    SOURCE = """
        def slurp(handle):
            return handle.read()  # repro: ignore[RPA005] tiny file
    """

    def test_same_line_ignore_suppresses(self):
        report = run(self.SOURCE, path="src/repro/stream/demo.py")
        assert report.findings == ()
        assert [f.code for f in report.ignored] == ["RPA005"]
        assert report.unused_ignores == ()

    def test_comment_line_above_suppresses(self):
        report = run("""
            def slurp(handle):
                # repro: ignore[RPA005] header blob is bounded by the
                # container format; reading it whole is the contract
                return handle.read()
        """, path="src/repro/stream/demo.py")
        assert report.findings == ()
        assert [f.code for f in report.ignored] == ["RPA005"]

    def test_wrong_code_does_not_suppress(self):
        report = run("""
            def slurp(handle):
                return handle.read()  # repro: ignore[RPA001] nope
        """, path="src/repro/stream/demo.py")
        assert [f.code for f in report.findings] == ["RPA005"]
        assert report.unused_ignores == ((3, "RPA001"),)

    def test_multiple_codes_one_comment(self):
        report = run("""
            def hold(path):
                handle = open(path)  # repro: ignore[RPA004, RPA005]
                return handle.read()  # repro: ignore[RPA005]
        """, path="src/repro/stream/demo.py")
        assert report.findings == ()
        assert {f.code for f in report.ignored} == {"RPA004",
                                                    "RPA005"}
        # The RPA005 half of the first comment suppressed nothing.
        assert report.unused_ignores == ((3, "RPA005"),)

    def test_ignore_inside_string_is_not_an_escape(self):
        report = run('''
            def slurp(handle):
                note = "# repro: ignore[RPA005]"
                return note, handle.read()
        ''', path="src/repro/stream/demo.py")
        assert [f.code for f in report.findings] == ["RPA005"]

    def test_unused_ignore_fails_the_run(self):
        report = run("""
            def fine():  # repro: ignore[RPA001]
                return 1
        """)
        assert report.findings == ()
        assert report.unused_ignores == ((2, "RPA001"),)


# ---------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------

class TestBaseline:
    def _finding(self, **kw):
        base = dict(path="src/repro/stream/demo.py", line=3, col=11,
                    code="RPA005", message="m", scope="slurp",
                    detail="read")
        base.update(kw)
        return Finding(**base)

    def test_baseline_absorbs_matching_finding(self, tmp_path):
        source = textwrap.dedent("""
            def slurp(handle):
                return handle.read()
        """)
        path = tmp_path / "src" / "repro" / "stream" / "demo.py"
        path.parent.mkdir(parents=True)
        path.write_text(source)
        rel = "src/repro/stream/demo.py"
        baseline = Baseline([self._finding(path=rel)])
        report = analyze_paths([path], root=tmp_path,
                               baseline=baseline)
        assert report.findings != ()
        assert report.baseline.new == ()
        assert len(report.baseline.matched) == 1
        assert report.exit_code() == 0

    def test_multiset_matching(self):
        baseline = Baseline([self._finding()])
        live = [self._finding(line=3), self._finding(line=9)]
        result = baseline.apply(live)
        assert len(result.matched) == 1
        assert len(result.new) == 1
        assert result.stale == ()

    def test_line_moves_do_not_invalidate_baseline(self):
        baseline = Baseline([self._finding(line=3)])
        result = baseline.apply([self._finding(line=300, col=0)])
        assert result.new == ()
        assert len(result.matched) == 1

    def test_stale_entries_are_reported(self):
        baseline = Baseline([self._finding()])
        result = baseline.apply([])
        assert result.stale == (self._finding().key(),)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "baseline.json"
        Baseline([self._finding()]).save(path)
        loaded = Baseline.load(path)
        assert [e.key() for e in loaded.entries] \
            == [self._finding().key()]

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "findings": []}))
        with pytest.raises(ValueError):
            Baseline.load(path)


# ---------------------------------------------------------------------
# Engine / registry plumbing
# ---------------------------------------------------------------------

class TestEngine:
    def test_syntax_error_is_reported_not_raised(self):
        report = run("def broken(:\n    pass")
        assert report.error is not None
        assert "syntax error" in report.error

    def test_registry_has_the_five_shipped_checkers(self):
        assert [cls.CODE for cls in registered_checkers()] == [
            "RPA001", "RPA002", "RPA003", "RPA004", "RPA005"]
        assert len(checker_table()) == len(registered_checkers())

    def test_duplicate_code_registration_rejected(self):
        class Rogue(Checker):
            CODE = "RPA001"

        with pytest.raises(ValueError):
            register_checker(Rogue)

    def test_custom_checker_runs(self):
        class NoTodo(Checker):
            CODE = "RPA999"
            NAME = "no-todo-name"

            def check(self, module):
                import ast
                for node in ast.walk(module.tree):
                    if isinstance(node, ast.FunctionDef) \
                            and node.name == "todo":
                        yield self.finding(module, node, "todo stub",
                                           scope=node.name,
                                           detail=node.name)

        report = analyze_source("mod.py", "def todo():\n    pass\n",
                                checkers=[NoTodo()])
        assert [f.code for f in report.findings] == ["RPA999"]

    def test_finding_render_and_json_shape(self):
        report = run("""
            def slurp(handle):
                return handle.read()
        """, path="src/repro/stream/demo.py")
        finding = report.findings[0]
        rendered = finding.render()
        assert "src/repro/stream/demo.py:3" in rendered
        assert "RPA005" in rendered
        assert Finding.from_dict(finding.to_dict()) == finding


# ---------------------------------------------------------------------
# The repo gate and the CLI
# ---------------------------------------------------------------------

class TestRepoGate:
    def test_src_has_zero_nonbaselined_findings(self):
        baseline_path = REPO_ROOT / "analysis-baseline.json"
        baseline = Baseline.load(baseline_path) \
            if baseline_path.exists() else None
        report = analyze_paths([SRC], root=REPO_ROOT,
                               baseline=baseline)
        assert report.errors == ()
        assert report.effective == (), "\n" + report.render_text()
        assert report.unused_ignores == (), "\n" + report.render_text()

    def test_cli_analyze_clean_run(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", "src",
             "--no-baseline"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 finding(s)" in result.stdout

    def test_cli_analyze_json_on_seeded_violation(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "stream" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def slurp(handle):\n"
                       "    return handle.read()\n")
        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze",
             str(bad), "--format", "json", "--no-baseline"],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
        assert result.returncode == 1, result.stdout + result.stderr
        payload = json.loads(result.stdout)
        assert payload["exit_code"] == 1
        assert [f["code"] for f in payload["findings"]] == ["RPA005"]

    def test_all_checkers_builds_fresh_instances(self):
        first, second = all_checkers(), all_checkers()
        assert [type(c) for c in first] == [type(c) for c in second]
        assert all(a is not b for a, b in zip(first, second))

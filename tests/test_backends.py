"""Parity suite for the pluggable ScoreStore backends.

Every backend — the content-addressed directory, the single-file
SQLite store, the remote-style KV client over the in-memory
transport, and the same client over a real socket to a server
*subprocess* — must behave identically through the
:class:`ScoreStore` contract: bit-identical ``ScoredEdges``
round-trips, corrupt/tampered entries quarantined and recomputed
(never served), negative results persisted and re-raised, LRU
garbage collection enforcing byte/entry/age bounds, and raw
``migrate`` moves preserving entries exactly. The scenarios below run
once per backend via the ``harness`` fixture, plus backend-specific
checks (KV retry/timeout semantics, directory format compatibility
with caches written before backends existed).

The socket kind drives the server's testing ops (``flush`` for
per-test isolation, ``set_clock`` for LRU manipulation,
``debug_set_payload`` for corruption) across the process boundary,
so the exact same clock-twiddling scenarios run against a cache that
genuinely lives in another process.
"""

import json
import time

import numpy as np
import pytest

from repro.backbones.base import ScoredEdges
from repro.backbones.doubly_stochastic import SinkhornConvergenceError
from repro.backbones.high_salience import HighSalienceSkeleton
from repro.backbones.naive import NaiveThreshold
from repro.core.noise_corrected import NoiseCorrectedBackbone
from repro.graph.edge_table import EdgeTable
from repro.net import SocketKVTransport
from repro.pipeline import GCPolicy, NegativeEntry, ScoreStore
from repro.pipeline.backends import (DirectoryBackend, InMemoryKVServer,
                                     KVBackend, KVTransientError,
                                     KVUnavailableError,
                                     RawEntry, SQLiteBackend,
                                     decode_entry, encode_scored,
                                     open_backend, run_gc)

BACKEND_KINDS = ("directory", "sqlite", "kv", "socket")


def random_scored(seed: int, method=None) -> ScoredEdges:
    rng = np.random.default_rng(seed)
    n_nodes, n_edges = 16, 50
    table = EdgeTable(rng.integers(0, n_nodes, n_edges),
                      rng.integers(0, n_nodes, n_edges),
                      rng.integers(1, 40, n_edges).astype(float),
                      n_nodes=n_nodes)
    return (method or NoiseCorrectedBackbone()).score(table)


def assert_scored_identical(a: ScoredEdges, b: ScoredEdges) -> None:
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


class BackendHarness:
    """Uniform make/reopen/corrupt operations over one backend kind."""

    def __init__(self, kind: str, tmp_path, socket_address=None):
        self.kind = kind
        self.tmp_path = tmp_path
        self._clock_value = 1_000.0
        self.server = InMemoryKVServer(clock=self.clock)
        self._control = None
        if kind == "socket":
            host, port = socket_address
            self.socket_address = (host, port)
            # Control channel for the server's testing ops; flushing
            # isolates this test from whoever shared the server.
            self._control = SocketKVTransport(host, port, timeout=5.0)
            self._control.request("flush")
            self._push_clock()

    def clock(self):
        return self._clock_value

    @property
    def clock_value(self):
        return self._clock_value

    @clock_value.setter
    def clock_value(self, value):
        # LRU tests steer time; the socket server's clock lives in
        # another process and is steered over the wire.
        self._clock_value = value
        if self._control is not None:
            self._push_clock()

    def _push_clock(self):
        self._control.request("set_clock",
                              value={"value": self._clock_value})

    def make(self):
        if self.kind == "directory":
            return DirectoryBackend(self.tmp_path / "cache",
                                    clock=self.clock)
        if self.kind == "sqlite":
            return SQLiteBackend(self.tmp_path / "cache.sqlite",
                                 clock=self.clock)
        if self.kind == "socket":
            host, port = self.socket_address
            return KVBackend(SocketKVTransport(host, port, timeout=5.0))
        return KVBackend(transport=self.server)

    def reopen(self):
        """A second client over the same stored data (for the socket
        kind: a genuinely separate connection)."""
        return self.make()

    def _overwrite_payload(self, backend, key, payload):
        if self.kind == "directory":
            npz_path, _ = backend._paths(key)
            npz_path.write_bytes(payload)
        elif self.kind == "sqlite":
            with backend._conn:
                backend._conn.execute(
                    "UPDATE entries SET payload = ? WHERE key = ?",
                    (payload, key))
        elif self.kind == "socket":
            self._control.request("debug_set_payload", key=key,
                                  value={"payload": payload})
        else:
            self.server.data[key]["payload"] = payload

    def corrupt_payload(self, backend, key):
        """Damage the stored arrays at the raw level."""
        self._overwrite_payload(backend, key, b"garbage")

    def tamper_scores(self, backend, key):
        """Replace the payload with a valid npz of perturbed scores,
        leaving the recorded digest stale."""
        raw = backend.get(key, touch=False)
        scored = decode_entry(raw)
        poisoned = ScoredEdges(table=scored.table,
                               score=scored.score + 1e-9,
                               method=scored.method, sdev=scored.sdev,
                               info=scored.info)
        fake = encode_scored(key, poisoned)
        # Keep the *old* metadata (and digest) with the new payload.
        self._overwrite_payload(backend, key, fake.payload)


def make_harness(kind, tmp_path, request):
    address = request.getfixturevalue("socket_kv_server") \
        if kind == "socket" else None
    return BackendHarness(kind, tmp_path, socket_address=address)


@pytest.fixture(params=BACKEND_KINDS)
def harness(request, tmp_path):
    return make_harness(request.param, tmp_path, request)


class TestBackendParity:
    def test_round_trip_bit_identical_across_clients(self, harness):
        store = ScoreStore(backend=harness.make())
        scored = random_scored(1)
        store.put("aa1111", scored)
        fresh = ScoreStore(backend=harness.reopen())
        loaded = fresh.get("aa1111")
        assert fresh.stats.disk_hits == 1
        assert_scored_identical(loaded, scored)

    def test_round_trip_preserves_info_and_sdev(self, harness):
        scored = random_scored(2, HighSalienceSkeleton(roots=4, seed=7))
        assert scored.info is not None
        store = ScoreStore(backend=harness.make())
        store.put("aa2222", scored)
        store.clear_memory()
        assert_scored_identical(store.get("aa2222"), scored)

    def test_contains_delete_keys(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        store.put("aa3333", random_scored(3))
        store.put("bb4444", random_scored(4))
        assert sorted(backend.keys()) == ["aa3333", "bb4444"]
        assert backend.contains("aa3333")
        assert backend.delete("aa3333")
        assert not backend.contains("aa3333")
        assert not backend.delete("aa3333")
        assert backend.keys() == ["bb4444"]

    def test_stats_report_entries_and_bytes(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        store.put("aa5555", random_scored(5))
        stats = backend.stats()
        assert stats.entries == 1
        assert stats.bytes > 0

    def test_corrupt_payload_is_quarantined_and_healed(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        scored = random_scored(6)
        store.put("aa6666", scored)
        store.clear_memory()
        harness.corrupt_payload(backend, "aa6666")
        calls = []

        def recompute():
            calls.append(1)
            return scored

        served = store.get_or_compute("aa6666", recompute)
        assert calls == [1]
        assert store.stats.corrupt == 1
        assert_scored_identical(served, scored)
        store.clear_memory()
        assert_scored_identical(store.get("aa6666"), scored)  # healed

    def test_tampered_scores_detected_by_digest(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        store.put("aa7777", random_scored(7))
        store.clear_memory()
        harness.tamper_scores(backend, "aa7777")
        assert store.get("aa7777") is None
        assert store.stats.corrupt == 1
        assert not backend.contains("aa7777")  # quarantined

    def test_untouched_reads_leave_lru_order_alone(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        harness.clock_value = 1_000.0
        store.put("aapeek1", random_scored(8))
        harness.clock_value = 5_000.0
        backend.get("aapeek1", touch=False)
        backend.peek_meta("aapeek1")
        info = backend.entries()[0]
        assert info.last_access == 1_000.0  # admin reads don't count
        backend.get("aapeek1")
        assert backend.entries()[0].last_access == 5_000.0

    def test_entries_flag_negative_results(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        store.put("aaflag1", random_scored(9))
        store.put_negative("bbflag2", NegativeEntry(
            kind="k", method="m", message="msg",
            exception="builtins.RuntimeError"))
        flags = {info.key: info.negative for info in backend.entries()}
        assert flags == {"aaflag1": False, "bbflag2": True}

    def test_negative_entry_round_trip(self, harness):
        store = ScoreStore(backend=harness.make())
        negative = NegativeEntry.from_exception(
            SinkhornConvergenceError("cannot balance"), method="DS")
        store.put_negative("aa8888", negative)
        fresh = ScoreStore(backend=harness.reopen())
        with pytest.raises(SinkhornConvergenceError, match="balance"):
            fresh.get_or_compute("aa8888", lambda: pytest.fail("computed"))
        assert fresh.stats.negative_hits == 1
        assert fresh.get("aa8888") is None  # plain get: not a positive

    def test_gc_lru_order_respects_access(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        for index, key in enumerate(("aalru0", "bblru1", "cclru2")):
            harness.clock_value = 1_000.0 + index
            store.put(key, random_scored(10 + index))
        store.clear_memory()
        harness.clock_value = 2_000.0
        store.get("aalru0")  # oldest entry becomes most recent
        result = store.gc(max_entries=2)
        assert result.deleted == 1
        assert set(backend.keys()) == {"aalru0", "cclru2"}
        assert "bblru1" not in store  # memory tier purged too

    def test_gc_max_bytes_enforces_bound(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        for index, key in enumerate(("aagc00", "bbgc11", "ccgc22")):
            harness.clock_value = 1_000.0 + index
            store.put(key, random_scored(20 + index))
        total = backend.stats().bytes
        single = total // 3
        result = store.gc(max_bytes=2 * single)
        assert backend.stats().bytes <= 2 * single
        assert result.deleted >= 1
        assert result.kept_bytes == backend.stats().bytes

    def test_gc_max_age_evicts_idle_entries(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        harness.clock_value = 1_000.0
        store.put("aaold1", random_scored(30))
        harness.clock_value = 9_000.0
        store.put("bbnew1", random_scored(31))
        result = run_gc(backend, GCPolicy(max_age=100.0),
                        clock=lambda: 9_010.0)
        assert result.deleted == 1
        assert backend.keys() == ["bbnew1"]

    def test_gc_dry_run_deletes_nothing(self, harness):
        backend = harness.make()
        store = ScoreStore(backend=backend)
        store.put("aadry1", random_scored(32))
        result = store.gc(max_entries=0, dry_run=True)
        assert result.deleted == 1 and result.dry_run
        assert backend.contains("aadry1")

    def test_sweep_through_backend_matches_serial(self, harness):
        from sweep_reference import direct_sweep

        from repro.flow import sweep_methods
        from repro.pipeline import DensityMetric

        rng = np.random.default_rng(33)
        table = EdgeTable(rng.integers(0, 25, 100),
                          rng.integers(0, 25, 100),
                          rng.integers(1, 30, 100).astype(float),
                          n_nodes=25)
        methods = [NaiveThreshold(), NoiseCorrectedBackbone()]
        direct = direct_sweep(methods, table, DensityMetric())
        store = ScoreStore(backend=harness.make())
        cold = sweep_methods(methods, table, DensityMetric(), store=store)
        warm_store = ScoreStore(backend=harness.reopen())
        warm = sweep_methods(methods, table, DensityMetric(),
                             store=warm_store)
        assert direct == cold == warm
        assert warm_store.stats.disk_hits == 2


class TestMigrate:
    def _populated(self, tmp_path):
        source = DirectoryBackend(tmp_path / "src-cache")
        store = ScoreStore(backend=source)
        originals = {
            "aamig1": random_scored(40),
            "bbmig2": random_scored(41, HighSalienceSkeleton(roots=3,
                                                             seed=1)),
        }
        for key, scored in originals.items():
            store.put(key, scored)
        store.put_negative("ccmig3", NegativeEntry(
            kind="sinkhorn-nonconvergence", method="DS",
            message="cannot balance",
            exception="repro.backbones.doubly_stochastic"
                      ".SinkhornConvergenceError"))
        return source, originals

    def _migrate(self, source, dest):
        for key in source.keys():
            dest.put(key, source.get(key, touch=False))

    @pytest.mark.parametrize("dest_kind", BACKEND_KINDS)
    def test_migrate_preserves_entries_exactly(self, tmp_path, dest_kind,
                                               request):
        source, originals = self._populated(tmp_path)
        dest = make_harness(dest_kind, tmp_path, request).make()
        self._migrate(source, dest)
        assert sorted(dest.keys()) == sorted(source.keys())
        migrated = ScoreStore(backend=dest)
        for key, scored in originals.items():
            assert_scored_identical(migrated.get(key), scored)
        with pytest.raises(SinkhornConvergenceError):
            migrated.get_or_compute("ccmig3",
                                    lambda: pytest.fail("computed"))

    def test_round_trip_through_sqlite_and_back(self, tmp_path):
        source, originals = self._populated(tmp_path)
        middle = SQLiteBackend(tmp_path / "mid.sqlite")
        self._migrate(source, middle)
        final = DirectoryBackend(tmp_path / "final-cache")
        self._migrate(middle, final)
        store = ScoreStore(backend=final)
        for key, scored in originals.items():
            assert_scored_identical(store.get(key), scored)
        # Raw payload bytes and digests survive both hops untouched.
        for key in originals:
            first = source.get(key, touch=False)
            last = final.get(key, touch=False)
            assert first.payload == last.payload
            assert first.meta["payload_sha256"] \
                == last.meta["payload_sha256"]


class TestDirectoryFormatCompatibility:
    def test_reads_sidecars_written_before_backends_existed(self,
                                                            tmp_path):
        """Entries from the pre-backend ScoreStore lack ``last_access``;
        they must load unchanged and GC must fall back to file mtime."""
        backend = DirectoryBackend(tmp_path / "cache")
        store = ScoreStore(backend=backend)
        scored = random_scored(50)
        store.put("aacompat", scored)
        _, json_path = backend._paths("aacompat")
        meta = json.loads(json_path.read_text())
        del meta["last_access"]
        json_path.write_text(json.dumps(meta, sort_keys=True, indent=1))
        store.clear_memory()
        assert_scored_identical(store.get("aacompat"), scored)
        infos = backend.entries()
        assert len(infos) == 1
        assert infos[0].last_access <= time.time() + 1.0

    def test_half_written_pair_quarantined(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "cache")
        store = ScoreStore(backend=backend)
        store.put("aahalf1", random_scored(51))
        store.clear_memory()
        npz_path, json_path = backend._paths("aahalf1")
        json_path.unlink()
        assert "aahalf1" not in store
        assert store.get("aahalf1") is None
        assert store.stats.corrupt == 1
        assert not npz_path.exists()  # remnant cleared

    def test_negative_entry_is_sidecar_only(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "cache")
        store = ScoreStore(backend=backend)
        store.put_negative("aaneg01", NegativeEntry(
            kind="k", method="m", message="msg", exception="builtins.None"))
        npz_path, json_path = backend._paths("aaneg01")
        assert json_path.exists() and not npz_path.exists()
        assert backend.contains("aaneg01")


class TestKVSemantics:
    def test_transient_faults_are_retried(self):
        server = InMemoryKVServer()
        backend = KVBackend(transport=server, max_attempts=3)
        store = ScoreStore(backend=backend)
        scored = random_scored(60)
        server.inject_faults(KVTransientError("reset"),
                             KVTransientError("reset"))
        store.put("aakv001", scored)
        assert backend.retries == 2
        store.clear_memory()
        assert_scored_identical(store.get("aakv001"), scored)

    def test_retries_exhausted_raise_unavailable(self):
        server = InMemoryKVServer()
        backend = KVBackend(transport=server, max_attempts=2)
        server.inject_faults(KVTransientError("a"), KVTransientError("b"),
                             KVTransientError("c"))
        with pytest.raises(KVUnavailableError, match="2 attempts"):
            backend.get("aakv002")

    def test_slow_server_times_out(self):
        server = InMemoryKVServer(latency=0.5)
        backend = KVBackend(transport=server, timeout=0.1, max_attempts=2)
        with pytest.raises(KVUnavailableError):
            backend.contains("aakv003")
        assert backend.retries == 2

    def test_timeout_within_budget_succeeds(self):
        server = InMemoryKVServer(latency=0.5)
        backend = KVBackend(transport=server, timeout=1.0)
        backend.put("aakv004", RawEntry(meta={"schema": 1}, payload=None))
        assert backend.contains("aakv004")

    def test_malformed_record_reported_corrupt(self):
        server = InMemoryKVServer()
        backend = KVBackend(transport=server)
        server.data["aakv005"] = {"payload": b"x", "size": 1,
                                  "last_access": 0.0}  # no meta
        store = ScoreStore(backend=backend)
        assert store.get("aakv005") is None
        assert store.stats.corrupt == 1
        assert not backend.contains("aakv005")

    def test_worker_spec_is_process_local(self):
        assert KVBackend().spec() is None
        assert ScoreStore(backend=KVBackend()).worker_spec() is None


class TestOpenBackend:
    def test_directory_default(self, tmp_path):
        backend = open_backend(tmp_path / "plain")
        assert isinstance(backend, DirectoryBackend)
        assert backend.spec() == str(tmp_path / "plain")

    def test_sqlite_by_suffix_and_scheme(self, tmp_path):
        assert isinstance(open_backend(tmp_path / "x.sqlite"),
                          SQLiteBackend)
        assert isinstance(open_backend(tmp_path / "x.db"), SQLiteBackend)
        by_scheme = open_backend(f"sqlite://{tmp_path}/y")
        assert isinstance(by_scheme, SQLiteBackend)
        assert by_scheme.spec() == f"sqlite://{tmp_path}/y"

    def test_dir_scheme_overrides_suffix(self, tmp_path):
        backend = open_backend(f"dir://{tmp_path}/odd.sqlite")
        assert isinstance(backend, DirectoryBackend)

    def test_kv_scheme(self):
        assert isinstance(open_backend("kv://"), KVBackend)

    def test_existing_backend_passes_through(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        assert open_backend(backend) is backend

    def test_store_accepts_spec_strings(self, tmp_path):
        store = ScoreStore(f"sqlite://{tmp_path}/c.sqlite")
        assert isinstance(store.backend, SQLiteBackend)
        assert store.cache_dir is None
        directory = ScoreStore(tmp_path / "d")
        assert directory.cache_dir == tmp_path / "d"

    def test_store_rejects_both_locations(self, tmp_path):
        with pytest.raises(ValueError, match="not both"):
            ScoreStore(cache_dir=tmp_path,
                       backend=DirectoryBackend(tmp_path))


class TestGCPolicyValidation:
    def test_needs_a_bound(self):
        with pytest.raises(ValueError, match="at least one bound"):
            GCPolicy()

    def test_rejects_negative_bounds(self):
        with pytest.raises(ValueError, match="non-negative"):
            GCPolicy(max_bytes=-1)

    def test_store_gc_requires_backend(self):
        with pytest.raises(ValueError, match="persistent backend"):
            ScoreStore().gc(max_entries=1)


class TestNegativeEntryCodec:
    def test_from_exception_requires_opt_in(self):
        assert NegativeEntry.from_exception(ValueError("plain")) is None
        entry = NegativeEntry.from_exception(
            SinkhornConvergenceError("no"), method="DS")
        assert entry.kind == "sinkhorn-nonconvergence"
        assert entry.method == "DS"

    def test_to_exception_reconstructs_type(self):
        entry = NegativeEntry.from_exception(
            SinkhornConvergenceError("no total support"))
        raised = entry.to_exception()
        assert isinstance(raised, SinkhornConvergenceError)
        assert "no total support" in str(raised)

    def test_to_exception_falls_back_to_runtime_error(self):
        entry = NegativeEntry(kind="k", method="m", message="gone",
                              exception="not.a.module.Error")
        raised = entry.to_exception()
        assert isinstance(raised, RuntimeError)
        assert "gone" in str(raised)

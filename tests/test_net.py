"""repro.net: frames, the socket KV pair, chaos, outage recovery.

The acceptance scenarios from the networked-transport redesign:

- bit-identical scores served through ``kv://host:port`` vs the
  in-memory transport;
- a second *process* gets a store-verified warm hit (zero scoring
  passes) from a cache populated by the first;
- worker processes reconnect through the serialized
  ``worker_spec()`` instead of silently degrading to memory-only;
- a killed server means bounded retries → ``KVUnavailableError`` →
  store degradation, and ``probe_backend()`` re-arms when the server
  returns — including via the daemon's background probe ticker;
- socket-level faults (drop/stall/truncate, via
  :class:`repro.net.ChaosProxy`) are absorbed by the retry machinery.
"""

import io
import time

import numpy as np
import pytest
from net_harness import spawn_kv_server

from repro.core.noise_corrected import NoiseCorrectedBackbone
from repro.flow import flow
from repro.flow import serve as flow_serve
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import write_edges
from repro.net import (ChaosProxy, Drop, FrameError, SocketKVServer,
                       SocketKVTransport, Stall, Truncate, get_object,
                       put_object)
from repro.net.protocol import decode_frame, encode_frame
from repro.pipeline import ScoreStore
from repro.pipeline.backends import (InMemoryKVServer, KVBackend,
                                     KVTimeoutError, KVUnavailableError,
                                     RawEntry, open_backend, parse_spec)
from repro.serve import BackboneDaemon, ServeClient
from repro.serve.client import collect_results


def random_table(seed=0, n_nodes=30, n_edges=140):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    weight = rng.integers(1, 60, n_edges).astype(float)
    return EdgeTable(src, dst, weight, n_nodes=n_nodes, directed=False)


def entry(seed=0):
    rng = np.random.default_rng(seed)
    return RawEntry(meta={"schema": 1, "seed": seed},
                    payload=rng.bytes(256))


# ----------------------------------------------------------------------
# Frame protocol
# ----------------------------------------------------------------------

class TestProtocol:
    def test_round_trip_with_payload(self):
        frame = encode_frame({"op": "put", "key": "k"}, b"\x00payload")
        header, payload = decode_frame(io.BytesIO(frame).read)
        assert header["op"] == "put"
        assert payload == b"\x00payload"
        assert len(header["payload_sha256"]) == 64

    def test_round_trip_without_payload(self):
        frame = encode_frame({"op": "keys"})
        header, payload = decode_frame(io.BytesIO(frame).read)
        assert header == {"op": "keys"}
        assert payload == b""

    def test_flipped_payload_bit_is_detected(self):
        frame = bytearray(encode_frame({"op": "x"}, b"payload"))
        frame[-1] ^= 0x01
        with pytest.raises(FrameError, match="digest mismatch"):
            decode_frame(io.BytesIO(bytes(frame)).read)

    def test_truncated_frame_is_detected(self):
        frame = encode_frame({"op": "x"}, b"payload")
        with pytest.raises(FrameError, match="mid-frame"):
            decode_frame(io.BytesIO(frame[:-3]).read)

    def test_bad_magic_rejected(self):
        with pytest.raises(FrameError, match="magic"):
            decode_frame(io.BytesIO(b"XXXX" + b"\x00" * 12).read)

    def test_clean_eof_between_frames(self):
        with pytest.raises(EOFError):
            decode_frame(io.BytesIO(b"").read)


# ----------------------------------------------------------------------
# Server + transport semantics (in-process server)
# ----------------------------------------------------------------------

class TestSocketTransport:
    def test_two_clients_share_one_server(self):
        with SocketKVServer() as server:
            first = KVBackend(SocketKVTransport("127.0.0.1",
                                                server.port))
            second = KVBackend(SocketKVTransport("127.0.0.1",
                                                 server.port))
            first.put("shared", entry(1))
            got = second.get("shared")
            assert got.meta == entry(1).meta
            assert got.payload == entry(1).payload

    def test_stats_and_ping(self):
        with SocketKVServer() as server:
            transport = SocketKVTransport("127.0.0.1", server.port)
            assert transport.request("ping") == "pong"
            KVBackend(transport).put("k", entry(2))
            stats = transport.request("stats")
            assert stats["entries"] == 1
            assert stats["bytes"] > 0
            assert stats["requests"]["put"] == 1

    @pytest.mark.parametrize("op, key, value, message", [
        ("explode", None, None, "unknown op"),
        ("put", None, {"meta": {}, "payload": b"x", "size": 1},
         "put needs a str key"),
        ("put", "k", {"meta": {}, "payload": None, "size": "abc"},
         "int size"),
        ("put", "k", {"payload": None, "size": 1}, "meta dict"),
        ("get", [1, 2], None, "get needs a str key"),
        ("contains", {"a": 1}, None, "contains needs a str key"),
        ("set_clock", None, {"value": "abc"}, "set_clock needs a number"),
    ], ids=["unknown-op", "keyless-put", "non-int-size", "metaless-put",
            "unhashable-key", "dict-key", "str-clock"])
    def test_malformed_request_is_rejected_not_retried(self, op, key,
                                                       value, message):
        with SocketKVServer(testing=True) as server:
            backend = KVBackend(SocketKVTransport("127.0.0.1",
                                                  server.port))
            backend.put("kept", entry(6))
            with pytest.raises(ValueError, match=message):
                backend._call(op, key=key, value=value)
            assert backend.retries == 0
            assert backend.keys() == ["kept"]

    def test_testing_ops_disabled_in_production_mode(self):
        with SocketKVServer(testing=False) as server:
            transport = SocketKVTransport("127.0.0.1", server.port)
            for op in ("flush", "set_clock", "debug_set_payload"):
                with pytest.raises(ValueError, match="disabled"):
                    transport.request(op, key="k",
                                      value={"value": 1.0})

    def test_connection_refused_is_unavailable_after_retries(self):
        with SocketKVServer() as server:
            port = server.port  # dies with the context manager
        backend = KVBackend(SocketKVTransport("127.0.0.1", port,
                                              timeout=0.5),
                            timeout=0.5, max_attempts=3)
        with pytest.raises(KVUnavailableError, match="3 attempts"):
            backend.contains("k")
        assert backend.retries == 3

    def test_timeout_maps_to_kv_timeout(self):
        with SocketKVServer() as server, \
                ChaosProxy(("127.0.0.1", server.port)) as proxy:
            proxy.inject(Stall(5.0))
            transport = SocketKVTransport("127.0.0.1", proxy.port,
                                          timeout=0.2)
            started = time.monotonic()
            with pytest.raises(KVTimeoutError):
                transport.request("ping", timeout=0.2)
            assert time.monotonic() - started < 2.0

    def test_spec_round_trips_through_open_backend(self):
        with SocketKVServer() as server:
            backend = open_backend(
                f"kv://127.0.0.1:{server.port}"
                "?timeout=2&attempts=5&retry_wait=0.25")
            assert backend.timeout == 2.0
            assert backend.max_attempts == 5
            assert backend.retry_wait == 0.25
            clone = open_backend(backend.spec())
            assert clone.spec() == backend.spec()
            backend.put("k", entry(3))
            assert clone.contains("k")

    def test_in_memory_kv_spec_stays_process_local(self):
        assert KVBackend(InMemoryKVServer()).spec() is None
        assert parse_spec("kv://").target == ""


# ----------------------------------------------------------------------
# Socket-level chaos (ChaosProxy)
# ----------------------------------------------------------------------

class TestChaos:
    def test_two_drops_then_success_is_two_retries(self):
        with SocketKVServer() as server, \
                ChaosProxy(("127.0.0.1", server.port)) as proxy:
            proxy.inject(Drop(), Drop())
            backend = KVBackend(SocketKVTransport("127.0.0.1",
                                                  proxy.port),
                                max_attempts=3)
            backend.put("k", entry(4))
            assert backend.retries == 2
            assert backend.get("k").payload == entry(4).payload

    def test_truncated_response_is_retried(self):
        with SocketKVServer() as server, \
                ChaosProxy(("127.0.0.1", server.port)) as proxy:
            transport = SocketKVTransport("127.0.0.1", proxy.port)
            backend = KVBackend(transport, max_attempts=3)
            backend.put("k", entry(5))
            proxy.inject(Truncate(5))
            transport.close()  # next attempt dials a fresh connection
            assert backend.get("k").payload == entry(5).payload
            assert backend.retries == 1

    def test_stalls_exhaust_the_retry_budget(self):
        with SocketKVServer() as server, \
                ChaosProxy(("127.0.0.1", server.port)) as proxy:
            proxy.inject(Stall(5.0), Stall(5.0))
            backend = KVBackend(SocketKVTransport("127.0.0.1",
                                                  proxy.port,
                                                  timeout=0.2),
                                timeout=0.2, max_attempts=2)
            started = time.monotonic()
            with pytest.raises(KVUnavailableError):
                backend.contains("k")
            assert backend.retries == 2
            assert time.monotonic() - started < 3.0


# ----------------------------------------------------------------------
# Two real processes sharing one warm cache
# ----------------------------------------------------------------------

class TestSharedCache:
    def test_second_process_warm_hits_zero_scoring(self, tmp_path,
                                                   socket_kv_server):
        host, port = socket_kv_server
        control = SocketKVTransport(host, port)
        control.request("flush")
        spec = f"kv://{host}:{port}"
        path = tmp_path / "edges.npz"
        write_edges(random_table(7), path)
        plan = flow(path).method("nc", delta=1.0)

        cold_store = ScoreStore(spec)
        cold = plan.run(store=cold_store)
        assert cold_store.stats.misses >= 1

        # A second client (the server genuinely lives in another
        # process) sees the warm entries without any scoring pass.
        warm_store = ScoreStore(spec)
        warm = plan.run(store=warm_store)
        assert warm_store.stats.disk_hits >= 1
        assert warm_store.stats.misses == 0
        assert np.array_equal(cold.backbone.weight,
                              warm.backbone.weight)
        assert np.array_equal(cold.backbone.src, warm.backbone.src)
        assert cold.cache_key == warm.cache_key

    def test_socket_scores_identical_to_in_memory(self, tmp_path):
        table = random_table(8)
        scored = NoiseCorrectedBackbone().score(table)
        memory_store = ScoreStore(backend=KVBackend(InMemoryKVServer()))
        memory_store.put("kk0001", scored)
        with SocketKVServer() as server:
            socket_store = ScoreStore(f"kv://127.0.0.1:{server.port}")
            socket_store.put("kk0001", scored)
            socket_store.clear_memory()
            memory_store.clear_memory()
            via_socket = socket_store.get("kk0001")
            via_memory = memory_store.get("kk0001")
        assert np.array_equal(via_socket.score, via_memory.score)
        assert via_socket.method == via_memory.method
        assert via_socket.info == via_memory.info

    def test_objects_round_trip_and_feed_flow(self, tmp_path):
        path = tmp_path / "edges.npz"
        write_edges(random_table(9), path)
        local = flow(path).method("nc", delta=1.0).run()
        with SocketKVServer() as server:
            spec = f"kv://127.0.0.1:{server.port}"
            url = put_object(spec, "edges.npz", path)
            assert url == f"{spec}/edges.npz"
            assert get_object(spec, url.rsplit("/", 1)[-1]) \
                == path.read_bytes()
            remote = flow(url).method("nc", delta=1.0).run()
        assert remote.cache_key == local.cache_key
        assert np.array_equal(remote.backbone.weight,
                              local.backbone.weight)


# ----------------------------------------------------------------------
# Worker processes reconnect through the serialized spec
# ----------------------------------------------------------------------

class TestWorkerSpec:
    def test_worker_spec_serializes_the_address(self):
        with SocketKVServer() as server:
            store = ScoreStore(f"kv://127.0.0.1:{server.port}")
            spec = store.worker_spec()
            assert spec is not None
            assert spec.startswith(f"kv://127.0.0.1:{server.port}?")
            clone = open_backend(spec)
            assert clone.spec() == spec

    def test_parallel_workers_write_through_the_socket(self, tmp_path):
        path = tmp_path / "edges.npz"
        write_edges(random_table(10), path)
        plans = [flow(path).method("nc", delta=1.0),
                 flow(path).method("df").budget(share=0.4)]
        with SocketKVServer() as server:
            spec = f"kv://127.0.0.1:{server.port}"
            store = ScoreStore(spec)
            results = flow_serve(plans, store=store, workers=2)
            assert all(result.error is None for result in results)
            assert len(server.table.data) >= 1  # score entries over the wire
            fresh = ScoreStore(spec)
            warm = flow_serve(plans, store=fresh)
            assert fresh.stats.misses == 0
            assert fresh.stats.disk_hits >= 1
        for cold_result, warm_result in zip(results, warm):
            assert np.array_equal(cold_result.backbone.weight,
                                  warm_result.backbone.weight)


# ----------------------------------------------------------------------
# Kill the server: degrade, keep serving, re-arm on return
# ----------------------------------------------------------------------

class TestOutageRecovery:
    def test_killed_server_degrades_store_and_probe_rearms(self,
                                                           tmp_path):
        process, host, port = spawn_kv_server()
        try:
            spec = f"kv://{host}:{port}?timeout=1&attempts=2"
            store = ScoreStore(spec)
            table = random_table(11)
            scored = NoiseCorrectedBackbone().score(table)
            store.put("kk1111", scored)
            assert not store.degraded

            process.kill()
            process.wait(timeout=10)

            # Mid-flight failure: bounded retries, then degradation —
            # the caller sees a miss, never an exception.
            store.clear_memory()
            assert store.get("kk1111") is None
            assert store.degraded
            assert store.stats.backend_failures >= 1
            assert store.worker_spec() is None  # memory-only now

            # Still serves while degraded.
            served = store.get_or_compute("kk2222", lambda: scored)
            assert served is not None
            assert not store.probe_backend()  # still down

            # Server comes back on the same port: probe re-arms.
            revived, _, _ = spawn_kv_server(port=port)
            try:
                assert store.probe_backend()
                assert not store.degraded
                assert store.worker_spec() is not None
                store.put("kk3333", scored)
                other = ScoreStore(f"kv://{host}:{port}")
                assert other.get("kk3333") is not None
            finally:
                revived.terminate()
                revived.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()

    def test_killed_server_mid_put_raises_bounded_unavailable(self):
        process, host, port = spawn_kv_server()
        backend = open_backend(f"kv://{host}:{port}?timeout=1"
                               "&attempts=3")
        backend.put("kk4444", entry(12))
        process.kill()
        process.wait(timeout=10)
        with pytest.raises(KVUnavailableError, match="3 attempts"):
            backend.put("kk5555", entry(13))
        assert backend.retries == 3


# ----------------------------------------------------------------------
# Daemon replicas over one kv:// store
# ----------------------------------------------------------------------

class TestDaemonReplicas:
    def test_replicas_share_one_warm_store(self, tmp_path):
        path = tmp_path / "edges.npz"
        write_edges(random_table(14), path)
        plan = flow(str(path)).method("nc", delta=1.2)
        with SocketKVServer() as server:
            spec = f"kv://127.0.0.1:{server.port}"
            with BackboneDaemon(port=0, cache_dir=spec) as first:
                reply = ServeClient(port=first.port) \
                    .run([plan.to_json()], return_edges=True)
                (cold,) = collect_results(reply)
            with BackboneDaemon(port=0, cache_dir=spec) as second:
                reply = ServeClient(port=second.port) \
                    .run([plan.to_json()], return_edges=True)
                (warm,) = collect_results(reply)
                assert second.store.stats.disk_hits >= 1
                assert second.store.stats.misses == 0
        assert cold["ok"] and warm["ok"]
        assert cold["cache_key"] == warm["cache_key"]
        assert cold["edges"] == warm["edges"]

    def test_daemon_survives_kv_outage_and_rearms(self, tmp_path):
        path = tmp_path / "edges.npz"
        write_edges(random_table(15), path)
        process, host, port = spawn_kv_server()
        try:
            spec = f"kv://{host}:{port}?timeout=0.5&attempts=2"
            with BackboneDaemon(port=0, cache_dir=spec,
                                probe_interval=0.1) as daemon:
                client = ServeClient(port=daemon.port)
                plan = flow(str(path)).method("nc", delta=1.0)
                reply = client.run([plan.to_json()])
                assert reply["results"][0]["ok"]
                assert not reply["degraded"]

                process.kill()
                process.wait(timeout=10)

                # Mid-load outage: the daemon flags degradation but
                # keeps serving (memory-only).
                other = flow(str(path)).method("df") \
                    .budget(share=0.4)
                reply = client.run([other.to_json()])
                assert reply["results"][0]["ok"]
                assert reply["degraded"]
                assert client.healthy()

                # Server returns: the background probe ticker re-arms
                # the store without any client traffic.
                revived, _, _ = spawn_kv_server(port=port)
                try:
                    deadline = time.monotonic() + 10.0
                    while daemon.store.degraded \
                            and time.monotonic() < deadline:
                        time.sleep(0.05)
                    assert not daemon.store.degraded
                    assert not client.status()["degraded"]
                finally:
                    revived.terminate()
                    revived.wait(timeout=10)
        finally:
            if process.poll() is None:
                process.kill()

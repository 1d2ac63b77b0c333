"""The backbone daemon: protocol, coalescing, deadlines, lifecycle.

Spins up real :class:`~repro.serve.BackboneDaemon` instances on
ephemeral ports and talks to them over HTTP with
:class:`~repro.serve.ServeClient` — the exact wire path production
clients use. The headline acceptance test: N concurrent clients
requesting N deltas over one source produce exactly one scoring pass,
verified against the shared store's traffic counters.
"""

import http.client
import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.cli import main
from repro.flow import flow
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import write_edges
from repro.pipeline.store import ScoreStore
from repro.serve import (BackboneDaemon, DeadlineExceeded, ServeClient,
                         ServeError, serve_isolated)
from repro.serve.client import collect_results
from repro.serve.faults import ChaosMethod, Sleep


def random_table(seed=0, n_nodes=24, n_edges=90):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    weight = rng.integers(1, 60, n_edges).astype(float)
    return EdgeTable(src, dst, weight, n_nodes=n_nodes, directed=False)


def wait_until(condition, timeout=10.0):
    """Poll ``condition`` until it holds; fail after ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


class StalledRun:
    """A raw-socket ``POST /v1/run`` that stops after its headers and
    the first 10 body bytes, until :meth:`finish` sends the rest and
    reads the reply."""

    def __init__(self, port, plan):
        self.body = json.dumps(
            {"plans": [json.loads(plan.to_json())]}).encode()
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=30.0)
        self.sock.sendall(
            b"POST /v1/run HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % len(self.body)
            + self.body[:10])

    def finish(self):
        try:
            self.sock.sendall(self.body[10:])
            response = http.client.HTTPResponse(self.sock)
            response.begin()
            assert response.status == 200
            return json.loads(response.read())
        finally:
            self.sock.close()


@pytest.fixture()
def edges_csv(tmp_path):
    path = tmp_path / "edges.csv"
    write_edges(random_table(), path)
    return path


@pytest.fixture()
def daemon():
    with BackboneDaemon(port=0) as running:
        yield running


@pytest.fixture()
def client(daemon):
    return ServeClient(port=daemon.port)


class TestProtocol:
    def test_round_trip_matches_local_run(self, edges_csv, client):
        plan = flow(str(edges_csv)).method("NC", delta=1.5)
        reply = client.run([plan.to_json()])
        assert reply["protocol"] == 1
        (result,) = collect_results(reply)
        local = plan.run()
        assert result["ok"]
        assert result["backbone"]["m"] == local.backbone.m
        assert result["kept_share"] == pytest.approx(local.kept_share)
        assert result["cache_key"] == local.cache_key

    def test_edges_round_trip_bit_identical(self, edges_csv, client):
        plan = flow(str(edges_csv)).method("DF").budget(share=0.2)
        reply = client.run([plan.to_json()], return_edges=True)
        (result,) = reply["results"]
        local = plan.run().backbone
        served = {(u, v): w for u, v, w in result["edges"]}
        expected = {(local.label_of(u), local.label_of(v)): w
                    for u, v, w in local.iter_edges()}
        assert served == expected

    def test_accepts_decoded_artifact_dicts(self, edges_csv, client):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        reply = client.run([json.loads(plan.to_json())])
        assert reply["results"][0]["ok"]

    def test_malformed_plan_fails_its_slot_only(self, edges_csv, client):
        good = flow(str(edges_csv)).method("NC", delta=1.0)
        string_share = json.loads(good.to_json())
        string_share["filter"] = {"share": "0.5"}
        mst_share = json.loads(flow(str(edges_csv)).method("MST").to_json())
        mst_share["filter"] = {"share": 0.5}
        reply = client.run([{"garbage": True}, string_share, mst_share,
                            good.to_json()])
        bad_slot, share_slot, mst_slot, good_slot = reply["results"]
        assert not bad_slot["ok"]
        assert bad_slot["error"]["type"]
        # A mistyped budget is a typed per-plan error, not a TypeError.
        assert not share_slot["ok"]
        assert share_slot["error"]["type"] == "ValueError"
        # A budget the method rejects fails at load, before admission.
        assert not mst_slot["ok"]
        assert "parameter-free" in mst_slot["error"]["message"]
        assert good_slot["ok"]
        assert reply["batch"]["plans"] == 1

    def test_unreadable_source_fails_its_plans_only(self, edges_csv,
                                                    client):
        missing = flow("/nonexistent/edges.csv").method("NC")
        good = flow(str(edges_csv)).method("NC")
        reply = client.run([missing.to_json(), good.to_json()])
        assert not reply["results"][0]["ok"]
        assert reply["results"][1]["ok"]

    def test_bad_requests_are_400(self, client):
        for body in (None, [], {"plans": []}, {"plans": "nope"}):
            with pytest.raises(ServeError) as info:
                client._call("POST", "/v1/run", body)
            assert info.value.status == 400

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServeError) as info:
            client._call("GET", "/v1/nope")
        assert info.value.status == 404

    def test_healthz(self, client):
        assert client.healthy()

    def test_status_counts_requests(self, edges_csv, client):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        client.run([plan.to_json()])
        status = client.status()
        assert status["daemon"]["requests"] == 1
        assert status["daemon"]["plans"] == 1
        assert status["daemon"]["batches"] >= 1
        assert not status["degraded"]
        assert set(status["config"]) == {
            "workers", "default_deadline_s", "slow_request_s",
            "probe_interval_s", "backend"}


class TestCoalescing:
    def test_concurrent_clients_share_one_scoring_pass(self, edges_csv):
        store = ScoreStore()
        deltas = [0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2]
        with BackboneDaemon(port=0, store=store) as daemon:
            client = ServeClient(port=daemon.port)
            replies = [None] * len(deltas)

            def one(index, delta):
                plan = flow(str(edges_csv)).method("NC", delta=delta)
                replies[index] = client.run([plan.to_json()])

            threads = [threading.Thread(target=one, args=(i, d))
                       for i, d in enumerate(deltas)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert all(r["results"][0]["ok"] for r in replies)
        # NC's delta is extraction-only: every client shares one cache
        # key, so the warm store saw exactly one scoring pass.
        assert store.stats.puts == 1, store.stats.summary()
        assert store.stats.misses == 1
        coalesced = {json.dumps(r["batch"], sort_keys=True)
                     for r in replies}
        assert any(json.loads(b)["clients"] >= 2 for b in coalesced), \
            "at least some requests must have shared a batch"
        # Distinct deltas must still yield their own extractions.
        kept = {r["results"][0]["backbone"]["m"] for r in replies}
        assert len(kept) > 1

    def test_store_stays_warm_across_requests(self, edges_csv, daemon):
        client = ServeClient(port=daemon.port)
        plan = flow(str(edges_csv)).method("NC", delta=1.5)
        client.run([plan.to_json()])
        client.run([plan.to_json()])
        status = client.status()
        assert status["store"]["hits"] >= 1
        assert status["store"]["puts"] == 1


class TestDeadlines:
    def test_deadline_expiry_is_504_and_daemon_survives(self, edges_csv):
        table = random_table(3)
        inner = flow(table).method("NT").method_spec.build()
        slow = ChaosMethod(inner, hooks=[Sleep(1.2)])
        with BackboneDaemon(port=0, default_deadline=0.15) as daemon:
            with pytest.raises(DeadlineExceeded):
                daemon.submit([flow(table).method(slow).budget(share=0.5)])
            # The daemon is still healthy and serving.
            client = ServeClient(port=daemon.port)
            assert client.healthy()
            fast = flow(str(edges_csv)).method("NT").budget(share=0.3)
            # deadline=5: the slow batch is still draining, so the
            # default 0.15s would be head-of-line blocked away.
            reply = client.run([fast.to_json()], deadline=5.0)
            assert reply["results"][0]["ok"]
            assert client.status()["daemon"]["deadline_misses"] == 1

    def test_expired_batch_still_warms_the_store(self):
        table = random_table(4)
        store = ScoreStore()
        inner = flow(table).method("NT").method_spec.build()
        slow = ChaosMethod(inner, hooks=[Sleep(0.6)])
        with BackboneDaemon(port=0, store=store,
                            default_deadline=0.1) as daemon:
            plan = flow(table).method(slow).budget(share=0.5)
            with pytest.raises(DeadlineExceeded):
                daemon.submit([plan])
            # The batch keeps running after the client gave up ...
            deadline = threading.Event()
            for _ in range(100):
                if store.stats.puts:
                    break
                deadline.wait(0.05)
            assert store.stats.puts == 1
            # ... so the retry is served from cache, instantly.
            retry = daemon.submit([plan], deadline=5.0)
            assert retry[0].ok
        assert store.stats.hits >= 1

    def test_queued_ticket_cancelled_after_deadline(self, edges_csv):
        table = random_table(5)
        inner = flow(table).method("NT").method_spec.build()
        slow = ChaosMethod(inner, hooks=[Sleep(0.6)])
        with BackboneDaemon(port=0, default_deadline=0.01) as daemon:
            # Occupy the batcher, so the next ticket queues behind a
            # busy batch until its deadline has passed.
            busy = threading.Thread(
                target=daemon.submit,
                args=([flow(table).method(slow).budget(share=0.5)],),
                kwargs={"deadline": 10.0})
            busy.start()
            wait_until(lambda: daemon.status()["daemon"]["requests"]
                       and not daemon._pending)
            plan = flow(str(edges_csv)).method("NT") \
                .budget(share=0.3)
            with pytest.raises(DeadlineExceeded):
                daemon.submit([plan])
            busy.join(10.0)
            assert not busy.is_alive()
            wait_until(lambda: daemon.status()["daemon"]["cancelled"])
            stats = daemon.status()["daemon"]
            assert stats["cancelled"] == 1, \
                "an expired queued ticket must be dropped, not served"
            assert stats["deadline_misses"] == 1

    def test_cancelled_ticket_counts_a_deadline_miss(self, edges_csv,
                                                     daemon):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        ticket = daemon._admit([plan], 0.0)
        # The batcher counts the cancellation before it sets the event.
        wait_until(ticket.event.is_set)
        with pytest.raises(DeadlineExceeded, match="before its batch"):
            daemon._await(ticket)
        stats = daemon.status()["daemon"]
        assert (stats["cancelled"], stats["deadline_misses"]) == (1, 1)

    @pytest.mark.parametrize("deadline", [1e308, float("inf")])
    def test_unbounded_deadline_is_400_before_admission(
            self, edges_csv, daemon, client, deadline):
        # The client sends these as 1e+308 and Infinity.
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with pytest.raises(ServeError) as info:
            client.run([plan.to_json()], deadline=deadline)
        assert (info.value.status, info.value.kind) == (400, "BadRequest")
        assert client.status()["daemon"]["requests"] == 0
        assert client.healthy()

    def test_submit_rejects_unbounded_deadline(self, edges_csv, daemon):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with pytest.raises(ValueError, match="finite"):
            daemon.submit([plan], deadline=float("inf"))
        assert daemon.status()["daemon"]["requests"] == 0
        # A negative deadline has simply already expired.
        with pytest.raises(DeadlineExceeded):
            daemon.submit([plan], deadline=-1.0)


class TestBatchStart:
    """A batch starts as soon as a request is queued."""

    def test_lone_request_runs_at_once(self, edges_csv):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with BackboneDaemon(port=0) as daemon:
            start = time.perf_counter()
            assert daemon.submit([plan])[0].ok
            assert time.perf_counter() - start < 2.5
            start = time.perf_counter()
            reply = ServeClient(port=daemon.port).run([plan.to_json()])
            assert reply["results"][0]["ok"]
            assert time.perf_counter() - start < 2.5

    def test_stalled_body_does_not_hold_a_batch(self, edges_csv):
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with BackboneDaemon(port=0) as daemon:
            stalled = StalledRun(daemon.port, plan)
            # Give the handler time to parse the headers and block on
            # the rest of the body.
            time.sleep(0.2)
            start = time.perf_counter()
            assert daemon.submit([plan])[0].ok
            assert time.perf_counter() - start < 2.5
            reply = stalled.finish()
        assert reply["results"][0]["ok"]
        assert reply["batch"]["clients"] == 1

    def test_requests_queued_behind_a_batch_share_the_next(
            self, edges_csv):
        table = random_table(6)
        inner = flow(table).method("NT").method_spec.build()
        slow = ChaosMethod(inner, hooks=[Sleep(0.6)])
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with BackboneDaemon(port=0) as daemon:
            busy = daemon._admit(
                [flow(table).method(slow).budget(share=0.5)], 10.0)
            wait_until(lambda: not daemon._pending)
            queued = [daemon._admit([plan], 10.0) for _ in range(2)]
            for ticket in [busy, *queued]:
                assert [r.ok for r in daemon._await(ticket)] == [True]
            stats = daemon.status()["daemon"]
        assert busy.batch == {"plans": 1, "clients": 1}
        assert [t.batch for t in queued] == [{"plans": 2, "clients": 2}] * 2
        assert (stats["batches"], stats["coalesced_batches"]) == (2, 1)


class TestSlowClient:
    def test_stalled_body_is_cut_off_at_the_read_timeout(
            self, edges_csv, monkeypatch):
        # The handler reads the bound when the daemon starts.
        monkeypatch.setattr("repro.serve.daemon.REQUEST_TIMEOUT_S", 0.3)
        plan = flow(str(edges_csv)).method("NT").budget(share=0.3)
        with BackboneDaemon(port=0) as daemon:
            stalled = StalledRun(daemon.port, plan)
            start = time.monotonic()
            try:
                assert stalled.sock.recv(1024) == b""
            finally:
                stalled.sock.close()
            assert 0.2 <= time.monotonic() - start <= 3.0
            assert daemon.status()["daemon"]["requests"] == 0
            reply = ServeClient(port=daemon.port).run([plan.to_json()])
        assert reply["results"][0]["ok"]


class TestLifecycle:
    def test_shutdown_via_http(self, edges_csv):
        daemon = BackboneDaemon(port=0).start()
        client = ServeClient(port=daemon.port)
        assert client.shutdown()
        daemon._stopped.wait(timeout=5.0)
        assert not client.healthy()

    def test_submit_after_stop_is_rejected(self, edges_csv):
        daemon = BackboneDaemon(port=0).start()
        daemon.stop()
        with pytest.raises(RuntimeError, match="shutting down"):
            daemon.submit([flow(str(edges_csv)).method("NT")
                           .budget(share=0.3)])

    def test_context_manager_releases_port(self):
        with BackboneDaemon(port=0) as first:
            port = first.port
        # Reusing the exact port must work once released.
        with BackboneDaemon(port=port) as second:
            assert ServeClient(port=second.port).healthy()

    def test_store_and_cache_dir_are_exclusive(self):
        with pytest.raises(ValueError):
            BackboneDaemon(store=ScoreStore(), cache_dir="/tmp/x")


class TestServeIsolatedEngine:
    def test_non_plan_objects_fail_their_slot(self, edges_csv):
        good = flow(str(edges_csv)).method("NT").budget(share=0.3)
        results = serve_isolated(["not a plan", good])
        assert not results[0].ok
        assert isinstance(results[0].error, TypeError)
        assert results[1].ok

    def test_plan_without_method_fails_its_slot(self, edges_csv):
        results = serve_isolated([
            flow(str(edges_csv)),
            flow(str(edges_csv)).method("NT").budget(share=0.3)])
        assert not results[0].ok
        assert results[1].ok

    def test_unknown_method_code_fails_per_plan(self, edges_csv):
        from repro.flow.plan import Plan
        good = flow(str(edges_csv)).method("NT").budget(share=0.3)
        artifact = json.loads(good.to_json())
        artifact["method"]["code"] = "NOPE"
        with pytest.raises(Exception):
            Plan.from_json(json.dumps(artifact))

    def test_source_sharing_survives_isolation(self, edges_csv):
        store = ScoreStore()
        plans = [flow(str(edges_csv)).method("NC", delta=d)
                 for d in (1.0, 1.5, 2.0)]
        results = serve_isolated(plans + ["junk"], store=store)
        assert [r.ok for r in results] == [True, True, True, False]
        assert store.stats.puts == 1

    def test_repro_serve_attribute_stays_callable(self, edges_csv):
        # Importing the repro.serve subpackage rebinds the `serve`
        # attribute on the repro package from the flow batch function
        # to the module; both spellings must keep executing batches
        # regardless of which import ran first.
        import repro

        plans = [flow(str(edges_csv)).method("NC", delta=d)
                 for d in (1.0, 2.0)]
        via_attr = repro.serve(plans)
        local = [plan.run() for plan in plans]
        assert [r.backbone.m for r in via_attr] \
            == [r.backbone.m for r in local]


class NotADaemon(BaseHTTPRequestHandler):
    """Some other HTTP server: every GET and POST is an HTML 404."""

    def do_GET(self):
        self.send_error(404)

    do_POST = do_GET

    def log_message(self, format, *args):  # noqa: A002 (stdlib name)
        pass


@pytest.fixture()
def not_a_daemon():
    server = ThreadingHTTPServer(("127.0.0.1", 0), NotADaemon)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[1]
    server.shutdown()
    server.server_close()


class TestNotADaemon:
    def test_client_raises_a_protocol_error(self, not_a_daemon):
        client = ServeClient(port=not_a_daemon)
        assert not client.healthy()
        assert not client.shutdown()
        with pytest.raises(ServeError) as info:
            client.status()
        assert (info.value.status, info.value.kind) == (404, "Protocol")

    @pytest.mark.parametrize(
        "command", [["serve", "status"], ["serve", "shutdown"],
                    ["obs", "metrics"]],
        ids=["serve-status", "serve-shutdown", "obs-metrics"])
    def test_cli_reports_no_daemon(self, not_a_daemon, command, capsys):
        assert main([*command, "--port", str(not_a_daemon)]) == 1
        assert "no daemon" in capsys.readouterr().err


class TestServeCLI:
    def test_parser_accepts_serve_commands(self, capsys):
        from repro.cli import build_parser
        parser = build_parser()
        args = parser.parse_args(["serve", "start", "--port", "0",
                                  "--deadline", "5"])
        assert args.serve_command == "start"
        with pytest.raises(SystemExit):
            parser.parse_args(["serve", "start", "--batch-window", "0.01"])
        args = parser.parse_args(["serve", "status", "--port", "9"])
        assert args.serve_command == "status"

    def test_status_against_dead_port_fails_cleanly(self, capsys):
        assert main(["serve", "status", "--port", "1"]) == 1
        assert "no daemon" in capsys.readouterr().err

    def test_shutdown_against_dead_port_fails_cleanly(self, capsys):
        assert main(["serve", "shutdown", "--port", "1"]) == 1

"""Daemon observability, end to end: the acceptance criteria of PR 7.

- ``GET /v1/metrics`` serves a valid Prometheus exposition covering
  request, cache, coalescing, deadline, degradation and pool series;
- a single traced request against a ``workers=2`` daemon yields one
  trace whose spans cover every stage — admission wait, compile,
  parse, scoring (including spans recorded in worker processes),
  extraction, store access — with stage durations summing to roughly
  the request wall time;
- ``DaemonStats`` stays consistent under concurrent clients:
  ``requests == served + cancelled`` once the queue drains;
- a backend outage moves the degradation series and the background
  probe ticker re-arms the store without client traffic;
- requests slower than ``slow_request_s`` are logged and counted.
"""

import contextlib
import logging
import os
import threading
import time

import numpy as np
import pytest

from repro.flow import flow
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import write_edges
from repro.obs import get_registry, parse_prometheus
from repro.pipeline.backends import InMemoryKVServer, KVBackend
from repro.pipeline.store import ScoreStore
from repro.serve import BackboneDaemon, ServeClient
from repro.serve.daemon import DeadlineExceeded
from repro.serve.faults import FlakyBackend


def random_table(seed=0, n_nodes=26, n_edges=100):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges)
    dst = rng.integers(0, n_nodes, n_edges)
    weight = rng.integers(1, 60, n_edges).astype(float)
    return EdgeTable(src, dst, weight, n_nodes=n_nodes, directed=False)


def edges_file(tmp_path, seed=0, **kwargs):
    path = tmp_path / "edges.csv"
    write_edges(random_table(seed, **kwargs), path)
    return str(path)


def total(series, name):
    """Sum a parsed family across its label sets (0 when absent)."""
    return sum(series.get(name, {}).values())


# ----------------------------------------------------------------------
# /v1/metrics
# ----------------------------------------------------------------------

class TestMetricsEndpoint:
    def test_scrape_parses_and_covers_required_series(self, tmp_path):
        artifact = flow(edges_file(tmp_path, 21)) \
            .method("NC", delta=1.64).to_json()
        with BackboneDaemon(port=0, batch_window=0.01) as daemon:
            client = ServeClient(port=daemon.port)
            client.run([artifact])
            client.run([artifact])  # warm: a cache hit
            text = client.metrics()
        series = parse_prometheus(text)  # raises if malformed
        assert total(series, "repro_daemon_requests_total") == 2
        assert total(series, "repro_daemon_served_total") == 2
        assert total(series, "repro_cache_misses_total") == 1
        assert total(series, "repro_cache_hits_total") >= 1
        # Acceptance series present (at zero) before any such event.
        for name in ("repro_daemon_coalesced_batches_total",
                     "repro_daemon_deadline_misses_total",
                     "repro_daemon_cancelled_total",
                     "repro_cache_degraded",
                     "repro_cache_backend_failures_total",
                     "repro_pool_serial_retries_total"):
            assert name in series, f"missing family {name}"
        assert "# TYPE repro_kv_retries_total counter" in text
        assert total(series, "repro_cache_degraded") == 0
        # Histograms expose cumulative buckets ending at +Inf == count.
        assert total(series, "repro_daemon_request_seconds_count") == 2
        buckets = series["repro_daemon_request_seconds_bucket"]
        assert buckets[(("le", "+Inf"),)] == 2
        assert total(series, "repro_daemon_queue_wait_seconds_count") \
            == 2
        assert total(series, "repro_daemon_batch_exec_seconds_count") \
            >= 1

    def test_metrics_path_alias_and_content_type(self, tmp_path):
        with BackboneDaemon(port=0, batch_window=0.01) as daemon:
            import http.client

            connection = http.client.HTTPConnection(
                "127.0.0.1", daemon.port, timeout=10.0)
            try:
                connection.request("GET", "/metrics")
                response = connection.getresponse()
                body = response.read().decode()
            finally:
                connection.close()
            assert response.status == 200
            assert response.headers["Content-Type"] \
                .startswith("text/plain; version=0.0.4")
            parse_prometheus(body)


# ----------------------------------------------------------------------
# End-to-end trace
# ----------------------------------------------------------------------

class TestEndToEndTrace:
    def test_one_trace_covers_every_stage(self, tmp_path):
        path = edges_file(tmp_path, 22, n_nodes=40, n_edges=300)
        plans = [flow(path).method("NC", delta=1.64)
                 .budget(share=0.2).to_json(),
                 flow(path).method("DF").budget(share=0.2).to_json()]
        with BackboneDaemon(port=0, workers=2,
                            batch_window=0.02) as daemon:
            reply = ServeClient(port=daemon.port).run(plans, trace=True)
        assert all(slot["ok"] for slot in reply["results"])
        artifact = reply["trace"]
        names = {s["name"] for s in artifact["spans"]}
        assert {"serve.request", "admission.wait", "serve.batch",
                "flow.compile", "ingest.parse", "flow.score", "score",
                "store.get", "store.put", "plan.extract"} <= names
        # Every span belongs to the one request trace.
        assert {s["trace_id"] for s in artifact["spans"]} \
            == {artifact["trace_id"]}
        # Scoring spans recorded inside worker processes rode back:
        # both cold keys fanned out to workers, and the parent served
        # the entries they shipped back without scoring again.
        pids = {s["attributes"]["pid"] for s in artifact["spans"]
                if s["name"] == "score"}
        assert pids and os.getpid() not in pids
        # One synthetic request root; its children (admission wait +
        # batch execution) account for roughly the request wall time.
        roots = artifact["tree"]
        assert [r["name"] for r in roots] == ["serve.request"]
        root = roots[0]
        covered = sum(c["duration_s"] for c in root["children"])
        assert covered == pytest.approx(root["duration_s"], rel=0.25)
        assert artifact["wall_s"] == pytest.approx(root["duration_s"])
        assert artifact["stages"]["admission.wait"] >= 0.0

    def test_untraced_request_carries_no_artifact(self, tmp_path):
        artifact = flow(edges_file(tmp_path, 26)) \
            .method("NT").budget(share=0.3).to_json()
        with BackboneDaemon(port=0, batch_window=0.01) as daemon:
            reply = ServeClient(port=daemon.port).run([artifact])
        assert "trace" not in reply


# ----------------------------------------------------------------------
# Stats consistency under concurrency
# ----------------------------------------------------------------------

class TestConcurrentConsistency:
    def test_requests_equal_served_plus_cancelled(self, tmp_path):
        artifact = flow(edges_file(tmp_path, 23)) \
            .method("NC", delta=1.64).budget(share=0.3).to_json()
        outcomes = []
        with BackboneDaemon(port=0, batch_window=0.2) as daemon:
            def normal():
                reply = ServeClient(port=daemon.port).run([artifact])
                outcomes.append(reply["results"][0]["ok"])

            def doomed():
                with contextlib.suppress(DeadlineExceeded):
                    ServeClient(port=daemon.port).run([artifact],
                                                      deadline=0.001)

            threads = [threading.Thread(target=normal)
                       for _ in range(4)]
            threads += [threading.Thread(target=doomed)
                        for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # The batcher assigns outcomes; wait for the queue to
            # drain, then the books must balance exactly.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                snap = daemon.stats.snapshot()
                if snap["served"] + snap["cancelled"] == 7:
                    break
                time.sleep(0.01)
        snap = daemon.stats.snapshot()
        assert snap["requests"] == 7
        assert snap["served"] + snap["cancelled"] == snap["requests"]
        assert snap["served"] >= 4
        assert outcomes == [True] * 4
        # Cancelled tickets belonged to clients that stopped waiting.
        assert snap["deadline_misses"] >= snap["cancelled"]


# ----------------------------------------------------------------------
# Chaos scrape: degradation series + the background probe ticker
# ----------------------------------------------------------------------

class TestChaosScrape:
    def test_degradation_moves_and_probe_rearms(self, tmp_path):
        path = edges_file(tmp_path, 24)
        flaky = FlakyBackend(KVBackend(InMemoryKVServer(),
                                       max_attempts=1))
        store = ScoreStore(backend=flaky)
        rearm_counter = get_registry().counter(
            "repro_cache_rearm_total")
        flip_counter = get_registry().counter(
            "repro_cache_degraded_transitions_total")
        rearms_before = rearm_counter.value()
        flips_before = flip_counter.value()
        with BackboneDaemon(port=0, store=store, batch_window=0.01,
                            probe_interval=0.05) as daemon:
            client = ServeClient(port=daemon.port)
            flaky.outage()
            reply = client.run([flow(path).method("DF")
                                .budget(share=0.2).to_json()])
            assert reply["results"][0]["ok"]
            assert reply["degraded"] is True
            series = parse_prometheus(client.metrics())
            assert total(series, "repro_cache_degraded") == 1
            assert total(series,
                         "repro_cache_backend_failures_total") >= 1
            assert flip_counter.value() >= flips_before + 1
            # Restore the backend; the ticker re-arms with no client
            # traffic at all.
            flaky.restore()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and store.degraded:
                time.sleep(0.02)
            assert not store.degraded, \
                "probe ticker never re-armed the store"
            series = parse_prometheus(client.metrics())
            assert total(series, "repro_cache_degraded") == 0
            assert total(series,
                         "repro_daemon_probe_rearms_total") >= 1
        assert daemon.stats.probe_rearms >= 1
        assert rearm_counter.value() >= rearms_before + 1

    def test_probe_ticker_can_be_disabled(self):
        daemon = BackboneDaemon(port=0, probe_interval=0)
        assert daemon.probe_interval is None
        with daemon:
            names = {thread.name for thread in daemon._threads}
            assert "repro-serve-probe" not in names


# ----------------------------------------------------------------------
# Slow-request log
# ----------------------------------------------------------------------

class TestSlowRequestLog:
    def test_slow_threshold_logs_and_counts(self, tmp_path, caplog):
        artifact = flow(edges_file(tmp_path, 25)) \
            .method("NT").budget(share=0.3).to_json()
        with caplog.at_level(logging.WARNING,
                             logger="repro.serve.daemon"), \
                BackboneDaemon(port=0, batch_window=0.01,
                               slow_request_s=0.0) as daemon:
            client = ServeClient(port=daemon.port)
            client.run([artifact])
            series = parse_prometheus(client.metrics())
            config = client.status()["config"]
        assert total(series, "repro_daemon_slow_requests_total") >= 1
        assert "slow request" in caplog.text
        assert config["slow_request_s"] == 0.0
        assert config["probe_interval_s"] == 5.0

    def test_threshold_disabled_by_default(self, tmp_path, caplog):
        artifact = flow(edges_file(tmp_path, 27)) \
            .method("NT").budget(share=0.3).to_json()
        with caplog.at_level(logging.WARNING,
                             logger="repro.serve.daemon"), \
                BackboneDaemon(port=0, batch_window=0.01) as daemon:
            client = ServeClient(port=daemon.port)
            client.run([artifact])
            series = parse_prometheus(client.metrics())
        assert total(series, "repro_daemon_slow_requests_total") == 0
        assert "slow request" not in caplog.text

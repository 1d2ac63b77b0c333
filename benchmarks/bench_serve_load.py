"""Tier-2 load test: the backbone daemon under concurrent clients.

The service regime of ISSUE 6: one daemon, N concurrent HTTP clients,
each requesting the Noise-Corrected backbone at its own delta over the
same edge file. Asserts the daemon's two headline claims:

* **cross-client coalescing** — the admission window merges the
  concurrent requests so the store sees exactly one scoring pass for
  all N clients (store-verified, same counters as ``bench_flow_batch``
  uses in-process);
* **warm latency** — once the store is warm, request latency is pure
  protocol + extraction cost; p50/p99 over a burst of warm requests
  are measured and recorded to ``BENCH_serve_load.json`` so the
  latency trajectory is visible across sessions from day one.

Every result is checked bit-identical to an in-process ``plan.run()``.
"""

import json
import statistics
import threading
import time

import numpy as np
from conftest import emit, record_bench

from repro.flow import flow
from repro.graph.edge_table import EdgeTable
from repro.graph.ingest import write_edges
from repro.pipeline import ScoreStore
from repro.serve import BackboneDaemon, ServeClient
from repro.util.tables import format_table

#: Concurrent clients in the cold burst (one delta each).
N_CLIENTS = 8

#: Warm requests timed for the latency percentiles.
N_WARM = 60

#: Workload size: big enough that a second scoring pass would be
#: unmissable in the cold-burst wall clock.
N_NODES, N_EDGES = 2_000, 150_000

DELTAS = (0.5, 1.0, 1.28, 1.64, 2.0, 2.32, 3.0, 4.0)


def _write_workload(tmp_path):
    rng = np.random.default_rng(11)
    src = rng.integers(0, N_NODES, N_EDGES)
    dst = rng.integers(0, N_NODES, N_EDGES)
    weight = rng.integers(1, 500, N_EDGES).astype(float)
    table = EdgeTable(src, dst, weight, n_nodes=N_NODES, directed=False)
    path = tmp_path / "edges.csv"
    write_edges(table, path)
    return str(path)


def _percentile(samples, q):
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _cold_burst(port, path):
    """N concurrent clients, one delta each; returns replies+latency."""
    replies = [None] * len(DELTAS)
    latencies = [None] * len(DELTAS)

    def one(index, delta):
        client = ServeClient(port=port)
        plan = flow(path, directed=False).method("NC", delta=delta)
        start = time.perf_counter()
        replies[index] = client.run([plan.to_json()], deadline=120.0)
        latencies[index] = time.perf_counter() - start

    threads = [threading.Thread(target=one, args=(i, d))
               for i, d in enumerate(DELTAS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, latencies


def _warm_burst(port, path):
    """Serial warm requests: protocol + extraction cost only."""
    client = ServeClient(port=port)
    artifacts = [flow(path, directed=False).method("NC", delta=d)
                 .to_json() for d in DELTAS]
    latencies = []
    for i in range(N_WARM):
        artifact = artifacts[i % len(artifacts)]
        start = time.perf_counter()
        reply = client.run([artifact], deadline=60.0)
        latencies.append(time.perf_counter() - start)
        assert reply["results"][0]["ok"]
    return latencies


def test_serve_load_coalescing_and_latency(benchmark, tmp_path):
    path = _write_workload(tmp_path)
    store = ScoreStore()

    with BackboneDaemon(port=0, store=store, default_deadline=120.0) as daemon:
        replies, cold = benchmark.pedantic(
            _cold_burst, args=(daemon.port, path), rounds=1,
            iterations=1)
        warm = _warm_burst(daemon.port, path)
        status = ServeClient(port=daemon.port).status()

    # Every client served, every result correct.
    assert all(r["results"][0]["ok"] for r in replies)
    local = {delta: flow(path, directed=False)
             .method("NC", delta=delta).run() for delta in DELTAS}
    for reply, delta in zip(replies, DELTAS):
        result = reply["results"][0]
        assert result["backbone"]["m"] == local[delta].backbone.m
        assert result["cache_key"] == local[delta].cache_key

    # Cross-client coalescing, store-verified: N clients, one scoring
    # pass (NC's delta is extraction-only, so one cache key).
    assert store.stats.puts == 1, store.stats.summary()
    assert store.stats.misses == 1, store.stats.summary()
    assert any(json.loads(json.dumps(r["batch"]))["clients"] >= 2
               for r in replies), \
        "no two clients shared a batch; admission window broken"

    p50_cold = _percentile(cold, 0.50)
    p99_cold = _percentile(cold, 0.99)
    p50_warm = _percentile(warm, 0.50)
    p99_warm = _percentile(warm, 0.99)
    throughput = N_WARM / sum(warm)

    emit(format_table(
        ("phase", "requests", "p50 (s)", "p99 (s)"),
        [("cold burst (concurrent)", str(len(cold)),
          f"{p50_cold:.4f}", f"{p99_cold:.4f}"),
         ("warm (serial)", str(N_WARM),
          f"{p50_warm:.4f}", f"{p99_warm:.4f}")],
        title=f"daemon load: {N_CLIENTS} clients, "
              f"{N_EDGES}-edge source"))
    emit(f"warm throughput: {throughput:.1f} req/s; "
         f"store: {store.stats.summary()}")

    record_bench(
        "serve_load",
        clients=N_CLIENTS, warm_requests=N_WARM, n_edges=N_EDGES,
        scoring_passes=store.stats.puts,
        coalesced_batches=status["daemon"]["coalesced_batches"],
        cold_p50_s=round(p50_cold, 5), cold_p99_s=round(p99_cold, 5),
        warm_p50_s=round(p50_warm, 5), warm_p99_s=round(p99_warm, 5),
        warm_mean_s=round(statistics.mean(warm), 5),
        warm_throughput_rps=round(throughput, 1))

    # Warm requests must be far cheaper than the cold scoring burst.
    assert p50_warm < p50_cold, \
        "warm requests are not benefiting from the warm store"

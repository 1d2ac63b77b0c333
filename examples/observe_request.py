"""Observability end to end: one traced request, one metrics scrape.

Starts a real ``repro.serve.BackboneDaemon`` on a free port with two
scoring workers, then

1. sends one batch of two plans (NC and DF over the same file) with
   ``trace=True`` — the reply carries a JSON trace artifact whose
   span tree covers the admission wait, plan compilation, file
   parsing, the scoring fan-out (spans recorded *inside* the worker
   processes ride back and are adopted into the request trace) and
   per-plan extraction, with per-stage duration totals;
2. scrapes ``GET /v1/metrics`` and shows a few of the Prometheus
   series the daemon exposes (request counters, cache hit/miss,
   latency histograms);
3. shuts the daemon down gracefully over HTTP.

Run:  python examples/observe_request.py
"""

import tempfile
from pathlib import Path

from repro import flow
from repro.generators import erdos_renyi_gnm
from repro.graph.ingest import write_edges
from repro.obs import parse_prometheus
from repro.serve import BackboneDaemon, ServeClient

# A noisy network on disk, and a daemon with real process fan-out.
network = erdos_renyi_gnm(n_nodes=60, n_edges=400, seed=7)
path = Path(tempfile.mkdtemp()) / "edges.csv"
write_edges(network, path)

daemon = BackboneDaemon(port=0, workers=2).start()
client = ServeClient(port=daemon.port)
print(f"daemon up on port {daemon.port} (healthy: {client.healthy()})")

# --- 1. One traced request: two plans, two cold scoring passes.
plans = [flow(path).method("nc", delta=1.64).budget(share=0.2).to_json(),
         flow(path).method("df").budget(share=0.2).to_json()]
reply = client.run(plans, trace=True)
artifact = reply["trace"]
print(f"\ntrace id {artifact['trace_id'][:16]} "
      f"({len(artifact['spans'])} spans, wall {artifact['wall_s']:.3f}s)")
pids = {s["attributes"]["pid"] for s in artifact["spans"]
        if s["name"] == "score"}
print(f"scoring ran in {len(pids)} process(es)")
print("stage durations:")
for name, seconds in sorted(artifact["stages"].items(),
                            key=lambda kv: -kv[1]):
    print(f"  {name:<16} {seconds:.6f}s")

# --- 2. The same story as counters: scrape /v1/metrics.
series = parse_prometheus(client.metrics())
print("\nmetrics scrape (GET /v1/metrics):")
for name in ("repro_daemon_requests_total", "repro_daemon_served_total",
             "repro_cache_misses_total", "repro_cache_hits_total",
             "repro_daemon_request_seconds_count"):
    values = series.get(name, {})
    total = sum(values.values())
    print(f"  {name} = {total:g}")

# --- 3. Graceful shutdown over the wire.
print(f"\nshutdown acknowledged: {client.shutdown()}")
daemon._stopped.wait(timeout=5.0)
print(f"daemon stopped (healthy now: {client.healthy()})")

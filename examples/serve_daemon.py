"""The backbone daemon end to end: serve, coalesce, degrade, recover.

Starts a real ``repro.serve.BackboneDaemon`` on a free port, then
walks the service story of ISSUE 6:

1. concurrent clients request eight NC strictnesses over one file and
   the daemon's batches and its store turn them into a single scoring
   pass (the shared store proves it: one miss, one put);
2. a warm repeat of the same requests is served from cache;
3. the cache backend is taken down mid-session — the daemon degrades
   to memory-only operation, flags it in every response, and recovers
   when the backend comes back;
4. a malformed request fails its slot while its batchmates are served;
5. the daemon shuts down gracefully over HTTP.

Run:  python examples/serve_daemon.py
"""

import tempfile
import threading
from pathlib import Path

from repro import flow
from repro.generators import erdos_renyi_gnm
from repro.graph.ingest import write_edges
from repro.pipeline import ScoreStore
from repro.pipeline.backends import InMemoryKVServer, KVBackend
from repro.serve import BackboneDaemon, ServeClient
from repro.serve.faults import FlakyBackend

DELTAS = (0.5, 1.0, 1.28, 1.64, 2.0, 2.32, 3.0, 4.0)

# A noisy network on disk, and a store whose backend we can sabotage.
network = erdos_renyi_gnm(n_nodes=80, n_edges=600, seed=3)
path = Path(tempfile.mkdtemp()) / "edges.csv"
write_edges(network, path)
flaky = FlakyBackend(KVBackend(InMemoryKVServer()))
store = ScoreStore(backend=flaky)

daemon = BackboneDaemon(port=0, store=store).start()
client = ServeClient(port=daemon.port)
print(f"daemon up on port {daemon.port} "
      f"(healthy: {client.healthy()})")

# --- 1. Eight concurrent clients, one scoring pass.
replies = [None] * len(DELTAS)


def one_client(index, delta):
    plan = flow(path, directed=False).method("nc", delta=delta)
    replies[index] = ServeClient(port=daemon.port) \
        .run([plan.to_json()])


threads = [threading.Thread(target=one_client, args=(i, d))
           for i, d in enumerate(DELTAS)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()

kept = [r["results"][0]["backbone"]["m"] for r in replies]
print(f"\n{len(DELTAS)} concurrent clients, kept edges {kept}")
print(f"scoring passes (store puts): {store.stats.puts}")

# --- 2. Warm repeat: served from cache.
warm = client.run([flow(path, directed=False)
                   .method("nc", delta=1.64).to_json()])
print(f"warm repeat ok: {warm['results'][0]['ok']} "
      f"(store hits now {store.stats.hits})")

# --- 3. Backend outage: degrade, flag, recover.
flaky.outage()
degraded = client.run([flow(path, directed=False)
                       .method("df").budget(share=0.1).to_json()])
print(f"\nbackend down -> served anyway: "
      f"{degraded['results'][0]['ok']}, "
      f"response degraded flag: {degraded['degraded']}")
flaky.restore()
print(f"backend restored; probe clears the flag: "
      f"{store.probe_backend()}")

# --- 4. One bad plan does not poison the batch.
good = flow(path, directed=False).method("nc", delta=1.0)
mixed = client.run([{"not": "a plan"}, good.to_json()])
slot_bad, slot_good = mixed["results"]
print(f"\nmixed batch: bad slot error={slot_bad['error']['type']}, "
      f"good slot ok={slot_good['ok']}")

# --- 5. Graceful shutdown over the wire.
print(f"\nshutdown acknowledged: {client.shutdown()}")
daemon._stopped.wait(timeout=5.0)
print(f"daemon stopped (healthy now: {client.healthy()})")

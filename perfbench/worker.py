"""The measured process of one run: a fresh interpreter per run.

``run.py`` writes the inputs and the oracle, then starts this script so
that the peak RSS it reports is the workload's own process, not the
generator's and not a whole test session's::

    python3 perfbench/worker.py CONFIG.json RESULT.json

With tracing on, traced and untraced operations are interleaved (every
other operation in-process; alternating blocks of time between
the plain and the traced daemon), so both see the same machine and the
difference of their medians is the tracing overhead, not drift.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from repro.pipeline.store import ScoreStore

import layers
import workloads as wl

#: Closed-loop clients of daemon_warm (one per core of the 2-core
#: reference machine, so the daemon's batcher is never starved).
DAEMON_CLIENTS = 2
#: Socket timeout of one daemon request; the daemon's own default
#: deadline (30 s) fires first.
REQUEST_TIMEOUT_S = 40.0
#: Checked but untimed operations before measuring. A fresh process
#: runs its first seconds measurably slower (lazy imports, allocator
#: and page-cache warm-up), which would otherwise leak into the medians.
WARMUP_S = 2.0
#: A traced daemon run alternates plain and traced blocks of
#: ``seconds / BLOCKS`` (both clients switch together, so requests
#: still coalesce).
BLOCKS = 6


class Phase:
    """Latencies and outcomes of one measured stretch."""

    def __init__(self):
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.plans = 0
        self.elapsed_s = 0.0

    def record(self, latency: float, ok: bool, plans: int) -> None:
        self.attempted += 1
        if ok:
            self.latencies.append(latency)
            self.plans += plans
        else:
            self.failed += 1

    def to_json(self) -> Dict[str, object]:
        return {"latencies": self.latencies, "attempted": self.attempted,
                "failed": self.failed, "plans": self.plans,
                "elapsed_s": self.elapsed_s}


def _phases(trace: bool) -> Dict[str, Phase]:
    return {"untraced": Phase(), "traced": Phase()} if trace \
        else {"untraced": Phase()}


def _outcome(phases: Dict[str, Phase]) -> Dict[str, int]:
    return {"attempted": sum(p.attempted for p in phases.values()),
            "failed": sum(p.failed for p in phases.values())}


# ----------------------------------------------------------------------
# In-process workloads: cold_file, warm_grid, stream_cold
# ----------------------------------------------------------------------

class InProcess:
    """One workload's operation, its check, and its store traffic."""

    def __init__(self, config: Dict[str, object], oracle):
        self.name = config["workload"]
        self.oracle = oracle
        self.k = int(config["k"])
        self.warm_s: List[float] = []
        self.traffic = [0, 0]  # store [hits, lookups] in traced ops
        self.store = None
        path = config["input"]
        if self.name == "warm_grid":
            self.plan = wl.grid_base(path, self.k)
            self.points = wl.grid_points(self.k)
            for _ in range(int(config["setup_reps"])):
                self.store = ScoreStore()
                start = time.perf_counter()
                self.plan.run(store=self.store)
                self.warm_s.append(time.perf_counter() - start)
        else:
            self.plan = wl.single_plan(path, self.k,
                                       streaming=self.name == "stream_cold")

    def call(self):
        """The operation, exactly as a user would issue it."""
        if self.name == "warm_grid":
            return self.plan.run_many(store=self.store,
                                      delta=list(wl.GRID_DELTAS),
                                      n_edges=[self.k, 2 * self.k])
        return [self.plan.run(store=self.store)]

    def check(self, results) -> Tuple[bool, Optional[object]]:
        """``(correct, backbone recovery is measured on)``."""
        if self.name != "warm_grid":
            result = results[0]
            ok = result.ok and wl.same_table(result.backbone, self.oracle,
                                             "ref_")
            return ok, result.backbone
        ok = (len(results) == len(self.points)
              and len({result.cache_key for result in results}) == 1
              and all(result.ok and wl.same_table(result.backbone,
                                                  self.oracle, f"ref{i}_")
                      for i, result in enumerate(results)))
        main = self.points.index((wl.DEFAULT_DELTA, self.k))
        return ok, results[main].backbone

    def run_once(self, tracer: Optional[layers.LayerTracer]):
        """One timed operation: ``(latency, results)``."""
        if self.name != "warm_grid":
            self.store = ScoreStore()  # cold: a fresh store each time
        if tracer is None:
            start = time.perf_counter()
            results = self.call()
            return time.perf_counter() - start, results
        stats = self.store.stats
        before = (stats.hits, stats.requests)
        tracer.install()
        try:
            with tracer.operation() as op:
                results = self.call()
        finally:
            tracer.uninstall()
        self.traffic[0] += stats.hits - before[0]
        self.traffic[1] += stats.requests - before[1]
        return op.wall_s, results


def _measure(work: InProcess, seconds: float, found: Dict,
             tracer: Optional[layers.LayerTracer] = None
             ) -> Dict[str, Phase]:
    """Closed loop for ``seconds``; with ``tracer``, every other
    operation runs traced."""
    phases = _phases(tracer is not None)
    start = time.perf_counter()
    stop = start + seconds
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        try:
            latency, results = work.run_once(tracer if traced else None)
            ok, backbone = work.check(results)
        except Exception:
            traceback.print_exc()
            latency, results, ok, backbone = 0.0, [], False, None
        phases["traced" if traced else "untraced"].record(
            latency, ok, len(results))
        if ok and "backbone" not in found:
            found["backbone"] = backbone
        index += 1
        if time.perf_counter() >= stop:
            break
    for phase in phases.values():
        phase.elapsed_s = time.perf_counter() - start
    return phases


def run_in_process(config: Dict[str, object], oracle) -> Dict[str, object]:
    work = InProcess(config, oracle)
    found: Dict[str, object] = {}
    warmup = _measure(work, WARMUP_S, found)
    tracer = layers.LayerTracer() if config["trace"] else None
    phases = _measure(work, float(config["seconds"]), found, tracer)
    result: Dict[str, object] = {
        "warm_s": work.warm_s,
        "phases": {name: phase.to_json() for name, phase in phases.items()},
        "extra": _outcome(warmup),
        "peak_rss_bytes":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }
    if tracer is not None:
        ops = tracer.operations
        totals = layers.weighted_totals(ops)
        lookups = work.traffic[1]
        result["trace"] = {
            "self_s": {layer: value / len(ops)
                       for layer, value in totals["self_s"].items()},
            "counts": {name: value / len(ops)
                       for name, value in totals["counts"].items()},
            "wall_s": totals["wall_s"] / len(ops),
            "accounted": totals["accounted"],
            "hit_ratio": work.traffic[0] / lookups if lookups else 0.0,
            "missing": tracer.missing,
        }
    backbone = found.get("backbone")
    if backbone is not None:
        keys = wl.edge_keys(backbone.src, backbone.dst,
                            int(oracle["n_nodes"]))
        result["jaccard"] = wl.jaccard(keys, oracle["truth_keys"])
    return result


# ----------------------------------------------------------------------
# daemon_warm: closed-loop HTTP clients against `repro serve start`
# ----------------------------------------------------------------------

def _closed_loop(targets: Dict[str, object], plans: List[str],
                 expect: Callable[[int, dict], bool],
                 seconds: float) -> Dict[str, Phase]:
    """``DAEMON_CLIENTS`` closed-loop clients for ``seconds``; with two
    targets they alternate between them in ``BLOCKS`` blocks."""
    names = list(targets)
    block_s = seconds / BLOCKS
    phases = {name: Phase() for name in names}
    lock = threading.Lock()
    start = time.perf_counter()
    stop = start + seconds

    def one_client(index: int) -> None:
        turn = index * len(plans) // DAEMON_CLIENTS
        while True:
            sent = time.perf_counter()
            if sent >= stop:
                return
            name = names[int((sent - start) / block_s) % len(names)]
            slot = turn % len(plans)
            turn += 1
            try:
                reply = targets[name].run([plans[slot]])
                ok = expect(slot, reply["results"][0])
            except Exception:  # any failed request counts; keep going
                traceback.print_exc()
                ok = False
            latency = time.perf_counter() - sent
            with lock:
                phases[name].record(latency, ok, 1)

    threads = [threading.Thread(target=one_client, args=(index,),
                                daemon=True)
               for index in range(DAEMON_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + REQUEST_TIMEOUT_S + 5.0)
        if thread.is_alive():
            with lock:
                phases[names[0]].record(0.0, False, 0)
    for phase in phases.values():
        phase.elapsed_s = time.perf_counter() - start
    return phases


def _daemon_counters(client, snapshot: Path) -> Dict[str, object]:
    """Public counters of a daemon plus the traced launcher's totals."""
    from repro.obs.export import parse_prometheus

    status = client.status()
    series = parse_prometheus(client.metrics())

    def total(name: str) -> float:
        return float(sum(series.get(name, {}).values()))

    counters = {key: float(status["daemon"][key])
                for key in ("requests", "plans", "batches",
                            "coalesced_batches")}
    counters["store_hits"] = float(status["store"]["hits"])
    counters["store_misses"] = float(status["store"]["misses"])
    for short, name in (("queue", "repro_daemon_queue_wait_seconds"),
                        ("batch", "repro_daemon_batch_exec_seconds"),
                        ("request", "repro_daemon_request_seconds")):
        counters[f"{short}_sum"] = total(f"{name}_sum")
        counters[f"{short}_count"] = total(f"{name}_count")
    totals = json.loads(snapshot.read_text()) if snapshot.exists() \
        else layers.weighted_totals([])
    return {"counters": counters, "totals": totals}


def _daemon_layers(before, after, phase: Phase) -> Dict[str, object]:
    """Per-request layer split of the traced daemon's requests.

    A request waits in the admission window, then for its whole batch;
    coalesced batches are charged in full to each request they serve,
    which is what the launcher's plan-weighted totals hold.
    """
    delta = {key: after["counters"][key] - before["counters"][key]
             for key in after["counters"]}
    t0, t1 = before["totals"], after["totals"]
    weight = t1["weight"] - t0["weight"]
    self_s = {layer: (t1["self_s"][layer] - t0["self_s"][layer]) / weight
              for layer in layers.LAYERS}
    counts = {name: (t1["counts"][name] - t0["counts"][name]) / weight
              for name in layers.COUNTERS}
    requests = delta["request_count"]
    latency_mean = statistics.fmean(phase.latencies)
    lookups = delta["store_hits"] + delta["store_misses"]
    return {
        "self_s": self_s,
        "counts": counts,
        "wall_s": latency_mean,
        "accounted": bool(t1["accounted"]) and weight == phase.attempted
        and requests == phase.attempted,
        "hit_ratio": delta["store_hits"] / lookups if lookups else 0.0,
        "daemon": {
            "queue_wait_mean_s": delta["queue_sum"] / delta["queue_count"],
            "batch_mean_s": delta["batch_sum"] / delta["batch_count"],
            "plans_per_batch": delta["plans"] / delta["batches"],
            "coalesced_ratio": delta["coalesced_batches"]
            / delta["batches"],
            "http_s": latency_mean - delta["request_sum"] / requests,
        },
    }


def _verify_edges(client, plans, slot: int, expect, oracle):
    """One request returning the default delta's edges: they must be the
    in-process backbone's. Returns the edge keys, or ``None``."""
    try:
        reply = client.run([plans[slot]], return_edges=True)["results"][0]
        edges = reply["edges"]
        src = np.array([int(u) for u, _, _ in edges], dtype=np.int64)
        dst = np.array([int(v) for _, v, _ in edges], dtype=np.int64)
        weight = np.array([float(w) for _, _, w in edges])
    except Exception:
        traceback.print_exc()
        return None
    if not (expect(slot, reply)
            and wl.same_arrays(src, oracle["ref_src"])
            and wl.same_arrays(dst, oracle["ref_dst"])
            and wl.same_arrays(weight, oracle["ref_weight"])):
        return None
    return wl.edge_keys(src, dst, int(oracle["n_nodes"]))


def run_daemon(config: Dict[str, object], oracle) -> Dict[str, object]:
    from repro.serve import ServeClient

    path = config["input"]
    plans = [wl.daemon_plan(path, delta).to_json()
             for delta in wl.DAEMON_DELTAS]
    sizes = [int(m) for m in oracle["daemon_m"]]
    keys = [str(key) for key in oracle["daemon_keys"]]

    def expect(slot: int, reply: dict) -> bool:
        return (reply.get("ok") is True
                and reply["backbone"]["m"] == sizes[slot]
                and reply["cache_key"] == keys[slot])

    targets = {"untraced": ServeClient(port=int(config["port"]),
                                       timeout=REQUEST_TIMEOUT_S)}
    if config["trace"]:
        targets["traced"] = ServeClient(port=int(config["traced_port"]),
                                        timeout=REQUEST_TIMEOUT_S)
    warmup = _closed_loop(targets, plans, expect, WARMUP_S)
    result: Dict[str, object] = {"warm_s": []}
    if config["trace"]:
        snapshot = Path(config["snapshot"])
        before = _daemon_counters(targets["traced"], snapshot)
    phases = _closed_loop(targets, plans, expect, float(config["seconds"]))
    if config["trace"]:
        after = _daemon_counters(targets["traced"], snapshot)
        result["trace"] = _daemon_layers(before, after, phases["traced"])
    result["phases"] = {name: phase.to_json()
                        for name, phase in phases.items()}

    slot = wl.DAEMON_DELTAS.index(wl.DEFAULT_DELTA)
    found = _verify_edges(targets["untraced"], plans, slot, expect, oracle)
    warmup["verify"] = Phase()
    warmup["verify"].record(0.0, found is not None, 1)
    result["extra"] = _outcome(warmup)
    if found is not None:
        result["jaccard"] = wl.jaccard(found, oracle["truth_keys"])
    return result


def main(argv: List[str]) -> int:
    config = json.loads(Path(argv[1]).read_text())
    with np.load(config["oracle"]) as payload:
        oracle = {key: payload[key] for key in payload.files}
    if config["workload"] == "daemon_warm":
        result = run_daemon(config, oracle)
    else:
        result = run_in_process(config, oracle)
    Path(argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

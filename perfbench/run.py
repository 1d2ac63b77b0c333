"""Repository benchmark: one workload, one seed, one JSON result line.

Run from the repository root; the program is imported from ``./src``::

    python3 perfbench/run.py --workload cold_file --seed 1 --trace 0
    python3 perfbench/run.py --describe    # workloads, metrics, units
    python3 perfbench/run.py --selftest    # every workload, tiny scale

A run generates its inputs from ``--seed`` (setting up ``SETUP_REPS``
times and reporting the median set-up time), computes an oracle through
an independent path, then starts ``worker.py`` in a fresh process that
measures for ``--seconds`` and checks every operation against the
oracle. ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics. The
last line of standard output is the JSON result; the exit code is 1
when any correctness check failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import suppress
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import workloads as wl

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
#: Extra seconds the measured process may take beyond ``--seconds``
#: (process start, imports, set-up warm-ups, the last operation).
WORKER_GRACE_S = 90.0
DAEMON_START_TIMEOUT_S = 30.0


def _bench_spec(root: Path) -> Dict[str, object]:
    return json.loads((root / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Processes: the daemon under test and the measured worker
# ----------------------------------------------------------------------

def _child_env(root: Path, tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)  # streamed spills stay inside the checkout
    return env


class Daemon:
    """A ``repro serve start`` process (plain, or through the tracer)."""

    def __init__(self, root: Path, work: Path, tmp: Path,
                 snapshot: Optional[Path] = None):
        if snapshot is None:
            command = [sys.executable, "-m", "repro.cli", "serve", "start"]
        else:
            command = [sys.executable, str(HERE / "traced_daemon.py"),
                       str(snapshot)]
        self.port: Optional[int] = None
        self.log = work / f"daemon-{id(self)}.log"
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                command + ["--port", "0"], cwd=root,
                env=_child_env(root, tmp), stdout=subprocess.PIPE,
                stderr=log, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    DAEMON_START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        found = re.search(r"listening on [^ ]*:(\d+) ", line)
        if found is None:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}; "
                               f"{self.log.read_text()[-2000:]}")
        self.port = int(found.group(1))

    def client(self):
        from repro.serve import ServeClient

        return ServeClient(port=self.port, timeout=60.0)

    def peak_rss_bytes(self) -> int:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+) kB", status).group(1)
        return int(kib) * 1024

    def stop(self) -> None:
        """Shut down through the API; kill if it does not exit."""
        if self.proc.poll() is None:
            asked = self.port is not None and self.client().shutdown()
            try:
                self.proc.wait(timeout=15 if asked else 0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _run_worker(root: Path, work: Path, tmp: Path,
                config: Dict[str, object]) -> Dict[str, object]:
    config_path = work / "worker-config.json"
    result_path = work / "worker-result.json"
    config_path.write_text(json.dumps(config))
    subprocess.run([sys.executable, str(HERE / "worker.py"),
                    str(config_path), str(result_path)],
                   cwd=root, env=_child_env(root, tmp), check=True,
                   timeout=float(config["seconds"]) + WORKER_GRACE_S)
    return json.loads(result_path.read_text())


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _warm_daemon(daemon: Daemon, path: Path) -> bool:
    plan = wl.daemon_plan(path, wl.DEFAULT_DELTA).to_json()
    return bool(daemon.client().run([plan])["results"][0].get("ok"))


def measure(root: Path, name: str, seed: int, seconds: float,
            trace: bool, scale: float) -> Dict[str, object]:
    """Set up, run the worker, tear down; returns the raw figures."""
    workload = wl.WORKLOADS[name]
    work = root / ".perfbench-work" / f"{name}-{seed}-{os.getpid()}"
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    daemons: List[Daemon] = []
    try:
        setup_s: List[float] = []
        digests = set()
        for rep in range(SETUP_REPS):
            if rep:
                for daemon in daemons:
                    daemon.stop()
                daemons.clear()
                shutil.rmtree(work / f"setup{rep - 1}")
            start = time.perf_counter()
            inputs = wl.generate(workload, seed, scale,
                                 work / f"setup{rep}")
            warmed = True
            if name == "daemon_warm":
                daemons.append(Daemon(root, work, tmp))
                warmed = _warm_daemon(daemons[0], inputs.path)
            setup_s.append(time.perf_counter() - start)
            digests.add(_sha256(inputs.path))
        oracle_path = work / "oracle.npz"
        np.savez(oracle_path, **wl.build_oracle(workload, inputs, scale))
        config = {"workload": name, "seconds": seconds, "trace": trace,
                  "input": str(inputs.path), "oracle": str(oracle_path),
                  "k": workload.true_edges(scale), "setup_reps": SETUP_REPS}
        if name == "daemon_warm":
            config["port"] = daemons[0].port
            if trace:
                snapshot = work / "layers-snapshot.json"
                traced = Daemon(root, work, tmp, snapshot=snapshot)
                daemons.append(traced)
                warmed = warmed and _warm_daemon(traced, inputs.path)
                config.update(traced_port=traced.port,
                              snapshot=str(snapshot))
        del inputs
        gc.collect()
        result = _run_worker(root, work, tmp, config)
        if name == "daemon_warm":
            result["peak_rss_bytes"] = daemons[0].peak_rss_bytes()
        if result["warm_s"]:
            setup_s = [gen + warm for gen, warm
                       in zip(setup_s, result["warm_s"])]
        result.update(setup_s=setup_s, deterministic=len(digests) == 1,
                      warmed=warmed, input_edges=workload.input_edges(scale))
        return result
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):  # other runs may still use it
            work.parent.rmdir()


def _p90(values: List[float]) -> float:
    """Harrell-Davis estimate: a weighted mean of all order statistics,
    far steadier than interpolating the top two of the ~10 samples a
    serial 1M-edge workload yields per run."""
    from scipy.stats.mstats import hdquantiles

    return float(hdquantiles(np.asarray(values), prob=[0.9])[0])


def end_to_end(raw: Dict[str, object]) -> Dict[str, float]:
    phase = raw["phases"]["untraced"]
    latencies = phase["latencies"]
    p50 = statistics.median(latencies)
    attempted, failed = _outcomes(raw)
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "latency_p50_s": p50,
        "latency_p90_s": _p90(latencies),
        "edges_per_s": raw["input_edges"] / p50,
        "plans_per_s": phase["plans"] / phase["elapsed_s"],
        "ok_ratio": (attempted - failed) / attempted,
        "recovery_jaccard": raw.get("jaccard", 0.0),
        "peak_rss_bytes": raw["peak_rss_bytes"],
    }


_LAYER_METRICS = {"ingest.read": "ingest.read_s", "extract": "extract.s"}


def per_layer(raw: Dict[str, object]) -> Dict[str, float]:
    trace = raw["trace"]
    metrics = {_LAYER_METRICS.get(layer, f"{layer}_s"): value
               for layer, value in trace["self_s"].items()}
    daemon = trace.get("daemon") or dict.fromkeys(
        ("queue_wait_mean_s", "batch_mean_s", "plans_per_batch",
         "coalesced_ratio", "http_s"), 0.0)
    metrics.update({f"daemon.{key}": value
                    for key, value in daemon.items()})
    metrics["unattributed_s"] = (trace["wall_s"]
                                 - sum(trace["self_s"].values())
                                 - daemon["queue_wait_mean_s"]
                                 - daemon["http_s"])
    metrics["ingest.rows"] = trace["counts"]["rows"]
    metrics["extract.kept_edges"] = trace["counts"]["kept"]
    metrics["store.hit_ratio"] = trace["hit_ratio"]
    phases = raw["phases"]
    metrics["trace_overhead_s"] = (
        statistics.median(phases["traced"]["latencies"])
        - statistics.median(phases["untraced"]["latencies"]))
    return metrics


def _outcomes(raw: Dict[str, object]) -> Tuple[int, int]:
    parts = list(raw["phases"].values()) + [raw["extra"]]
    return (sum(part["attempted"] for part in parts),
            sum(part["failed"] for part in parts))


#: Per-layer times that are not parts of an operation's wall time.
_NOT_ADDITIVE = ("trace_overhead_s", "daemon.batch_mean_s")


def _layer_table(raw: Dict[str, object], metrics: Dict[str, dict]) -> str:
    wall = raw["trace"]["wall_s"]
    rows = [f"per-layer self time per operation (wall {wall:.6f} s)"]
    timed = [name for name, item in metrics.items()
             if item["unit"] == "s" and name not in _NOT_ADDITIVE]
    for name in timed:
        value = metrics[name]["value"]
        share = value / wall if wall else 0.0
        rows.append(f"  {name:28s} {value:12.6f} s  {share:6.1%}")
    total = sum(metrics[name]["value"] for name in timed)
    rows.append(f"  {'sum (= wall)':28s} {total:12.6f} s  "
                f"{total / wall if wall else 0.0:6.1%}")
    return "\n".join(rows)


def run(root: Path, name: str, seed: int, seconds: float, trace: bool,
        scale: float) -> Tuple[Dict[str, object], str]:
    """One benchmark run: ``(result line, human-readable report)``."""
    spec = _bench_spec(root)
    raw = measure(root, name, seed, seconds, trace, scale)
    attempted, failed = _outcomes(raw)
    checks = {"every operation matched the oracle": failed == 0,
              "same seed, byte-identical inputs": raw["deterministic"],
              "set-up warm-up answered": raw["warmed"],
              "recovery measured": "jaccard" in raw}
    if trace:
        values = per_layer(raw)
        listed = spec["per_layer"]
        checks["self times + unattributed_s = wall"] = (
            raw["trace"]["accounted"] and values["unattributed_s"] >= -1e-6)
    else:
        values = end_to_end(raw)
        listed = spec["end_to_end"]
    metrics = {item["name"]: {"value": values[item["name"]],
                              "unit": item["unit"]} for item in listed}
    lines = [f"{name} seed={seed} seconds={seconds} trace={int(trace)} "
             f"scale={scale}: {attempted} attempted, {failed} failed, "
             f"{len(raw['phases']['untraced']['latencies'])} untraced "
             "latency samples"]
    lines += [f"  {key:28s} {value['value']:<22.10g} {value['unit']}"
              for key, value in metrics.items()]
    if trace:
        lines.append(_layer_table(raw, metrics))
        if raw["trace"].get("missing"):
            lines.append("  untraced (not found): "
                         + ", ".join(raw["trace"]["missing"]))
    lines += [f"  check: {label}: {'ok' if passed else 'FAILED'}"
              for label, passed in checks.items()]
    result = {"correct": all(checks.values()), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, "\n".join(lines)


# ----------------------------------------------------------------------
# --describe and --selftest
# ----------------------------------------------------------------------

def describe(root: Path) -> str:
    spec = _bench_spec(root)
    manifest = json.loads((HERE / "manifest.json").read_text())
    lines = [f"command: {' '.join(spec['command'])}; "
             f"{spec['run_seconds']} s per run", "workloads:"]
    for item in spec["workloads"]:
        info = manifest["workloads"][item["name"]]
        lines.append(f"  {item['name']}: {item['why']}")
        lines += [f"    {key}: {value}" for key, value in info.items()]
    lines.append("end-to-end metrics (--trace 0):")
    for item in spec["end_to_end"]:
        lines.append(f"  {item['name']} [{item['unit']}] "
                     f"{item['better']} is better, bound {item['bound']}: "
                     f"{manifest['end_to_end'][item['name']]}")
    lines.append("per-layer metrics (--trace 1):")
    for item in spec["per_layer"]:
        info = manifest["per_layer"][item["name"]]
        lines.append(f"  {item['name']} [{item['unit']}]: {info['what']}")
        for metric, workload in info.get("moves", []):
            lines.append(f"    should move {metric} on {workload}")
        for metric, workload in info.get("steady", []):
            lines.append(f"    should not move {metric} on {workload}")
    return "\n".join(lines)


def selftest(root: Path) -> int:
    """Every workload at a tiny scale, both trace modes, plus checks of
    determinism and of the manifest against ``BENCHMARK.json``."""
    spec = _bench_spec(root)
    manifest = json.loads((HERE / "manifest.json").read_text())
    failures: List[str] = []

    def expect(condition: bool, label: str) -> None:
        print(f"{'ok    ' if condition else 'FAILED'} {label}")
        if not condition:
            failures.append(label)

    names = [item["name"] for item in spec["workloads"]]
    expect(sorted(names) == sorted(wl.WORKLOADS)
           and sorted(manifest["workloads"]) == sorted(names),
           "workloads agree across BENCHMARK.json, manifest, workloads.py")
    expect(sorted(manifest["end_to_end"])
           == sorted(item["name"] for item in spec["end_to_end"])
           and sorted(manifest["per_layer"])
           == sorted(item["name"] for item in spec["per_layer"]),
           "metric names agree across BENCHMARK.json and manifest")
    expect(all(info["input_edges"] == wl.WORKLOADS[key].input_edges(1.0)
               and info["true_edges"] == wl.WORKLOADS[key].true_edges(1.0)
               for key, info in manifest["workloads"].items()),
           "manifest sizes match the generator at scale 1")

    scale, seed = 0.01, 7
    work = root / ".perfbench-work" / f"selftest-{os.getpid()}"
    try:
        files = {}
        for label, use in (("a", seed), ("b", seed), ("c", seed + 1)):
            files[label] = wl.generate(wl.WORKLOADS["cold_file"], use,
                                       scale, work / label).path
        same = files["a"].read_bytes() == files["b"].read_bytes()
        expect(same and files["a"].read_bytes() != files["c"].read_bytes(),
               "same seed gives byte-identical inputs, another seed not")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jaccards = {}
    for name in names:
        for trace in (0, 1):
            command = [sys.executable, str(HERE / "run.py"), "--workload",
                       name, "--seed", str(seed), "--seconds", "1",
                       "--trace", str(trace), "--scale", str(scale)]
            done = subprocess.run(command, cwd=root, capture_output=True,
                                  text=True, timeout=170)
            label = f"{name} --trace {trace}"
            if done.returncode != 0 or not done.stdout.strip():
                expect(False, f"{label}: exit {done.returncode}\n"
                              f"{done.stdout}{done.stderr[-3000:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            listed = spec["per_layer" if trace else "end_to_end"]
            numbers = [result["metrics"][item["name"]]["value"]
                       for item in listed]
            expect(result["correct"] and result["failed"] == 0
                   and sorted(result["metrics"])
                   == sorted(item["name"] for item in listed)
                   and all(np.isfinite(numbers)),
                   f"{label}: correct, every metric present and finite")
            if not trace:
                jaccards[name] = \
                    result["metrics"]["recovery_jaccard"]["value"]
                expect(all(value > 0 for value in numbers),
                       f"{label}: every end-to-end metric is non-zero")
    expect(jaccards.get("cold_file") == jaccards.get("stream_cold"),
           "recovery_jaccard equal on cold_file and stream_cold")
    print("selftest " + ("passed" if not failures else
                         f"FAILED ({len(failures)})"))
    return 1 if failures else 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def _program_root() -> Optional[Path]:
    """The checkout root (cwd) when it holds the program's sources."""
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(root / "src"))
    import repro

    source = Path(repro.__file__).resolve()
    return root if (root / "src").resolve() in source.parents else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the reference "
                             "(edges scale linearly)")
    parser.add_argument("--describe", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    root = _program_root()
    if root is None:
        print("perfbench: run from the repository root; ./src/repro "
              "(the program under test) is missing", file=sys.stderr)
        return 2
    if args.describe:
        print(describe(root))
        return 0
    if args.selftest:
        return selftest(root)
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None \
        else float(_bench_spec(root)["run_seconds"])
    result, report = run(root, args.workload, args.seed, seconds,
                         bool(args.trace), args.scale)
    print(report)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

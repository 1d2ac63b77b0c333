"""Tier-2 perf smoke: the pipeline cache on the Fig. 7 workload.

Runs the full coverage sweep of paper Fig. 7 (six networks x six
methods x the paper's share grid) several ways — a plan run with no
store, cold store, warm store (both tiers and disk-only), and sharded
across two workers — and asserts:

* a warm store makes the sweep at least 5x faster than a cold one
  (scoring dominates, and the cache removes all of it), comparing the
  best of three cold runs, each on a fresh store, with the best of
  three warm passes over the last of them;
* the no-store run equals a direct-scoring reference, in which each
  method scores and filters the table itself (computed after the
  timed legs, so it cannot warm them);
* sharded ``workers=2`` execution returns *bit-identical* series to
  the no-store run (parallelism is purely a wall-clock optimization);
* so do the cached paths (cache hits must not perturb results).
"""

from conftest import emit

from repro.backbones.base import share_to_k
from repro.backbones.doubly_stochastic import SinkhornConvergenceError
from repro.backbones.registry import paper_methods
from repro.evaluation.sweep import DEFAULT_SHARES, SweepSeries
from repro.experiments import fig7_topology
from repro.generators.world import NETWORK_NAMES
from repro.pipeline import CoverageMetric, ScoreStore
from repro.util.tables import format_table
from repro.util.timing import time_call

#: Required cold/warm speedup at the Fig. 7 workload.
MIN_WARM_SPEEDUP = 5.0
#: Timed cold runs (each on a fresh store) and warm passes (over the
#: last cold store); the gate takes the best of each, so a single slow
#: or fast pass cannot decide it.
COLD_RUNS = 3
WARM_RUNS = 3


def _direct_sweeps(world):
    """Fig. 7's series, each method scoring and filtering by itself."""
    sweeps = {}
    for name in NETWORK_NAMES:
        table = world.network(name, 0)
        metric = CoverageMetric(table)
        sweeps[name] = {}
        for method in paper_methods():
            code = method.code
            try:
                if method.parameter_free:
                    backbone = method.extract(table)
                    share = backbone.m / max(table.nonloop_m, 1)
                    series = SweepSeries(code, [share], [metric(backbone)],
                                         True)
                else:
                    scored = method.score(table)
                    series = SweepSeries(
                        code, list(DEFAULT_SHARES),
                        [metric(scored.top_k(share_to_k(share, scored.m)))
                         for share in DEFAULT_SHARES], False)
            except SinkhornConvergenceError:
                series = SweepSeries(code, [], [], True)
            sweeps[name][code] = series
    return sweeps


def _best(runs):
    """The fastest time of ``(seconds, result)`` runs, and every result."""
    return min(seconds for seconds, _ in runs), [run for _, run in runs]


def _run_all_ways(world, tmp_path):
    plain_s, plain = time_call(fig7_topology.run, world=world)
    cold_runs = []
    for i in range(COLD_RUNS):
        store = ScoreStore(tmp_path / f"cold{i}")
        cold_runs.append(time_call(fig7_topology.run, world=world,
                                   store=store))
    cold_s, colds = _best(cold_runs)
    # Warm, both tiers live: the service scenario (same process reruns).
    warm_s, warms = _best([time_call(fig7_topology.run, world=world,
                                     store=store)
                           for _ in range(WARM_RUNS)])
    # Warm, disk tier only: what a fresh process pays.
    store.clear_memory()
    disk_s, disk = time_call(fig7_topology.run, world=world, store=store)
    sharded_s, sharded = time_call(fig7_topology.run, world=world,
                                   store=store, workers=2)
    timings = (("no store", plain_s), ("cold store", cold_s),
               ("warm store", warm_s), ("warm disk-only", disk_s),
               ("sharded x2", sharded_s))
    return timings, (plain, colds, warms, disk, sharded), store


def test_pipeline_cache_speedup_and_identity(benchmark, world, tmp_path):
    timings, results, store = benchmark.pedantic(
        _run_all_ways, args=(world, tmp_path), rounds=1, iterations=1)
    by_name = dict(timings)
    emit(format_table(
        ("path", "seconds", "vs cold"),
        [(name, f"{seconds:.3f}",
          f"{by_name['cold store'] / seconds:.1f}x")
         for name, seconds in timings],
        title="Fig. 7 coverage sweep through the pipeline cache"))
    emit(store.stats.summary())

    plain, colds, warms, disk, sharded = results
    assert plain.sweeps == _direct_sweeps(world), \
        "the plan batch diverged from direct scoring"
    for cold in colds:
        assert cold.sweeps == plain.sweeps, \
            "a cold cache perturbed the sweep results"
    for warm in warms:
        assert warm.sweeps == plain.sweeps, \
            "memory-tier cache hits perturbed the sweep results"
    assert disk.sweeps == plain.sweeps, \
        "disk-tier cache hits perturbed the sweep results"
    assert sharded.sweeps == plain.sweeps, \
        "workers=2 sharded output diverged from the no-store run"

    speedup = by_name["cold store"] / by_name["warm store"]
    assert speedup >= MIN_WARM_SPEEDUP, \
        f"warm store only {speedup:.1f}x faster than cold " \
        f"(need >= {MIN_WARM_SPEEDUP}x)"

"""One-shot runner regenerating every table and figure of the paper.

``run_all`` executes each experiment with laptop-friendly settings and
returns the rendered report; ``python -m repro.experiments.runner``
prints it. Benchmarks call the individual experiment modules directly
with their own parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..generators.world import SyntheticWorld
from ..pipeline.store import ScoreStore
from . import (case_study, fig1_example, fig2_threshold, fig3_toy,
               fig4_synthetic, fig5_weights, fig6_local_correlation,
               fig7_topology, fig8_stability, fig9_scalability,
               table1_variance, table2_quality)


@dataclass
class FullReport:
    """All experiment results plus their rendered text."""

    results: Dict[str, object]
    sections: Dict[str, str]

    def text(self) -> str:
        banner = ("Reproduction report — 'Network Backboning with Noisy "
                  "Data' (Coscia & Neffke, ICDE 2017)")
        parts = [banner, "=" * len(banner)]
        for section in self.sections.values():
            parts.append("")
            parts.append(section)
        return "\n".join(parts)


def run_all(seed: int = 0, world: Optional[SyntheticWorld] = None,
            quick: bool = True, tiny: bool = False,
            workers: Optional[int] = None,
            cache_dir: Optional[str] = None) -> FullReport:
    """Run every experiment.

    ``quick`` shrinks the heavy sweeps to laptop scale; ``tiny`` shrinks
    everything further to CI scale (used by the integration test).
    The sweep-shaped experiments (Figs. 7-8, Table II) always share one
    scored-table store, so Fig. 8 and Table II reuse the tables Fig. 7
    already scored. ``workers`` fans their scoring out across
    processes, and ``cache_dir`` makes the store persistent; it accepts
    any backend spec (:func:`repro.pipeline.backends.open_backend`): a
    directory path, a ``.sqlite`` file, or ``sqlite://``/``kv://``
    URLs. Neither knob changes any reported number.
    """
    if world is None:
        n_countries = 40 if tiny else (80 if quick else 120)
        world = SyntheticWorld(n_countries=n_countries, n_years=3,
                               seed=seed)
    store = ScoreStore(cache_dir)
    results: Dict[str, object] = {}
    sections: Dict[str, str] = {}

    def add(name, result, formatter):
        results[name] = result
        sections[name] = formatter(result)

    add("fig1", fig1_example.run(seed=seed), fig1_example.format_result)
    add("fig2", fig2_threshold.run(world=world),
        fig2_threshold.format_result)
    add("fig3", fig3_toy.run(), fig3_toy.format_result)
    if tiny:
        fig4_result = fig4_synthetic.run(n_nodes=60, repetitions=1,
                                         etas=(0.0, 0.2), seed=seed)
    else:
        fig4_result = fig4_synthetic.run(
            repetitions=1 if quick else 3, seed=seed)
    add("fig4", fig4_result, fig4_synthetic.format_result)
    add("fig5", fig5_weights.run(world=world), fig5_weights.format_result)
    add("fig6", fig6_local_correlation.run(world=world),
        fig6_local_correlation.format_result)
    add("table1", table1_variance.run(world=world),
        table1_variance.format_result)
    sweep_shares = (0.05, 0.5, 1.0) if tiny else None
    sweep_kwargs = {"world": world, "store": store, "workers": workers}
    if sweep_shares:
        sweep_kwargs["shares"] = sweep_shares
    add("fig7", fig7_topology.run(**sweep_kwargs),
        fig7_topology.format_result)
    add("fig8", fig8_stability.run(**sweep_kwargs),
        fig8_stability.format_result)
    add("table2",
        table2_quality.run(world=world,
                           budget_share=0.15 if tiny else None,
                           store=store, workers=workers),
        table2_quality.format_result)
    if tiny:
        fig9_result = fig9_scalability.run(fast_sizes=(500, 2_000),
                                           slow_sizes=(60, 120))
    elif quick:
        fig9_result = fig9_scalability.run(
            fast_sizes=(2_000, 8_000, 32_000), slow_sizes=(100, 200))
    else:
        fig9_result = fig9_scalability.run(
            fast_sizes=(2_000, 8_000, 32_000, 128_000, 512_000),
            slow_sizes=(200, 400, 800))
    add("fig9", fig9_result, fig9_scalability.format_result)
    add("case_study", case_study.run(seed=seed),
        case_study.format_result)
    return FullReport(results=results, sections=sections)


if __name__ == "__main__":
    print(run_all().text())

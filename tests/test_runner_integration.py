"""End-to-end integration: the full report runner at CI scale."""

import pytest

from repro.experiments.runner import run_all


@pytest.fixture(scope="module")
def tiny_report():
    return run_all(seed=0, tiny=True)


class TestRunAllTiny:
    EXPECTED_SECTIONS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                         "table1", "fig7", "fig8", "table2", "fig9",
                         "case_study")

    def test_every_artifact_present(self, tiny_report):
        assert tuple(tiny_report.sections) == self.EXPECTED_SECTIONS
        for name in self.EXPECTED_SECTIONS:
            assert tiny_report.sections[name].strip(), name

    def test_text_report_contains_banner_and_all_sections(self,
                                                          tiny_report):
        text = tiny_report.text()
        assert "Reproduction report" in text
        for marker in ("Fig. 1", "Fig. 4", "Table I", "Table II",
                       "Case study"):
            assert marker in text, marker

    def test_headline_claims_hold_end_to_end(self, tiny_report):
        fig1 = tiny_report.results["fig1"]
        assert fig1.nmi_backbone > fig1.nmi_raw
        fig3 = tiny_report.results["fig3"]
        assert fig3.nc_prefers_peripheral()
        table1 = tiny_report.results["table1"]
        assert table1.all_positive_and_significant(level=0.05)
        table2 = tiny_report.results["table2"]
        # At CI scale the strict ">1 everywhere" claim can wobble by a
        # percent (it is asserted at bench scale in
        # bench_table2_quality); dominance over the budget-matched
        # rivals is the scale-robust shape.
        assert table2.nc_budgeted_win_share() >= 0.8
        for by_method in table2.ratios.values():
            assert by_method["NC"] > 0.95
        case = tiny_report.results["case_study"]
        assert case.orderings_hold()

    def test_results_and_sections_aligned(self, tiny_report):
        assert set(tiny_report.results) == set(tiny_report.sections)


def test_run_all_shares_one_store(monkeypatch):
    # Figs. 7-8 and Table II score over one store with no knob set:
    # Fig. 7 scores each (network, method) pair once, and the later
    # experiments are served from its entries.
    from repro.experiments import (fig7_topology, fig8_stability,
                                   table2_quality)

    seen = {}
    for name, module in (("fig7", fig7_topology),
                         ("fig8", fig8_stability),
                         ("table2", table2_quality)):
        def recording(*args, _name=name, _run=module.run, **kwargs):
            store = kwargs.get("store")
            before = None if store is None else store.stats.puts
            result = _run(*args, **kwargs)
            after = None if store is None else store.stats.puts
            seen[_name] = (store, before, after)
            return result

        monkeypatch.setattr(module, "run", recording)
    run_all(seed=0, tiny=True)
    store = seen["fig7"][0]
    assert store is not None
    assert all(entry[0] is store for entry in seen.values())
    puts = {name: after - before
            for name, (_, before, after) in seen.items()}
    assert puts == {"fig7": 36, "fig8": 0, "table2": 0}

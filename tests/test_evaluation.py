"""Tests for the evaluation harness (coverage, quality, stability, ...)."""

import numpy as np
import pytest

from repro.backbones import NaiveThreshold, paper_methods
from repro.core import NoiseCorrectedBackbone
from repro.evaluation import (DEFAULT_SHARES, average_stability,
                              backbone_pair_mask, coverage, network_design,
                              pair_grid, predicted_vs_observed_variance,
                              quality_ratio, recovery_by_method,
                              recovery_jaccard, stability_spearman,
                              weights_for_pairs)
from repro.flow import sweep_methods
from repro.generators import add_noise, barabasi_albert
from repro.graph import EdgeTable


class TestCoverage:
    def test_full_backbone_full_coverage(self):
        table = EdgeTable([0, 1], [1, 2], [1.0, 2.0])
        assert coverage(table, table) == 1.0

    def test_dropping_a_node(self):
        table = EdgeTable([0, 1], [1, 2], [1.0, 2.0])
        backbone = table.subset(np.array([0]))  # drops node 2
        assert coverage(table, backbone) == pytest.approx(2 / 3)

    def test_pre_existing_isolates_do_not_count(self):
        table = EdgeTable([0], [1], [1.0], n_nodes=5)
        assert coverage(table, table) == 1.0

    def test_node_universe_checked(self):
        a = EdgeTable([0], [1], [1.0], n_nodes=2)
        b = EdgeTable([0], [1], [1.0], n_nodes=3)
        with pytest.raises(ValueError):
            coverage(a, b)


class TestRecovery:
    def test_zero_noise_perfect_recovery(self):
        truth = barabasi_albert(60, 1.5, seed=0)
        noisy = add_noise(truth, 0.0, seed=1)
        assert recovery_jaccard(noisy, NaiveThreshold()) == 1.0

    def test_nc_beats_naive_under_noise(self):
        truth = barabasi_albert(80, 1.5, seed=2)
        noisy = add_noise(truth, 0.25, seed=3)
        nc = recovery_jaccard(noisy, NoiseCorrectedBackbone())
        nt = recovery_jaccard(noisy, NaiveThreshold())
        assert nc > nt

    def test_recovery_by_method_handles_failures(self):
        truth = barabasi_albert(40, 1.5, seed=4)
        noisy = add_noise(truth, 0.0, seed=5)  # DS unbalanceable at eta=0
        scores = recovery_by_method(noisy, paper_methods())
        assert set(scores) == {"NT", "MST", "DS", "HSS", "DF", "NC"}
        assert np.isnan(scores["DS"]) or 0 <= scores["DS"] <= 1


class TestQuality:
    def test_pair_grid_shapes(self):
        src, dst = pair_grid(4, directed=True)
        assert len(src) == 12
        src_u, dst_u = pair_grid(4, directed=False)
        assert len(src_u) == 6
        assert np.all(src_u < dst_u)

    def test_quality_ratio_improves_when_noise_removed(self):
        rng = np.random.default_rng(0)
        n = 2000
        x = rng.normal(size=n)
        clean = np.abs(2.0 * x + rng.normal(scale=0.1, size=n))
        noise_mask = rng.uniform(size=n) < 0.5
        y = np.where(noise_mask, rng.uniform(0, 3, n), clean)
        result = quality_ratio(y, x[:, None], ~noise_mask)
        assert result.ratio > 1.0

    def test_quality_ratio_too_small_backbone_rejected(self):
        with pytest.raises(ValueError):
            quality_ratio(np.ones(10), np.ones((10, 1)),
                          np.zeros(10, dtype=bool))

    def test_network_design_all_networks(self, small_world):
        for name in small_world.network_names():
            y, X, names, src, dst = network_design(small_world, name)
            assert len(y) == len(src) == len(dst)
            assert X.shape == (len(y), len(names))
            assert "log_distance" in names

    def test_backbone_pair_mask_directed(self):
        backbone = EdgeTable([0], [1], [1.0], n_nodes=3)
        src, dst = pair_grid(3, directed=True)
        mask = backbone_pair_mask(backbone, src, dst)
        assert mask.sum() == 1

    def test_backbone_pair_mask_undirected_matches_both_orientations(self):
        backbone = EdgeTable([0], [1], [1.0], n_nodes=3, directed=False)
        src, dst = pair_grid(3, directed=True)
        mask = backbone_pair_mask(backbone, src, dst)
        assert mask.sum() == 2


class TestStability:
    def test_identical_years_perfectly_stable(self):
        table = EdgeTable([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        assert stability_spearman(table, table, table) \
            == pytest.approx(1.0)

    def test_shuffled_years_unstable(self):
        rng = np.random.default_rng(0)
        n = 40
        src, dst = np.triu_indices(n, k=1)
        w1 = rng.uniform(1, 100, len(src))
        w2 = rng.uniform(1, 100, len(src))
        year1 = EdgeTable(src, dst, w1, n_nodes=n, directed=False)
        year2 = EdgeTable(src, dst, w2, n_nodes=n, directed=False)
        value = stability_spearman(year1, year2, year1)
        assert abs(value) < 0.15

    def test_tiny_backbone_is_nan(self):
        table = EdgeTable([0], [1], [1.0])
        assert np.isnan(stability_spearman(table, table, table))

    def test_average_stability_needs_two_years(self):
        table = EdgeTable([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            average_stability([table], table)

    def test_weights_for_pairs_missing_edges_zero(self):
        table = EdgeTable([0], [1], [5.0], n_nodes=3)
        values = weights_for_pairs(table, np.array([0, 1]),
                                   np.array([1, 2]))
        assert values.tolist() == [5.0, 0.0]

    def test_world_networks_stable(self, small_world):
        years = small_world.years("migration")
        backbone = NoiseCorrectedBackbone().extract(years[0], share=0.3)
        assert average_stability(years, backbone) > 0.7


class TestSweep:
    def test_budgeted_sweep_shapes(self, small_world):
        table = small_world.network("trade", 0)
        series = sweep_methods([NaiveThreshold()], table,
                               lambda bb: coverage(table, bb),
                               shares=(0.1, 0.5, 1.0))["NT"]
        assert series.shares == [0.1, 0.5, 1.0]
        assert len(series.values) == 3
        assert not series.parameter_free

    def test_coverage_rises_with_share(self, small_world):
        table = small_world.network("flight", 0)
        series = sweep_methods([NaiveThreshold()], table,
                               lambda bb: coverage(table, bb),
                               shares=DEFAULT_SHARES)["NT"]
        assert series.values[-1] == pytest.approx(1.0)
        assert all(a <= b + 1e-9 for a, b
                   in zip(series.values, series.values[1:]))

    def test_parameter_free_single_point(self, small_world):
        from repro.backbones import MaximumSpanningTree

        table = small_world.network("trade", 0)
        series = sweep_methods([MaximumSpanningTree()], table,
                               lambda bb: coverage(table, bb))["MST"]
        assert series.parameter_free
        assert len(series.shares) == 1
        assert series.values[0] == pytest.approx(1.0)

    def test_sweep_methods_maps_failures_to_empty(self):
        # eta=0 noise network: DS cannot balance the zero-weight rows.
        truth = barabasi_albert(30, 1.5, seed=6)
        noisy = add_noise(truth, 0.0, seed=7)
        out = sweep_methods(paper_methods(), noisy.observed,
                            lambda bb: coverage(noisy.observed, bb),
                            shares=(0.5,))
        assert "DS" in out


class TestVarianceValidation:
    def test_positive_significant_on_world(self, small_world):
        for name in ("trade", "business"):
            result = predicted_vs_observed_variance(
                small_world.years(name))
            assert result.coefficient > 0.1
            assert result.p_value < 1e-6

    def test_needs_two_years(self, small_world):
        with pytest.raises(ValueError):
            predicted_vs_observed_variance(
                [small_world.network("trade", 0)])

    def test_reference_bounds_checked(self, small_world):
        with pytest.raises(ValueError):
            predicted_vs_observed_variance(small_world.years("trade"),
                                           reference=9)

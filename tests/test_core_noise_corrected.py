"""Tests for the Noise-Corrected backbone and its p-value variant."""

import numpy as np
import pytest

from repro.core import (NoiseCorrectedBackbone, NoiseCorrectedPValue,
                        compare_edges, confidence_intervals)
from repro.graph import EdgeTable


def toy_hub_table():
    """The paper's Fig. 3 graph: hub 0 with five spokes, spokes 1-2 linked."""
    edges = [(0, 1, 10.0), (0, 2, 10.0), (0, 3, 12.0), (0, 4, 12.0),
             (0, 5, 12.0), (1, 2, 4.0)]
    return EdgeTable.from_pairs(edges, directed=False)


def dense_random_table(n=10, seed=0):
    rng = np.random.default_rng(seed)
    src, dst = np.nonzero(~np.eye(n, dtype=bool))
    weight = rng.integers(1, 40, len(src)).astype(float)
    return EdgeTable(src, dst, weight, n_nodes=n, directed=True)


class TestScoring:
    def test_scores_bounded(self):
        scored = NoiseCorrectedBackbone().score(dense_random_table())
        assert np.all(scored.score >= -1.0)
        assert np.all(scored.score < 1.0)

    def test_sdev_present_and_non_negative(self):
        scored = NoiseCorrectedBackbone().score(dense_random_table())
        assert scored.sdev is not None
        assert np.all(scored.sdev >= 0)

    def test_self_loops_removed(self):
        table = EdgeTable([0, 0, 1], [0, 1, 2], [9.0, 1.0, 2.0])
        scored = NoiseCorrectedBackbone().score(table)
        assert (0, 0) not in scored.table.edge_key_set()

    def test_empty_network_rejected(self):
        with pytest.raises(ValueError):
            NoiseCorrectedBackbone().score(EdgeTable((), (), ()))

    def test_peripheral_edge_outranks_hub_edges(self):
        # The qualitative claim of paper Fig. 3: the weak 1-2 edge is
        # *more surprising* than the strong hub spokes.
        scored = NoiseCorrectedBackbone().score(toy_hub_table())
        lookup = {key: s for key, s in zip(
            zip(scored.table.src.tolist(), scored.table.dst.tolist()),
            scored.score)}
        assert lookup[(1, 2)] > lookup[(0, 1)]
        assert lookup[(1, 2)] > lookup[(0, 3)]

    def test_undirected_strength_computed_once(self, monkeypatch):
        # Node marginals are computed once per score, not once per
        # lift / posterior / kappa / kappa-derivative call.
        calls = []
        original = EdgeTable._undirected_strength

        def spy(table):
            calls.append(table.m)
            return original(table)

        monkeypatch.setattr(EdgeTable, "_undirected_strength", spy)
        NoiseCorrectedBackbone().score(toy_hub_table())
        assert len(calls) <= 1

    def test_undirected_scores_match_doubled_directed(self):
        undirected = toy_hub_table()
        doubled = undirected.as_directed_doubled()
        s_und = NoiseCorrectedBackbone().score(undirected)
        s_dir = NoiseCorrectedBackbone().score(doubled)
        directed_lookup = {}
        for row, (u, v, _) in enumerate(s_dir.table.iter_edges()):
            directed_lookup[(u, v)] = s_dir.score[row]
        for row, (u, v, _) in enumerate(s_und.table.iter_edges()):
            assert s_und.score[row] == pytest.approx(directed_lookup[(u, v)])


class TestDeltaFilter:
    def test_invalid_delta_rejected(self):
        with pytest.raises(ValueError):
            NoiseCorrectedBackbone(delta=-1.0)

    @pytest.mark.parametrize("cls", [NoiseCorrectedBackbone,
                                     NoiseCorrectedPValue])
    def test_nan_delta_rejected(self, cls):
        """NaN fails ``delta < 0`` too; it would keep no edge at all."""
        with pytest.raises(ValueError, match="delta must be non-negative"):
            cls(delta=float("nan"))

    def test_higher_delta_keeps_fewer_edges(self):
        table = dense_random_table(seed=3)
        sizes = [NoiseCorrectedBackbone(delta=d).extract(table).m
                 for d in (0.0, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_default_filter_is_score_exceeds_delta_sdev(self):
        table = dense_random_table(seed=4)
        nc = NoiseCorrectedBackbone(delta=1.64)
        scored = nc.score(table)
        manual = scored.table.subset(
            scored.score - 1.64 * scored.sdev > 0)
        assert nc.extract(table) == manual

    def test_edge_budget_extraction(self):
        table = dense_random_table(seed=5)
        backbone = NoiseCorrectedBackbone().extract(table, n_edges=10)
        assert backbone.m == 10

    def test_share_extraction(self):
        table = dense_random_table(seed=6)
        scored = NoiseCorrectedBackbone().score(table)
        backbone = NoiseCorrectedBackbone().extract(table, share=0.25)
        assert backbone.m == round(0.25 * scored.m)

    def test_budget_arguments_mutually_exclusive(self):
        table = dense_random_table()
        with pytest.raises(ValueError):
            NoiseCorrectedBackbone().extract(table, share=0.5, n_edges=3)

    def test_adjusted_scores_shift_with_delta(self):
        table = dense_random_table(seed=7)
        low = NoiseCorrectedBackbone(delta=1.0).adjusted_scores(table)
        high = NoiseCorrectedBackbone(delta=3.0).adjusted_scores(table)
        assert np.all(high.score <= low.score + 1e-12)

    def test_backbone_is_subset_of_input(self):
        table = dense_random_table(seed=8)
        backbone = NoiseCorrectedBackbone().extract(table)
        assert backbone.edge_key_set() <= table.edge_key_set()


class TestPValueVariant:
    def test_scores_are_one_minus_pvalues(self):
        scored = NoiseCorrectedPValue().score(dense_random_table(seed=9))
        assert np.all(scored.score >= 0.0)
        assert np.all(scored.score <= 1.0)

    def test_stronger_edge_smaller_pvalue(self):
        # Two edges with identical marginal structure but different
        # weights: the heavier one must look more significant.
        edges = [(0, 1, 20.0), (2, 3, 5.0), (1, 2, 10.0), (3, 0, 10.0),
                 (0, 2, 5.0), (1, 3, 5.0)]
        table = EdgeTable.from_pairs(edges, directed=True)
        scored = NoiseCorrectedPValue().score(table)
        lookup = {key: s for key, s in zip(
            zip(scored.table.src.tolist(), scored.table.dst.tolist()),
            scored.score)}
        assert lookup[(0, 1)] > lookup[(0, 2)]

    def test_no_sdev_available(self):
        scored = NoiseCorrectedPValue().score(dense_random_table(seed=10))
        assert scored.sdev is None

    def test_agrees_with_delta_variant_on_ranking(self):
        # The two formulations should broadly agree on which edges are
        # most salient (top-20% overlap well above chance).
        table = dense_random_table(n=14, seed=11)
        k = int(0.2 * table.m)
        top_delta = NoiseCorrectedBackbone().score(table).top_k(k)
        top_p = NoiseCorrectedPValue().score(table).top_k(k)
        overlap = len(top_delta.edge_key_set() & top_p.edge_key_set()) / k
        assert overlap > 0.5


class TestConfidence:
    def test_interval_contains_score(self):
        scored = NoiseCorrectedBackbone().score(dense_random_table(seed=12))
        lower, upper = confidence_intervals(scored, level=0.95)
        assert np.all(lower <= scored.score)
        assert np.all(upper >= scored.score)

    def test_wider_level_wider_interval(self):
        scored = NoiseCorrectedBackbone().score(dense_random_table(seed=13))
        l90, u90 = confidence_intervals(scored, level=0.90)
        l99, u99 = confidence_intervals(scored, level=0.99)
        assert np.all(l99 <= l90)
        assert np.all(u99 >= u90)

    def test_invalid_level_rejected(self):
        scored = NoiseCorrectedBackbone().score(dense_random_table(seed=14))
        with pytest.raises(ValueError):
            confidence_intervals(scored, level=1.5)

    def test_compare_edge_with_itself_not_significant(self):
        scored = NoiseCorrectedBackbone().score(dense_random_table(seed=15))
        result = compare_edges(scored, 0, 0)
        assert result.difference == 0.0
        assert not result.significant()

    def test_compare_distinct_edges(self):
        scored = NoiseCorrectedBackbone().score(toy_hub_table())
        order = np.argsort(scored.score)
        weakest, strongest = int(order[0]), int(order[-1])
        result = compare_edges(scored, strongest, weakest)
        assert result.difference > 0
        assert result.p_value < 0.05

    def test_compare_edges_index_bounds(self):
        scored = NoiseCorrectedBackbone().score(toy_hub_table())
        with pytest.raises(ValueError):
            compare_edges(scored, 0, 99)

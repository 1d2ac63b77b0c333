"""Property-based invariants over random weighted graphs.

These tests throw hypothesis-generated networks at the whole stack and
check the invariants every component must preserve regardless of input:
score bounds, budget exactness, subset relations, conservation laws.
"""

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.backbones import (DisparityFilter, MaximumSpanningTree,
                             NaiveThreshold)
from repro.backbones.base import ScoredEdges, share_to_k
from repro.community import louvain, modularity
from repro.core import (NoiseCorrectedBackbone, NoiseCorrectedPValue,
                        expected_weights, transformed_lift)
from repro.evaluation import coverage
from repro.graph import (EdgeTable, connected_components,
                         jaccard_edge_similarity)
from repro.graph import edge_table
from repro.graph.edge_table import top_k_rows


@st.composite
def edge_tables(draw, max_nodes=14, directed=None, min_edges=1):
    """Random weighted edge tables with positive integer-ish weights."""
    n = draw(st.integers(3, max_nodes))
    if directed is None:
        directed = draw(st.booleans())
    max_pairs = n * (n - 1) if directed else n * (n - 1) // 2
    m = draw(st.integers(min_edges, min(max_pairs, 40)))
    pairs = set()
    src_list, dst_list = [], []
    attempts = draw(st.lists(st.tuples(st.integers(0, max_nodes - 1),
                                       st.integers(0, max_nodes - 1)),
                             min_size=m * 3, max_size=m * 3))
    for u, v in attempts:
        u, v = u % n, v % n
        if u == v:
            continue
        if not directed and u > v:
            u, v = v, u
        if (u, v) in pairs:
            continue
        pairs.add((u, v))
        src_list.append(u)
        dst_list.append(v)
        if len(pairs) == m:
            break
    assume(len(src_list) >= min_edges)
    weights = draw(st.lists(st.integers(1, 500), min_size=len(src_list),
                            max_size=len(src_list)))
    return EdgeTable(src_list, dst_list,
                     [float(w) for w in weights], n_nodes=n,
                     directed=directed, coalesce=False)


#: A directed one-edge table of weight 1: ``N.. = 1`` leaves the
#: hypergeometric prior variance undefined (it divides by ``N.. - 1``).
UNIT_TOTAL = EdgeTable([0], [1], [1.0], n_nodes=3, directed=True)


class TestNoiseCorrectedInvariants:
    @given(edge_tables())
    @example(UNIT_TOTAL)
    @settings(max_examples=60, deadline=None)
    def test_scores_in_unit_band(self, table):
        scored = NoiseCorrectedBackbone().score(table)
        assert np.all(scored.score >= -1.0)
        assert np.all(scored.score < 1.0)
        assert np.all(scored.sdev >= 0.0)

    @given(edge_tables())
    @settings(max_examples=60, deadline=None)
    def test_expected_weights_non_negative_and_bounded(self, table):
        expectation = expected_weights(table)
        assert np.all(expectation >= 0)
        # Each expectation is at most the full grand total.
        assert np.all(expectation <= table.grand_total + 1e-9)

    @given(edge_tables())
    @example(UNIT_TOTAL)
    @settings(max_examples=40, deadline=None)
    def test_backbone_subset_and_monotone_in_delta(self, table):
        loose = NoiseCorrectedBackbone(delta=0.5).extract(table)
        strict = NoiseCorrectedBackbone(delta=2.5).extract(table)
        assert strict.edge_key_set() <= loose.edge_key_set()
        assert loose.edge_key_set() <= \
            table.without_self_loops().edge_key_set()

    @given(edge_tables())
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance_of_scores(self, table):
        # Multiplying all weights by a constant leaves lifts unchanged.
        scored = transformed_lift(table)
        scaled = transformed_lift(table.with_weights(table.weight * 7.0))
        assert np.allclose(scored, scaled)

    @given(edge_tables())
    @settings(max_examples=40, deadline=None)
    def test_pvalue_scores_are_probabilistic(self, table):
        scored = NoiseCorrectedPValue().score(table)
        assert np.all(scored.score >= 0.0)
        assert np.all(scored.score <= 1.0)


class TestBudgetInvariants:
    @given(edge_tables(), st.floats(0.1, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_top_share_size(self, table, share):
        scored = NaiveThreshold().score(table)
        kept = scored.top_k(share_to_k(share, scored.m))
        assert kept.m == round(share * scored.m)

    @given(edge_tables())
    @settings(max_examples=40, deadline=None)
    def test_exact_budget(self, table):
        scored = DisparityFilter().score(table)
        budget = max(1, scored.m // 2)
        assert scored.top_k(budget).m == budget

    @given(edge_tables())
    @settings(max_examples=40, deadline=None)
    def test_top_k_keeps_highest_scores(self, table):
        scored = NaiveThreshold().score(table)
        budget = max(1, scored.m // 3)
        kept = scored.top_k(budget)
        dropped_max = -np.inf
        kept_keys = kept.edge_key_set()
        for (u, v, _), s in zip(scored.table.iter_edges(), scored.score):
            if (u, v) not in kept_keys:
                dropped_max = max(dropped_max, s)
        if np.isfinite(dropped_max) and kept.m:
            kept_min = min(
                s for (u, v, _), s in zip(scored.table.iter_edges(),
                                          scored.score)
                if (u, v) in kept_keys)
            assert kept_min >= dropped_max


def lexsort_top_k(values, weight, k):
    """Reference selection: ascending positions of the ``k`` best rows
    under ``(-value, -weight, row)``, by one sort of every row."""
    order = np.lexsort((np.arange(len(values)), -weight, -values))
    return np.sort(order[:k])


@st.composite
def tied_rows(draw, finite=True):
    """Tie-heavy ``(values, weight)`` columns of equal length.

    Values come from at most 4 distinct floats that always include
    ``0.0`` and ``-0.0`` (``finite=False`` adds infinities and NaN to
    the pool); weights from at most 3 distinct non-negative floats.
    """
    pool = [1.0, -2.5, 3.0] + ([] if finite else [np.inf, np.nan])
    palette = [0.0, -0.0] + draw(st.lists(st.sampled_from(pool),
                                          max_size=2))
    weights = draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, 7.0]),
                            min_size=1, max_size=3))
    m = draw(st.integers(1, 24))
    values = draw(st.lists(st.sampled_from(palette), min_size=m,
                           max_size=m))
    weight = draw(st.lists(st.sampled_from(weights), min_size=m,
                           max_size=m))
    return np.array(values), np.array(weight)


def chain_table(weight):
    """A table whose row ``i`` is the edge ``(i, i + 1)``: a kept
    table's ``src`` column is its row positions."""
    m = len(weight)
    return EdgeTable(np.arange(m), np.arange(m) + 1, weight,
                     coalesce=False)


#: Sampling constants low enough that :func:`top_k_rows`'s candidate
#: pre-pass runs on 4-24 rows. With no margin the sampled bound often
#: lands above the ``k``-th value, so the count fallback runs too.
SMALL_PREPASS = {"_PREPASS_MIN_ROWS": 3, "_SAMPLE_ROWS": 4,
                 "_SAMPLE_SIGMAS": 0.0, "_SAMPLE_SLACK": 0}


@contextmanager
def small_prepass(outcomes):
    """Lower the pre-pass constants and append to ``outcomes``, per
    call, whether the pre-pass narrowed the rows (``True``) or left
    the selection to every row (``False``)."""
    candidate_rows = edge_table._candidate_rows

    def spy(values, k):
        rows = candidate_rows(values, k)
        outcomes.append(rows is not None)
        return rows

    with ExitStack() as stack:
        for name, value in SMALL_PREPASS.items():
            stack.enter_context(mock.patch.object(edge_table, name, value))
        stack.enter_context(
            mock.patch.object(edge_table, "_candidate_rows", spy))
        yield


#: A tie-heavy column pair on which :data:`SMALL_PREPASS` both narrows
#: and falls back over k = 0..24, so the coverage checks below hold
#: whatever the random draws are.
NARROWING_ROWS = (np.array([3.0, 1.0, 0.0, -0.0, -2.5, 1.0] * 4),
                  np.array([1.0, 2.5, 7.0, 0.0, 1.0, 2.5] * 4))


def assert_narrowed_and_fell_back(outcomes):
    assert any(outcomes), "the pre-pass never narrowed the rows"
    assert not all(outcomes), "the pre-pass never fell back"


class TestTotalOrder:
    """Every budgeted extraction keeps the ``(-value, -weight, row)``
    top ``k``: the exact rows one full lexsort would keep.

    The first three tests run with :data:`SMALL_PREPASS`, so the
    candidate pre-pass (and its fallback) sees these tiny inputs."""

    def test_top_k_rows_matches_lexsort(self):
        outcomes = []

        @given(tied_rows(finite=False))
        @example(NARROWING_ROWS)
        @settings(max_examples=200, deadline=None)
        def check(rows):
            values, weight = rows
            with small_prepass(outcomes):
                for k in range(len(values) + 1):
                    got = top_k_rows(values, weight, k)
                    assert got.tolist() == lexsort_top_k(values, weight,
                                                         k).tolist()

        check()
        assert_narrowed_and_fell_back(outcomes)

    def test_top_k_by_matches_lexsort(self):
        outcomes = []

        @given(tied_rows())
        @example(NARROWING_ROWS)
        @settings(max_examples=200, deadline=None)
        def check(rows):
            values, weight = rows
            table = chain_table(weight)
            with small_prepass(outcomes):
                for k in range(table.m + 1):
                    kept = table.top_k_by(values, k)
                    want = lexsort_top_k(values, weight, k)
                    assert kept.src.tolist() == want.tolist()
                    assert kept.weight.tobytes() == weight[want].tobytes()

        check()
        assert_narrowed_and_fell_back(outcomes)

    def test_nc_budgets_match_lexsort(self):
        outcomes = []

        @given(tied_rows(), st.lists(st.sampled_from([0.0, 0.5]),
                                     min_size=24, max_size=24))
        @example(NARROWING_ROWS, [0.0] * 24)
        @settings(max_examples=200, deadline=None)
        def check(rows, sdevs):
            values, weight = rows
            m = len(values)
            sdev = np.array(sdevs[:m])
            scored = ScoredEdges(table=chain_table(weight), score=values,
                                 method="NC", sdev=sdev)
            method = NoiseCorrectedBackbone(delta=1.64)
            ranked = values - 1.64 * sdev
            with small_prepass(outcomes):
                for k in range(m + 1):
                    want = lexsort_top_k(ranked, weight, k).tolist()
                    by_count = method.extract_from_scores(scored,
                                                          n_edges=k)
                    assert by_count.src.tolist() == want
                    share = k / m
                    by_share = method.extract_from_scores(scored,
                                                          share=share)
                    assert by_share.src.tolist() == lexsort_top_k(
                        ranked, weight, int(round(share * m))).tolist()

        check()
        assert_narrowed_and_fell_back(outcomes)

    @given(tied_rows())
    @settings(max_examples=200, deadline=None)
    def test_top_share_matches_lexsort(self, rows):
        values, weight = rows
        m = len(values)
        scored = ScoredEdges(table=chain_table(weight), score=values,
                             method="NT")
        for k in range(m + 1):
            share = k / m
            kept = scored.top_k(share_to_k(share, m))
            want = lexsort_top_k(values, weight, int(round(share * m)))
            assert kept.src.tolist() == want.tolist()
            assert kept.weight.tobytes() == weight[want].tobytes()


class TestStructuralInvariants:
    @given(edge_tables(directed=False))
    @settings(max_examples=40, deadline=None)
    def test_mst_is_forest_spanning_components(self, table):
        forest = MaximumSpanningTree().extract(table)
        _, n_components = connected_components(table)
        # A spanning forest has n - c edges.
        assert forest.m == table.n_nodes - n_components

    @given(edge_tables())
    @settings(max_examples=40, deadline=None)
    def test_coverage_bounds(self, table):
        backbone = NaiveThreshold().extract(table, share=0.5)
        value = coverage(table, backbone)
        assert 0.0 <= value <= 1.0

    @given(edge_tables(), edge_tables())
    @settings(max_examples=40, deadline=None)
    def test_jaccard_symmetric_and_bounded(self, a, b):
        # Jaccard compares edge-key sets; node universes may differ.
        forward = jaccard_edge_similarity(a, b)
        backward = jaccard_edge_similarity(b, a)
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0

    @given(edge_tables(directed=False))
    @settings(max_examples=30, deadline=None)
    def test_louvain_modularity_non_trivial(self, table):
        partition = louvain(table, seed=0)
        # Louvain's result is never worse than the single-community
        # partition (modularity zero).
        assert modularity(table, partition) >= -1e-9

    @given(edge_tables(directed=False))
    @settings(max_examples=30, deadline=None)
    def test_strength_conservation(self, table):
        # Sum of strengths equals the doubled grand total convention.
        assert table.strength().sum() == pytest.approx(table.grand_total)

    @given(edge_tables(directed=True))
    @settings(max_examples=30, deadline=None)
    def test_directed_marginal_conservation(self, table):
        assert table.out_strength().sum() == \
            pytest.approx(table.in_strength().sum())

"""Unit tests for :mod:`repro.graph.edge_table`."""

from unittest import mock

import numpy as np
import pytest
from test_property_invariants import lexsort_top_k

from repro.graph import EdgeTable, edge_table
from repro.graph.edge_table import top_k_rows
from repro.graph.sp_engine import _have_scipy


def simple_directed():
    return EdgeTable([0, 1, 2, 0], [1, 2, 0, 2], [1.0, 2.0, 3.0, 4.0],
                     directed=True)


def simple_undirected():
    return EdgeTable([0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0], directed=False)


class TestConstruction:
    def test_basic_lengths(self):
        table = simple_directed()
        assert table.m == 4
        assert table.n_nodes == 3
        assert table.directed

    def test_empty_table(self):
        table = EdgeTable((), (), ())
        assert table.m == 0
        assert table.n_nodes == 0
        assert table.total_weight == 0.0
        assert list(table.iter_edges()) == []

    def test_explicit_n_nodes_padding(self):
        table = EdgeTable([0], [1], [1.0], n_nodes=10)
        assert table.n_nodes == 10
        assert len(table.isolates()) == 8

    def test_n_nodes_too_small_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([0, 5], [1, 2], [1.0, 1.0], n_nodes=3)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([0], [1], [-1.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([-1], [1], [1.0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([0, 1], [1], [1.0])

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ValueError):
            EdgeTable([0], [1], [np.nan])

    def test_duplicate_rows_coalesce_by_sum(self):
        table = EdgeTable([0, 0, 1], [1, 1, 2], [1.0, 2.5, 4.0])
        assert table.m == 2
        assert table.weight_lookup()[(0, 1)] == pytest.approx(3.5)

    def test_undirected_canonicalization(self):
        a = EdgeTable([1, 2], [0, 1], [1.0, 2.0], directed=False)
        b = EdgeTable([0, 1], [1, 2], [1.0, 2.0], directed=False)
        assert a == b

    def test_undirected_reverse_duplicates_merge(self):
        table = EdgeTable([0, 1], [1, 0], [1.0, 2.0], directed=False)
        assert table.m == 1
        assert table.weight_lookup()[(0, 1)] == pytest.approx(3.0)

    def test_from_pairs_round_trip(self):
        table = EdgeTable.from_pairs([(0, 1, 1.0), (1, 2, 2.0)])
        assert table.weight_lookup() == {(0, 1): 1.0, (1, 2): 2.0}

    def test_from_dict(self):
        table = EdgeTable.from_dict({(0, 1): 2.0, (2, 0): 1.5})
        assert table.weight_lookup() == {(0, 1): 2.0, (2, 0): 1.5}

    def test_from_dense_directed(self):
        matrix = np.array([[0.0, 1.0], [2.0, 0.0]])
        table = EdgeTable.from_dense(matrix, directed=True)
        assert table.weight_lookup() == {(0, 1): 1.0, (1, 0): 2.0}

    def test_from_dense_undirected_reads_upper_triangle(self):
        matrix = np.array([[0.0, 3.0], [3.0, 0.0]])
        table = EdgeTable.from_dense(matrix, directed=False)
        assert table.weight_lookup() == {(0, 1): 3.0}

    def test_dense_round_trip_directed(self):
        table = simple_directed()
        again = EdgeTable.from_dense(table.to_dense(), directed=True)
        assert again == table

    def test_dense_round_trip_undirected(self):
        table = simple_undirected()
        again = EdgeTable.from_dense(table.to_dense(), directed=False)
        assert again == table

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            EdgeTable([0], [1], [1.0], labels=["only-one"])

    def test_label_of(self):
        table = EdgeTable([0], [1], [1.0], labels=["alpha", "beta"])
        assert table.label_of(0) == "alpha"
        assert table.label_of(1) == "beta"

    def test_unlabeled_label_of_returns_index_text(self):
        assert simple_directed().label_of(2) == "2"


class TestMarginals:
    def test_directed_strengths(self):
        table = simple_directed()
        assert table.out_strength().tolist() == [5.0, 2.0, 3.0]
        assert table.in_strength().tolist() == [3.0, 1.0, 6.0]
        assert table.grand_total == pytest.approx(10.0)

    def test_directed_grand_total_equals_sum_of_marginals(self):
        table = simple_directed()
        assert table.out_strength().sum() == pytest.approx(table.grand_total)
        assert table.in_strength().sum() == pytest.approx(table.grand_total)

    def test_undirected_strength_counts_both_endpoints(self):
        table = simple_undirected()
        assert table.strength().tolist() == [4.0, 3.0, 5.0]
        assert table.grand_total == pytest.approx(12.0)

    def test_undirected_marginal_consistency(self):
        table = simple_undirected()
        assert table.out_strength().sum() == pytest.approx(table.grand_total)
        assert np.array_equal(table.out_strength(), table.in_strength())

    def test_degrees_directed(self):
        table = simple_directed()
        assert table.out_degree().tolist() == [2, 1, 1]
        assert table.in_degree().tolist() == [1, 1, 2]
        assert table.degree().tolist() == [3, 2, 3]

    def test_degrees_undirected(self):
        table = simple_undirected()
        assert table.degree().tolist() == [2, 2, 2]

    def test_isolates(self):
        table = EdgeTable([0], [1], [1.0], n_nodes=4)
        assert table.isolates().tolist() == [2, 3]
        assert table.non_isolated_count() == 2


class TestTransformations:
    def test_subset_with_boolean_mask(self):
        table = simple_directed()
        kept = table.subset(table.weight > 2.0)
        assert kept.m == 2
        assert set(kept.weight.tolist()) == {3.0, 4.0}

    def test_subset_keeps_n_nodes(self):
        table = simple_directed()
        kept = table.subset(np.array([0]))
        assert kept.n_nodes == table.n_nodes

    def test_with_weights(self):
        table = simple_undirected()
        scaled = table.with_weights(table.weight * 2)
        assert scaled.total_weight == pytest.approx(2 * table.total_weight)
        assert scaled.edge_key_set() == table.edge_key_set()

    def test_with_weights_length_checked(self):
        with pytest.raises(ValueError):
            simple_undirected().with_weights([1.0])

    def test_without_self_loops(self):
        table = EdgeTable([0, 1, 1], [0, 1, 2], [1.0, 2.0, 3.0])
        cleaned = table.without_self_loops()
        assert cleaned.m == 1
        assert cleaned.weight_lookup() == {(1, 2): 3.0}

    def test_top_k_by_keeps_largest(self):
        table = simple_directed()
        top = table.top_k_by(table.weight, 2)
        assert sorted(top.weight.tolist()) == [3.0, 4.0]

    def test_top_k_by_zero_and_full(self):
        table = simple_directed()
        assert table.top_k_by(table.weight, 0).m == 0
        assert table.top_k_by(table.weight, table.m) == table

    def test_top_k_by_is_deterministic_under_ties(self):
        table = EdgeTable([0, 1, 2, 3], [1, 2, 3, 0], [1.0] * 4)
        scores = np.ones(4)
        first = table.top_k_by(scores, 2)
        second = table.top_k_by(scores, 2)
        assert first == second

    def test_symmetrized_sum(self):
        table = EdgeTable([0, 1], [1, 0], [1.0, 2.0], directed=True)
        merged = table.symmetrized("sum")
        assert not merged.directed
        assert merged.weight_lookup() == {(0, 1): 3.0}

    def test_symmetrized_max_avg_min(self):
        table = EdgeTable([0, 1], [1, 0], [1.0, 3.0], directed=True)
        assert table.symmetrized("max").weight_lookup() == {(0, 1): 3.0}
        assert table.symmetrized("min").weight_lookup() == {(0, 1): 1.0}
        assert table.symmetrized("avg").weight_lookup() == {(0, 1): 2.0}

    def test_symmetrized_unknown_mode(self):
        with pytest.raises(ValueError):
            EdgeTable([0], [1], [1.0]).symmetrized("median")

    def test_as_directed_doubled(self):
        table = simple_undirected()
        doubled = table.as_directed_doubled()
        assert doubled.directed
        assert doubled.m == 6
        assert doubled.grand_total == pytest.approx(table.grand_total)

    def test_doubled_self_loop_appears_once(self):
        table = EdgeTable([0, 0], [0, 1], [5.0, 1.0], directed=False)
        doubled = table.as_directed_doubled()
        assert doubled.weight_lookup()[(0, 0)] == 5.0
        assert doubled.m == 3

    def test_union_sums_shared_edges(self):
        a = EdgeTable([0], [1], [1.0])
        b = EdgeTable([0, 1], [1, 2], [2.0, 5.0])
        merged = a.union(b)
        assert merged.weight_lookup() == {(0, 1): 3.0, (1, 2): 5.0}

    def test_union_direction_mismatch_rejected(self):
        a = EdgeTable([0], [1], [1.0], directed=True)
        b = EdgeTable([0], [1], [1.0], directed=False)
        with pytest.raises(ValueError):
            a.union(b)

    def test_copy_is_independent(self):
        table = simple_directed()
        clone = table.copy()
        clone.weight[0] = 99.0
        assert table.weight[0] != 99.0


class TestTopKRowsPrepass:
    """:func:`top_k_rows` at its real sampling constants, on columns
    long enough for the candidate pre-pass: every cut equals one
    lexsort of all rows, and the pre-pass narrows the rows or falls
    back exactly where its gates say."""

    ROWS = 1 << 18
    #: The stride of the pre-pass sample on ``ROWS`` rows.
    STRIDE = ROWS // edge_table._SAMPLE_ROWS
    KS = (1, 4239, ROWS // 8, ROWS // 4, ROWS // 4 + 1, ROWS - 1)

    def values(self, case, rng):
        phase = (np.arange(self.ROWS) % self.STRIDE).astype(np.float64)
        if case == "random":
            return rng.standard_normal(self.ROWS)
        if case == "ties":
            return rng.integers(0, 50, self.ROWS) / 4.0
        if case == "nan_signed_zero_inf":
            values = rng.standard_normal(self.ROWS)
            special = rng.random(self.ROWS)
            values[special < 0.01] = np.nan
            values[(special >= 0.01) & (special < 0.02)] = 0.0
            values[(special >= 0.02) & (special < 0.03)] = -0.0
            values[(special >= 0.03) & (special < 0.031)] = np.inf
            values[(special >= 0.031) & (special < 0.032)] = -np.inf
            return values
        if case == "all_equal":
            return np.full(self.ROWS, 0.25)
        if case == "sample_sees_best":
            return -phase  # sampled rows hold the best value, 0.0
        assert case == "sample_sees_worst"
        return phase  # sampled rows hold the worst value, 0.0

    #: The cuts the pre-pass narrows; every other cut falls back. The
    #: rank gate skips the sample from ``k = ROWS // 4`` up; all-equal
    #: and worst-sampled columns leave every row a candidate; the best
    #: rows of ``sample_sees_best`` are the sampled ones, too few for
    #: ``ROWS // 8``.
    NARROWED = {"random": {1, 4239, ROWS // 8},
                "ties": {1, 4239, ROWS // 8},
                "nan_signed_zero_inf": {1, 4239, ROWS // 8},
                "all_equal": set(),
                "sample_sees_best": {1, 4239},
                "sample_sees_worst": set()}

    @pytest.mark.parametrize("case", sorted(NARROWED))
    def test_matches_lexsort(self, case):
        rng = np.random.default_rng(24)
        values = self.values(case, rng)
        weight = rng.integers(1, 4, self.ROWS) / 2.0
        narrowed = {}
        candidate_rows = edge_table._candidate_rows

        def spy(values, k):
            rows = candidate_rows(values, k)
            narrowed[k] = rows is not None
            return rows

        with mock.patch.object(edge_table, "_candidate_rows", spy):
            for k in self.KS:
                got = top_k_rows(values, weight, k)
                assert got.tolist() == lexsort_top_k(values, weight,
                                                     k).tolist(), k
        assert {k for k, hit in narrowed.items() if hit} \
            == self.NARROWED[case]

    def test_random_columns_do_not_fall_back(self):
        """The sample-rank margin keeps the bound at or below the
        ``k``-th best value of a random column, so the pre-pass
        narrows every cut instead of falling back on about half."""
        for seed in range(8):
            values = np.random.default_rng(seed).random(self.ROWS)
            for k in (10, 100, 1000, 4239, 10_000, self.ROWS // 8):
                assert edge_table._candidate_rows(values, k) is not None, \
                    (seed, k)


class TestExports:
    def test_edge_key_set(self):
        table = EdgeTable([0, 1], [1, 2], [1.0, 2.0])
        assert table.edge_key_set() == {(0, 1), (1, 2)}

    @pytest.mark.skipif(not _have_scipy(),
                        reason="scipy not installed")
    def test_to_csr_matches_dense(self):
        table = simple_undirected()
        assert np.allclose(table.to_csr().toarray(), table.to_dense())

    def test_sorted_by_endpoints(self):
        table = EdgeTable([2, 0, 1], [0, 1, 2], [1.0, 2.0, 3.0],
                          coalesce=False)
        ordered = table.sorted_by_endpoints()
        assert ordered.src.tolist() == [0, 1, 2]

    def test_equality_ignores_row_order(self):
        a = EdgeTable([0, 1], [1, 2], [1.0, 2.0])
        b = EdgeTable([1, 0], [2, 1], [2.0, 1.0])
        assert a == b

    def test_inequality_on_weights(self):
        a = EdgeTable([0], [1], [1.0])
        b = EdgeTable([0], [1], [2.0])
        assert a != b

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(simple_directed())

"""Tests for repro.learn.metrics and repro.learn.discretize."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LearnError
from repro.learn import (
    bin_index,
    confusion,
    entropy,
    equal_frequency_edges,
    gini_impurity,
    jaccard,
    mdl_entropy_edges,
    precision_recall_f1,
    split_info,
    wracc,
)


class TestImpurity:
    def test_gini_pure_is_zero(self):
        assert gini_impurity(10, 0) == 0.0
        assert gini_impurity(0, 10) == 0.0

    def test_gini_balanced_is_half(self):
        assert gini_impurity(5, 5) == pytest.approx(0.5)

    def test_gini_empty_is_zero(self):
        assert gini_impurity(0, 0) == 0.0

    def test_entropy_pure_is_zero(self):
        assert entropy(7, 0) == 0.0

    def test_entropy_balanced_is_one_bit(self):
        assert entropy(4, 4) == pytest.approx(1.0)

    def test_split_info_balanced(self):
        assert split_info(5, 5) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.floats(min_value=0, max_value=100, allow_nan=False),
        n=st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    def test_gini_bounds(self, p, n):
        value = gini_impurity(p, n)
        assert 0.0 <= value <= 0.5 + 1e-12


class TestWRAcc:
    def test_zero_for_random_rule(self):
        # Covering half the data with exactly the base rate of positives.
        assert wracc(100, 40, 50, 20) == pytest.approx(0.0)

    def test_positive_for_enriched_rule(self):
        assert wracc(100, 40, 20, 20) > 0

    def test_negative_for_depleted_rule(self):
        assert wracc(100, 40, 20, 0) < 0

    def test_empty_coverage_is_zero(self):
        assert wracc(100, 40, 0, 0) == 0.0

    def test_requires_positive_total(self):
        with pytest.raises(LearnError):
            wracc(0, 0, 0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        total=st.floats(min_value=1, max_value=1000),
        pos_frac=st.floats(min_value=0, max_value=1),
        cov_frac=st.floats(min_value=0, max_value=1),
        prec=st.floats(min_value=0, max_value=1),
    )
    def test_bound_by_base_rate_product(self, total, pos_frac, cov_frac, prec):
        pos = total * pos_frac
        covered = total * cov_frac
        # Consistent counts: covered positives can be at most min(covered,
        # pos) and at least covered + pos - total (inclusion-exclusion).
        low = max(0.0, covered + pos - total)
        high = min(covered, pos)
        covered_pos = low + prec * (high - low)
        value = wracc(total, pos, covered, covered_pos)
        bound = pos_frac * (1 - pos_frac) + 1e-9
        assert abs(value) <= bound


class TestConfusion:
    def test_counts(self):
        y_true = np.array([1, 1, 0, 0, 1], dtype=bool)
        y_pred = np.array([1, 0, 1, 0, 1], dtype=bool)
        c = confusion(y_true, y_pred)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 1, 1)
        assert c.accuracy == pytest.approx(0.6)
        assert c.precision == pytest.approx(2 / 3)
        assert c.recall == pytest.approx(2 / 3)

    def test_f1_harmonic_mean(self):
        y_true = np.array([1, 1, 0, 0], dtype=bool)
        y_pred = np.array([1, 0, 0, 0], dtype=bool)
        p, r, f1 = precision_recall_f1(y_true, y_pred)
        assert f1 == pytest.approx(2 * p * r / (p + r))

    def test_degenerate_cases(self):
        empty_pred = confusion(np.array([True]), np.array([False]))
        assert empty_pred.precision == 0.0
        no_pos = confusion(np.array([False]), np.array([False]))
        assert no_pos.recall == 0.0
        assert no_pos.f1 == 0.0

    def test_weighted(self):
        y_true = np.array([1, 0], dtype=bool)
        y_pred = np.array([1, 1], dtype=bool)
        c = confusion(y_true, y_pred, sample_weight=np.array([3.0, 1.0]))
        assert c.tp == 3.0 and c.fp == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(LearnError):
            confusion(np.array([True]), np.array([True, False]))

    def test_jaccard(self):
        assert jaccard(np.array([1, 2, 3]), np.array([2, 3, 4])) == pytest.approx(0.5)
        assert jaccard(np.array([]), np.array([])) == 1.0


class TestDiscretize:
    def test_equal_frequency_quantiles(self):
        values = np.arange(100, dtype=np.float64)
        edges = equal_frequency_edges(values, 4)
        assert len(edges) == 3
        assert edges[1] == pytest.approx(49.5)

    def test_equal_frequency_constant_column(self):
        assert equal_frequency_edges(np.full(10, 3.0), 4) == []

    def test_equal_frequency_ignores_nan(self):
        values = np.array([0.0, np.nan, 10.0, np.nan, 20.0])
        assert equal_frequency_edges(values, 2) == [10.0]

    def test_equal_frequency_dedupes(self):
        values = np.array([1.0] * 90 + [2.0] * 10)
        edges = equal_frequency_edges(values, 10)
        assert len(edges) <= 1

    def test_bins_must_be_positive(self):
        with pytest.raises(LearnError):
            equal_frequency_edges(np.array([1.0]), 0)

    def test_mdl_finds_class_boundary(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.uniform(0, 10, 200), rng.uniform(20, 30, 50)])
        labels = values > 15
        edges = mdl_entropy_edges(values, labels)
        assert len(edges) >= 1
        assert any(10 <= e <= 20 for e in edges)

    def test_mdl_no_cut_for_random_labels(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0, 1, 300)
        labels = rng.random(300) > 0.5
        assert mdl_entropy_edges(values, labels) == []

    def test_mdl_shape_mismatch(self):
        with pytest.raises(LearnError):
            mdl_entropy_edges(np.array([1.0]), np.array([True, False]))

    def test_bin_index(self):
        edges = [10.0, 20.0]
        values = np.array([5.0, 10.0, 15.0, 25.0, np.nan])
        assert bin_index(values, edges).tolist() == [0, 1, 1, 2, -1]

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=50,
        ),
        st.integers(min_value=1, max_value=8),
    )
    def test_edges_sorted_and_interior(self, values, bins):
        array = np.array(values)
        edges = equal_frequency_edges(array, bins)
        assert edges == sorted(edges)
        if edges:
            assert min(edges) > array.min() - 1e-9
            assert max(edges) < array.max() + 1e-9

"""Tests for repro.db.aggregates: semantics and removable-state identities.

Each test runs the grouped kernels over a single segment. The
load-bearing properties here are the ones the core pipeline relies on:
``leave_one_out_grouped`` must equal the naive per-element
recomputation and ``compute_without_grouped`` must equal recomputation
on the retained subset, for every aggregate, on arbitrary data including
NaNs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.aggregates import compute as recompute, leave_one_out_naive
from repro.db.aggregates import AGGREGATE_NAMES, get_aggregate, is_aggregate_name
from repro.db.segments import SegmentedValues
from repro.errors import AggregateError

ALL = [get_aggregate(name) for name in AGGREGATE_NAMES]


def _one_segment(values) -> SegmentedValues:
    values = np.asarray(values)
    return SegmentedValues(values, np.array([0, len(values)]))


def compute(agg, values) -> float:
    """The aggregate over ``values``, as one segment."""
    return float(agg.compute_grouped(_one_segment(values))[0])


def leave_one_out(agg, values) -> np.ndarray:
    return agg.leave_one_out_grouped(_one_segment(values))


def compute_without(agg, values, remove_mask) -> float:
    """The aggregate over ``values`` without the masked ones: one segment,
    one mask row."""
    masks = np.asarray(remove_mask, dtype=bool)[None, :]
    return float(agg.compute_without_grouped(_one_segment(values), masks)[0, 0])


values_strategy = st.lists(
    st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.just(float("nan")),
    ),
    min_size=1,
    max_size=40,
)


class TestRegistry:
    def test_all_paper_aggregates_present(self):
        for name in ("avg", "sum", "min", "max", "stddev", "count"):
            assert is_aggregate_name(name)

    def test_lookup_case_insensitive(self):
        assert get_aggregate("AVG").name == "avg"

    def test_unknown_rejected(self):
        with pytest.raises(AggregateError):
            get_aggregate("median")


class TestComputeSemantics:
    def test_avg(self):
        assert compute(get_aggregate("avg"), np.array([1.0, 2.0, 3.0])) == 2.0

    def test_sum_ignores_nan(self):
        assert compute(get_aggregate("sum"), np.array([1.0, np.nan, 2.0])) == 3.0

    def test_count_ignores_nan(self):
        assert compute(get_aggregate("count"), np.array([1.0, np.nan])) == 1.0

    def test_count_empty_is_zero(self):
        assert compute(get_aggregate("count"), np.array([])) == 0.0

    def test_sum_all_nan_is_nan(self):
        assert np.isnan(compute(get_aggregate("sum"), np.array([np.nan])))

    def test_stddev_is_sample_stddev(self):
        values = np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        expected = values.std(ddof=1)
        assert compute(get_aggregate("stddev"), values) == pytest.approx(expected)

    def test_stddev_single_value_nan(self):
        assert np.isnan(compute(get_aggregate("stddev"), np.array([3.0])))

    def test_var_matches_numpy(self):
        values = np.array([1.0, 5.0, 9.0, 2.0])
        assert compute(get_aggregate("var"), values) == pytest.approx(
            values.var(ddof=1)
        )

    def test_min_max(self):
        values = np.array([3.0, np.nan, -1.0, 7.0])
        assert compute(get_aggregate("min"), values) == -1.0
        assert compute(get_aggregate("max"), values) == 7.0

    def test_object_input_rejected(self):
        with pytest.raises(AggregateError):
            compute(get_aggregate("avg"), np.array(["a"], dtype=object))


class TestLeaveOneOutMatchesNaive:
    """The O(n) closed forms must equal the O(n²) reference exactly."""

    @pytest.mark.parametrize("agg", ALL, ids=lambda a: a.name)
    def test_simple_case(self, agg):
        values = np.array([1.0, 2.0, 3.0, 10.0, -4.0])
        fast = leave_one_out(agg, values)
        naive = leave_one_out_naive(agg, values)
        np.testing.assert_allclose(fast, naive, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("agg", ALL, ids=lambda a: a.name)
    def test_with_nans(self, agg):
        values = np.array([1.0, np.nan, 3.0, np.nan, 5.0])
        fast = leave_one_out(agg, values)
        naive = leave_one_out_naive(agg, values)
        np.testing.assert_allclose(fast, naive, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("agg", ALL, ids=lambda a: a.name)
    def test_duplicated_extremes(self, agg):
        values = np.array([5.0, 5.0, 1.0, 1.0, 3.0])
        fast = leave_one_out(agg, values)
        naive = leave_one_out_naive(agg, values)
        np.testing.assert_allclose(fast, naive, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("agg", ALL, ids=lambda a: a.name)
    def test_singleton(self, agg):
        values = np.array([2.5])
        fast = leave_one_out(agg, values)
        naive = leave_one_out_naive(agg, values)
        np.testing.assert_allclose(fast, naive, rtol=1e-9, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(values=values_strategy, agg_name=st.sampled_from(AGGREGATE_NAMES))
    def test_property(self, values, agg_name):
        agg = get_aggregate(agg_name)
        array = np.array(values, dtype=np.float64)
        fast = leave_one_out(agg, array)
        naive = leave_one_out_naive(agg, array)
        # Conditioning-aware absolute tolerance: variance-family results
        # are only determined up to fp error of order (data spread)² · ulp.
        finite = array[~np.isnan(array)]
        spread = float(finite.max() - finite.min()) if len(finite) else 0.0
        atol = 1e-6 + 1e-12 * (1.0 + spread) ** 2
        np.testing.assert_allclose(fast, naive, rtol=1e-6, atol=atol)


class TestComputeWithoutMatchesRecompute:
    @settings(max_examples=60, deadline=None)
    @given(
        values=values_strategy,
        agg_name=st.sampled_from(AGGREGATE_NAMES),
        data=st.data(),
    )
    def test_property(self, values, agg_name, data):
        agg = get_aggregate(agg_name)
        array = np.array(values, dtype=np.float64)
        mask = np.array(
            data.draw(
                st.lists(
                    st.booleans(), min_size=len(array), max_size=len(array)
                )
            ),
            dtype=bool,
        )
        fast = compute_without(agg, array, mask)
        reference = recompute(agg, array[~mask])
        if np.isnan(reference):
            assert np.isnan(fast)
        else:
            finite = array[~np.isnan(array)]
            spread = float(finite.max() - finite.min()) if len(finite) else 0.0
            atol = 1e-6 + 1e-12 * (1.0 + spread) ** 2
            assert fast == pytest.approx(reference, rel=1e-6, abs=atol)

    def test_mask_length_checked(self):
        with pytest.raises(AggregateError):
            compute_without(get_aggregate("avg"), np.array([1.0, 2.0]), [True])

    def test_remove_everything_is_nan(self):
        out = compute_without(
            get_aggregate("avg"), np.array([1.0, 2.0]), [True, True]
        )
        assert np.isnan(out)

    def test_count_remove_everything_is_zero(self):
        out = compute_without(
            get_aggregate("count"), np.array([1.0, 2.0]), [True, True]
        )
        assert out == 0.0

"""Parity tests for the segmented group-aggregate kernels.

The grouped kernels (`compute_grouped`, `leave_one_out_grouped`,
`compute_without_grouped`) must agree with the per-group numpy
recomputation in ``reference.aggregates`` (naive O(n²) for leave-one-out)
across NaN-heavy, single-element, empty, and all-NULL segments for all
seven aggregates. These are the invariants the executor, Preprocessor, and
Ranker rely on after the hot paths were rewritten to consume
:class:`~repro.db.segments.SegmentedValues` end-to-end.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.aggregates import (
    compute_grouped_loop,
    compute_without_grouped_loop,
    leave_one_out_grouped_loop,
)
from repro.db.aggregates import AGGREGATE_NAMES, get_aggregate
from repro.db.segments import (
    SegmentedValues,
    as_segments,
    segment_count,
    segment_max,
    segment_min,
    segment_sum,
)
from repro.errors import AggregateError

ALL = [get_aggregate(name) for name in AGGREGATE_NAMES]

segment_strategy = st.lists(
    st.one_of(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.just(float("nan")),
    ),
    min_size=0,
    max_size=12,
)
segments_strategy = st.lists(segment_strategy, min_size=0, max_size=8)


def _tolerance(seg: SegmentedValues) -> float:
    finite = seg.values[~np.isnan(seg.values)]
    spread = float(finite.max() - finite.min()) if len(finite) else 0.0
    return 1e-6 + 1e-12 * (1.0 + spread) ** 2


class TestSegmentedValues:
    def test_from_arrays_layout(self):
        seg = SegmentedValues.from_arrays(
            [np.array([1.0, 2.0]), np.array([]), np.array([3.0])]
        )
        assert seg.n_segments == 3
        assert seg.offsets.tolist() == [0, 2, 2, 3]
        assert seg.segment(0).tolist() == [1.0, 2.0]
        assert seg.segment(1).tolist() == []
        assert seg.segment_ids.tolist() == [0, 0, 2]
        assert seg.lengths.tolist() == [2, 0, 1]

    def test_bad_offsets_rejected(self):
        with pytest.raises(AggregateError):
            SegmentedValues(np.array([1.0]), np.array([0, 2]))
        with pytest.raises(AggregateError):
            SegmentedValues(np.array([1.0, 2.0]), np.array([0, 2, 1, 2]))

    def test_object_values_rejected(self):
        with pytest.raises(AggregateError):
            SegmentedValues(np.array(["a"], dtype=object), np.array([0, 1]))

    def test_split_flat(self):
        seg = SegmentedValues.from_arrays([np.array([1.0]), np.array([2.0, 3.0])])
        parts = seg.split_flat(np.array([True, False, True]))
        assert [p.tolist() for p in parts] == [[True], [False, True]]

    def test_split_flat_length_checked(self):
        seg = SegmentedValues.from_arrays([np.array([1.0])])
        with pytest.raises(AggregateError):
            seg.split_flat(np.array([True, False]))

    def test_as_segments_passthrough(self):
        seg = SegmentedValues.from_arrays([np.array([1.0])])
        assert as_segments(seg) is seg
        assert as_segments([np.array([1.0])]).values.tolist() == [1.0]

    def test_empty(self):
        seg = SegmentedValues.from_arrays([])
        assert seg.n_segments == 0
        assert len(seg) == 0
        assert seg.segment_ids.tolist() == []


class TestSegmentKernels:
    def test_segment_sum_handles_empty_segments(self):
        offsets = np.array([0, 2, 2, 3])
        values = np.array([1.0, 2.0, 5.0])
        assert segment_sum(values, offsets).tolist() == [3.0, 0.0, 5.0]

    def test_segment_min_max_fill(self):
        offsets = np.array([0, 0, 2])
        values = np.array([4.0, -1.0])
        assert segment_min(values, offsets).tolist() == [np.inf, -1.0]
        assert segment_max(values, offsets).tolist() == [-np.inf, 4.0]

    def test_segment_count(self):
        offsets = np.array([0, 1, 3])
        mask = np.array([True, False, True])
        assert segment_count(mask, offsets).tolist() == [1.0, 1.0]

    def test_all_empty_segments(self):
        offsets = np.zeros(5, dtype=np.int64)
        assert segment_sum(np.empty(0), offsets).tolist() == [0.0] * 4


def _assert_grouped_matches(seg, fast, reference, atol):
    np.testing.assert_allclose(fast, reference, rtol=1e-6, atol=atol)


class TestGroupedParityHandPicked:
    """Deterministic edge cases: empty, singleton, all-NULL segments."""

    EDGE_SEGMENTS = [
        np.array([]),
        np.array([3.0]),
        np.array([np.nan]),
        np.array([np.nan, np.nan]),
        np.array([5.0, 5.0, 1.0, np.nan]),
        np.array([1.0, 2.0, 3.0, 10.0, -4.0]),
        np.array([np.nan, 7.0]),
    ]

    @pytest.mark.parametrize("agg", ALL, ids=lambda a: a.name)
    def test_compute_grouped(self, agg):
        seg = SegmentedValues.from_arrays(self.EDGE_SEGMENTS)
        _assert_grouped_matches(
            seg, agg.compute_grouped(seg), compute_grouped_loop(agg, seg), 1e-9
        )

    @pytest.mark.parametrize("agg", ALL, ids=lambda a: a.name)
    def test_leave_one_out_grouped(self, agg):
        seg = SegmentedValues.from_arrays(self.EDGE_SEGMENTS)
        # sqrt amplifies ~1e-16 closed-form noise near var=0 to ~1e-8.
        _assert_grouped_matches(
            seg,
            agg.leave_one_out_grouped(seg),
            leave_one_out_grouped_loop(agg, seg),
            1e-6,
        )

    @pytest.mark.parametrize("agg", ALL, ids=lambda a: a.name)
    def test_leave_one_out_grouped_matches_naive(self, agg):
        """Leave-one-out ≡ naive removal of one element at a time through
        the masked kernel: the Preprocessor's influence and the Ranker's
        Δε agree on single-tuple removals."""
        seg = SegmentedValues.from_arrays(self.EDGE_SEGMENTS)
        n = len(seg.values)
        one_each = np.eye(n, dtype=bool)
        naive = agg.compute_without_grouped(seg, one_each)[
            np.arange(n), seg.segment_ids
        ]
        _assert_grouped_matches(seg, agg.leave_one_out_grouped(seg), naive, 1e-6)

    @pytest.mark.parametrize("agg", ALL, ids=lambda a: a.name)
    def test_compute_without_grouped(self, agg):
        seg = SegmentedValues.from_arrays(self.EDGE_SEGMENTS)
        rng = np.random.default_rng(7)
        masks = rng.random((4, len(seg.values))) < 0.5
        _assert_grouped_matches(
            seg,
            agg.compute_without_grouped(seg, masks),
            compute_without_grouped_loop(agg, seg, masks),
            1e-9,
        )

    def test_mask_length_checked(self):
        seg = SegmentedValues.from_arrays([np.array([1.0, 2.0])])
        avg = get_aggregate("avg")
        with pytest.raises(AggregateError):
            avg.compute_without_grouped(seg, np.array([[True]]))
        with pytest.raises(AggregateError):
            avg.compute_without_grouped(seg, np.array([True, False]))


class TestGroupedParityProperties:
    """Property tests over arbitrary NaN-heavy ragged segment layouts."""

    @settings(max_examples=60, deadline=None)
    @given(groups=segments_strategy, agg_name=st.sampled_from(AGGREGATE_NAMES))
    def test_compute_grouped(self, groups, agg_name):
        agg = get_aggregate(agg_name)
        seg = SegmentedValues.from_arrays(
            [np.array(g, dtype=np.float64) for g in groups]
        )
        _assert_grouped_matches(
            seg,
            agg.compute_grouped(seg),
            compute_grouped_loop(agg, seg),
            _tolerance(seg),
        )

    @settings(max_examples=60, deadline=None)
    @given(groups=segments_strategy, agg_name=st.sampled_from(AGGREGATE_NAMES))
    def test_leave_one_out_grouped(self, groups, agg_name):
        agg = get_aggregate(agg_name)
        seg = SegmentedValues.from_arrays(
            [np.array(g, dtype=np.float64) for g in groups]
        )
        _assert_grouped_matches(
            seg,
            agg.leave_one_out_grouped(seg),
            leave_one_out_grouped_loop(agg, seg),
            _tolerance(seg),
        )

    @settings(max_examples=60, deadline=None)
    @given(
        groups=segments_strategy,
        agg_name=st.sampled_from(AGGREGATE_NAMES),
        data=st.data(),
    )
    def test_compute_without_grouped(self, groups, agg_name, data):
        agg = get_aggregate(agg_name)
        seg = SegmentedValues.from_arrays(
            [np.array(g, dtype=np.float64) for g in groups]
        )
        rows = data.draw(st.integers(min_value=0, max_value=3))
        size = rows * len(seg.values)
        masks = np.array(
            data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
            dtype=bool,
        ).reshape(rows, len(seg.values))
        _assert_grouped_matches(
            seg,
            agg.compute_without_grouped(seg, masks),
            compute_without_grouped_loop(agg, seg, masks),
            _tolerance(seg),
        )

"""Tests for leave-one-out influence and subset-removal ε evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.influence import naive_leave_one_out_influence, subset_epsilon
from repro.core import Preprocessor, TooHigh, TooLow
from repro.core.influence import leave_one_out_influence, subset_epsilon_for_mask_set
from repro.db import Database, get_aggregate
from repro.db.predicate import CategoricalClause, Predicate
from repro.errors import PipelineError


def _make_groups():
    group_values = [
        np.array([10.0, 12.0, 100.0]),  # group whose avg is inflated
        np.array([11.0, 13.0]),
    ]
    group_tids = [np.array([0, 1, 2]), np.array([3, 4])]
    return group_values, group_tids


class TestLeaveOneOutInfluence:
    def test_culprit_has_highest_influence(self):
        group_values, group_tids = _make_groups()
        result = leave_one_out_influence(
            group_values, group_tids, [0, 1], get_aggregate("avg"), TooHigh(20.0)
        )
        best_tid = result.ranked_tids()[0]
        assert best_tid == 2  # the 100.0 reading

    def test_influence_is_local_error_reduction(self):
        group_values, group_tids = _make_groups()
        metric = TooHigh(20.0)
        result = leave_one_out_influence(
            group_values, group_tids, [0, 1], get_aggregate("avg"), metric
        )
        # Removing the 100 from group 0: avg falls from ~40.67 to 11,
        # so its local error contribution falls from 20.67 to 0.
        culprit = result.scores[2]
        assert culprit == pytest.approx(40.0 + 2.0 / 3.0 - 20.0)

    def test_fast_equals_naive(self):
        group_values, group_tids = _make_groups()
        metric = TooHigh(20.0)
        fast = leave_one_out_influence(
            group_values, group_tids, [0, 1], get_aggregate("avg"), metric
        )
        naive = naive_leave_one_out_influence(
            group_values, group_tids, [0, 1], get_aggregate("avg"), metric
        )
        np.testing.assert_allclose(fast.scores, naive.scores, rtol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=2,
            max_size=25,
        ),
        agg_name=st.sampled_from(["avg", "sum", "min", "max", "stddev", "count"]),
        threshold=st.floats(min_value=-100, max_value=100, allow_nan=False),
    )
    def test_fast_equals_naive_property(self, values, agg_name, threshold):
        array = np.array(values)
        tids = np.arange(len(array))
        metric = TooHigh(threshold)
        agg = get_aggregate(agg_name)
        fast = leave_one_out_influence([array], [tids], [0], agg, metric)
        naive = naive_leave_one_out_influence([array], [tids], [0], agg, metric)
        spread = float(array.max() - array.min()) if len(array) else 0.0
        atol = 1e-6 + 1e-10 * (1.0 + spread) ** 2
        np.testing.assert_allclose(fast.scores, naive.scores, rtol=1e-6, atol=atol)

    def test_epsilon_uses_global_combine(self):
        group_values, group_tids = _make_groups()
        metric = TooHigh(5.0, combine="sum")
        result = leave_one_out_influence(
            group_values, group_tids, [0, 1], get_aggregate("avg"), metric
        )
        avg0 = group_values[0].mean()
        avg1 = group_values[1].mean()
        assert result.epsilon == pytest.approx((avg0 - 5) + (avg1 - 5))

    def test_top_tids_requires_positive_influence(self):
        # No group exceeds the threshold: nothing is suspicious.
        result = leave_one_out_influence(
            [np.array([1.0, 2.0])], [np.array([0, 1])], [0],
            get_aggregate("avg"), TooHigh(100.0),
        )
        assert len(result.top_tids(0.5)) == 0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(PipelineError):
            leave_one_out_influence(
                [np.array([1.0])], [], [0], get_aggregate("avg"), TooHigh(0)
            )

    def test_score_of_unknown_tid_zero(self):
        group_values, group_tids = _make_groups()
        result = leave_one_out_influence(
            group_values, group_tids, [0, 1], get_aggregate("avg"), TooHigh(20.0)
        )
        assert result.score_of(np.array([999])).tolist() == [0.0]

    def test_score_of_matches_dict_lookup(self):
        # The searchsorted index must return exactly the per-tid scores
        # (in any request order, with unknown tids interleaved).
        group_values, group_tids = _make_groups()
        result = leave_one_out_influence(
            group_values, group_tids, [0, 1], get_aggregate("avg"), TooHigh(20.0)
        )
        lookup = {int(t): float(s) for t, s in zip(result.tids, result.scores)}
        probe = np.array([4, 2, 999, 0, 3, 1, -5])
        expected = [lookup.get(int(t), 0.0) for t in probe]
        np.testing.assert_allclose(result.score_of(probe), expected)

    def test_score_of_empty_result(self):
        result = leave_one_out_influence(
            [], [], [], get_aggregate("avg"), TooHigh(20.0)
        )
        assert result.score_of(np.array([1, 2])).tolist() == [0.0, 0.0]


class TestSubsetEpsilon:
    def test_removing_culprits_zeroes_error(self):
        group_values, group_tids = _make_groups()
        metric = TooHigh(20.0)
        masks = [np.array([False, False, True]), np.array([False, False])]
        after = subset_epsilon(group_values, masks, get_aggregate("avg"), metric)
        assert after == 0.0

    def test_removing_nothing_keeps_epsilon(self):
        group_values, __ = _make_groups()
        metric = TooHigh(20.0)
        masks = [np.zeros(3, dtype=bool), np.zeros(2, dtype=bool)]
        after = subset_epsilon(group_values, masks, get_aggregate("avg"), metric)
        assert after == pytest.approx(metric(np.array([
            group_values[0].mean(), group_values[1].mean()
        ])))

    def test_emptied_group_contributes_zero(self):
        metric = TooLow(0.0)
        values = [np.array([-10.0, -20.0])]
        masks = [np.array([True, True])]
        assert subset_epsilon(values, masks, get_aggregate("sum"), metric) == 0.0

    def test_matches_query_reexecution(self, donations_db):
        """The Ranker's batched Δε must agree with re-running the query."""
        result = donations_db.sql(
            "SELECT day, sum(amount) AS total FROM donations GROUP BY day "
            "ORDER BY day"
        )
        totals = np.asarray(result.column("total"), dtype=np.float64)
        S = [i for i in range(result.num_rows) if totals[i] < 0]
        if not S:
            S = [int(np.argmin(totals))]
        metric = TooLow(0.0)
        pre = Preprocessor().run(result, S, metric)
        # Remove all memo'd rows, masked the way the Ranker masks a rule.
        memo = Predicate(
            [CategoricalClause("memo", frozenset(["REATTRIBUTION TO SPOUSE"]))]
        )
        mask_set = pre.mask_engine().mask_set([memo])
        assert mask_set.counts[0] > 0
        (fast,) = subset_epsilon_for_mask_set(
            pre.segments,
            mask_set,
            pre.aggregate,
            metric,
            positions=pre.segment_positions,
        )
        cleaned = donations_db.sql(
            "SELECT day, sum(amount) AS total FROM donations "
            "WHERE memo != 'REATTRIBUTION TO SPOUSE' GROUP BY day ORDER BY day"
        )
        day_to_total = {
            row[0]: row[1] for row in cleaned.iter_rows()
        }
        selected_days = [result.row(i)[0] for i in S]
        new_values = np.array(
            [day_to_total.get(day, np.nan) for day in selected_days]
        )
        assert fast == pytest.approx(metric(new_values))

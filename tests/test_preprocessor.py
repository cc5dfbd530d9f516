"""Tests for the Preprocessor stage."""

import numpy as np
import pytest

from repro.core import Preprocessor, TooHigh, TooLow
from repro.errors import PipelineError


@pytest.fixture
def window_result(sensors_db):
    return sensors_db.sql(
        "SELECT time / 30 AS w, avg(temp) AS m FROM sensors GROUP BY time / 30 "
        "ORDER BY w"
    )


class TestPreprocessor:
    def test_F_is_union_of_selected_lineage(self, window_result):
        pre = Preprocessor().run(window_result, [1], TooHigh(30.0))
        # Window 1 holds tids 1, 3, 6 (times 35, 31, 40).
        assert sorted(np.asarray(pre.F.tids).tolist()) == [1, 3, 6]

    def test_group_values_match_lineage(self, window_result):
        pre = Preprocessor().run(window_result, [1], TooHigh(30.0))
        assert sorted(pre.group_values[0].tolist()) == [20.5, 21.0, 120.0]

    def test_default_agg_is_first(self, window_result):
        pre = Preprocessor().run(window_result, [1], TooHigh(30.0))
        assert pre.agg_name == "m"
        assert pre.aggregate.name == "avg"

    def test_named_agg_selected(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, avg(temp) AS m, stddev(temp) AS s FROM sensors "
            "GROUP BY room ORDER BY room"
        )
        pre = Preprocessor().run(result, [1], TooHigh(1.0), agg_name="s")
        assert pre.aggregate.name == "stddev"

    def test_epsilon_matches_metric(self, window_result):
        pre = Preprocessor().run(window_result, [1], TooHigh(30.0))
        expected = np.mean([20.5, 21.0, 120.0]) - 30.0
        assert pre.epsilon == pytest.approx(expected)

    def test_influence_identifies_the_bad_reading(self, window_result):
        pre = Preprocessor().run(window_result, [1], TooHigh(30.0))
        assert pre.influence.ranked_tids()[0] == 3  # the 120-degree tuple

    def test_multiple_selected_groups(self, window_result):
        pre = Preprocessor().run(window_result, [0, 1, 2], TooHigh(30.0))
        assert len(pre.group_values) == 3
        assert len(pre.F) == 7

    def test_empty_selection_rejected(self, window_result):
        with pytest.raises(PipelineError):
            Preprocessor().run(window_result, [], TooHigh(30.0))

    def test_out_of_range_selection_rejected(self, window_result):
        with pytest.raises(PipelineError):
            Preprocessor().run(window_result, [99], TooHigh(30.0))

    def test_non_aggregate_query_rejected(self, sensors_db):
        projection = sensors_db.sql("SELECT temp FROM sensors")
        with pytest.raises(PipelineError):
            Preprocessor().run(projection, [0], TooHigh(30.0))

    def test_unknown_agg_name_rejected(self, window_result):
        with pytest.raises(PipelineError):
            Preprocessor().run(window_result, [0], TooHigh(30.0), agg_name="zz")

    def test_count_star_debuggable(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, count(*) AS n FROM sensors GROUP BY room ORDER BY room"
        )
        pre = Preprocessor().run(result, [0], TooHigh(3.0))
        assert pre.epsilon == pytest.approx(1.0)  # room a has 4 rows

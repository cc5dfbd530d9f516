"""Tests for planning and execution, including provenance capture."""

import numpy as np
import pytest

from repro.db import Database, Table, parse_select
from repro.errors import (
    PlanError,
    TypeMismatchError,
    UnknownColumnError,
    UnknownTableError,
)


class TestPlanner:
    def test_bare_column_without_group_by_rejected(self, sensors_db):
        with pytest.raises(PlanError):
            sensors_db.sql("SELECT room, avg(temp) FROM sensors")

    def test_unknown_column_rejected(self, sensors_db):
        with pytest.raises(UnknownColumnError):
            sensors_db.sql("SELECT avg(nope) FROM sensors")

    def test_unknown_table_rejected(self, sensors_db):
        with pytest.raises(UnknownTableError):
            sensors_db.sql("SELECT avg(temp) FROM nope")

    def test_numeric_agg_on_string_rejected(self, sensors_db):
        with pytest.raises(TypeMismatchError):
            sensors_db.sql("SELECT avg(room) FROM sensors")

    def test_sum_star_rejected(self, sensors_db):
        with pytest.raises(PlanError):
            sensors_db.sql("SELECT sum(*) FROM sensors")

    def test_group_by_without_aggregate_rejected(self, sensors_db):
        with pytest.raises(PlanError):
            sensors_db.sql("SELECT room FROM sensors GROUP BY room")

    def test_having_without_aggregate_rejected(self, sensors_db):
        with pytest.raises(PlanError):
            sensors_db.sql("SELECT temp FROM sensors HAVING temp > 1")

    def test_where_must_be_boolean(self, sensors_db):
        with pytest.raises(PlanError):
            sensors_db.sql("SELECT avg(temp) FROM sensors WHERE temp + 1")

    def test_output_name_collision_resolved(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, avg(temp) AS room FROM sensors GROUP BY room"
        )
        assert len(set(result.column_names)) == 2

    def test_default_agg_names(self, sensors_db):
        result = sensors_db.sql("SELECT avg(temp), count(*) FROM sensors")
        assert result.column_names == ("avg_temp", "count")


class TestGlobalAggregates:
    def test_global_avg(self, sensors_db):
        result = sensors_db.sql("SELECT avg(temp) FROM sensors")
        expected = np.mean([20.0, 21.0, 22.0, 120.0, 23.0, 19.5, 20.5])
        assert result.row(0)[0] == pytest.approx(expected)

    def test_global_count_star(self, sensors_db):
        result = sensors_db.sql("SELECT count(*) FROM sensors")
        assert result.row(0)[0] == 7

    def test_global_lineage_covers_everything(self, sensors_db):
        result = sensors_db.sql("SELECT sum(temp) FROM sensors")
        assert sorted(result.lineage(0).tolist()) == list(range(7))

    def test_empty_table_aggregate(self):
        db = Database()
        db.create_table("e", {"x": []}, types={"x": "float"})
        result = db.sql("SELECT count(*), sum(x) FROM e")
        assert result.row(0)[0] == 0

    def test_multiple_aggregates_same_column(self, sensors_db):
        result = sensors_db.sql("SELECT min(temp), max(temp), avg(temp) FROM sensors")
        assert result.row(0)[0] == 19.5
        assert result.row(0)[1] == 120.0


class TestGroupBy:
    def test_group_by_string(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, count(*) FROM sensors GROUP BY room ORDER BY room"
        )
        assert list(result.iter_rows()) == [("a", 4), ("b", 3)]

    def test_group_by_expression_window(self, sensors_db):
        result = sensors_db.sql(
            "SELECT time / 30 AS w, avg(temp) FROM sensors GROUP BY time / 30 "
            "ORDER BY w"
        )
        windows = result.column("w").tolist()
        assert windows == [0, 1, 2]
        # Window 1 holds times 35, 31, 40 -> temps 21, 120, 20.5.
        assert result.row(1)[1] == pytest.approx(np.mean([21.0, 120.0, 20.5]))

    def test_group_lineage_partition(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, count(*) FROM sensors GROUP BY room ORDER BY room"
        )
        lineage_a = set(result.lineage(0).tolist())
        lineage_b = set(result.lineage(1).tolist())
        assert lineage_a == {0, 1, 5, 6}
        assert lineage_b == {2, 3, 4}
        assert lineage_a.isdisjoint(lineage_b)

    def test_multi_key_group(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, sensorid, count(*) FROM sensors "
            "GROUP BY room, sensorid ORDER BY room, sensorid"
        )
        rows = list(result.iter_rows())
        assert rows == [("a", 1, 2), ("a", 3, 2), ("b", 2, 3)]

    def test_group_key_not_in_select_still_partitions(self, sensors_db):
        result = sensors_db.sql(
            "SELECT count(*) FROM sensors GROUP BY room ORDER BY count DESC"
        )
        assert [row[0] for row in result.iter_rows()] == [4, 3]

    def test_where_filters_before_grouping(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, count(*) FROM sensors WHERE temp < 100 "
            "GROUP BY room ORDER BY room"
        )
        assert list(result.iter_rows()) == [("a", 4), ("b", 2)]

    def test_lineage_respects_where(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, count(*) FROM sensors WHERE temp < 100 "
            "GROUP BY room ORDER BY room"
        )
        assert 3 not in result.lineage(1).tolist()

    def test_count_of_string_column_counts_non_null(self):
        db = Database()
        db.create_table(
            "t",
            {"k": ["a", None, "b"], "g": [1, 1, 1]},
            types={"k": "str", "g": "int"},
        )
        result = db.sql("SELECT g, count(k) FROM t GROUP BY g")
        assert result.row(0)[1] == 2


class TestHavingOrderLimit:
    def test_having_filters_output(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, count(*) FROM sensors GROUP BY room HAVING count > 3"
        )
        assert list(result.iter_rows()) == [("a", 4)]

    def test_having_keeps_lineage_aligned(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, count(*) FROM sensors GROUP BY room HAVING count > 3"
        )
        assert set(result.lineage(0).tolist()) == {0, 1, 5, 6}

    def test_order_by_aggregate(self, sensors_db):
        result = sensors_db.sql(
            "SELECT sensorid, avg(temp) AS m FROM sensors GROUP BY sensorid "
            "ORDER BY m DESC"
        )
        assert result.column("sensorid").tolist() == [2, 1, 3]

    def test_order_by_two_keys(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, sensorid, count(*) FROM sensors "
            "GROUP BY room, sensorid ORDER BY room DESC, sensorid"
        )
        assert [(r[0], r[1]) for r in result.iter_rows()] == [
            ("b", 2), ("a", 1), ("a", 3),
        ]

    def test_order_by_string_nulls_last_asc(self):
        db = Database()
        db.create_table(
            "t",
            {"k": ["b", None, "a", None], "x": [1.0, 2.0, 3.0, 4.0]},
            types={"k": "str", "x": "float"},
        )
        result = db.sql("SELECT k, x FROM t ORDER BY k")
        assert result.column("k").tolist() == ["a", "b", None, None]

    def test_order_by_string_nulls_last_desc(self):
        # NULLS LAST must hold in *both* directions: a wholesale
        # reversal of the ascending order would float NULLs to the top.
        db = Database()
        db.create_table(
            "t",
            {"k": ["b", None, "a", None], "x": [1.0, 2.0, 3.0, 4.0]},
            types={"k": "str", "x": "float"},
        )
        result = db.sql("SELECT k, x FROM t ORDER BY k DESC")
        assert result.column("k").tolist() == ["b", "a", None, None]

    def test_order_by_numeric_nulls_last_both_directions(self):
        db = Database()
        db.create_table(
            "t",
            {"x": [2.0, None, 1.0]},
            types={"x": "float"},
        )
        ascending = db.sql("SELECT x FROM t ORDER BY x").column("x")
        descending = db.sql("SELECT x FROM t ORDER BY x DESC").column("x")
        assert ascending[:2].tolist() == [1.0, 2.0] and np.isnan(ascending[2])
        assert descending[:2].tolist() == [2.0, 1.0] and np.isnan(descending[2])

    def test_order_by_desc_preserves_tie_order(self):
        db = Database()
        db.create_table(
            "t",
            {"k": ["a", "a", "b"], "x": [1.0, 2.0, 3.0]},
            types={"k": "str", "x": "float"},
        )
        result = db.sql("SELECT k, x FROM t ORDER BY k DESC")
        assert result.column("x").tolist() == [3.0, 1.0, 2.0]

    def test_limit(self, sensors_db):
        result = sensors_db.sql(
            "SELECT sensorid, count(*) FROM sensors GROUP BY sensorid LIMIT 2"
        )
        assert result.num_rows == 2

    def test_limit_keeps_lineage_aligned(self, sensors_db):
        result = sensors_db.sql(
            "SELECT sensorid, avg(temp) AS m FROM sensors GROUP BY sensorid "
            "ORDER BY m DESC LIMIT 1"
        )
        # Top row is sensor 2 (avg inflated by the 120-degree reading).
        assert set(result.lineage(0).tolist()) == {2, 3, 4}


class TestProjectionQueries:
    def test_plain_projection(self, sensors_db):
        result = sensors_db.sql("SELECT sensorid, temp FROM sensors WHERE temp > 21")
        assert result.num_rows == 3
        assert result.aggregate_names == ()

    def test_projection_lineage_is_identity(self, sensors_db):
        result = sensors_db.sql("SELECT temp FROM sensors WHERE temp > 100")
        assert result.lineage(0).tolist() == [3]

    def test_projection_with_expression(self, sensors_db):
        result = sensors_db.sql("SELECT temp * 2 AS t2 FROM sensors WHERE sensorid = 1")
        assert result.column("t2").tolist() == [40.0, 42.0]

    def test_projection_empty_result(self, sensors_db):
        result = sensors_db.sql("SELECT temp FROM sensors WHERE temp > 1000")
        assert result.num_rows == 0


class TestCoarseProvenance:
    def test_pipeline_recorded_in_order(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, avg(temp) FROM sensors WHERE temp > 0 "
            "GROUP BY room ORDER BY room LIMIT 1"
        )
        described = result.coarse.describe()
        assert described.index("scan") < described.index("filter")
        assert described.index("filter") < described.index("groupby")
        assert described.index("groupby") < described.index("aggregate")
        assert described.index("aggregate") < described.index("order")
        assert described.index("order") < described.index("limit")

    def test_inputs_for_unions_lineage(self, sensors_db):
        result = sensors_db.sql(
            "SELECT room, count(*) FROM sensors GROUP BY room ORDER BY room"
        )
        F = result.inputs_for([0, 1])
        assert len(F) == 7


class TestDatabaseCatalog:
    def test_register_requires_name(self):
        db = Database()
        table = Table.from_columns({"a": [1]})
        with pytest.raises(UnknownTableError):
            db.register(table)

    def test_drop(self, sensors_db):
        sensors_db.drop("sensors")
        assert "sensors" not in sensors_db

    def test_table_names_sorted(self):
        db = Database()
        db.create_table("zz", {"a": [1]})
        db.create_table("aa", {"a": [1]})
        assert db.table_names == ("aa", "zz")

    def test_sql_accepts_parsed_statement(self, sensors_db):
        stmt = parse_select("SELECT count(*) FROM sensors")
        assert sensors_db.sql(stmt).row(0)[0] == 7

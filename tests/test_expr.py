"""Tests for repro.db.expr: vectorized evaluation and SQL rendering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import ColumnType, Schema, Table
from repro.db.expr import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    conjoin,
    sql_literal,
)
from repro.errors import ExecutionError, TypeMismatchError

from reference.expr import compare_objects_loop


@pytest.fixture
def table():
    return Table.from_columns(
        {
            "i": [10, 20, 30, 40],
            "f": [1.5, None, 3.5, -2.0],
            "s": ["foo", "bar", None, "foobar"],
        },
        types={"i": "int", "f": "float", "s": "str"},
    )


SCHEMA = Schema.of(i="int", f="float", s="str")


class TestColumnRefAndLiteral:
    def test_column_eval(self, table):
        assert ColumnRef("i").eval(table).tolist() == [10, 20, 30, 40]

    def test_literal_broadcast(self, table):
        out = Literal(7).eval(table)
        assert out.tolist() == [7, 7, 7, 7]
        assert out.dtype == np.int64

    def test_string_literal_broadcast(self, table):
        out = Literal("x").eval(table)
        assert out.dtype == object
        assert out[2] == "x"

    def test_null_literal_is_nan(self, table):
        assert np.isnan(Literal(None).eval(table)).all()

    def test_result_types(self):
        assert ColumnRef("f").result_type(SCHEMA) is ColumnType.FLOAT
        assert Literal(1).result_type(SCHEMA) is ColumnType.INT
        assert Literal(True).result_type(SCHEMA) is ColumnType.BOOL
        assert Literal("a").result_type(SCHEMA) is ColumnType.STR


class TestArithmetic:
    def test_add(self, table):
        out = (ColumnRef("i") + Literal(1)).eval(table)
        assert out.tolist() == [11, 21, 31, 41]

    def test_int_division_is_postgres_style(self, table):
        out = (ColumnRef("i") / Literal(7)).eval(table)
        assert out.tolist() == [1, 2, 4, 5]
        assert out.dtype.kind == "i"

    def test_int_division_truncates_toward_zero(self):
        table = Table.from_columns({"a": [-7, 7, -8]}, types={"a": "int"})
        out = (ColumnRef("a") / Literal(2)).eval(table)
        assert out.tolist() == [-3, 3, -4]

    def test_float_division(self, table):
        out = (ColumnRef("i") / Literal(8.0)).eval(table)
        assert out[0] == pytest.approx(1.25)

    def test_division_by_zero_int_raises(self, table):
        with pytest.raises(ExecutionError):
            (ColumnRef("i") / Literal(0)).eval(table)

    def test_division_by_zero_float_is_nan_or_inf(self, table):
        out = (ColumnRef("i") / Literal(0.0)).eval(table)
        assert np.isinf(out).all()

    def test_modulo(self, table):
        out = (ColumnRef("i") % Literal(7)).eval(table)
        assert out.tolist() == [3, 6, 2, 5]

    def test_modulo_by_zero_raises(self, table):
        with pytest.raises(ExecutionError):
            (ColumnRef("i") % Literal(0)).eval(table)

    def test_string_arithmetic_rejected(self, table):
        with pytest.raises(TypeMismatchError):
            (ColumnRef("s") + Literal(1)).eval(table)

    def test_result_type_promotion(self):
        expr = ColumnRef("i") + ColumnRef("f")
        assert expr.result_type(SCHEMA) is ColumnType.FLOAT
        expr2 = ColumnRef("i") + Literal(1)
        assert expr2.result_type(SCHEMA) is ColumnType.INT

    def test_negate(self, table):
        out = Negate(ColumnRef("i")).eval(table)
        assert out.tolist() == [-10, -20, -30, -40]


class TestComparison:
    def test_numeric_comparison(self, table):
        out = ColumnRef("i").gt(Literal(20)).eval(table)
        assert out.tolist() == [False, False, True, True]

    def test_nan_compares_false_even_not_equal(self, table):
        out = ColumnRef("f").ne(Literal(1.5)).eval(table)
        # Row 1 is NULL -> False (conservative filtering).
        assert out.tolist() == [False, False, True, True]

    def test_string_equality(self, table):
        out = ColumnRef("s").eq(Literal("foo")).eval(table)
        assert out.tolist() == [True, False, False, False]

    def test_none_string_compares_false(self, table):
        out = ColumnRef("s").ne(Literal("zzz")).eval(table)
        assert out.tolist() == [True, True, False, True]

    def test_string_ordering(self, table):
        out = ColumnRef("s").lt(Literal("fz")).eval(table)
        assert out.tolist() == [True, True, False, True]

    def test_mixed_type_comparison_rejected(self, table):
        with pytest.raises(TypeMismatchError):
            ColumnRef("s").eq(Literal(1)).eval(table)

    def test_diamond_alias(self):
        comparison = Comparison("<>", ColumnRef("i"), Literal(1))
        assert comparison.op == "!="


#: Short strings over a tiny alphabet, so equal pairs are common, and
#: NULLs among them.
_STRINGS = st.text(alphabet="ab", max_size=2)
_CELLS = st.one_of(st.none(), _STRINGS)


class TestStringComparisonParity:
    """The masked-ufunc string comparison against the per-row loop."""

    @pytest.mark.parametrize("op", Comparison.OPS)
    @settings(max_examples=40, deadline=None)
    @given(rows=st.lists(st.tuples(_CELLS, _CELLS), max_size=30), literal=_STRINGS)
    def test_every_operand_shape(self, op, rows, literal):
        table = Table.from_columns(
            {"a": [a for a, _ in rows], "b": [b for _, b in rows]},
            types={"a": "str", "b": "str"},
        )
        shapes = (
            (ColumnRef("a"), Literal(literal)),
            (Literal(literal), ColumnRef("a")),
            (ColumnRef("a"), ColumnRef("b")),
        )
        for left, right in shapes:
            mask = Comparison(op, left, right).eval(table)
            expected = compare_objects_loop(op, left.eval(table), right.eval(table))
            assert mask.dtype == np.bool_
            assert np.array_equal(mask, expected), (op, left, right, rows)


class TestBooleanOps:
    def test_and(self, table):
        expr = And([ColumnRef("i").gt(Literal(10)), ColumnRef("i").lt(Literal(40))])
        assert expr.eval(table).tolist() == [False, True, True, False]

    def test_or(self, table):
        expr = Or([ColumnRef("i").le(Literal(10)), ColumnRef("i").ge(Literal(40))])
        assert expr.eval(table).tolist() == [True, False, False, True]

    def test_not(self, table):
        expr = Not(ColumnRef("i").gt(Literal(20)))
        assert expr.eval(table).tolist() == [True, True, False, False]

    def test_logical_on_non_boolean_rejected(self, table):
        with pytest.raises(TypeMismatchError):
            And([ColumnRef("i"), ColumnRef("i")]).eval(table)

    def test_conjoin_flattens(self):
        a = ColumnRef("i").gt(Literal(1))
        b = ColumnRef("i").lt(Literal(5))
        c = ColumnRef("f").gt(Literal(0))
        nested = conjoin([And([a, b]), c])
        assert isinstance(nested, And)
        assert len(nested.operands) == 3

    def test_conjoin_empty_is_true(self, table):
        expr = conjoin([])
        assert expr.eval(table).all()

    def test_conjoin_single_passthrough(self):
        a = ColumnRef("i").gt(Literal(1))
        assert conjoin([a]) is a


class TestMembershipAndPatterns:
    def test_in_list_numeric(self, table):
        expr = ColumnRef("i").isin([10, 40])
        assert expr.eval(table).tolist() == [True, False, False, True]

    def test_in_list_string_none_safe(self, table):
        expr = ColumnRef("s").isin(["foo", "bar"])
        assert expr.eval(table).tolist() == [True, True, False, False]

    def test_not_in(self, table):
        expr = InList(ColumnRef("i"), [10], negated=True)
        assert expr.eval(table).tolist() == [False, True, True, True]

    def test_between_inclusive(self, table):
        expr = ColumnRef("i").between(20, 30)
        assert expr.eval(table).tolist() == [False, True, True, False]

    def test_between_nan_false(self, table):
        expr = ColumnRef("f").between(-10, 10)
        assert expr.eval(table).tolist() == [True, False, True, True]

    def test_like_percent(self, table):
        expr = Like(ColumnRef("s"), "foo%")
        assert expr.eval(table).tolist() == [True, False, False, True]

    def test_like_underscore(self, table):
        expr = Like(ColumnRef("s"), "b_r")
        assert expr.eval(table).tolist() == [False, True, False, False]

    def test_like_escapes_regex_metachars(self):
        table = Table.from_columns({"s": ["a.c", "abc"]}, types={"s": "str"})
        expr = Like(ColumnRef("s"), "a.c")
        assert expr.eval(table).tolist() == [True, False]

    def test_like_on_numeric_rejected(self, table):
        with pytest.raises(TypeMismatchError):
            Like(ColumnRef("i"), "1%").eval(table)

    def test_is_null_float(self, table):
        assert IsNull(ColumnRef("f")).eval(table).tolist() == [
            False, True, False, False,
        ]

    def test_is_null_string(self, table):
        assert IsNull(ColumnRef("s")).eval(table).tolist() == [
            False, False, True, False,
        ]

    def test_is_not_null(self, table):
        out = IsNull(ColumnRef("i"), negated=True).eval(table)
        assert out.all()


class TestFuncCall:
    def test_abs(self, table):
        out = FuncCall("abs", [ColumnRef("f")]).eval(table)
        assert out[3] == 2.0

    def test_lower_upper(self, table):
        out = FuncCall("upper", [ColumnRef("s")]).eval(table)
        assert out[0] == "FOO"
        assert out[2] is None

    def test_length_none_is_zero(self, table):
        out = FuncCall("length", [ColumnRef("s")]).eval(table)
        assert out.tolist() == [3, 3, 0, 6]

    def test_unknown_function_rejected(self):
        with pytest.raises(TypeMismatchError):
            FuncCall("nope", [ColumnRef("i")])

    def test_floor_ceil_sign(self, table):
        assert FuncCall("floor", [ColumnRef("f")]).eval(table)[0] == 1.0
        assert FuncCall("ceil", [ColumnRef("f")]).eval(table)[0] == 2.0
        assert FuncCall("sign", [ColumnRef("f")]).eval(table)[3] == -1.0


class TestSqlRendering:
    def test_sql_literal_escapes_quotes(self):
        assert sql_literal("O'Brien") == "'O''Brien'"

    def test_sql_literal_null_and_bool(self):
        assert sql_literal(None) == "NULL"
        assert sql_literal(True) == "TRUE"

    def test_expression_to_sql(self):
        expr = And([
            Comparison(">", ColumnRef("temp"), Literal(100)),
            Like(ColumnRef("memo"), "%SPOUSE%"),
        ])
        sql = expr.to_sql()
        assert "temp > 100" in sql
        assert "LIKE '%SPOUSE%'" in sql

    def test_columns_collection(self):
        expr = Or([
            ColumnRef("a").gt(ColumnRef("b")),
            Between(ColumnRef("c"), Literal(1), Literal(2)),
        ])
        assert expr.columns() == {"a", "b", "c"}

    def test_equality_and_hash(self):
        e1 = ColumnRef("a").gt(Literal(1))
        e2 = ColumnRef("a").gt(Literal(1))
        assert e1 == e2
        assert hash(e1) == hash(e2)
        assert e1 != ColumnRef("a").gt(Literal(2))

"""Scalar expression AST with vectorized evaluation over a :class:`Table`.

Expressions are built either programmatically or by the SQL parser. Every
node knows how to:

* evaluate itself against a table into a numpy array (``eval``),
* render itself back to SQL text (``to_sql``),
* report which columns it references (``columns``),
* infer its result type against a schema (``result_type``).

Semantics follow PostgreSQL where it matters for the paper's queries:
``/`` on two integers is integer division (used for 30-minute window ids
like ``time / 30``), and comparisons against NULL are simply false (full
three-valued logic is intentionally out of scope; see DESIGN.md).
"""

from __future__ import annotations

import re
from typing import Any, Iterable, Sequence

import numpy as np

from ..errors import ExecutionError, TypeMismatchError
from .schema import Schema
from .table import Table
from .types import ColumnType


class Expr:
    """Base class for scalar expressions."""

    def eval(self, table: Table) -> np.ndarray:
        """Evaluate vectorized over ``table``; returns an array of len(table)."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render this expression as SQL text."""
        raise NotImplementedError

    def columns(self) -> set[str]:
        """Names of all columns referenced by this expression."""
        raise NotImplementedError

    def result_type(self, schema: Schema) -> ColumnType:
        """The type this expression produces against ``schema``."""
        raise NotImplementedError

    # Operator sugar for programmatic construction -----------------------

    def __add__(self, other: "Expr | Any") -> "Arithmetic":
        return Arithmetic("+", self, _wrap(other))

    def __sub__(self, other: "Expr | Any") -> "Arithmetic":
        return Arithmetic("-", self, _wrap(other))

    def __mul__(self, other: "Expr | Any") -> "Arithmetic":
        return Arithmetic("*", self, _wrap(other))

    def __truediv__(self, other: "Expr | Any") -> "Arithmetic":
        return Arithmetic("/", self, _wrap(other))

    def __mod__(self, other: "Expr | Any") -> "Arithmetic":
        return Arithmetic("%", self, _wrap(other))

    def eq(self, other: "Expr | Any") -> "Comparison":
        """``self = other`` (SQL equality)."""
        return Comparison("=", self, _wrap(other))

    def ne(self, other: "Expr | Any") -> "Comparison":
        """``self != other``."""
        return Comparison("!=", self, _wrap(other))

    def lt(self, other: "Expr | Any") -> "Comparison":
        """``self < other``."""
        return Comparison("<", self, _wrap(other))

    def le(self, other: "Expr | Any") -> "Comparison":
        """``self <= other``."""
        return Comparison("<=", self, _wrap(other))

    def gt(self, other: "Expr | Any") -> "Comparison":
        """``self > other``."""
        return Comparison(">", self, _wrap(other))

    def ge(self, other: "Expr | Any") -> "Comparison":
        """``self >= other``."""
        return Comparison(">=", self, _wrap(other))

    def isin(self, values: Iterable[Any]) -> "InList":
        """``self IN (values...)``."""
        return InList(self, tuple(values))

    def between(self, low: Any, high: Any) -> "Between":
        """``self BETWEEN low AND high`` (inclusive both ends)."""
        return Between(self, _wrap(low), _wrap(high))


def _wrap(value: "Expr | Any") -> "Expr":
    if isinstance(value, Expr):
        return value
    return Literal(value)


def sql_literal(value: Any) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class ColumnRef(Expr):
    """A reference to a named table column."""

    def __init__(self, name: str):
        self.name = name

    def eval(self, table: Table) -> np.ndarray:
        return table.column(self.name)

    def to_sql(self) -> str:
        return self.name

    def columns(self) -> set[str]:
        return {self.name}

    def result_type(self, schema: Schema) -> ColumnType:
        return schema.type_of(self.name)

    def __repr__(self) -> str:
        return f"ColumnRef({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ColumnRef) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("col", self.name))


class Literal(Expr):
    """A constant value.

    A numpy scalar is stored as its Python value, so it types, evaluates
    and renders (``to_sql``) like the literal the parser would build.
    """

    def __init__(self, value: Any):
        self.value = value.item() if isinstance(value, np.generic) else value

    def eval(self, table: Table) -> np.ndarray:
        n = len(table)
        if self.value is None:
            return np.full(n, np.nan)
        if isinstance(self.value, bool):
            return np.full(n, self.value, dtype=np.bool_)
        if isinstance(self.value, int):
            return np.full(n, self.value, dtype=np.int64)
        if isinstance(self.value, float):
            return np.full(n, self.value, dtype=np.float64)
        out = np.empty(n, dtype=object)
        out[:] = self.value
        return out

    def to_sql(self) -> str:
        return sql_literal(self.value)

    def columns(self) -> set[str]:
        return set()

    def result_type(self, schema: Schema) -> ColumnType:
        if isinstance(self.value, bool):
            return ColumnType.BOOL
        if isinstance(self.value, int):
            return ColumnType.INT
        if isinstance(self.value, float) or self.value is None:
            return ColumnType.FLOAT
        return ColumnType.STR

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("lit", self.value))


class Arithmetic(Expr):
    """Binary arithmetic: ``+ - * / %``.

    ``/`` follows PostgreSQL: integer division when both operands are
    integers, float division otherwise. Division by zero yields NaN under
    float semantics and raises :class:`ExecutionError` for integer division.
    """

    OPS = ("+", "-", "*", "/", "%")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in self.OPS:
            raise TypeMismatchError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, table: Table) -> np.ndarray:
        left = self.left.eval(table)
        right = self.right.eval(table)
        if left.dtype == object or right.dtype == object:
            raise TypeMismatchError(f"arithmetic {self.op!r} on non-numeric operands")
        both_int = left.dtype.kind in "iu" and right.dtype.kind in "iu"
        if self.op == "+":
            return left + right
        if self.op == "-":
            return left - right
        if self.op == "*":
            return left * right
        if self.op == "%":
            if np.any(right == 0):
                raise ExecutionError("modulo by zero")
            return left % right
        if both_int:
            if np.any(right == 0):
                raise ExecutionError("integer division by zero")
            # PostgreSQL integer division truncates toward zero.
            quotient = left // right
            remainder = left - quotient * right
            fix = (remainder != 0) & ((left < 0) != (right < 0))
            return quotient + fix
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(left, dtype=np.float64) / np.asarray(right, dtype=np.float64)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        left = self.left.result_type(schema)
        right = self.right.result_type(schema)
        if not left.is_numeric or not right.is_numeric:
            raise TypeMismatchError(
                f"arithmetic {self.op!r} requires numeric operands, got {left} and {right}"
            )
        if left is ColumnType.INT and right is ColumnType.INT:
            return ColumnType.INT
        return ColumnType.FLOAT

    def __repr__(self) -> str:
        return f"Arithmetic({self.op!r}, {self.left!r}, {self.right!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Arithmetic)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("arith", self.op, self.left, self.right))


class Negate(Expr):
    """Unary minus."""

    def __init__(self, operand: Expr):
        self.operand = operand

    def eval(self, table: Table) -> np.ndarray:
        value = self.operand.eval(table)
        if value.dtype == object:
            raise TypeMismatchError("unary minus on non-numeric operand")
        return -value

    def to_sql(self) -> str:
        return f"(-{self.operand.to_sql()})"

    def columns(self) -> set[str]:
        return self.operand.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        inner = self.operand.result_type(schema)
        if not inner.is_numeric:
            raise TypeMismatchError(f"unary minus requires a numeric operand, got {inner}")
        return inner

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Negate) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("neg", self.operand))


class Comparison(Expr):
    """Binary comparison producing a boolean mask.

    Comparisons where either side is NULL (NaN / None) evaluate to False,
    matching the practical filtering behaviour of SQL WHERE clauses.
    """

    OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __init__(self, op: str, left: Expr, right: Expr):
        if op == "<>":
            op = "!="
        if op not in self.OPS:
            raise TypeMismatchError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def eval(self, table: Table) -> np.ndarray:
        left = self.left.eval(table)
        right = self.right.eval(table)
        if (left.dtype == object) != (right.dtype == object):
            raise TypeMismatchError("cannot compare string and numeric operands")
        if left.dtype == object:
            return self._compare_objects(left, right)
        with np.errstate(invalid="ignore"):
            result = _COMPARE[self.op](left, right)
        # NaN on either side -> False (even for !=, to keep filters conservative).
        nan_mask = np.zeros(len(result), dtype=bool)
        if left.dtype.kind == "f":
            nan_mask |= np.isnan(left)
        if right.dtype.kind == "f":
            nan_mask |= np.isnan(right)
        result = np.asarray(result, dtype=bool)
        result[nan_mask] = False
        return result

    def _compare_objects(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # None on either side -> False, as NaN is for numbers. ``where=``
        # runs the operator's ufunc on the non-NULL rows only: ``<`` would
        # raise on a None, and ``!=`` would call it unequal to any string.
        valid = ~(np.equal(left, None) | np.equal(right, None))
        out = np.zeros(len(left), dtype=bool)
        return _COMPARE[self.op](left, right, out=out, where=valid)

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} {self.op} {self.right.to_sql()})"

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        left = self.left.result_type(schema)
        right = self.right.result_type(schema)
        if left.is_numeric != right.is_numeric:
            raise TypeMismatchError(f"cannot compare {left} with {right}")
        return ColumnType.BOOL

    def __repr__(self) -> str:
        return f"Comparison({self.op!r}, {self.left!r}, {self.right!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Comparison)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("cmp", self.op, self.left, self.right))


_COMPARE = {
    "=": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
}


class And(Expr):
    """N-ary logical conjunction."""

    def __init__(self, operands: Sequence[Expr]):
        self.operands = tuple(operands)

    def eval(self, table: Table) -> np.ndarray:
        result = np.ones(len(table), dtype=bool)
        for operand in self.operands:
            result &= _as_bool(operand.eval(table))
        return result

    def to_sql(self) -> str:
        inner = " AND ".join(operand.to_sql() for operand in self.operands)
        return f"({inner})"

    def columns(self) -> set[str]:
        out: set[str] = set()
        for operand in self.operands:
            out |= operand.columns()
        return out

    def result_type(self, schema: Schema) -> ColumnType:
        for operand in self.operands:
            _require_bool(operand, schema, "AND")
        return ColumnType.BOOL

    def __eq__(self, other: object) -> bool:
        return isinstance(other, And) and other.operands == self.operands

    def __hash__(self) -> int:
        return hash(("and", self.operands))


class Or(Expr):
    """N-ary logical disjunction."""

    def __init__(self, operands: Sequence[Expr]):
        self.operands = tuple(operands)

    def eval(self, table: Table) -> np.ndarray:
        result = np.zeros(len(table), dtype=bool)
        for operand in self.operands:
            result |= _as_bool(operand.eval(table))
        return result

    def to_sql(self) -> str:
        inner = " OR ".join(operand.to_sql() for operand in self.operands)
        return f"({inner})"

    def columns(self) -> set[str]:
        out: set[str] = set()
        for operand in self.operands:
            out |= operand.columns()
        return out

    def result_type(self, schema: Schema) -> ColumnType:
        for operand in self.operands:
            _require_bool(operand, schema, "OR")
        return ColumnType.BOOL

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Or) and other.operands == self.operands

    def __hash__(self) -> int:
        return hash(("or", self.operands))


class Not(Expr):
    """Logical negation."""

    def __init__(self, operand: Expr):
        self.operand = operand

    def eval(self, table: Table) -> np.ndarray:
        return ~_as_bool(self.operand.eval(table))

    def to_sql(self) -> str:
        return f"(NOT {self.operand.to_sql()})"

    def columns(self) -> set[str]:
        return self.operand.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        _require_bool(self.operand, schema, "NOT")
        return ColumnType.BOOL

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Not) and other.operand == self.operand

    def __hash__(self) -> int:
        return hash(("not", self.operand))


class InList(Expr):
    """``expr IN (v1, v2, ...)`` with optional negation."""

    def __init__(self, operand: Expr, values: Sequence[Any], negated: bool = False):
        self.operand = operand
        self.values = tuple(values)
        self.negated = negated

    def eval(self, table: Table) -> np.ndarray:
        value = self.operand.eval(table)
        if value.dtype == object:
            allowed = set(self.values)
            result = np.fromiter(
                (v is not None and v in allowed for v in value),
                dtype=bool,
                count=len(value),
            )
        else:
            result = np.zeros(len(value), dtype=bool)
            for candidate in self.values:
                with np.errstate(invalid="ignore"):
                    result |= np.asarray(value == candidate, dtype=bool)
        return ~result if self.negated else result

    def to_sql(self) -> str:
        inner = ", ".join(sql_literal(value) for value in self.values)
        keyword = "NOT IN" if self.negated else "IN"
        return f"({self.operand.to_sql()} {keyword} ({inner}))"

    def columns(self) -> set[str]:
        return self.operand.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        self.operand.result_type(schema)
        return ColumnType.BOOL

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, InList)
            and other.operand == self.operand
            and other.values == self.values
            and other.negated == self.negated
        )

    def __hash__(self) -> int:
        return hash(("in", self.operand, self.values, self.negated))


class Between(Expr):
    """``expr BETWEEN low AND high`` (inclusive), with optional negation."""

    def __init__(self, operand: Expr, low: Expr, high: Expr, negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def eval(self, table: Table) -> np.ndarray:
        value = self.operand.eval(table)
        low = self.low.eval(table)
        high = self.high.eval(table)
        if value.dtype == object:
            raise TypeMismatchError("BETWEEN requires numeric operands")
        with np.errstate(invalid="ignore"):
            result = np.asarray((value >= low) & (value <= high), dtype=bool)
        if value.dtype.kind == "f":
            result[np.isnan(value)] = False
        return ~result if self.negated else result

    def to_sql(self) -> str:
        keyword = "NOT BETWEEN" if self.negated else "BETWEEN"
        return (
            f"({self.operand.to_sql()} {keyword} "
            f"{self.low.to_sql()} AND {self.high.to_sql()})"
        )

    def columns(self) -> set[str]:
        return self.operand.columns() | self.low.columns() | self.high.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        for part in (self.operand, self.low, self.high):
            if not part.result_type(schema).is_numeric:
                raise TypeMismatchError("BETWEEN requires numeric operands")
        return ColumnType.BOOL

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Between)
            and other.operand == self.operand
            and other.low == self.low
            and other.high == self.high
            and other.negated == self.negated
        )

    def __hash__(self) -> int:
        return hash(("between", self.operand, self.low, self.high, self.negated))


class Like(Expr):
    """SQL LIKE pattern match (``%`` any run, ``_`` any single char)."""

    def __init__(self, operand: Expr, pattern: str, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated
        self._regex = re.compile(_like_to_regex(pattern), re.DOTALL)

    def eval(self, table: Table) -> np.ndarray:
        value = self.operand.eval(table)
        if value.dtype != object:
            raise TypeMismatchError("LIKE requires a string operand")
        result = np.fromiter(
            (v is not None and self._regex.fullmatch(v) is not None for v in value),
            dtype=bool,
            count=len(value),
        )
        return ~result if self.negated else result

    def to_sql(self) -> str:
        keyword = "NOT LIKE" if self.negated else "LIKE"
        return f"({self.operand.to_sql()} {keyword} {sql_literal(self.pattern)})"

    def columns(self) -> set[str]:
        return self.operand.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        if self.operand.result_type(schema).is_numeric:
            raise TypeMismatchError("LIKE requires a string operand")
        return ColumnType.BOOL

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Like)
            and other.operand == self.operand
            and other.pattern == self.pattern
            and other.negated == self.negated
        )

    def __hash__(self) -> int:
        return hash(("like", self.operand, self.pattern, self.negated))


def _like_to_regex(pattern: str) -> str:
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return "".join(parts)


class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def eval(self, table: Table) -> np.ndarray:
        value = self.operand.eval(table)
        if value.dtype == object:
            result = np.fromiter((v is None for v in value), dtype=bool, count=len(value))
        elif value.dtype.kind == "f":
            result = np.isnan(value)
        else:
            result = np.zeros(len(value), dtype=bool)
        return ~result if self.negated else result

    def to_sql(self) -> str:
        keyword = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.to_sql()} {keyword})"

    def columns(self) -> set[str]:
        return self.operand.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        self.operand.result_type(schema)
        return ColumnType.BOOL

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IsNull)
            and other.operand == self.operand
            and other.negated == self.negated
        )

    def __hash__(self) -> int:
        return hash(("isnull", self.operand, self.negated))


class FuncCall(Expr):
    """A scalar function call: abs, round, floor, ceil, sign, lower, upper, length."""

    NUMERIC_FUNCS = ("abs", "round", "floor", "ceil", "sign")
    STRING_FUNCS = ("lower", "upper", "length")

    def __init__(self, name: str, args: Sequence[Expr]):
        self.func_name = name.lower()
        self.args = tuple(args)
        if self.func_name not in self.NUMERIC_FUNCS + self.STRING_FUNCS:
            raise TypeMismatchError(f"unknown scalar function {name!r}")

    def eval(self, table: Table) -> np.ndarray:
        values = [arg.eval(table) for arg in self.args]
        name = self.func_name
        if name in self.NUMERIC_FUNCS:
            value = values[0]
            if value.dtype == object:
                raise TypeMismatchError(f"{name}() requires a numeric argument")
            if name == "abs":
                return np.abs(value)
            if name == "round":
                digits = 0
                if len(values) > 1:
                    digits = int(values[1][0]) if len(values[1]) else 0
                return np.round(value, digits)
            if name == "floor":
                return np.floor(np.asarray(value, dtype=np.float64))
            if name == "ceil":
                return np.ceil(np.asarray(value, dtype=np.float64))
            return np.sign(np.asarray(value, dtype=np.float64))
        value = values[0]
        if value.dtype != object:
            raise TypeMismatchError(f"{name}() requires a string argument")
        if name == "lower":
            out = np.empty(len(value), dtype=object)
            for i, v in enumerate(value):
                out[i] = None if v is None else v.lower()
            return out
        if name == "upper":
            out = np.empty(len(value), dtype=object)
            for i, v in enumerate(value):
                out[i] = None if v is None else v.upper()
            return out
        lengths = np.empty(len(value), dtype=np.int64)
        for i, v in enumerate(value):
            lengths[i] = 0 if v is None else len(v)
        return lengths

    def to_sql(self) -> str:
        inner = ", ".join(arg.to_sql() for arg in self.args)
        return f"{self.func_name}({inner})"

    def columns(self) -> set[str]:
        out: set[str] = set()
        for arg in self.args:
            out |= arg.columns()
        return out

    def result_type(self, schema: Schema) -> ColumnType:
        if self.func_name == "length":
            return ColumnType.INT
        if self.func_name in self.STRING_FUNCS:
            return ColumnType.STR
        if self.func_name in ("floor", "ceil", "sign"):
            return ColumnType.FLOAT
        return self.args[0].result_type(schema)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FuncCall)
            and other.func_name == self.func_name
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("func", self.func_name, self.args))


def _as_bool(value: np.ndarray) -> np.ndarray:
    if value.dtype == np.bool_:
        return value
    raise TypeMismatchError("logical operator applied to a non-boolean expression")


def _require_bool(operand: Expr, schema: Schema, context: str) -> None:
    if operand.result_type(schema) is not ColumnType.BOOL:
        raise TypeMismatchError(f"{context} requires boolean operands")


def conjoin(operands: Sequence[Expr]) -> Expr:
    """AND together a sequence of boolean expressions (flattening nested ANDs)."""
    flat: list[Expr] = []
    for operand in operands:
        if isinstance(operand, And):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if not flat:
        return Literal(True)
    if len(flat) == 1:
        return flat[0]
    return And(flat)

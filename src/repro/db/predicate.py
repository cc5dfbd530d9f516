"""Conjunctive predicates: the unit of explanation in DBWipes.

A :class:`Predicate` is a conjunction of clauses over table columns:

* :class:`NumericClause` — an interval constraint ``lo <OP> column <OP> hi``
  with independently open/closed/unbounded ends.
* :class:`CategoricalClause` — a membership constraint
  ``column IN {v1, ...}`` or its negation.

Predicates are what the backend returns to the user (Figure 6 of the
paper), what gets clicked to clean the database, and what the query
rewriter splices into the WHERE clause as ``AND NOT (...)``. They render
to SQL, evaluate vectorized against tables, report complexity (clause
count, the ranker's penalty term), and simplify conjunctions on the same
column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..errors import SchemaError
from .expr import (
    And,
    ColumnRef,
    Comparison,
    Expr,
    InList,
    IsNull,
    Literal,
    Not,
    Or,
    conjoin,
)
from .table import Table


@dataclass(frozen=True)
class NumericClause:
    """An interval constraint on a numeric column.

    ``lo``/``hi`` of ``None`` mean unbounded on that side. Inclusive flags
    control ``<=`` vs ``<``.
    """

    column: str
    lo: float | None = None
    hi: float | None = None
    lo_inclusive: bool = True
    hi_inclusive: bool = False

    def __post_init__(self) -> None:
        if self.lo is None and self.hi is None:
            raise SchemaError("numeric clause must bound at least one side")
        if self.lo is not None and self.hi is not None and self.lo > self.hi:
            raise SchemaError(f"empty interval for {self.column}: ({self.lo}, {self.hi})")

    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of rows satisfying this clause."""
        values = table.column(self.column)
        result = np.ones(len(values), dtype=bool)
        with np.errstate(invalid="ignore"):
            if self.lo is not None:
                if self.lo_inclusive:
                    result &= np.asarray(values >= self.lo, dtype=bool)
                else:
                    result &= np.asarray(values > self.lo, dtype=bool)
            if self.hi is not None:
                if self.hi_inclusive:
                    result &= np.asarray(values <= self.hi, dtype=bool)
                else:
                    result &= np.asarray(values < self.hi, dtype=bool)
        if np.asarray(values).dtype.kind == "f":
            result[np.isnan(np.asarray(values, dtype=np.float64))] = False
        return result

    def to_expr(self) -> Expr:
        """This clause as a boolean :class:`Expr`."""
        parts: list[Expr] = []
        ref = ColumnRef(self.column)
        if self.lo is not None:
            op = ">=" if self.lo_inclusive else ">"
            parts.append(Comparison(op, ref, Literal(_tidy(self.lo))))
        if self.hi is not None:
            op = "<=" if self.hi_inclusive else "<"
            parts.append(Comparison(op, ref, Literal(_tidy(self.hi))))
        return conjoin(parts)

    def to_sql(self) -> str:
        """SQL text for this clause, e.g. ``(temp >= 100.0 AND temp < 130.0)``."""
        return self.to_expr().to_sql()

    def describe(self) -> str:
        """A compact human-readable form, e.g. ``100 <= temp < 130``."""
        parts = []
        if self.lo is not None:
            parts.append(f"{_fmt(self.lo)} {'<=' if self.lo_inclusive else '<'} ")
        parts.append(self.column)
        if self.hi is not None:
            parts.append(f" {'<=' if self.hi_inclusive else '<'} {_fmt(self.hi)}")
        return "".join(parts)

    def intersect(self, other: "NumericClause") -> "NumericClause | None":
        """The intersection of two intervals on the same column.

        Returns ``None`` when the intersection is empty.
        """
        if other.column != self.column:
            raise SchemaError("cannot intersect clauses on different columns")
        lo, lo_inc = self.lo, self.lo_inclusive
        if other.lo is not None and (lo is None or other.lo > lo):
            lo, lo_inc = other.lo, other.lo_inclusive
        elif other.lo is not None and other.lo == lo:
            lo_inc = lo_inc and other.lo_inclusive
        hi, hi_inc = self.hi, self.hi_inclusive
        if other.hi is not None and (hi is None or other.hi < hi):
            hi, hi_inc = other.hi, other.hi_inclusive
        elif other.hi is not None and other.hi == hi:
            hi_inc = hi_inc and other.hi_inclusive
        if lo is not None and hi is not None:
            if lo > hi or (lo == hi and not (lo_inc and hi_inc)):
                return None
        return NumericClause(self.column, lo, hi, lo_inc, hi_inc)


@dataclass(frozen=True)
class CategoricalClause:
    """A membership constraint on a categorical column."""

    column: str
    values: frozenset
    negated: bool = False

    def __post_init__(self) -> None:
        if not self.values:
            raise SchemaError("categorical clause needs at least one value")

    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of rows satisfying this clause."""
        column = table.column(self.column)
        if column.dtype == object:
            result = np.fromiter(
                (v is not None and v in self.values for v in column),
                dtype=bool,
                count=len(column),
            )
        else:
            result = np.zeros(len(column), dtype=bool)
            for value in self.values:
                result |= np.asarray(column == value, dtype=bool)
        return ~result if self.negated else result

    def to_expr(self) -> Expr:
        """This clause as a boolean :class:`Expr`.

        The negated form matches NULL values (a NULL is "not in the set"),
        so the rendered SQL explicitly includes ``IS NULL`` — a bare
        ``!=`` / ``NOT IN`` would silently drop NULL rows.
        """
        ordered = sorted(self.values, key=repr)
        ref = ColumnRef(self.column)
        if not self.negated:
            if len(ordered) == 1:
                return Comparison("=", ref, Literal(ordered[0]))
            return InList(ref, ordered)
        if len(ordered) == 1:
            positive: Expr = Comparison("!=", ref, Literal(ordered[0]))
        else:
            positive = InList(ref, ordered, negated=True)
        return Or([IsNull(ref), positive])

    def to_sql(self) -> str:
        """SQL text for this clause, e.g. ``(memo = 'REATTRIBUTION TO SPOUSE')``."""
        return self.to_expr().to_sql()

    def describe(self) -> str:
        """A compact human-readable form."""
        ordered = sorted(self.values, key=repr)
        op = "not in" if self.negated else "in"
        if len(ordered) == 1:
            op = "!=" if self.negated else "="
            return f"{self.column} {op} {ordered[0]!r}"
        inner = ", ".join(repr(value) for value in ordered)
        return f"{self.column} {op} {{{inner}}}"

    def intersect(self, other: "CategoricalClause") -> "CategoricalClause | None":
        """The conjunction of two membership constraints on the same column."""
        if other.column != self.column:
            raise SchemaError("cannot intersect clauses on different columns")
        if not self.negated and not other.negated:
            merged = self.values & other.values
            return CategoricalClause(self.column, merged) if merged else None
        if self.negated and other.negated:
            return CategoricalClause(self.column, self.values | other.values, negated=True)
        positive = self if not self.negated else other
        negative = other if not self.negated else self
        remaining = positive.values - negative.values
        return CategoricalClause(self.column, remaining) if remaining else None


Clause = NumericClause | CategoricalClause


class Predicate:
    """A conjunction of clauses describing a set of tuples."""

    def __init__(self, clauses: Iterable[Clause] = ()):
        self._clauses: tuple[Clause, ...] = tuple(clauses)

    @classmethod
    def true(cls) -> "Predicate":
        """The always-true predicate (empty conjunction)."""
        return cls(())

    @property
    def clauses(self) -> tuple[Clause, ...]:
        """The clauses in order."""
        return self._clauses

    @property
    def is_true(self) -> bool:
        """Whether this is the empty (always-true) conjunction."""
        return not self._clauses

    @property
    def complexity(self) -> int:
        """Number of atomic conditions — the ranker's complexity penalty.

        A two-sided interval counts as two conditions; a membership clause
        counts as one per listed value.
        """
        total = 0
        for clause in self._clauses:
            if isinstance(clause, NumericClause):
                total += int(clause.lo is not None) + int(clause.hi is not None)
            else:
                total += len(clause.values)
        return total

    def columns(self) -> set[str]:
        """Columns referenced by any clause."""
        return {clause.column for clause in self._clauses}

    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of rows satisfying every clause."""
        result = np.ones(len(table), dtype=bool)
        for clause in self._clauses:
            result &= clause.mask(table)
        return result

    def matching_tids(self, table: Table) -> np.ndarray:
        """Tids of rows satisfying this predicate."""
        return np.asarray(table.tids)[self.mask(table)]

    def to_expr(self) -> Expr:
        """The predicate as a boolean expression."""
        if not self._clauses:
            return Literal(True)
        return conjoin([clause.to_expr() for clause in self._clauses])

    def negated_expr(self) -> Expr:
        """``NOT (predicate)`` — what the query rewriter splices into WHERE."""
        return Not(self.to_expr())

    def to_sql(self) -> str:
        """SQL text of the conjunction."""
        return self.to_expr().to_sql()

    def describe(self) -> str:
        """Compact human-readable form, e.g. ``sensorid = 15 and voltage < 2.4``."""
        if not self._clauses:
            return "TRUE"
        return " and ".join(clause.describe() for clause in self._clauses)

    def simplify(self) -> "Predicate | None":
        """Merge clauses on the same column.

        Returns ``None`` if the conjunction is unsatisfiable (e.g. two
        disjoint intervals on one column).
        """
        numeric: dict[str, NumericClause] = {}
        categorical: dict[str, CategoricalClause] = {}
        order: list[tuple[str, str]] = []
        for clause in self._clauses:
            if isinstance(clause, NumericClause):
                key = ("num", clause.column)
                if clause.column in numeric:
                    merged = numeric[clause.column].intersect(clause)
                    if merged is None:
                        return None
                    numeric[clause.column] = merged
                else:
                    numeric[clause.column] = clause
                    order.append(key)
            else:
                key = ("cat", clause.column)
                if clause.column in categorical:
                    merged_cat = categorical[clause.column].intersect(clause)
                    if merged_cat is None:
                        return None
                    categorical[clause.column] = merged_cat
                else:
                    categorical[clause.column] = clause
                    order.append(key)
        clauses: list[Clause] = []
        for kind, column in order:
            clauses.append(numeric[column] if kind == "num" else categorical[column])
        return Predicate(clauses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        return frozenset(self._clauses) == frozenset(other._clauses)

    def __hash__(self) -> int:
        return hash(frozenset(self._clauses))

    def __repr__(self) -> str:
        return f"Predicate({self.describe()})"


def equals(column: str, value: Any) -> Predicate:
    """Convenience: ``column = value`` as a one-clause predicate."""
    if isinstance(value, str):
        return Predicate([CategoricalClause(column, frozenset([value]))])
    return Predicate([NumericClause(column, value, value, True, True)])


def in_set(column: str, values: Iterable[Any]) -> Predicate:
    """Convenience: ``column IN values`` as a one-clause predicate."""
    return Predicate([CategoricalClause(column, frozenset(values))])


def interval(
    column: str,
    lo: float | None = None,
    hi: float | None = None,
    lo_inclusive: bool = True,
    hi_inclusive: bool = False,
) -> Predicate:
    """Convenience: an interval constraint as a one-clause predicate."""
    return Predicate([NumericClause(column, lo, hi, lo_inclusive, hi_inclusive)])


def _tidy(value: float) -> float | int:
    """Render integral floats as ints in generated SQL for readability."""
    if isinstance(value, float) and not math.isnan(value) and value.is_integer():
        return int(value)
    return value


def _fmt(value: float) -> str:
    tidied = _tidy(value)
    if isinstance(tidied, int):
        return str(tidied)
    return f"{value:.4g}"

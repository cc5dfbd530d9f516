"""Semantic analysis: bind a parsed SELECT against a table schema.

The planner validates the statement and produces a :class:`LogicalPlan`
the executor can run directly:

* every column reference must exist in the table schema;
* WHERE/HAVING must be boolean;
* every non-aggregate select item must match a GROUP BY expression
  (structural equality on the expression tree, like SQL engines do);
* aggregate arguments must be numeric (except ``count``, which accepts
  anything including ``*``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import PlanError, TypeMismatchError, UnknownColumnError
from .aggregates import Aggregate, get_aggregate
from .expr import ColumnRef, Expr
from .schema import Schema
from .sqlparse.ast_nodes import AggregateCall, SelectStatement, Star
from .types import ColumnType


@dataclass(frozen=True)
class AggSpec:
    """One aggregate output: the call, its implementation, its output name."""

    call: AggregateCall
    impl: Aggregate
    output_name: str


@dataclass(frozen=True)
class KeySpec:
    """One group-key output: the expression and its output name."""

    expr: Expr
    output_name: str
    ctype: ColumnType


@dataclass(frozen=True)
class LogicalPlan:
    """A validated, executable description of a SELECT statement."""

    statement: SelectStatement
    table_name: str
    keys: tuple[KeySpec, ...]
    aggs: tuple[AggSpec, ...]
    #: Output column order: each entry is ("key"|"agg", index into keys/aggs).
    output_order: tuple[tuple[str, int], ...] = field(default_factory=tuple)

    @property
    def is_aggregate_query(self) -> bool:
        """Whether the query computes any aggregates."""
        return bool(self.aggs)

    def output_names(self) -> tuple[str, ...]:
        """Output column names in SELECT order."""
        names = []
        for kind, index in self.output_order:
            if kind == "key":
                names.append(self.keys[index].output_name)
            else:
                names.append(self.aggs[index].output_name)
        return tuple(names)


def plan_select(statement: SelectStatement, schema: Schema) -> LogicalPlan:
    """Validate ``statement`` against ``schema`` and build a :class:`LogicalPlan`."""
    _check_columns_exist(statement, schema)
    if statement.where is not None:
        if statement.where.result_type(schema) is not ColumnType.BOOL:
            raise PlanError("WHERE clause must be a boolean expression")
    has_aggs = any(item.is_aggregate for item in statement.items)
    grouped = bool(statement.group_by)
    if grouped and not has_aggs:
        raise PlanError("GROUP BY without aggregates is not supported")
    if statement.having is not None and not has_aggs:
        raise PlanError("HAVING requires an aggregate query")

    keys: list[KeySpec] = []
    aggs: list[AggSpec] = []
    output_order: list[tuple[str, int]] = []
    used_names: set[str] = set()

    group_exprs = list(statement.group_by)
    if has_aggs:
        _plan_aggregate_items(statement, schema, group_exprs, keys, aggs, output_order, used_names)
    else:
        _plan_projection_items(statement, schema, keys, output_order, used_names)
    return LogicalPlan(
        statement=statement,
        table_name=statement.table,
        keys=tuple(keys),
        aggs=tuple(aggs),
        output_order=tuple(output_order),
    )


def _plan_aggregate_items(
    statement: SelectStatement,
    schema: Schema,
    group_exprs: list[Expr],
    keys: list[KeySpec],
    aggs: list[AggSpec],
    output_order: list[tuple[str, int]],
    used_names: set[str],
) -> None:
    key_index_by_expr: dict[Expr, int] = {}
    for item in statement.items:
        name = _unique_name(item.output_name(), used_names)
        if isinstance(item.value, AggregateCall):
            impl = get_aggregate(item.value.func)
            if not isinstance(item.value.arg, Star):
                arg_type = item.value.arg.result_type(schema)
                if item.value.func != "count" and not arg_type.is_numeric:
                    raise TypeMismatchError(
                        f"{item.value.func}() requires a numeric argument, got {arg_type}"
                    )
            elif item.value.func != "count":
                raise PlanError(f"{item.value.func}(*) is not valid; only count(*)")
            aggs.append(AggSpec(call=item.value, impl=impl, output_name=name))
            output_order.append(("agg", len(aggs) - 1))
        else:
            matched = None
            for index, group_expr in enumerate(group_exprs):
                if group_expr == item.value:
                    matched = index
                    break
            if matched is None:
                raise PlanError(
                    f"select item {item.value.to_sql()} must appear in GROUP BY"
                )
            if item.value in key_index_by_expr:
                output_order.append(("key", key_index_by_expr[item.value]))
                continue
            keys.append(
                KeySpec(
                    expr=item.value,
                    output_name=name,
                    ctype=item.value.result_type(schema),
                )
            )
            key_index_by_expr[item.value] = len(keys) - 1
            output_order.append(("key", len(keys) - 1))
    # GROUP BY expressions not in the select list still partition the data.
    for group_expr in group_exprs:
        if group_expr not in key_index_by_expr:
            name = _unique_name(_expr_name(group_expr), used_names)
            keys.append(
                KeySpec(
                    expr=group_expr,
                    output_name=name,
                    ctype=group_expr.result_type(schema),
                )
            )
            key_index_by_expr[group_expr] = len(keys) - 1


def _plan_projection_items(
    statement: SelectStatement,
    schema: Schema,
    keys: list[KeySpec],
    output_order: list[tuple[str, int]],
    used_names: set[str],
) -> None:
    for item in statement.items:
        assert not isinstance(item.value, AggregateCall)
        name = _unique_name(item.output_name(), used_names)
        keys.append(
            KeySpec(
                expr=item.value,
                output_name=name,
                ctype=item.value.result_type(schema),
            )
        )
        output_order.append(("key", len(keys) - 1))


def _check_columns_exist(statement: SelectStatement, schema: Schema) -> None:
    referenced: set[str] = set()
    for item in statement.items:
        if isinstance(item.value, AggregateCall):
            if not isinstance(item.value.arg, Star):
                referenced |= item.value.arg.columns()
        else:
            referenced |= item.value.columns()
    if statement.where is not None:
        referenced |= statement.where.columns()
    for expr in statement.group_by:
        referenced |= expr.columns()
    for name in sorted(referenced):
        if name not in schema:
            raise UnknownColumnError(name, schema.names)


def _unique_name(base: str, used: set[str]) -> str:
    name = base
    suffix = 2
    while name in used:
        name = f"{base}_{suffix}"
        suffix += 1
    used.add(name)
    return name


def _expr_name(expr: Expr) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    sql = expr.to_sql()
    safe = "".join(ch if (ch.isalnum() or ch == "_") else "_" for ch in sql)
    return safe.strip("_") or "key"

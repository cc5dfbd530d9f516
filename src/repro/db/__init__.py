"""``repro.db`` — the in-memory database substrate.

A column-store engine with stable tuple ids, a SQL dialect covering the
paper's aggregate GROUP BY queries, removable aggregates, and
fine-grained provenance capture. See DESIGN.md for why this substitutes
for the original demo's PostgreSQL backend.
"""

from .aggregates import AGGREGATE_NAMES, Aggregate, get_aggregate, is_aggregate_name
from .catalog import Database
from .csvio import read_csv, write_csv
from .executor import execute_plan
from .expr import (
    And,
    Arithmetic,
    Between,
    ColumnRef,
    Comparison,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
    Or,
    conjoin,
)
from .planner import LogicalPlan, plan_select
from .predicate import (
    CategoricalClause,
    Clause,
    NumericClause,
    Predicate,
    equals,
    in_set,
    interval,
)
from .provenance import CoarseProvenance, FineProvenance, OpNode
from .result import ResultSet
from .schema import Column, Schema
from .segments import (
    SegmentedValues,
    as_segments,
    segment_count,
    segment_count_batch,
    segment_max,
    segment_max_batch,
    segment_min,
    segment_min_batch,
    segment_stats_batch,
    segment_sum,
    segment_sum_batch,
)
from .sqlparse import SelectStatement, parse_select
from .store import (
    ColumnStore,
    GatherStore,
    InMemoryStore,
    MmapColumnStore,
    table_digest,
)
from .table import Table
from .types import ColumnType

__all__ = [
    "AGGREGATE_NAMES",
    "Aggregate",
    "And",
    "Arithmetic",
    "Between",
    "CategoricalClause",
    "Clause",
    "CoarseProvenance",
    "Column",
    "ColumnRef",
    "ColumnStore",
    "ColumnType",
    "Comparison",
    "Database",
    "GatherStore",
    "InMemoryStore",
    "MmapColumnStore",
    "Expr",
    "FineProvenance",
    "FuncCall",
    "InList",
    "IsNull",
    "Like",
    "Literal",
    "LogicalPlan",
    "Negate",
    "Not",
    "NumericClause",
    "OpNode",
    "Or",
    "Predicate",
    "ResultSet",
    "Schema",
    "SegmentedValues",
    "SelectStatement",
    "Table",
    "as_segments",
    "conjoin",
    "equals",
    "execute_plan",
    "get_aggregate",
    "in_set",
    "interval",
    "is_aggregate_name",
    "parse_select",
    "plan_select",
    "read_csv",
    "segment_count",
    "segment_count_batch",
    "segment_max",
    "segment_max_batch",
    "segment_min",
    "segment_min_batch",
    "segment_stats_batch",
    "segment_sum",
    "segment_sum_batch",
    "table_digest",
    "write_csv",
]

"""Query results: an output table plus its provenance and originating query."""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from .provenance import CoarseProvenance, FineProvenance
from .sqlparse.ast_nodes import SelectStatement
from .table import Table


class ResultSet:
    """The output of executing a SELECT.

    Wraps the output :class:`Table` (whose *tids are output row indexes*,
    not input tids) together with:

    * ``fine`` — fine-grained provenance: output row -> input tids,
    * ``coarse`` — the operator pipeline,
    * ``statement`` — the parsed query (used for rewriting),
    * ``group_key_names`` / ``aggregate_names`` — output column roles.
    """

    def __init__(
        self,
        output: Table,
        statement: SelectStatement,
        fine: FineProvenance,
        coarse: CoarseProvenance,
        group_key_names: tuple[str, ...],
        aggregate_names: tuple[str, ...],
        source: Table | None = None,
    ):
        self._output = output
        self.statement = statement
        self.fine = fine
        self.coarse = coarse
        self.group_key_names = group_key_names
        self.aggregate_names = aggregate_names
        #: The table the query scanned (before WHERE). Two executions of
        #: one query text over the same source object are equivalent —
        #: that identity keys the cross-session preprocess cache and the
        #: query memo inside ``Database.sql``.
        self.source = source if source is not None else fine.base

    @property
    def output(self) -> Table:
        """The result rows as a table."""
        return self._output

    @property
    def column_names(self) -> tuple[str, ...]:
        """Output column names in SELECT order."""
        return self._output.schema.names

    def column(self, name: str) -> np.ndarray:
        """One output column as an array."""
        return self._output.column(name)

    def __len__(self) -> int:
        return len(self._output)

    @property
    def num_rows(self) -> int:
        """Number of result rows."""
        return len(self._output)

    def row(self, index: int) -> tuple[Any, ...]:
        """Result row ``index`` as a tuple."""
        return self._output.row(index)

    def row_dict(self, index: int) -> dict[str, Any]:
        """Result row ``index`` as a dict."""
        return self._output.row_dict(index)

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over result rows as tuples."""
        return self._output.iter_rows()

    def lineage(self, row: int) -> np.ndarray:
        """Input tids behind result row ``row`` (fine-grained provenance)."""
        return self.fine.lineage(row)

    def lineage_table(self, row: int) -> Table:
        """Input tuples behind result row ``row`` as a table."""
        return self.fine.lineage_table(row)

    def inputs_for(self, rows: list[int] | np.ndarray) -> Table:
        """Union of input tuples behind several result rows (the paper's F)."""
        return self.fine.lineage_table_many(list(rows))

    def to_text(self, max_rows: int = 20) -> str:
        """Plain-text rendering of the result rows."""
        return self._output.to_text(max_rows=max_rows)

    def __repr__(self) -> str:
        return (
            f"ResultSet({len(self._output)} rows, "
            f"keys={list(self.group_key_names)}, aggs={list(self.aggregate_names)})"
        )

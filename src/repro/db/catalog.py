"""The database catalog: named tables plus the SQL entry point."""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from ..errors import StorageError, UnknownTableError
from .executor import execute_plan
from .planner import plan_select
from .result import ResultSet
from .schema import Schema
from .sqlparse.ast_nodes import SelectStatement
from .sqlparse.parser import parse_select
from .store import MANIFEST_NAME
from .table import Table
from .types import ColumnType


class Database:
    """A collection of named tables with a ``sql()`` query entry point.

    This stands in for the PostgreSQL instance of the original demo (see
    DESIGN.md substitutions): it executes the aggregate GROUP BY dialect
    with fine-grained provenance capture, which is all DBWipes requires
    of its backing store.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}

    # -- table management ------------------------------------------------

    def register(self, table: Table, name: str | None = None) -> Table:
        """Register a table under ``name`` (defaults to ``table.name``)."""
        name = name or table.name
        if not name:
            raise UnknownTableError("table must have a name to be registered")
        stored = table.rename(name)
        self._tables[name] = stored
        return stored

    def create_table(
        self,
        name: str,
        data: Mapping[str, Sequence[Any]],
        types: Mapping[str, ColumnType | str] | None = None,
    ) -> Table:
        """Create and register a table from ``{column: values}`` data."""
        table = Table.from_columns(data, types=types, name=name)
        return self.register(table)

    def create_from_rows(
        self, name: str, schema: Schema, rows: Iterable[Sequence[Any]]
    ) -> Table:
        """Create and register a table from row tuples."""
        table = Table.from_rows(schema, rows, name=name)
        return self.register(table)

    def table(self, name: str) -> Table:
        """Look up a registered table by name."""
        try:
            return self._tables[name]
        except KeyError:
            available = ", ".join(sorted(self._tables)) or "<none>"
            raise UnknownTableError(
                f"unknown table {name!r} (available: {available})"
            ) from None

    def drop(self, name: str) -> None:
        """Remove a table from the catalog."""
        self.table(name)
        del self._tables[name]

    @property
    def table_names(self) -> tuple[str, ...]:
        """Names of all registered tables, sorted."""
        return tuple(sorted(self._tables))

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # -- durable storage ---------------------------------------------------

    def save(self, directory: str | Path) -> "Database":
        """Persist every table as a columnar subdirectory of ``directory``.

        Refuses a table subdirectory that already exists. Returns a new
        database whose tables read from the just-written memory-mapped
        files, so a caller that keeps serving after a save serves the
        durable copy.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        out = Database()
        for name, table in sorted(self._tables.items()):
            out.register(table.save(directory / name), name)
        return out

    @classmethod
    def open(cls, directory: str | Path) -> "Database":
        """Open a database persisted by :meth:`save` (manifest reads only)."""
        directory = Path(directory)
        if not directory.is_dir():
            raise StorageError(f"{directory} is not a database directory")
        db = cls()
        for child in sorted(directory.iterdir()):
            if child.is_dir() and (child / MANIFEST_NAME).exists():
                db.register(Table.open(child), child.name)
        if not db._tables:
            raise StorageError(f"{directory} holds no table directories")
        return db

    # -- querying ----------------------------------------------------------

    def sql(self, query: str | SelectStatement) -> ResultSet:
        """Parse (if needed), plan, and execute a SELECT statement."""
        if isinstance(query, str):
            statement = parse_select(query)
        else:
            statement = query
        table = self.table(statement.table)
        plan = plan_select(statement, table.schema)
        return execute_plan(plan, table)

    execute = sql

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}[{len(table)}]" for name, table in sorted(self._tables.items())
        )
        return f"Database({parts})"

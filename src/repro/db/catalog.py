"""The database catalog: named tables plus the SQL entry point."""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..errors import StorageError, UnknownTableError
from ..obs.flags import enabled as obs_enabled
from ..obs.metrics import registry as obs_registry
from ..obs.trace import span as obs_span
from .executor import execute_plan
from .planner import plan_select
from .result import ResultSet
from .sqlparse.ast_nodes import SelectStatement
from .sqlparse.parser import parse_select
from .store import MANIFEST_NAME, GatherStore
from .table import Table
from .types import ColumnType

#: Byte budget of one database's query memo: the arrays its results pin
#: (see :func:`_pinned_bytes`). 8 MiB holds intel's base result (0.78 MB)
#: next to one applied result (3.85 MB, a 96k-row filtered base), or ten
#: FEC results (0.82 MB each). At 4 MiB the intel base and applied
#: results evict each other on every step; 16 MiB raised intel-sweep's
#: peak RSS by 17-21%.
QUERY_MEMO_MAX_BYTES = 8 * 1024 * 1024

_MEMO_HITS = "dbwipes_query_memo_hits_total"
_MEMO_MISSES = "dbwipes_query_memo_misses_total"
_MEMO_EVICTIONS = "dbwipes_query_memo_evictions_total"


def _pinned_bytes(result: ResultSet) -> int:
    """Bytes of the arrays a memoized result keeps alive.

    The output columns and tids, the lineage, and for a WHERE-filtered
    base its tids, gather positions and the columns gathered so far. An
    unfiltered base is the registered table itself, which the catalog
    pins anyway.
    """
    output = result.output
    total = output.tids.nbytes + result.fine.nbytes
    total += sum(output.store.column(name).nbytes for name in output.schema.names)
    base = result.fine.base
    if base is not result.source:
        total += base.tids.nbytes
        if isinstance(base.store, GatherStore):
            total += base.store.nbytes
    return total


class _ResultMemo:
    """A thread-safe LRU of result sets, bounded by :func:`_pinned_bytes`.

    Lookups and inserts hold one lock; the caller computes outside it,
    so two concurrent misses on one key may both compute (the first
    insert wins). A stored result is frozen first, because every later
    hit hands out the same arrays: its lineage arrays reject in-place
    writes, as its output columns (read-only views of the executor's
    arrays) already do.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        #: Bytes charged for the entries currently held.
        self.nbytes = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[ResultSet, int]] = OrderedDict()
        reg = obs_registry()
        self._m_hits = reg.counter(
            _MEMO_HITS, help="SQL statements answered from the query memo."
        )
        self._m_misses = reg.counter(
            _MEMO_MISSES, help="SQL statements planned and executed."
        )
        self._m_evictions = reg.counter(
            _MEMO_EVICTIONS, help="Query memo entries evicted by the byte bound."
        )

    def get(self, key: tuple) -> ResultSet | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if obs_enabled():
            (self._m_misses if entry is None else self._m_hits).inc()
        return None if entry is None else entry[0]

    def put(self, key: tuple, result: ResultSet) -> None:
        """Store ``result`` unless it alone exceeds the budget."""
        nbytes = _pinned_bytes(result)
        if nbytes > self.max_bytes:
            return
        result.fine.freeze()
        evicted = 0
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = (result, nbytes)
            self.nbytes += nbytes
            while self.nbytes > self.max_bytes:
                __, (__, size) = self._entries.popitem(last=False)
                self.nbytes -= size
                evicted += 1
        if evicted and obs_enabled():
            self._m_evictions.inc(evicted)

    def discard(self, table: Table) -> None:
        """Drop every entry computed over ``table``."""
        with self._lock:
            for key in [key for key in self._entries if key[0] is table]:
                self.nbytes -= self._entries.pop(key)[1]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class Database:
    """A collection of named tables with a ``sql()`` query entry point.

    This stands in for the PostgreSQL instance of the original demo (see
    DESIGN.md substitutions): it executes the aggregate GROUP BY dialect
    with fine-grained provenance capture, which is all DBWipes requires
    of its backing store.

    ``sql()`` answers a statement it has already run over the same
    registered table from a query memo, without planning or executing:
    the clean-as-you-query loop re-runs the query on every predicate
    click and every undo, and every session on a dataset shares its
    ``Database``. The memo key is the table object (held by reference,
    so a re-registered name misses) and ``statement.to_sql()``, never
    the :class:`SelectStatement` dataclass: literals compare by value,
    so ``m / 30`` and ``m / 30.0`` (integer against float division) or
    ``v > 1`` and ``v > TRUE`` are equal dataclasses, while ``to_sql()``
    renders them apart. The memo is an LRU bounded by the bytes its
    results pin (:data:`QUERY_MEMO_MAX_BYTES`); a result larger than
    the whole budget is returned but not stored. Stored results are
    read-only. ``register`` and ``drop`` discard the replaced table's
    entries.
    """

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._memo = _ResultMemo(QUERY_MEMO_MAX_BYTES)

    # -- table management ------------------------------------------------

    def register(self, table: Table, name: str | None = None) -> Table:
        """Register a table under ``name`` (defaults to ``table.name``)."""
        name = name or table.name
        if not name:
            raise UnknownTableError("table must have a name to be registered")
        stored = table.rename(name)
        replaced = self._tables.get(name)
        self._tables[name] = stored
        if replaced is not None:
            self._memo.discard(replaced)
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
        table = self.table(name)
        del self._tables[name]
        self._memo.discard(table)

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
        """Parse (if needed), plan, and execute a SELECT statement.

        A statement already run over the same table answers from the
        query memo (see the class docstring).
        """
        with obs_span("db.sql") as span:
            if isinstance(query, str):
                statement = parse_select(query)
            else:
                statement = query
            table = self.table(statement.table)
            key = (table, statement.to_sql())
            result = self._memo.get(key)
            span.set(source="computed" if result is None else "memo")
            if result is None:
                plan = plan_select(statement, table.schema)
                result = execute_plan(plan, table)
                self._memo.put(key, result)
                # A register or drop that swapped the table out while
                # this statement ran may have discarded before the put.
                if self._tables.get(statement.table) is not table:
                    self._memo.discard(table)
            return result

    execute = sql

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}[{len(table)}]" for name, table in sorted(self._tables.items())
        )
        return f"Database({parts})"

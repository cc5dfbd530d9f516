"""Column-store table with stable tuple identifiers.

Every row of a :class:`Table` carries an immutable tuple id (*tid*). All
higher layers — provenance, influence ranking, predicate evaluation, brush
selection, ground-truth labels — identify rows by tid, so filtering and
projection never invalidate references.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import SchemaError
from .schema import Column, Schema
from .store import (
    ColumnStore,
    GatherStore,
    MmapColumnStore,
    store_for_columns,
    table_digest,
)
from .types import ColumnType, coerce_array, infer_type, python_value


class Table:
    """An immutable, column-oriented table.

    Column arrays live behind a :class:`~repro.db.store.ColumnStore`
    (in-memory by default, memory-mapped for tables opened from disk);
    ``tids`` is a parallel int64 array of stable row identifiers. All
    transformation methods return new ``Table`` objects that share or
    lazily view the underlying storage when possible (copy-on-write
    style), so filters, projections, and slices are cheap.
    """

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray] | ColumnStore,
        tids: np.ndarray | None = None,
        name: str = "",
    ):
        self._schema = schema
        if isinstance(columns, ColumnStore):
            store = columns
            length = store.num_rows
        else:
            store, length = store_for_columns(schema, columns)
        self._store = store
        if tids is None:
            tids = np.arange(length, dtype=np.int64)
        else:
            tids = np.asarray(tids, dtype=np.int64)
            if len(tids) != length:
                raise SchemaError(f"{len(tids)} tids for {length} rows")
        self._tids = tids
        self._length = length
        self.name = name
        self._tid_index: dict[int, int] | None = None
        self._tid_sorted: tuple[np.ndarray, np.ndarray] | None = None
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Sequence[Any]],
        name: str = "",
    ) -> "Table":
        """Build a table from an iterable of row tuples matching ``schema``."""
        rows = list(rows)
        columns = {}
        for index, column in enumerate(schema):
            values = [row[index] for row in rows]
            columns[column.name] = coerce_array(values, column.ctype)
        return cls(schema, columns, name=name)

    @classmethod
    def from_dicts(
        cls,
        rows: Iterable[Mapping[str, Any]],
        schema: Schema | None = None,
        name: str = "",
    ) -> "Table":
        """Build a table from dict rows, inferring the schema if not given."""
        rows = list(rows)
        if schema is None:
            if not rows:
                raise SchemaError("cannot infer a schema from zero rows")
            names = list(rows[0].keys())
            columns_spec = []
            for column_name in names:
                ctype = infer_type(row.get(column_name) for row in rows)
                columns_spec.append(Column(column_name, ctype))
            schema = Schema(columns_spec)
        columns = {}
        for column in schema:
            values = [row.get(column.name) for row in rows]
            columns[column.name] = coerce_array(values, column.ctype)
        return cls(schema, columns, name=name)

    @classmethod
    def from_columns(
        cls,
        data: Mapping[str, Sequence[Any]],
        types: Mapping[str, ColumnType | str] | None = None,
        name: str = "",
    ) -> "Table":
        """Build a table from ``{name: values}`` with optional explicit types."""
        columns_spec = []
        arrays = {}
        for column_name, values in data.items():
            if types and column_name in types:
                ctype = types[column_name]
                if isinstance(ctype, str):
                    ctype = ColumnType(ctype)
            else:
                ctype = infer_type(values)
            columns_spec.append(Column(column_name, ctype))
            arrays[column_name] = coerce_array(values, ctype)
        return cls(Schema(columns_spec), arrays, name=name)

    # ------------------------------------------------------------------
    # durable storage
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, directory: str | Path) -> "Table":
        """Open a table persisted by :meth:`save` (reads only the manifest).

        Column bytes stay on disk behind ``mmap`` until first touched, so
        opening is O(manifest) regardless of table size.
        """
        return cls._from_store(MmapColumnStore.open(directory))

    def save(self, directory: str | Path) -> "Table":
        """Persist this table as a columnar directory: one ``.npy`` file
        per column behind a JSON manifest (see :mod:`repro.db.store`).

        Refuses a ``directory`` that already exists. Returns a new
        mmap-backed :class:`Table` reading from the just-written files —
        callers that keep serving after a save naturally serve the
        durable copy.
        """
        return Table._from_store(MmapColumnStore.write(self, directory))

    @classmethod
    def _from_store(cls, store: MmapColumnStore) -> "Table":
        table = cls(store.schema, store, tids=store.tids(), name=store.name)
        table._digest = store.digest
        return table

    def content_digest(self) -> str:
        """Digest of the table's logical content (schema + columns + tids).

        Identical for an in-memory table and its persisted/reopened copy;
        the manifest records it and ``store inspect`` reports it. For
        mmap-backed tables the digest comes straight from the manifest —
        no column bytes are read.
        """
        if self._digest is None:
            self._digest = table_digest(
                self._schema, self._store.column, self._tids
            )
        return self._digest

    @property
    def store(self) -> ColumnStore:
        """The backing column store (for storage-aware callers)."""
        return self._store

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table schema."""
        return self._schema

    @property
    def tids(self) -> np.ndarray:
        """Stable tuple ids, parallel to the column arrays (read-only view)."""
        view = self._tids.view()
        view.flags.writeable = False
        return view

    def __len__(self) -> int:
        return self._length

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return self._length

    def column(self, name: str) -> np.ndarray:
        """The storage array for a column (read-only view)."""
        self._schema.column(name)
        view = self._store.column(name).view()
        if view.flags.writeable:
            view.flags.writeable = False
        return view

    def __getitem__(self, name: str) -> np.ndarray:
        return self.column(name)

    def row(self, index: int) -> tuple[Any, ...]:
        """Row ``index`` as a tuple of Python values."""
        return tuple(
            python_value(self._store.column(name)[index])
            for name in self._schema.names
        )

    def row_dict(self, index: int) -> dict[str, Any]:
        """Row ``index`` as a ``{column: value}`` dict."""
        return dict(zip(self._schema.names, self.row(index)))

    def iter_rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over rows as tuples."""
        for index in range(self._length):
            yield self.row(index)

    def iter_dicts(self) -> Iterator[dict[str, Any]]:
        """Iterate over rows as dicts."""
        for index in range(self._length):
            yield self.row_dict(index)

    # ------------------------------------------------------------------
    # tid addressing
    # ------------------------------------------------------------------

    def _ensure_tid_index(self) -> dict[int, int]:
        if self._tid_index is None:
            self._tid_index = {int(tid): i for i, tid in enumerate(self._tids)}
        return self._tid_index

    def position_of(self, tid: int) -> int:
        """The row position holding tuple id ``tid``.

        Raises ``KeyError`` if the tid is not present in this table view.
        """
        return self._ensure_tid_index()[int(tid)]

    def positions_of(self, tids: Iterable[int]) -> np.ndarray:
        """Row positions for an iterable of tids, in the given order.

        Vectorized via binary search over a cached sorted-tid index, so
        bulk lookups (``take_tids`` over a whole lineage) avoid a
        Python-level loop. Raises ``KeyError`` on the first missing tid.
        """
        if isinstance(tids, np.ndarray):
            wanted = np.asarray(tids, dtype=np.int64)
        else:
            wanted = np.fromiter((int(t) for t in tids), dtype=np.int64)
        if len(wanted) == 0:
            return np.empty(0, dtype=np.int64)
        if self._length == 0:
            raise KeyError(int(wanted[0]))
        if self._tid_sorted is None:
            sorter = np.argsort(self._tids, kind="stable")
            self._tid_sorted = (sorter, self._tids[sorter])
        sorter, sorted_tids = self._tid_sorted
        pos = np.searchsorted(sorted_tids, wanted)
        pos = np.minimum(pos, len(sorted_tids) - 1)
        found = sorted_tids[pos] == wanted
        if not bool(found.all()):
            raise KeyError(int(wanted[~found][0]))
        return sorter[pos]

    def contains_tid(self, tid: int) -> bool:
        """Whether ``tid`` is present in this table view."""
        return int(tid) in self._ensure_tid_index()

    def take_tids(self, tids: Iterable[int]) -> "Table":
        """A new table holding exactly the rows with the given tids, in order."""
        return self.take(self.positions_of(tids))

    # ------------------------------------------------------------------
    # transformations (all return new tables, preserving tids)
    # ------------------------------------------------------------------

    def take(self, positions: np.ndarray | Sequence[int]) -> "Table":
        """Rows at the given positions, preserving their tids.

        The gather is lazy per column: a projection-heavy consumer of a
        wide (or mmap-backed) table only pays for the columns it reads.
        """
        positions = np.asarray(positions, dtype=np.int64)
        store = GatherStore(self._store, positions)
        return Table(self._schema, store, tids=self._tids[positions], name=self.name)

    def filter(self, mask: np.ndarray) -> "Table":
        """Rows where the boolean ``mask`` is True, preserving tids."""
        mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._length:
            raise SchemaError(f"mask length {len(mask)} != table length {self._length}")
        return self.take(np.flatnonzero(mask))

    def exclude_tids(self, tids: Iterable[int]) -> "Table":
        """Rows whose tid is *not* in the given collection."""
        drop = set(int(t) for t in tids)
        mask = np.fromiter(
            (int(t) not in drop for t in self._tids), dtype=bool, count=self._length
        )
        return self.filter(mask)

    def project(self, names: Sequence[str]) -> "Table":
        """Only the named columns, preserving row order and tids.

        Zero-copy: the projected table shares this table's store and
        simply restricts its schema to ``names``.
        """
        schema = self._schema.project(names)
        return Table(schema, self._store, tids=self._tids, name=self.name)

    def with_column(self, column: Column, values: np.ndarray | Sequence[Any]) -> "Table":
        """A new table with an extra column appended."""
        array = np.asarray(values)
        if array.dtype != column.ctype.numpy_dtype:
            array = coerce_array(list(values), column.ctype)
        schema = self._schema.extend([column])
        columns = {name: self._store.column(name) for name in self._schema.names}
        columns[column.name] = array
        return Table(schema, columns, tids=self._tids, name=self.name)

    def rename(self, name: str) -> "Table":
        """The same table under a different name (the digest excludes it)."""
        table = Table(self._schema, self._store, tids=self._tids, name=name)
        table._digest = self._digest
        return table

    def concat(self, other: "Table") -> "Table":
        """Rows of ``self`` followed by rows of ``other`` (schemas must match).

        Tids are preserved; callers are responsible for keeping them unique.
        """
        if self._schema != other._schema:
            raise SchemaError("cannot concat tables with different schemas")
        columns = {
            name: np.concatenate(
                [self._store.column(name), other._store.column(name)]
            )
            for name in self._schema.names
        }
        tids = np.concatenate([self._tids, other._tids])
        return Table(self._schema, columns, tids=tids, name=self.name)

    def sort_by(self, name: str, descending: bool = False) -> "Table":
        """Rows sorted by one column (stable sort), preserving tids."""
        array = self._store.column(self._schema.column(name).name)
        order = np.argsort(array, kind="stable")
        if descending:
            order = order[::-1]
        return self.take(order)

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------

    def head(self, n: int = 10) -> "Table":
        """The first ``n`` rows."""
        return self.take(np.arange(min(n, self._length), dtype=np.int64))

    def to_text(self, max_rows: int = 20) -> str:
        """A plain-text rendering of the table (for terminals and docs)."""
        names = ("tid",) + self._schema.names
        shown = min(max_rows, self._length)
        rows = []
        for index in range(shown):
            row = (str(int(self._tids[index])),) + tuple(
                _format_cell(value) for value in self.row(index)
            )
            rows.append(row)
        widths = [len(name) for name in names]
        for row in rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        header = " | ".join(name.ljust(widths[i]) for i, name in enumerate(names))
        rule = "-+-".join("-" * width for width in widths)
        body = [
            " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            for row in rows
        ]
        footer = []
        if shown < self._length:
            footer.append(f"... ({self._length - shown} more rows)")
        return "\n".join([header, rule, *body, *footer])

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"Table({label!r}, {self._length} rows, {len(self._schema)} cols)"


def _format_cell(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, float):
        if np.isnan(value):
            return "NULL"
        return f"{value:.4g}"
    return str(value)

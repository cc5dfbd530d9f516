"""Pluggable column storage: in-memory arrays or one mapped file per column.

A :class:`~repro.db.table.Table` is a schema plus tids plus *somewhere
the column arrays live*. This module is that somewhere, split behind a
small :class:`ColumnStore` interface so the rest of the engine never
knows (or cares) which physical representation backs a table:

* :class:`InMemoryStore` — the original representation: one numpy array
  per column, fully resident. Still the reference implementation and
  the default for every constructed table.
* :class:`MmapColumnStore` — a durable on-disk layout: each column is
  one ``.npy`` file opened with ``mmap_mode="r"``, behind a JSON
  manifest recording the schema, each column's file and a content
  digest. Opening a table reads only the manifest; a column's file is
  mapped on its first read (and only for the columns a query actually
  references), so a restarted server starts from warm page cache
  instead of regenerating data.
* :class:`GatherStore` — the lazy derived view used by
  ``Table.take``/``filter``: a filter of a mapped table gathers a
  column only when that column is first read.

String columns cannot be memory-mapped as numpy object arrays, so they
are **dictionary-encoded** on write: an ``int64`` code per row (−1 for
NULL) in the column's ``.npy`` file, plus a ``.values.json`` sidecar
listing the values in first-occurrence order. The encoding is
deterministic, which makes the content digest of a table identical
whether computed from the in-memory original or the reopened mmap copy;
the manifest records it, so a reopened table is never re-hashed.

Atomicity: every table directory is staged into a ``*.tmp-<pid>-*``
sibling and published with one ``os.replace``/``os.rename`` — concurrent
writers (forked workers racing to persist the same dataset) each
produce a complete staging copy and the first rename wins; losers
discard their staging copy and read the winner's. A reader never
observes a half-written table.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from ..errors import SchemaError, StorageError, TypeMismatchError
from .schema import Column, Schema
from .types import ColumnType, dict_decode, dict_encode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .table import Table

__all__ = [
    "ColumnStore",
    "GatherStore",
    "InMemoryStore",
    "MmapColumnStore",
    "store_for_columns",
    "table_digest",
]

#: Manifest format tag; bump on any incompatible layout change.
STORE_FORMAT = "dbwipes-columnar/2"

MANIFEST_NAME = "manifest.json"


class ColumnStore:
    """Where a table's column arrays physically live.

    The interface is deliberately small — the :class:`Table` layer
    provides all row/tid semantics; a store only answers *give me the
    array for this column* (``column``) and *how many rows*
    (``num_rows``).
    """

    #: Number of rows every column of this store holds.
    num_rows: int

    def column(self, name: str) -> np.ndarray:
        """The full array for ``name`` (may materialize lazily)."""
        raise NotImplementedError

    def has_column(self, name: str) -> bool:
        """Whether this store physically holds a column called ``name``."""
        raise NotImplementedError

    def gather(self, name: str, positions: np.ndarray) -> np.ndarray:
        """The column's values at ``positions`` (a :class:`GatherStore` read)."""
        return self.column(name)[positions]


class InMemoryStore(ColumnStore):
    """The reference store: a plain dict of resident numpy arrays."""

    def __init__(self, columns: Mapping[str, np.ndarray], num_rows: int):
        self._columns = dict(columns)
        self.num_rows = num_rows

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def has_column(self, name: str) -> bool:
        return name in self._columns


class GatherStore(ColumnStore):
    """A lazy row-subset view: ``base.gather(name, positions)`` on demand.

    ``Table.take``/``filter`` build one of these instead of eagerly
    copying every column: a projection-heavy pipeline over a wide table
    gathers only the columns it touches. Chained gathers compose their
    position arrays immediately, so undo/redo stacks of filters never
    build deep view chains.
    """

    def __init__(self, base: ColumnStore, positions: np.ndarray):
        positions = np.asarray(positions, dtype=np.int64)
        if isinstance(base, GatherStore):
            positions = base._positions[positions]
            base = base._base
        self._base = base
        self._positions = positions
        self._cache: dict[str, np.ndarray] = {}
        self.num_rows = len(positions)

    def column(self, name: str) -> np.ndarray:
        array = self._cache.get(name)
        if array is None:
            array = self._base.gather(name, self._positions)
            self._cache[name] = array
        return array

    def has_column(self, name: str) -> bool:
        return self._base.has_column(name)

    @property
    def nbytes(self) -> int:
        """Bytes of the position array plus the columns gathered so far."""
        gathered = list(self._cache.values())
        return self._positions.nbytes + sum(array.nbytes for array in gathered)


class MmapColumnStore(ColumnStore):
    """One ``.npy`` file per column behind a JSON manifest.

    Open with :meth:`open` (reads only the manifest), write with
    :meth:`write` (stages then atomically renames). A numeric or boolean
    column is its file's zero-copy ``mmap``; a string column decodes its
    mapped codes with its ``.values.json`` sidecar on first access, and
    a gather of it decodes only the gathered rows. A file that is
    missing, corrupt, or not ``num_rows`` values of the column's type
    raises :class:`StorageError` naming it.
    """

    def __init__(self, directory: str | Path, manifest: dict):
        self.directory = Path(directory)
        self.manifest = manifest
        self.num_rows = int(manifest["n_rows"])
        self._specs = {spec["name"]: spec for spec in manifest["columns"]}
        #: The persisted schema, reconstructed from the manifest.
        self.schema = Schema(
            [
                Column(spec["name"], ColumnType(spec["type"]))
                for spec in manifest["columns"]
            ]
        )
        self._cache: dict[str, np.ndarray] = {}
        #: ``(mapped codes, values)`` of a STR column that only gathers
        #: have read so far; checked against each other once.
        self._dictionaries: dict[str, tuple[np.ndarray, list]] = {}
        self._tids: np.ndarray | None = None

    # -- opening -------------------------------------------------------

    @classmethod
    def open(cls, directory: str | Path) -> "MmapColumnStore":
        """Open a persisted table directory; reads only the manifest."""
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        try:
            with manifest_path.open() as handle:
                manifest = json.load(handle)
        except FileNotFoundError:
            raise StorageError(
                f"{directory} is not a table directory (no {MANIFEST_NAME})"
            ) from None
        except (OSError, ValueError) as error:
            raise StorageError(f"cannot read {manifest_path}: {error}") from None
        found = manifest.get("format") if isinstance(manifest, dict) else None
        if found != STORE_FORMAT:
            raise StorageError(
                f"{manifest_path} has format {found!r}, expected {STORE_FORMAT!r}"
            )
        try:
            return cls(directory, manifest)
        except (KeyError, TypeError, ValueError) as error:
            raise StorageError(
                f"{manifest_path} is malformed: {type(error).__name__}: {error}"
            ) from None

    @property
    def name(self) -> str:
        """The persisted table name."""
        return self.manifest.get("name", "")

    @property
    def digest(self) -> str:
        """Content digest recorded at write time (see :func:`table_digest`)."""
        return self.manifest["digest"]

    def tids(self) -> np.ndarray:
        """The persisted tid array (mmapped; loaded once per store)."""
        if self._tids is None:
            self._tids = self._load(self.manifest["tids"], np.dtype(np.int64))
        return self._tids

    # -- reading -------------------------------------------------------

    def has_column(self, name: str) -> bool:
        return name in self._specs

    def column(self, name: str) -> np.ndarray:
        array = self._cache.get(name)
        if array is None:
            spec = self._specs[name]
            ctype = ColumnType(spec["type"])
            if ctype is ColumnType.STR:
                array = dict_decode(*self._dictionary(name))
                # The decoded column serves every later read and gather.
                self._dictionaries.pop(name, None)
            else:
                array = self._load(spec["file"], ctype.numpy_dtype)
            self._cache[name] = array
        return array

    def _load(self, file_name: str, dtype: np.dtype) -> np.ndarray:
        """Map one ``.npy`` file holding ``num_rows`` values of ``dtype``."""
        path = self.directory / file_name
        try:
            array = np.load(path, mmap_mode="r")
        except (OSError, ValueError) as error:
            raise StorageError(f"cannot read {path}: {error}") from None
        if array.dtype != dtype or array.shape != (self.num_rows,):
            raise StorageError(
                f"{path} holds {array.dtype} of shape {array.shape}, "
                f"expected {dtype} of shape ({self.num_rows},)"
            )
        return array

    def gather(self, name: str, positions: np.ndarray) -> np.ndarray:
        """A STR column not yet decoded whole decodes only ``positions``."""
        spec = self._specs[name]
        if name in self._cache or ColumnType(spec["type"]) is not ColumnType.STR:
            return self.column(name)[positions]
        codes, values = self._dictionary(name)
        return dict_decode(codes[positions], values)

    def _dictionary(self, name: str) -> tuple[np.ndarray, list]:
        """A STR column's mapped codes and its values sidecar, checked
        against each other when first read."""
        cached = self._dictionaries.get(name)
        if cached is not None:
            return cached
        spec = self._specs[name]
        codes = self._load(spec["file"], np.dtype(np.int64))
        path = self.directory / spec["values"]
        try:
            with path.open() as handle:
                values = json.load(handle)
        except (OSError, ValueError) as error:
            raise StorageError(f"cannot read {path}: {error}") from None
        if not isinstance(values, list):
            raise StorageError(f"{path} holds no list of values")
        if len(codes) and (codes.min() < -1 or codes.max() >= len(values)):
            raise StorageError(
                f"{self.directory / spec['file']} holds codes outside "
                f"the {len(values)} values of {path}"
            )
        self._dictionaries[name] = (codes, values)
        return codes, values

    # -- writing -------------------------------------------------------

    @classmethod
    def write(cls, table: "Table", directory: str | Path) -> "MmapColumnStore":
        """Persist ``table`` into ``directory`` and return the new store.

        Refuses a ``directory`` that already exists. Stages every file in
        a ``<directory>.tmp-<pid>`` sibling and publishes with one atomic
        rename, so a crash mid-write leaves at worst a stale staging
        directory — never a readable-but-partial table. When two
        processes race to persist the same table, the first rename wins
        and the loser adopts the winner's copy (the content digest
        guarantees they are identical).
        """
        directory = Path(directory)
        if directory.exists():
            raise StorageError(f"{directory} already exists")
        staging = directory.parent / f"{directory.name}.tmp-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            cls._write_files(table, staging)
            try:
                os.rename(staging, directory)
            except OSError:
                # Lost a persist race: another process published a
                # byte-identical copy first. Adopt it.
                if not (directory / MANIFEST_NAME).exists():
                    raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return cls.open(directory)

    @staticmethod
    def _write_files(table: "Table", directory: Path) -> None:
        """Column ``i`` goes to ``c<i>.npy`` (and ``c<i>.values.json``), so
        no column name can collide with ``tids.npy`` or the manifest."""
        column_specs = []
        for index, column in enumerate(table.schema):
            array = table.column(column.name)
            spec = {
                "name": column.name,
                "type": column.ctype.value,
                "file": f"c{index}.npy",
            }
            if column.ctype is ColumnType.STR:
                array, values = dict_encode(array)
                spec["values"] = f"c{index}.values.json"
                with (directory / spec["values"]).open("w") as handle:
                    json.dump(values, handle)
            np.save(directory / spec["file"], np.ascontiguousarray(array))
            column_specs.append(spec)
        np.save(directory / "tids.npy", np.ascontiguousarray(table.tids))
        manifest = {
            "format": STORE_FORMAT,
            "name": table.name,
            "n_rows": len(table),
            "digest": table.content_digest(),
            "tids": "tids.npy",
            "columns": column_specs,
        }
        with (directory / MANIFEST_NAME).open("w") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)

    def describe(self) -> dict:
        """A JSON-safe summary for the inspect CLI / ``storage`` command."""
        total_bytes = 0
        for path in self.directory.iterdir():
            if path.is_file():
                total_bytes += path.stat().st_size
        return {
            "name": self.name,
            "rows": self.num_rows,
            "columns": [
                {"name": spec["name"], "type": spec["type"], "file": spec["file"]}
                for spec in self.manifest["columns"]
            ],
            "digest": self.digest,
            "bytes": total_bytes,
        }


def table_digest(schema: Schema, columns, tids: np.ndarray) -> str:
    """Content digest of a table's logical values (blake2b-128 hex).

    Canonical over the *logical* content, not the physical layout:
    numeric/bool columns hash their C-contiguous bytes, string columns
    hash their deterministic dictionary encoding. The digest of an
    in-memory table therefore equals the digest of its mmap round-trip.
    """
    h = hashlib.blake2b(digest_size=16)
    for column in schema:
        h.update(column.name.encode())
        h.update(column.ctype.value.encode())
        array = columns(column.name)
        if column.ctype is ColumnType.STR:
            codes, values = dict_encode(array)
            h.update(np.ascontiguousarray(codes).tobytes())
            h.update(json.dumps(values).encode())
        else:
            h.update(np.ascontiguousarray(array).tobytes())
    h.update(np.ascontiguousarray(np.asarray(tids, dtype=np.int64)).tobytes())
    return h.hexdigest()


def store_for_columns(
    schema: Schema, columns: Mapping[str, np.ndarray]
) -> tuple[InMemoryStore, int]:
    """Validate a ``{name: array}`` mapping and wrap it as a store.

    Every schema column must be present, hold its type's numpy dtype,
    and be as long as the others.
    """
    out: dict[str, np.ndarray] = {}
    length: int | None = None
    for column in schema:
        try:
            array = columns[column.name]
        except KeyError:
            raise SchemaError(f"missing data for column {column.name!r}") from None
        array = np.asarray(array)
        expected = column.ctype.numpy_dtype
        if array.dtype != expected:
            raise TypeMismatchError(
                f"column {column.name!r} has dtype {array.dtype}, "
                f"expected {expected}"
            )
        if length is None:
            length = len(array)
        elif len(array) != length:
            raise SchemaError(
                f"column {column.name!r} has {len(array)} rows, "
                f"expected {length}"
            )
        out[column.name] = array
    if length is None:
        length = 0
    return InMemoryStore(out, length), length

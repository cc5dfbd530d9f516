"""Pluggable column storage: in-memory arrays or memory-mapped chunks.

A :class:`~repro.db.table.Table` is a schema plus tids plus *somewhere
the column arrays live*. This module is that somewhere, split behind a
small :class:`ColumnStore` interface so the rest of the engine never
knows (or cares) which physical representation backs a table:

* :class:`InMemoryStore` — the original representation: one numpy array
  per column, fully resident. Still the reference implementation and
  the default for every constructed table.
* :class:`MmapColumnStore` — a durable on-disk layout: each column is a
  sequence of ``.npy`` chunk files opened with ``mmap_mode="r"`` plus a
  JSON manifest recording schema, chunk layout, and a content digest.
  Opening a table reads only the manifest; column bytes fault in on
  first touch (and only for the columns a query actually references),
  so datasets much larger than RAM open in milliseconds and a restarted
  server starts from warm page cache instead of regenerating data.
* :class:`GatherStore` — the lazy derived view used by
  ``Table.take``/``filter``: a filter of a 10M-row mmap table gathers a
  column only when that column is first read.

String columns cannot be memory-mapped as numpy object arrays, so they
are **dictionary-encoded** on write: an ``int64`` code per row (−1 for
NULL) plus a JSON value list in first-occurrence order. The encoding is
deterministic, which makes the content digest of a table identical
whether computed from the in-memory original or the reopened mmap copy
— that digest keys the persisted preprocess artifacts, so cache entries
written before a restart are found after it.

Atomicity: every writer (table directories here, preprocess artifacts
in :mod:`repro.core.artifacts`) stages into a ``*.tmp-<pid>-*`` sibling
and publishes with one ``os.replace``/``os.rename`` — concurrent
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
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from ..errors import SchemaError, StorageError
from .schema import Column, Schema
from .segments import blocked_ranges
from .types import ColumnType, dict_decode, dict_encode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .table import Table

__all__ = [
    "ColumnStore",
    "GatherStore",
    "InMemoryStore",
    "MmapColumnStore",
    "blocked_ranges",
    "store_for_columns",
    "table_digest",
]

#: Manifest format tag; bump on any incompatible layout change.
STORE_FORMAT = "dbwipes-columnar/1"

#: Default rows per column chunk (~8 MB of float64 per chunk).
DEFAULT_CHUNK_ROWS = 1_048_576

MANIFEST_NAME = "manifest.json"


class ColumnStore:
    """Where a table's column arrays physically live.

    The interface is deliberately small — the :class:`Table` layer
    provides all row/tid semantics; a store only answers *give me the
    array for this column* (``column``), *give me rows [lo, hi) of it*
    (``row_block``, which a chunked store can serve without assembling
    the whole column), and *how many rows* (``num_rows``).
    """

    #: Number of rows every column of this store holds.
    num_rows: int

    def column(self, name: str) -> np.ndarray:
        """The full array for ``name`` (may materialize lazily)."""
        raise NotImplementedError

    def row_block(self, name: str, lo: int, hi: int) -> np.ndarray:
        """Rows ``[lo, hi)`` of a column, reading as little as possible."""
        raise NotImplementedError

    def has_column(self, name: str) -> bool:
        """Whether this store physically holds a column called ``name``."""
        raise NotImplementedError


class InMemoryStore(ColumnStore):
    """The reference store: a plain dict of resident numpy arrays."""

    def __init__(self, columns: Mapping[str, np.ndarray], num_rows: int):
        self._columns = dict(columns)
        self.num_rows = num_rows

    def column(self, name: str) -> np.ndarray:
        return self._columns[name]

    def row_block(self, name: str, lo: int, hi: int) -> np.ndarray:
        return self._columns[name][lo:hi]

    def has_column(self, name: str) -> bool:
        return name in self._columns


class GatherStore(ColumnStore):
    """A lazy row-subset view: ``base.column(name)[positions]`` on demand.

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
            array = self._base.column(name)[self._positions]
            self._cache[name] = array
        return array

    def row_block(self, name: str, lo: int, hi: int) -> np.ndarray:
        return self.column(name)[lo:hi]

    def has_column(self, name: str) -> bool:
        return self._base.has_column(name)


class MmapColumnStore(ColumnStore):
    """Chunked per-column ``.npy`` files behind a JSON manifest.

    Open with :meth:`open` (reads only the manifest), write with
    :meth:`write` (stages then atomically renames). Numeric and boolean
    columns are served as ``numpy.memmap`` views — a single-chunk column
    is exactly one zero-copy mmap; multi-chunk columns concatenate
    lazily on first full-column access and the result is cached, while
    :meth:`row_block` touches only the chunks overlapping ``[lo, hi)``.
    String columns materialize from their dictionary encoding on first
    access (codes stay mmapped until then).
    """

    def __init__(self, directory: str | Path, manifest: dict):
        self.directory = Path(directory)
        self.manifest = manifest
        self.num_rows = int(manifest["n_rows"])
        self.chunk_rows = int(manifest["chunk_rows"])
        self._specs = {spec["name"]: spec for spec in manifest["columns"]}
        self._cache: dict[str, np.ndarray] = {}
        self._chunk_cache: dict[tuple[str, int], np.ndarray] = {}
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
        except (OSError, json.JSONDecodeError) as error:
            raise StorageError(f"cannot read {manifest_path}: {error}") from None
        if manifest.get("format") != STORE_FORMAT:
            raise StorageError(
                f"{manifest_path} has format {manifest.get('format')!r}, "
                f"expected {STORE_FORMAT!r}"
            )
        return cls(directory, manifest)

    @property
    def schema(self) -> Schema:
        """The persisted schema, reconstructed from the manifest."""
        return Schema(
            [
                Column(spec["name"], ColumnType(spec["type"]))
                for spec in self.manifest["columns"]
            ]
        )

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
            self._tids = np.load(
                self.directory / self.manifest["tids"], mmap_mode="r"
            )
        return self._tids

    # -- reading -------------------------------------------------------

    def has_column(self, name: str) -> bool:
        return name in self._specs

    def _load_chunk(self, name: str, index: int) -> np.ndarray:
        key = (name, index)
        chunk = self._chunk_cache.get(key)
        if chunk is None:
            spec = self._specs[name]
            chunk = np.load(self.directory / spec["chunks"][index], mmap_mode="r")
            self._chunk_cache[key] = chunk
        return chunk

    def _values(self, spec: dict) -> list:
        values = spec.get("_values")
        if values is None:
            with (self.directory / spec["values"]).open() as handle:
                values = json.load(handle)
            spec["_values"] = values
        return values

    def column(self, name: str) -> np.ndarray:
        array = self._cache.get(name)
        if array is not None:
            return array
        spec = self._specs[name]
        n_chunks = len(spec["chunks"])
        if spec["type"] == ColumnType.STR.value:
            codes = self._codes(name, 0, self.num_rows)
            array = dict_decode(codes, self._values(spec))
        elif n_chunks == 1:
            array = self._load_chunk(name, 0)
        else:
            array = np.concatenate(
                [self._load_chunk(name, i) for i in range(n_chunks)]
            )
        self._cache[name] = array
        return array

    def _codes(self, name: str, lo: int, hi: int) -> np.ndarray:
        """Raw dictionary codes for rows [lo, hi) of a STR column."""
        return self._numeric_block(name, lo, hi)

    def _numeric_block(self, name: str, lo: int, hi: int) -> np.ndarray:
        first = lo // self.chunk_rows
        last = max(first, (hi - 1) // self.chunk_rows) if hi > lo else first
        parts = []
        for index in range(first, last + 1):
            chunk = self._load_chunk(name, index)
            base = index * self.chunk_rows
            parts.append(chunk[max(0, lo - base) : max(0, hi - base)])
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def row_block(self, name: str, lo: int, hi: int) -> np.ndarray:
        cached = self._cache.get(name)
        if cached is not None:
            return cached[lo:hi]
        spec = self._specs[name]
        if spec["type"] == ColumnType.STR.value:
            return dict_decode(self._codes(name, lo, hi), self._values(spec))
        return self._numeric_block(name, lo, hi)

    # -- writing -------------------------------------------------------

    @classmethod
    def write(
        cls,
        table: "Table",
        directory: str | Path,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        overwrite: bool = False,
    ) -> "MmapColumnStore":
        """Persist ``table`` into ``directory`` and return the new store.

        Stages every file in a ``<directory>.tmp-<pid>`` sibling and
        publishes with one atomic rename, so a crash mid-write leaves at
        worst a stale staging directory — never a readable-but-partial
        table. When two processes race to persist the same table, the
        first rename wins and the loser adopts the winner's copy (the
        content digest guarantees they are identical).
        """
        directory = Path(directory)
        if directory.exists():
            if not overwrite:
                raise StorageError(
                    f"{directory} already exists; pass overwrite=True to replace"
                )
            shutil.rmtree(directory)
        staging = directory.parent / f"{directory.name}.tmp-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir(parents=True)
        try:
            manifest = cls._write_files(table, staging, chunk_rows)
            directory.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(staging, directory)
            except OSError:
                if (directory / MANIFEST_NAME).exists():
                    # Lost a persist race: another process published a
                    # byte-identical copy first. Adopt it.
                    shutil.rmtree(staging, ignore_errors=True)
                else:
                    raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        return cls.open(directory)

    @staticmethod
    def _write_files(table: "Table", directory: Path, chunk_rows: int) -> dict:
        if chunk_rows < 1:
            raise StorageError("chunk_rows must be >= 1")
        schema = table.schema
        n_rows = len(table)
        column_specs = []
        for column in schema:
            array = table.column(column.name)
            spec: dict = {"name": column.name, "type": column.ctype.value}
            if column.ctype is ColumnType.STR:
                codes, values = dict_encode(array)
                values_file = f"{column.name}.values.json"
                with (directory / values_file).open("w") as handle:
                    json.dump(values, handle)
                spec["values"] = values_file
                array = codes
            chunks = []
            for i, (lo, hi) in enumerate(blocked_ranges(n_rows, chunk_rows)):
                chunk_file = f"{column.name}.c{i:05d}.npy"
                np.save(directory / chunk_file, np.ascontiguousarray(array[lo:hi]))
                chunks.append(chunk_file)
            spec["chunks"] = chunks
            column_specs.append(spec)
        np.save(directory / "tids.npy", np.ascontiguousarray(table.tids))
        manifest = {
            "format": STORE_FORMAT,
            "name": table.name,
            "n_rows": n_rows,
            "chunk_rows": int(chunk_rows),
            "digest": table.content_digest(),
            "tids": "tids.npy",
            "columns": column_specs,
        }
        manifest_path = directory / MANIFEST_NAME
        with manifest_path.open("w") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
        return manifest

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
                {
                    "name": spec["name"],
                    "type": spec["type"],
                    "chunks": len(spec["chunks"]),
                }
                for spec in self.manifest["columns"]
            ],
            "chunk_rows": self.chunk_rows,
            "digest": self.digest,
            "bytes": total_bytes,
        }


def table_digest(
    schema: Schema, columns, tids: np.ndarray, precomputed: str | None = None
) -> str:
    """Content digest of a table's logical values (blake2b-128 hex).

    Canonical over the *logical* content, not the physical layout:
    numeric/bool columns hash their C-contiguous bytes, string columns
    hash their deterministic dictionary encoding. The digest of an
    in-memory table therefore equals the digest of its mmap round-trip,
    which is what lets preprocess artifacts persisted before a restart
    be found after it (the artifact key starts with this digest).
    """
    if precomputed is not None:
        return precomputed
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
    schema: Schema, columns: Mapping[str, np.ndarray], validate: bool = True
) -> tuple[InMemoryStore, int]:
    """Validate a ``{name: array}`` mapping and wrap it as a store.

    The dtype/length checks previously inlined in ``Table.__init__``;
    they apply only to caller-supplied mappings — store-backed
    construction trusts the manifest (validating would defeat lazy
    opening by materializing every column).
    """
    from ..errors import TypeMismatchError

    out: dict[str, np.ndarray] = {}
    length: int | None = None
    for column in schema:
        try:
            array = columns[column.name]
        except KeyError:
            raise SchemaError(f"missing data for column {column.name!r}") from None
        array = np.asarray(array)
        if validate:
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
        elif length is None:
            length = len(array)
        out[column.name] = array
    if length is None:
        length = 0
    return InMemoryStore(out, length), length

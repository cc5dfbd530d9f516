"""Shared read-only state of the service: datasets and preprocess work.

Two levels of sharing make N concurrent sessions cheap:

* :class:`DatasetCatalog` — one :class:`~repro.db.Database` (and thus
  one :class:`~repro.db.table.Table`) per named dataset, built lazily
  and handed to every session that opens on that dataset. Because the
  base table is a shared object, downstream caches can key on object
  identity.
* :class:`~repro.core.preprocessor.PreprocessCache` (re-exported here)
  — one :class:`~repro.core.preprocessor.PreprocessResult` per
  (table, query, S, ε, aggregate), shared across sessions. The cached
  result carries the per-column memos that ride on it — segmented
  aggregates, numeric casts, frequency edges, and the tree-induction
  :class:`~repro.learn.split_index.SplitIndex` — so N sessions
  debugging the same selection share one threshold/bin derivation, not
  just one influence pass.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from functools import partial
from pathlib import Path
from typing import Callable

from ..core.preprocessor import PreprocessCache, preprocess_key
from ..data import BOOTSTRAP_QUERIES, load_dataset
from ..db import Database
from ..errors import ServiceError, StorageError

__all__ = [
    "DatasetCatalog",
    "PreprocessCache",
    "preprocess_key",
]

#: Environment variable pointing at the durable data directory. Set by
#: ``serve --data-dir`` before forking so worker processes inherit it.
DATA_DIR_ENV = "REPRO_DATA_DIR"


class DatasetCatalog:
    """Named, lazily built, shared databases — optionally durable.

    A builder runs at most once per process; every session opened on the
    dataset receives the *same* :class:`~repro.db.Database` object. The
    backing tables are treated as read-only by the service (cleaning
    happens via query rewriting, never by mutating data), so sharing is
    safe.

    With a ``data_dir`` (argument or ``REPRO_DATA_DIR``), the catalog is
    durable: the first build of a dataset persists it as memory-mapped
    columnar table directories under ``<data_dir>/tables/<dataset>/``,
    and every later open — in this process, a forked worker, or a
    restarted server — reads the manifests instead of regenerating data.
    Datasets imported out-of-band (``python -m repro store import``) are
    discovered from the same directory at construction time. Persisted
    datasets are served *from the mmap copy*, so all serving modes run
    the identical durable bytes (byte-identity is locked by the store
    parity tests).
    """

    def __init__(self, data_dir: str | Path | None = None) -> None:
        self._lock = threading.Lock()
        self._builders: dict[str, Callable[[], Database]] = {}
        self._bootstraps: dict[str, str | None] = {}
        self._built: dict[str, Database] = {}
        self._build_locks: dict[str, threading.Lock] = {}
        if data_dir is None:
            data_dir = os.environ.get(DATA_DIR_ENV) or None
        self._data_dir = Path(data_dir).expanduser() if data_dir else None
        self._scan_disk()

    @classmethod
    def with_demo_datasets(
        cls, data_dir: str | Path | None = None
    ) -> "DatasetCatalog":
        """A catalog preloaded with the paper's demo datasets (§3).

        The builders and bootstrap queries are :mod:`repro.data.demo`'s.
        """
        catalog = cls(data_dir=data_dir)
        for name, bootstrap in BOOTSTRAP_QUERIES.items():
            catalog.register(name, partial(load_dataset, name), bootstrap=bootstrap)
        return catalog

    # -- durable layout ----------------------------------------------------

    @property
    def data_dir(self) -> Path | None:
        """The durable root, or ``None`` for a memory-only catalog."""
        return self._data_dir

    def _dataset_dir(self, name: str) -> Path | None:
        if self._data_dir is None:
            return None
        return self._data_dir / "tables" / name

    def _scan_disk(self) -> None:
        """Register datasets already persisted under the data dir."""
        if self._data_dir is None:
            return
        root = self._data_dir / "tables"
        if not root.is_dir():
            return
        for child in sorted(root.iterdir()):
            if not child.is_dir() or ".tmp-" in child.name:
                continue
            bootstrap = None
            meta_path = child / "dataset.json"
            if meta_path.exists():
                try:
                    with meta_path.open() as handle:
                        bootstrap = json.load(handle).get("bootstrap")
                except (OSError, json.JSONDecodeError):
                    bootstrap = None
            self.register(
                child.name, partial(Database.open, child), bootstrap=bootstrap
            )

    def _open_from_disk(self, name: str) -> Database | None:
        """Open the persisted copy of a dataset, or ``None`` if absent.

        A directory that is there but does not open (another layout
        version, a corrupt manifest) is a :class:`StorageError` naming
        it and the cause: a rebuilt copy could not be published over it.
        """
        ds_dir = self._dataset_dir(name)
        if ds_dir is None or not ds_dir.is_dir():
            return None
        try:
            return Database.open(ds_dir)
        except StorageError as error:
            raise StorageError(
                f"cannot open persisted dataset {name!r} at {ds_dir} "
                f"(remove it to rebuild): {error}"
            ) from None

    def _persist(self, name: str, db: Database) -> Database:
        """Persist a freshly built dataset; returns the mmap-backed copy.

        Stages the whole dataset (tables + ``dataset.json``) in a
        per-pid sibling directory and publishes it with one atomic
        rename. When N forked workers race to build the same cold
        dataset, the first rename wins and every loser adopts the
        winner's copy — the builders are deterministic, so the copies
        are interchangeable and nothing is ever clobbered.
        """
        ds_dir = self._dataset_dir(name)
        assert ds_dir is not None
        staging = ds_dir.parent / f"{ds_dir.name}.tmp-{os.getpid()}"
        if staging.exists():
            shutil.rmtree(staging)
        try:
            db.save(staging)
            meta = {
                "dataset": name,
                "bootstrap": self._bootstraps.get(name),
                "tables": list(db.table_names),
            }
            with (staging / "dataset.json").open("w") as handle:
                json.dump(meta, handle, indent=1)
            try:
                os.rename(staging, ds_dir)
            except OSError:
                opened = self._open_from_disk(name)
                if opened is not None:
                    return opened
                raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
        opened = self._open_from_disk(name)
        if opened is None:  # pragma: no cover - defensive
            raise StorageError(f"failed to reopen persisted dataset {name!r}")
        return opened

    def register(
        self,
        name: str,
        source: Database | Callable[[], Database],
        bootstrap: str | None = None,
    ) -> None:
        """Register a dataset by prebuilt database or zero-arg builder."""
        with self._lock:
            if isinstance(source, Database):
                self._built[name] = source
                self._builders.pop(name, None)
            else:
                self._builders[name] = source
                self._built.pop(name, None)
            self._bootstraps[name] = bootstrap
            self._build_locks.setdefault(name, threading.Lock())

    def get(self, name: str) -> Database:
        """The shared database for ``name``.

        Resolution order: the in-process built copy, then the persisted
        copy under the data dir (warm restart — manifests only, no data
        generation), then the registered builder (whose output is
        persisted for next time when a data dir is configured).
        """
        with self._lock:
            db = self._built.get(name)
            if db is not None:
                return db
            if name not in self._builders:
                known = sorted(set(self._builders) | set(self._built))
                available = ", ".join(known) or "<none>"
                raise ServiceError(
                    f"unknown dataset {name!r} (available: {available})",
                    kind="UnknownDataset",
                )
            build_lock = self._build_locks[name]
        # Build outside the catalog lock (dataset generation can take a
        # while) but under a per-dataset lock so it happens exactly once.
        with build_lock:
            with self._lock:
                db = self._built.get(name)
                if db is not None:
                    return db
                builder = self._builders[name]
            db = self._open_from_disk(name)
            if db is None:
                db = builder()
                if self._data_dir is not None:
                    db = self._persist(name, db)
            with self._lock:
                self._built[name] = db
            return db

    def import_dataset(self, name: str) -> tuple[Database, bool]:
        """Persist ``name`` to the data dir now (``store import``).

        Returns ``(database, created)`` — ``created`` is False when a
        persisted copy already existed, in which case it is adopted
        as-is (matching the first-writer-wins build semantics).
        """
        if self._data_dir is None:
            raise StorageError(
                "import needs a data dir (--data-dir or REPRO_DATA_DIR)"
            )
        ds_dir = self._dataset_dir(name)
        assert ds_dir is not None
        existing = self._open_from_disk(name)
        if existing is not None:
            with self._lock:
                self._built.setdefault(name, existing)
            return existing, False
        with self._lock:
            builder = self._builders.get(name)
        if builder is None:
            known = ", ".join(self.names) or "<none>"
            raise ServiceError(
                f"unknown dataset {name!r} (available: {known})",
                kind="UnknownDataset",
            )
        db = self._persist(name, builder())
        with self._lock:
            self._built[name] = db
        return db, True

    def bootstrap(self, name: str) -> str | None:
        """The suggested first query for ``name`` (None when unset)."""
        with self._lock:
            return self._bootstraps.get(name)

    @property
    def names(self) -> tuple[str, ...]:
        """Every registered dataset name, sorted."""
        with self._lock:
            return tuple(sorted(set(self._builders) | set(self._built)))

    def is_built(self, name: str) -> bool:
        """Whether the dataset has been materialized yet."""
        with self._lock:
            return name in self._built

    def storage_info(self) -> dict:
        """A JSON-safe snapshot of the durable tier (``storage`` command).

        Reads only manifests — calling this never materializes a table.
        """
        from ..db import MmapColumnStore
        from ..db.store import MANIFEST_NAME

        datasets = []
        for name in self.names:
            entry: dict = {"name": name, "built": self.is_built(name)}
            ds_dir = self._dataset_dir(name)
            persisted = ds_dir is not None and ds_dir.is_dir()
            entry["persisted"] = persisted
            if persisted:
                tables = []
                for child in sorted(ds_dir.iterdir()):
                    if child.is_dir() and (child / MANIFEST_NAME).exists():
                        try:
                            tables.append(MmapColumnStore.open(child).describe())
                        except StorageError as error:
                            tables.append({"name": child.name, "error": str(error)})
                entry["tables"] = tables
            datasets.append(entry)
        return {
            "data_dir": str(self._data_dir) if self._data_dir else None,
            "datasets": datasets,
        }

"""The durable columnar storage tier and its parity contract.

Four layers under test, bottom up:

* :mod:`repro.db.store` — the :class:`ColumnStore` implementations:
  round-tripping every column type through the chunked ``.npy`` +
  manifest layout, lazy gathers/slices, content digests, and the
  atomic first-writer-wins publication protocol;
* :mod:`repro.core.artifacts` — persisted
  :class:`~repro.core.preprocessor.PreprocessResult` bundles and the
  disk-backed second level of :class:`PreprocessCache`;
* :class:`~repro.service.cache.DatasetCatalog` durability — persist on
  first build, reopen from manifests on the next process, survive
  concurrent writers (the forked-worker race);
* the **parity harness**: ``debug()`` through a memory-mapped table is
  byte-identical to the in-memory reference across execution backends
  and scoring algorithms, and a *restarted* server's first ``debug()``
  is byte-identical to the pre-restart answer while measurably warm
  (the preprocess artifact is a disk hit, never a recompute).
"""

from __future__ import annotations

import json
import multiprocessing
import os
from contextlib import nullcontext

import numpy as np
import pytest

from reference.scoring import per_rule_scoring
from repro.core import Preprocessor, TooHigh
from repro.core.artifacts import ArtifactStore, artifact_key
from repro.core.pipeline import PipelineConfig
from repro.core.preprocessor import PreprocessCache
from repro.data import intel_at_scale
from repro.db import Database, MmapColumnStore, Table
from repro.db.segments import blocked_ranges
from repro.db.store import MANIFEST_NAME, table_digest
from repro.db.types import dict_decode, dict_encode
from repro.errors import StorageError
from repro.frontend import Brush, DBWipesSession
from repro.service import DBWipesServer, ServiceClient, SessionManager
from repro.service.cache import DatasetCatalog

TOY_SQL = "SELECT g, avg(v) AS avg_v FROM toy GROUP BY g ORDER BY g"


def toy_table(n_groups: int = 6, per: int = 30) -> Table:
    """A small table exercising every column type, with planted outliers."""
    rng = np.random.default_rng(11)
    n = n_groups * per
    g = np.repeat(np.arange(n_groups), per)
    v = rng.normal(1.0, 0.1, n)
    tag = np.array(["ok"] * n, dtype=object)
    bad = (g == 2) & (np.arange(n) % per < 7)
    v[bad] += 100.0
    tag[bad] = "bad"
    tag[::13] = None  # STR NULLs must survive the dict-encoded round trip
    w = v * 2.0
    w[5] = np.nan  # FLOAT NULL
    return Table.from_columns(
        {"g": g, "v": v, "w": w, "tag": tag}, name="toy"
    )


def build_toy_db() -> Database:
    db = Database()
    db.register(toy_table())
    return db


def debug_lines(db: Database, config: PipelineConfig | None = None) -> list[str]:
    """One scripted toy debug cycle from fresh state, canonicalized."""
    session = DBWipesSession(db, config)
    session.execute(TOY_SQL)
    session.select_results(Brush.above(5.0))
    session.zoom()
    session.select_inputs(Brush.above(50.0))
    session.set_metric("too_high", threshold=2.0)
    report = session.debug()
    lines = [
        "|".join(
            (
                ranked.predicate.describe(),
                ranked.predicate.to_sql(),
                repr(ranked.score),
                repr(ranked.epsilon_before),
                repr(ranked.epsilon_after),
            )
        )
        for ranked in report
    ]
    assert lines  # the cycle must actually rank something
    return lines


# ----------------------------------------------------------------------
# store primitives
# ----------------------------------------------------------------------


class TestBlockedRanges:
    def test_tiles_exactly(self):
        assert list(blocked_ranges(10, 4)) == [(0, 4), (4, 8), (8, 10)]
        assert list(blocked_ranges(8, 4)) == [(0, 4), (4, 8)]
        assert list(blocked_ranges(3, 100)) == [(0, 3)]

    def test_zero_rows_is_one_empty_block(self):
        assert list(blocked_ranges(0, 4)) == [(0, 0)]

    def test_rejects_bad_block_size(self):
        with pytest.raises(StorageError):
            list(blocked_ranges(5, 0))


class TestDictEncoding:
    def test_round_trip_with_nulls(self):
        values = np.array(["b", None, "a", "b", None, "c"], dtype=object)
        codes, ordered = dict_encode(values)
        assert codes.dtype == np.int64
        assert ordered == ["b", "a", "c"]  # first-occurrence order
        assert list(codes) == [0, -1, 1, 0, -1, 2]
        decoded = dict_decode(codes, ordered)
        assert decoded.dtype == object
        assert list(decoded) == ["b", None, "a", "b", None, "c"]

    def test_deterministic(self):
        values = np.array(["x", "y", "x"], dtype=object)
        assert dict_encode(values)[1] == dict_encode(values.copy())[1]


class TestMmapRoundTrip:
    @pytest.fixture()
    def saved(self, tmp_path):
        table = toy_table()
        reopened = table.save(tmp_path / "toy", chunk_rows=32)
        return table, reopened, tmp_path / "toy"

    def test_every_column_round_trips(self, saved):
        table, reopened, _ = saved
        assert isinstance(reopened.store, MmapColumnStore)
        assert reopened.num_rows == table.num_rows
        assert list(reopened.tids) == list(table.tids)
        for column in table.schema.names:
            a, b = table.column(column), reopened.column(column)
            assert a.dtype == b.dtype
            if a.dtype == object:
                assert list(a) == list(b)
            else:
                np.testing.assert_array_equal(a, b)

    def test_chunked_layout_on_disk(self, saved):
        _, _, directory = saved
        with (directory / MANIFEST_NAME).open() as handle:
            manifest = json.load(handle)
        # 180 rows at 32 rows/chunk = 6 chunks per numeric column.
        numeric = {c["name"]: c for c in manifest["columns"]}
        assert len(numeric["v"]["chunks"]) == 6
        files = {p.name for p in directory.iterdir()}
        assert MANIFEST_NAME in files and "tids.npy" in files
        assert all(name in files for name in numeric["v"]["chunks"])

    def test_row_blocks_cross_chunk_boundaries(self, saved):
        table, reopened, _ = saved
        for lo, hi in [(0, 5), (30, 34), (31, 97), (0, 180), (179, 180)]:
            for column in ("g", "v", "tag"):
                expected = table.column(column)[lo:hi]
                got = reopened.store.row_block(column, lo, hi)
                if expected.dtype == object:
                    assert list(got) == list(expected)
                else:
                    np.testing.assert_array_equal(got, expected)

    def test_open_is_lazy_and_digest_needs_no_data(self, saved, tmp_path):
        _, _, directory = saved
        store = MmapColumnStore.open(directory)
        # The digest comes straight from the manifest: corrupting every
        # data file must not matter until a column is actually read.
        for chunk in directory.glob("*.c*.npy"):
            chunk.write_bytes(b"corrupt")
        assert store.digest == toy_table().content_digest()

    def test_columns_are_read_only(self, saved):
        _, reopened, _ = saved
        for column in ("g", "v"):
            with pytest.raises(ValueError):
                reopened.column(column)[0] = 0

    def test_empty_table_round_trips(self, tmp_path):
        empty = toy_table().filter(np.zeros(180, dtype=bool))
        reopened = empty.save(tmp_path / "empty")
        assert reopened.num_rows == 0
        assert list(reopened.column("tag")) == []

    def test_refuses_clobber_without_overwrite(self, saved):
        table, _, directory = saved
        with pytest.raises(StorageError):
            table.save(directory)
        table.save(directory, overwrite=True)  # explicit is allowed

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            Table.open(tmp_path / "nowhere")


class TestDigest:
    def test_identical_across_representations(self, tmp_path):
        table = toy_table()
        mmap_table = table.save(tmp_path / "toy")
        assert table.content_digest() == mmap_table.content_digest()
        gathered = table.take(np.arange(table.num_rows))
        assert gathered.content_digest() == table.content_digest()

    def test_sensitive_to_data_and_tids(self):
        base = toy_table()
        other = toy_table(per=31)
        assert base.content_digest() != other.content_digest()
        shuffled = base.take(np.arange(base.num_rows)[::-1])
        assert shuffled.content_digest() != base.content_digest()

    def test_table_digest_matches_method(self):
        table = toy_table()
        assert (
            table_digest(table.schema, table.column, table.tids)
            == table.content_digest()
        )


class TestLazyStores:
    def test_take_defers_gather(self, tmp_path):
        table = toy_table().save(tmp_path / "toy", chunk_rows=50)
        picked = table.take(np.array([3, 170, 44, 3]))
        np.testing.assert_array_equal(
            picked.column("v"),
            table.column("v")[[3, 170, 44, 3]],
        )
        assert list(picked.column("tag")) == [
            table.column("tag")[i] for i in (3, 170, 44, 3)
        ]

    def test_compositions_stay_flat_and_correct(self):
        table = toy_table()
        mask = np.zeros(90, dtype=bool)
        mask[10:50] = True
        chained = table.take(np.arange(0, 180, 2)).filter(mask).take(
            np.array([0, 5, 39])
        )
        expected = np.arange(0, 180, 2)[10:50][[0, 5, 39]]
        np.testing.assert_array_equal(
            chained.column("v"), table.column("v")[expected]
        )


class TestAtomicPublication:
    def test_write_race_adopts_winner(self, tmp_path, monkeypatch):
        """A writer that loses the publish rename adopts the winner's copy.

        The race window is between ``write``'s existence check and its
        atomic rename; we recreate it deterministically by publishing a
        competing copy from inside a patched ``os.rename``.
        """
        table = toy_table()
        directory = tmp_path / "toy"
        real_rename = os.rename
        state = {"raced": False}

        def racing_rename(src, dst):
            if os.fspath(dst) == str(directory) and not state["raced"]:
                state["raced"] = True
                MmapColumnStore.write(table, directory)  # the winner lands
            return real_rename(src, dst)

        monkeypatch.setattr(os, "rename", racing_rename)
        store = MmapColumnStore.write(table, directory)
        assert state["raced"]
        assert store.digest == table.content_digest()
        np.testing.assert_array_equal(
            store.row_block("v", 0, 180), table.column("v")
        )
        assert not list(tmp_path.glob("*.tmp-*"))  # no staging debris


# ----------------------------------------------------------------------
# preprocess artifacts
# ----------------------------------------------------------------------


def _preprocess_result(db: Database):
    """Run the toy query and preprocess the outlier group's selection."""
    result = db.sql(TOY_SQL)
    metric = TooHigh(2.0)
    pre = Preprocessor().run(result, [2], metric)
    return result, pre, metric


class TestArtifactStore:
    def test_round_trip_is_byte_identical(self, tmp_path):
        db = build_toy_db()
        result, pre, metric = _preprocess_result(db)
        key = artifact_key(result, pre.selected_rows, metric, pre.agg_name)
        assert key is not None
        store = ArtifactStore(tmp_path)
        assert store.save(key, pre)
        assert store.has(key)
        loaded = store.load(key)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.influence.tids, pre.influence.tids)
        np.testing.assert_array_equal(
            loaded.influence.scores, pre.influence.scores
        )
        assert loaded.epsilon == pre.epsilon
        assert loaded.agg_name == pre.agg_name
        assert loaded.selected_rows == pre.selected_rows
        assert len(loaded.group_values) == len(pre.group_values)
        for a, b in zip(pre.group_values, loaded.group_values):
            np.testing.assert_array_equal(a, b)
        for column in pre.F.schema.names:
            a, b = pre.F.column(column), loaded.F.column(column)
            if a.dtype == object:
                assert list(a) == list(b)
            else:
                np.testing.assert_array_equal(a, b)

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        db = build_toy_db()
        result, pre, metric = _preprocess_result(db)
        key = artifact_key(result, pre.selected_rows, metric, pre.agg_name)
        store = ArtifactStore(tmp_path)
        store.save(key, pre)
        store.path(key).write_bytes(b"not an npz")
        assert store.load(key) is None
        assert store.stats()["load_failures"] == 1

    def test_save_is_idempotent(self, tmp_path):
        db = build_toy_db()
        result, pre, metric = _preprocess_result(db)
        key = artifact_key(result, pre.selected_rows, metric, pre.agg_name)
        store = ArtifactStore(tmp_path)
        assert store.save(key, pre) is True
        assert store.save(key, pre) is False  # already durable: no rewrite
        assert store.keys() == [key]

    def test_key_depends_on_inputs(self, tmp_path):
        db = build_toy_db()
        result, pre, metric = _preprocess_result(db)
        base = artifact_key(result, [2], metric, pre.agg_name)
        assert base == artifact_key(result, [2], metric, pre.agg_name)
        assert base != artifact_key(result, [1, 2], metric, pre.agg_name)
        assert base != artifact_key(result, [2], TooHigh(3.0), pre.agg_name)

    def test_key_survives_representation_change(self, tmp_path):
        """In-memory and mmap copies of one table share artifact keys."""
        db = build_toy_db()
        result, pre, metric = _preprocess_result(db)
        mmap_db = db.save(tmp_path / "ds")
        mmap_result = mmap_db.sql(TOY_SQL)
        assert artifact_key(result, [2], metric, pre.agg_name) == artifact_key(
            mmap_result, [2], metric, pre.agg_name
        )


class TestDiskBackedPreprocessCache:
    def test_second_process_hits_disk(self, tmp_path):
        db = build_toy_db()
        result, pre, metric = _preprocess_result(db)
        key = artifact_key(result, pre.selected_rows, metric, pre.agg_name)

        cold = PreprocessCache(disk=ArtifactStore(tmp_path))
        first = cold.get_or_compute("k", lambda: pre, disk_key=key)
        assert first is pre
        assert cold.stats()["disk_writes"] == 1

        warm = PreprocessCache(disk=ArtifactStore(tmp_path))  # "restart"
        def explode():
            raise AssertionError("warm path must not recompute")

        loaded = warm.get_or_compute("k", explode, disk_key=key)
        stats = warm.stats()
        assert stats["disk_hits"] == 1 and stats["misses"] == 1
        np.testing.assert_array_equal(
            loaded.influence.scores, pre.influence.scores
        )


# ----------------------------------------------------------------------
# durable catalog
# ----------------------------------------------------------------------


def _toy_catalog(data_dir) -> DatasetCatalog:
    catalog = DatasetCatalog(data_dir=data_dir)
    catalog.register("toy", build_toy_db, bootstrap=TOY_SQL)
    return catalog


def _build_toy_in_subprocess(data_dir: str) -> None:
    catalog = _toy_catalog(data_dir)
    db = catalog.get("toy")
    assert db.table("toy").num_rows == 180


class TestDurableCatalog:
    def test_first_build_persists_and_serves_mmap(self, tmp_path):
        catalog = _toy_catalog(tmp_path)
        db = catalog.get("toy")
        assert isinstance(db.table("toy").store, MmapColumnStore)
        assert (tmp_path / "tables" / "toy" / "dataset.json").exists()

    def test_restart_reopens_without_builder(self, tmp_path):
        _toy_catalog(tmp_path).get("toy")
        fresh = DatasetCatalog(data_dir=tmp_path)  # builder NOT registered
        assert "toy" in fresh.names  # discovered from disk
        assert fresh.bootstrap("toy") == TOY_SQL  # dataset.json carries it
        db = fresh.get("toy")
        assert db.table("toy").content_digest() == toy_table().content_digest()

    def test_import_dataset_idempotent(self, tmp_path):
        catalog = _toy_catalog(tmp_path)
        _, created = catalog.import_dataset("toy", chunk_rows=64)
        assert created
        again = _toy_catalog(tmp_path)
        _, created = again.import_dataset("toy")
        assert not created

    def test_import_without_data_dir_raises(self):
        catalog = DatasetCatalog()
        catalog.register("toy", build_toy_db)
        with pytest.raises(StorageError):
            catalog.import_dataset("toy")

    def test_concurrent_cold_builders_leave_one_copy(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        procs = [
            ctx.Process(target=_build_toy_in_subprocess, args=(str(tmp_path),))
            for _ in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(60)
            assert p.exitcode == 0
        tables_dir = tmp_path / "tables"
        assert [p.name for p in sorted(tables_dir.iterdir())] == ["toy"]
        assert not list(tables_dir.glob("*.tmp-*"))
        db = Database.open(tables_dir / "toy")
        assert db.table("toy").content_digest() == toy_table().content_digest()

    def test_storage_info_reads_manifests_only(self, tmp_path):
        catalog = _toy_catalog(tmp_path)
        catalog.get("toy")
        info = DatasetCatalog(data_dir=tmp_path).storage_info()
        (entry,) = info["datasets"]
        assert entry["name"] == "toy" and entry["persisted"]
        assert entry["tables"][0]["rows"] == 180


# ----------------------------------------------------------------------
# parity: mmap vs in-memory, batched and per-rule scoring
# ----------------------------------------------------------------------


class TestStoreParity:
    """debug() is byte-identical no matter where the bytes live."""

    @pytest.fixture(scope="class")
    def baseline(self) -> list[str]:
        return debug_lines(build_toy_db(), PipelineConfig())

    @pytest.fixture(scope="class")
    def mmap_db(self, tmp_path_factory) -> Database:
        directory = tmp_path_factory.mktemp("parity")
        return build_toy_db().save(directory / "toy")

    @pytest.mark.parametrize("scoring", ["batch", "per_rule"])
    def test_mmap_matches_in_memory(self, baseline, mmap_db, scoring):
        with per_rule_scoring() if scoring == "per_rule" else nullcontext():
            lines = debug_lines(mmap_db, PipelineConfig())
        assert lines == baseline

    def test_scaled_intel_config_scales_rows_only(self):
        base = intel_at_scale(1)
        big = intel_at_scale(3)
        assert big.duration_minutes == 3 * base.duration_minutes
        assert big.n_sensors == base.n_sensors


# ----------------------------------------------------------------------
# warm restarts through real servers
# ----------------------------------------------------------------------


def _service_debug(client: ServiceClient, session: str) -> dict:
    client.open("toy", session=session)
    client.execute(TOY_SQL)
    client.select_results(brush={"above": 5.0}, y="avg_v")
    client.zoom()
    client.select_inputs(brush={"above": 50.0})
    client.set_metric("too_high", threshold=2.0)
    report = client.debug(max_rows=None)
    report["timings"] = None  # wall-clock differs run to run, by design
    return report


class TestWarmRestartInProcess:
    def test_first_debug_after_restart_is_warm_and_identical(self, tmp_path):
        manager = SessionManager(catalog=_toy_catalog(tmp_path))
        with DBWipesServer(manager, port=0) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=60) as client:
                cold = _service_debug(client, "boot-1")
                cold_stats = client.stats()["preprocess_cache"]
        assert cold_stats["disk_writes"] >= 1  # artifact persisted

        restarted = SessionManager(catalog=_toy_catalog(tmp_path))
        with DBWipesServer(restarted, port=0) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=60) as client:
                warm = _service_debug(client, "boot-2")
                warm_stats = client.stats()["preprocess_cache"]
        assert warm == cold  # byte-identical first answer
        assert warm_stats["disk_hits"] >= 1  # ...and it came from disk
        assert warm_stats["disk_writes"] == 0  # nothing recomputed


class TestWarmRestartWorkers:
    def test_multiprocess_restart_serves_warm_first_debug(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        with DBWipesServer(workers=2, port=0, catalog_factory=None) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=120) as client:
                client.open("intel", session="w1")
                client.execute(
                    "SELECT minute / 30 AS window, avg(temp) AS avg_temp, "
                    "stddev(temp) AS std_temp FROM readings "
                    "GROUP BY minute / 30 ORDER BY window"
                )
                client.select_results(brush={"above": 2.0}, y="std_temp")
                client.set_metric("too_high")
                cold = client.debug(max_rows=None)
                cold["timings"] = None
                cold_stats = client.stats()["preprocess_cache"]
        assert cold_stats["disk_writes"] >= 1
        assert (tmp_path / "tables" / "intel" / "dataset.json").exists()

        with DBWipesServer(workers=2, port=0, catalog_factory=None) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=120) as client:
                client.open("intel", session="w2")
                client.execute(
                    "SELECT minute / 30 AS window, avg(temp) AS avg_temp, "
                    "stddev(temp) AS std_temp FROM readings "
                    "GROUP BY minute / 30 ORDER BY window"
                )
                client.select_results(brush={"above": 2.0}, y="std_temp")
                client.set_metric("too_high")
                warm = client.debug(max_rows=None)
                warm["timings"] = None
                warm_stats = client.stats()["preprocess_cache"]
        assert warm == cold
        assert warm_stats["disk_hits"] >= 1
        assert warm_stats["disk_writes"] == 0

    def test_storage_command_merges_across_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        _toy_catalog(tmp_path).get("toy")  # pre-persist one dataset
        with DBWipesServer(workers=2, port=0) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=60) as client:
                info = client.call("storage")
        assert info["workers"] == 2
        assert info["data_dir"] == str(tmp_path)
        names = {entry["name"] for entry in info["datasets"]}
        assert "toy" in names

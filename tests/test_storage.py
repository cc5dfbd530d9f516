"""The durable columnar storage tier and its parity contract.

Three layers under test, bottom up:

* :mod:`repro.db.store` — the :class:`ColumnStore` implementations:
  round-tripping every column type through the one-``.npy``-per-column
  + manifest layout, lazy gathers/slices, content digests, corrupt
  files reported by name, and the atomic first-writer-wins publication
  protocol;
* :class:`~repro.service.cache.DatasetCatalog` durability — persist on
  first build, reopen from manifests on the next process, survive
  concurrent writers (the forked-worker race);
* the **parity harness**: ``debug()`` through a memory-mapped table is
  byte-identical to the in-memory reference across execution backends
  and scoring algorithms, and a *restarted* server's first ``debug()``,
  which recomputes its preprocessing from the reopened tables, is
  byte-identical to the pre-restart answer and writes nothing but
  tables and journals into the data dir.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
from contextlib import nullcontext

import numpy as np
import pytest

from reference.scoring import per_rule_scoring
from repro.core.pipeline import PipelineConfig
from repro.data import intel_at_scale
from repro.db import Database, MmapColumnStore, Table
from repro.db.store import MANIFEST_NAME, table_digest
from repro.db.types import dict_decode, dict_encode
from repro.errors import StorageError
from repro.frontend import Brush, DBWipesSession
from repro.service import DBWipesServer, ServiceClient, SessionManager
from repro.service.cache import DatasetCatalog
from repro.service.handlers import dispatch

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
        reopened = table.save(tmp_path / "toy")
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

    def test_one_file_per_column_on_disk(self, saved):
        _, _, directory = saved
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        assert manifest["format"] == "dbwipes-columnar/2"
        assert [(c["name"], c["file"]) for c in manifest["columns"]] == [
            ("g", "c0.npy"), ("v", "c1.npy"), ("w", "c2.npy"), ("tag", "c3.npy")
        ]
        assert {p.name for p in directory.iterdir()} == {
            MANIFEST_NAME, "tids.npy", "c0.npy", "c1.npy", "c2.npy", "c3.npy",
            "c3.values.json",
        }
        # A STR column's file holds its dictionary codes.
        codes, _ = dict_encode(toy_table().column("tag"))
        np.testing.assert_array_equal(np.load(directory / "c3.npy"), codes)

    def test_rows_match_the_in_memory_table(self, saved):
        table, reopened, _ = saved
        assert [repr(row) for row in reopened.iter_rows()] == [
            repr(row) for row in table.iter_rows()
        ]

    def test_column_named_tids_round_trips(self, tmp_path):
        table = Table.from_columns(
            {"tids": [7, 8, 9], "name": ["a", None, "c"]}, name="t"
        ).take(np.array([2, 0]))
        reopened = table.save(tmp_path / "t")
        assert list(reopened.tids) == [2, 0]
        assert list(reopened.column("tids")) == [9, 7]
        assert list(reopened.column("name")) == ["c", "a"]
        rehashed = table_digest(reopened.schema, reopened.column, reopened.tids)
        assert rehashed == table.content_digest()

    def test_open_is_lazy_and_digest_needs_no_data(self, saved, tmp_path):
        _, _, directory = saved
        store = MmapColumnStore.open(directory)
        # The digest comes straight from the manifest: corrupting every
        # data file must not matter until a column is actually read.
        column_files = list(directory.glob("c*.npy"))
        assert len(column_files) == 4
        for path in column_files:
            path.write_bytes(b"corrupt")
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
        with pytest.raises(StorageError, match="already exists"):
            table.save(directory)

    def test_open_missing_directory_raises(self, tmp_path):
        with pytest.raises(StorageError):
            Table.open(tmp_path / "nowhere")


def _edit_manifest(table_dir, edit) -> None:
    """Rewrite a persisted table's manifest through ``edit(manifest)``."""
    path = table_dir / MANIFEST_NAME
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))



def _wire(data_dir):
    """``call(cmd, **args)`` through ``dispatch`` on a fresh toy catalog."""
    manager = SessionManager(catalog=_toy_catalog(data_dir))

    def call(cmd: str, **args) -> dict:
        return dispatch(manager, {"id": 1, "cmd": cmd, "session": "s", "args": args})

    return call


class TestUnreadableStorage:
    """A persisted table that cannot be read answers ``StorageError``
    naming the directory or file, never numpy's or json's own error."""

    def test_older_layout_names_its_directory(self, tmp_path):
        directory = tmp_path / "toy"
        toy_table().save(directory)
        # The chunked layout's tag, which every older data dir carries.
        _edit_manifest(directory, lambda m: m.update(format="dbwipes-columnar/1"))
        with pytest.raises(StorageError, match=re.escape(str(directory))):
            Table.open(directory)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda manifest: manifest.pop("n_rows"),
            lambda manifest: manifest["columns"][0].update(type="blob"),
        ],
        ids=["no-row-count", "unknown-type"],
    )
    def test_malformed_manifest_is_named(self, tmp_path, edit):
        directory = tmp_path / "toy"
        toy_table().save(directory)
        _edit_manifest(directory, edit)
        with pytest.raises(StorageError, match="manifest.json is malformed"):
            Table.open(directory)

    @pytest.mark.parametrize(
        "tag", ["dbwipes-columnar/1", "dbwipes-columnar/0"], ids=["older", "foreign"]
    )
    def test_unopenable_dataset_is_reported_not_rebuilt(self, tmp_path, tag):
        _toy_catalog(tmp_path).get("toy")
        dataset_dir = tmp_path / "tables" / "toy"
        _edit_manifest(dataset_dir / "toy", lambda m: m.update(format=tag))
        envelope = _wire(tmp_path)("open", name="s", dataset="toy")
        assert envelope["error"]["kind"] == "StorageError"
        message = envelope["error"]["message"]
        assert str(dataset_dir) in message and tag in message
        with pytest.raises(StorageError, match=re.escape(str(dataset_dir))):
            _toy_catalog(tmp_path).import_dataset("toy")
        # Nothing was published over the directory, and ``storage``
        # reports the table it cannot open.
        manifest = json.loads((dataset_dir / "toy" / MANIFEST_NAME).read_text())
        assert manifest["format"] == tag
        (entry,) = DatasetCatalog(data_dir=tmp_path).storage_info()["datasets"]
        assert entry["tables"][0]["name"] == "toy"
        assert tag in entry["tables"][0]["error"]

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda path: path.write_bytes(b"corrupt"),
            lambda path: path.write_bytes(path.read_bytes()[:-8]),
            lambda path: np.save(path, np.zeros(3)),
            lambda path: np.save(path, np.zeros(180, dtype=np.int32)),
        ],
        ids=["garbage", "truncated", "short", "wrong-dtype"],
    )
    def test_corrupt_column_file_is_named(self, tmp_path, corrupt):
        _toy_catalog(tmp_path).get("toy")
        path = tmp_path / "tables" / "toy" / "toy" / "c1.npy"  # column v
        corrupt(path)
        call = _wire(tmp_path)
        assert call("open", name="s", dataset="toy")["ok"]
        envelope = call("execute", sql=TOY_SQL)
        assert envelope["error"]["kind"] == "StorageError"
        assert str(path) in envelope["error"]["message"]

    @pytest.mark.parametrize(
        "content", ["{", '{"ok": 0}', "[]"], ids=["truncated", "object", "empty"]
    )
    def test_corrupt_values_sidecar_is_named(self, tmp_path, content):
        _toy_catalog(tmp_path).get("toy")
        path = tmp_path / "tables" / "toy" / "toy" / "c3.values.json"  # tag
        path.write_text(content)
        call = _wire(tmp_path)
        assert call("open", name="s", dataset="toy")["ok"]
        envelope = call(
            "execute", sql="SELECT tag, avg(v) AS avg_v FROM toy GROUP BY tag"
        )
        assert envelope["error"]["kind"] == "StorageError"
        assert str(path) in envelope["error"]["message"]


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

    def test_database_open_reads_the_digest_from_the_manifest(self, tmp_path):
        """``Database.open`` registers each table through ``rename``,
        which must keep the manifest digest: with every column file
        overwritten, the digest still comes from the manifest, not
        from hashing the columns again."""
        toy_table().save(tmp_path / "toy")
        manifest = json.loads((tmp_path / "toy" / MANIFEST_NAME).read_text())
        db = Database.open(tmp_path)
        column_files = list((tmp_path / "toy").glob("c*.npy"))
        assert len(column_files) == 4
        for path in column_files:
            np.save(path, np.zeros_like(np.load(path)))
        table = db.table("toy")
        assert table.content_digest() == manifest["digest"]
        rehashed = table_digest(table.schema, table.column, table.tids)
        assert rehashed != manifest["digest"]  # the column files did change


class TestLazyStores:
    def test_take_defers_gather(self, tmp_path):
        table = toy_table().save(tmp_path / "toy")
        picked = table.take(np.array([3, 170, 44, 3]))
        np.testing.assert_array_equal(
            picked.column("v"),
            table.column("v")[[3, 170, 44, 3]],
        )
        assert list(picked.column("tag")) == [
            table.column("tag")[i] for i in (3, 170, 44, 3)
        ]

    def test_gathering_k_rows_of_a_mapped_str_column_decodes_k_values(
        self, tmp_path, monkeypatch
    ):
        """F's gather of a mapped STR column decodes its own rows only and
        leaves the whole column undecoded; a later whole-column read
        still decodes (and keeps) every row."""
        import repro.db.store as store_module

        decoded = []
        real_decode = store_module.dict_decode
        monkeypatch.setattr(
            store_module,
            "dict_decode",
            lambda codes, values: decoded.append(len(codes))
            or real_decode(codes, values),
        )
        table = toy_table().save(tmp_path / "toy")
        positions = np.array([3, 170, 44, 3, 13])
        picked = table.take(positions).column("tag")
        assert decoded == [len(positions)]
        whole = table.column("tag")
        assert decoded == [len(positions), len(table)]
        assert list(picked) == list(whole[positions])
        assert picked[4] is None  # row 13 is a NULL
        # A gather after the whole-column read slices the kept column.
        again = table.take(positions).column("tag")
        assert decoded == [len(positions), len(table)]
        assert list(again) == list(picked)

    def test_gather_checks_every_code_of_the_column(self, tmp_path):
        """A code outside the sidecar's values fails the gather even when
        it sits on a row the gather skips."""
        directory = toy_table().save(tmp_path / "toy").store.directory
        path = directory / "c3.npy"  # tag
        codes = np.load(path)
        codes[100] = 99
        np.save(path, codes)
        with pytest.raises(StorageError, match="outside"):
            Table.open(directory).take(np.array([0, 1])).column("tag")

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
        np.testing.assert_array_equal(store.column("v"), table.column("v"))
        assert not list(tmp_path.glob("*.tmp-*"))  # no staging debris


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
        _, created = catalog.import_dataset("toy")
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
        assert [c["file"] for c in entry["tables"][0]["columns"]] == [
            "c0.npy", "c1.npy", "c2.npy", "c3.npy"
        ]


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
        assert not (tmp_path / "preprocess").exists()

        restarted = SessionManager(catalog=_toy_catalog(tmp_path))
        with DBWipesServer(restarted, port=0) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=60) as client:
                warm = _service_debug(client, "boot-2")
                warm_stats = client.stats()["preprocess_cache"]
        assert warm == cold  # byte-identical first answer
        assert warm_stats["misses"] >= 1  # recomputed from the reopened table
        assert not (tmp_path / "preprocess").exists()


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
        assert (tmp_path / "tables" / "intel" / "dataset.json").exists()
        assert not (tmp_path / "preprocess").exists()

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
        assert warm_stats["misses"] >= 1
        assert not (tmp_path / "preprocess").exists()

    def test_storage_command_merges_across_workers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        _toy_catalog(tmp_path).get("toy")  # pre-persist one dataset
        with DBWipesServer(workers=2, port=0) as server:
            host, port = server.address
            with ServiceClient(host, port, timeout=60) as client:
                info = client.call("storage")
        assert set(info) == {"workers", "data_dir", "datasets"}
        assert info["workers"] == 2
        assert info["data_dir"] == str(tmp_path)
        names = {entry["name"] for entry in info["datasets"]}
        assert "toy" in names

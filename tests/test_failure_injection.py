"""Failure-injection tests: the pipeline under hostile inputs.

NULL-ridden columns, constant columns, groups that vanish entirely under
cleaning, selections covering everything, duplicate user selections —
the library must degrade gracefully (empty-but-valid reports, exact
errors), never crash or return garbage.
"""

import numpy as np
import pytest

from repro.core import PipelineConfig, RankedProvenance, TooHigh, TooLow
from repro.db import Database, Table
from repro.errors import PipelineError
from repro.frontend import Brush, DBWipesSession


@pytest.fixture
def nully_db():
    rng = np.random.default_rng(17)
    n = 120
    values = rng.normal(10, 1, n)
    values[rng.random(n) < 0.2] = np.nan  # 20% NULL measurements
    bad = np.arange(100, 120)
    values[bad] = rng.normal(50, 2, 20)
    k = np.array(["ok"] * n, dtype=object)
    k[bad] = "bad"
    k[rng.random(n) < 0.1] = None  # NULL categories too
    db = Database()
    db.create_table(
        "t",
        {"v": values, "k": list(k), "g": [0] * n},
        types={"v": "float", "k": "str", "g": "int"},
    )
    return db, bad


class TestNullTolerance:
    def test_pipeline_survives_nulls(self, nully_db):
        db, bad = nully_db
        result = db.sql("SELECT g, avg(v) AS m FROM t GROUP BY g")
        report = RankedProvenance().debug(
            result, [0], TooHigh(12.0), dprime_tids=bad
        )
        assert len(report) > 0
        best_columns = report.best.predicate.columns()
        assert best_columns <= {"v", "k", "g"}

    def test_aggregates_over_all_null_group(self):
        db = Database()
        db.create_table(
            "t",
            {"v": [None, None, 3.0], "g": [0, 0, 1]},
            types={"v": "float", "g": "int"},
        )
        result = db.sql("SELECT g, avg(v) AS m, count(v) AS n FROM t GROUP BY g "
                        "ORDER BY g")
        assert result.row(0)[2] == 0  # count skips NULLs
        assert np.isnan(result.row(0)[1])

    def test_metric_ignores_vanished_groups(self):
        # A NaN aggregate value (emptied group) contributes zero error.
        metric = TooHigh(5.0)
        assert metric(np.array([np.nan, np.nan])) == 0.0


class TestDegenerateSelections:
    def test_all_rows_selected(self, nully_db):
        db, bad = nully_db
        result = db.sql("SELECT k, avg(v) AS m FROM t GROUP BY k ORDER BY k")
        all_rows = list(range(result.num_rows))
        report = RankedProvenance().debug(result, all_rows, TooHigh(12.0))
        assert report.epsilon >= 0  # runs; may or may not find predicates

    def test_duplicate_selection_rows(self, nully_db):
        db, __ = nully_db
        result = db.sql("SELECT g, avg(v) AS m FROM t GROUP BY g")
        report = RankedProvenance().debug(result, [0, 0, 0], TooHigh(12.0))
        assert report.epsilon >= 0

    def test_dprime_equals_F(self, nully_db):
        db, __ = nully_db
        result = db.sql("SELECT g, avg(v) AS m FROM t GROUP BY g")
        all_tids = result.fine.all_tids()
        # D' = everything: candidates are degenerate (labels all positive)
        # but the pipeline must not crash.
        report = RankedProvenance().debug(
            result, [0], TooHigh(12.0), dprime_tids=all_tids
        )
        assert report.epsilon > 0

    def test_error_free_selection_gives_empty_report(self, nully_db):
        db, __ = nully_db
        result = db.sql("SELECT g, avg(v) AS m FROM t GROUP BY g")
        report = RankedProvenance().debug(result, [0], TooHigh(1e9))
        assert report.epsilon == 0.0
        assert len(report) == 0


class TestConstantColumns:
    def test_constant_feature_columns_never_split(self):
        db = Database()
        db.create_table(
            "t",
            {
                "v": [1.0, 1.0, 1.0, 50.0, 50.0],
                "const_num": [7.0] * 5,
                "const_cat": ["same"] * 5,
                "g": [0] * 5,
            },
            types={"v": "float", "const_num": "float", "const_cat": "str",
                   "g": "int"},
        )
        result = db.sql("SELECT g, avg(v) AS m FROM t GROUP BY g")
        report = RankedProvenance().debug(
            result, [0], TooHigh(5.0), dprime_tids=[3, 4]
        )
        for ranked in report:
            assert "const_num" not in ranked.predicate.columns()
            assert "const_cat" not in ranked.predicate.columns()


class TestSessionRobustness:
    def test_cleaning_that_empties_result(self):
        db = Database()
        db.create_table(
            "t",
            {"v": [100.0, 120.0], "k": ["x", "x"], "g": [0, 0]},
            types={"v": "float", "k": "str", "g": "int"},
        )
        session = DBWipesSession(db)
        session.execute("SELECT g, avg(v) AS m FROM t GROUP BY g")
        session.select_results([0])
        session.zoom()
        session.select_inputs(Brush.above(0.0))  # everything
        session.set_metric(TooHigh(10.0))
        report = session.debug()
        if len(report):
            result = session.apply_predicate(0)
            # The group may vanish entirely; that must be a valid result.
            assert result.num_rows in (0, 1)

    def test_empty_query_result_brush(self):
        db = Database()
        db.create_table("t", {"v": [1.0], "g": [0]},
                        types={"v": "float", "g": "int"})
        session = DBWipesSession(db)
        session.execute("SELECT g, avg(v) AS m FROM t WHERE v > 100 GROUP BY g")
        assert session.result.num_rows == 0
        assert session.select_results(Brush.above(0.0)) == ()

    def test_preprocessor_rejects_empty_lineage_selection(self):
        db = Database()
        db.create_table("t", {"v": [1.0], "g": [0]},
                        types={"v": "float", "g": "int"})
        result = db.sql("SELECT g, avg(v) AS m FROM t WHERE v > 100 GROUP BY g")
        with pytest.raises(PipelineError):
            RankedProvenance().debug(result, [0], TooHigh(0.0))


class TestWorkerFailure:
    """A killed worker must yield a structured error, then a respawn.

    The serving contract: a routed request never ends in a hung
    connection — a dead worker produces a ``WorkerCrashed`` envelope,
    the process is respawned, and a reopened session lands on the fresh
    process and works.
    """

    def test_killed_worker_reports_and_respawns(self):
        pytest.importorskip("multiprocessing")
        import time

        from repro.cli import BOOTSTRAP_QUERIES
        from repro.errors import ServiceError
        from repro.obs import registry
        from repro.service import DBWipesServer, ServiceClient

        server = DBWipesServer(port=0, workers=2)
        host, port = server.start()
        try:
            client = ServiceClient(host, port)
            info = client.open("intel", session="victim")
            worker = info["worker"]
            handle = server.dispatcher.pool.workers[worker]
            old_pid = handle.process.pid

            # The crash/respawn counters live in the front-end process
            # (this one): read them before the kill, assert the deltas.
            labels = {"worker": str(worker)}
            m_respawns = registry().counter(
                "dbwipes_worker_respawns_total", labels=labels
            )
            m_crashed = registry().counter(
                "dbwipes_worker_crashed_requests_total", labels=labels
            )
            respawns_before = m_respawns.value
            crashed_before = m_crashed.value

            client.execute(BOOTSTRAP_QUERIES["intel"])
            handle.process.kill()

            # The next routed request must come back as a structured
            # WorkerCrashed error — not a timeout, not a dead socket.
            with pytest.raises(ServiceError) as excinfo:
                client.call("sql", session="victim")
            assert excinfo.value.kind in ("WorkerCrashed", "UnknownSession")

            # The handle respawns a fresh process and counts the restart.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not (
                handle.alive and handle.process.pid != old_pid
            ):
                time.sleep(0.05)
            assert handle.alive
            assert handle.restarts >= 1
            assert handle.process.pid != old_pid

            # The dead worker's placements are gone: the session is
            # unknown at the front until reopened.
            with pytest.raises(ServiceError) as excinfo:
                client.call("sql", session="victim")
            assert excinfo.value.kind == "UnknownSession"

            # Reopening routes back to the same shard (consistent hash)
            # and the fresh process serves it end to end.
            info2 = client.open("intel", session="victim")
            assert info2["worker"] == worker
            client.execute(BOOTSTRAP_QUERIES["intel"])
            client.select_results(brush={"above": 2.0}, y="std_temp")
            client.set_metric("too_high")
            report = client.debug(max_rows=3)
            assert report["n_predicates"] > 0

            stats = client.stats()
            assert stats["per_worker"][worker]["restarts"] >= 1

            # The failure made it into the telemetry registry: one
            # respawn and at least one request failed by the crash...
            assert m_respawns.value >= respawns_before + 1
            assert m_crashed.value >= crashed_before + 1
            # ...and both surface in the cluster-merged metrics the
            # ``metrics`` command exposes.
            merged = client.metrics()["merged"]
            totals: dict[str, float] = {}
            for metric in merged["metrics"]:
                if metric["kind"] == "counter":
                    totals[metric["name"]] = (
                        totals.get(metric["name"], 0.0) + metric["value"]
                    )
            assert totals["dbwipes_worker_respawns_total"] >= 1
            assert totals["dbwipes_worker_crashed_requests_total"] >= 1
            client.close()
        finally:
            server.stop()

    def test_send_to_dead_worker_is_structured(self):
        from repro.service.workers import WorkerPool

        with WorkerPool(1) as pool:
            handle = pool.workers[0]
            assert pool.call(0, {"id": 1, "cmd": "ping"})["ok"]
            handle.process.kill()
            handle.process.join(timeout=5)
            # Either the send fails fast (pipe already closed) or the
            # reader notices first; both are WorkerCrashed envelopes.
            envelope = pool.call(0, {"id": 2, "cmd": "ping"}, timeout=10)
            if not envelope.get("ok"):
                assert envelope["error"]["kind"] == "WorkerCrashed"
            # The pool heals: a later call reaches the respawned worker.
            import time

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                envelope = pool.call(0, {"id": 3, "cmd": "ping"}, timeout=10)
                if envelope.get("ok"):
                    break
                time.sleep(0.05)
            assert envelope.get("ok")
            assert handle.restarts >= 1

    def test_pool_close_then_call_is_structured(self):
        from repro.service.workers import WorkerPool

        pool = WorkerPool(1)
        pool.close()
        envelope = pool.call(0, {"id": 9, "cmd": "ping"})
        assert not envelope["ok"]
        assert envelope["error"]["kind"] == "WorkerCrashed"


class TestGatewayFloodNeverHangs:
    """Flooding the async gateway far past ``max_inflight`` must resolve
    every request — a result or a structured ``ServerBusy`` with a
    ``retry_after`` hint, never a hung connection."""

    @staticmethod
    def _flood(host, port, n_threads, per_thread, cmd_args):
        """Hammer the gateway; returns (successes, sheds). Any other
        outcome (timeout, protocol error, hang) propagates and fails."""
        import threading

        from repro.errors import ServiceError
        from repro.service import ServiceClient

        successes = [0] * n_threads
        sheds = [0] * n_threads
        errors = []

        def worker(slot):
            try:
                with ServiceClient(host, port, timeout=30) as client:
                    for _ in range(per_thread):
                        try:
                            client.call(**cmd_args)
                            successes[slot] += 1
                        except ServiceError as error:
                            if error.kind != "ServerBusy":
                                raise
                            assert error.retry_after is not None
                            assert error.retry_after > 0
                            sheds[slot] += 1
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
            assert not thread.is_alive(), "flood request hung"
        assert errors == [], f"non-ServerBusy failures: {errors!r}"
        return sum(successes), sum(sheds)

    @staticmethod
    def _toy_manager():
        from repro.service import SessionManager
        from test_service import toy_catalog, toy_table

        return SessionManager(catalog=toy_catalog(toy_table()))

    def test_local_flood_past_max_inflight_resolves_everything(self):
        from repro.service import DBWipesServer, ServiceClient

        with DBWipesServer(
            self._toy_manager(), port=0, max_inflight=1, max_queue=2
        ) as srv:
            host, port = srv.address
            with ServiceClient(host, port, session="seed") as seed:
                seed.open("toy")
            ok, shed = self._flood(
                host,
                port,
                n_threads=8,
                per_thread=6,
                cmd_args={"cmd": "open", "session": "seed", "dataset": "toy",
                          "name": "seed"},
            )
            assert ok + shed == 8 * 6  # every request accounted for
            assert ok >= 1  # the gateway still did real work
            stats = srv.gateway_stats()
            assert stats["inflight"] == 0 and stats["waiting"] == 0
            assert stats["shed"] >= shed  # loop-side count agrees

    def test_routed_flood_through_worker_router_resolves_everything(self):
        pytest.importorskip("multiprocessing")
        from repro.service import DBWipesServer, ServiceClient
        from test_async_service import routed_toy_catalog

        with DBWipesServer(
            port=0,
            workers=2,
            catalog_factory=routed_toy_catalog,
            max_inflight=2,
            max_queue=2,
        ) as srv:
            host, port = srv.address
            with ServiceClient(host, port, session="seed") as seed:
                seed.open("toy")
            ok, shed = self._flood(
                host,
                port,
                n_threads=8,
                per_thread=4,
                cmd_args={"cmd": "open", "session": "seed", "dataset": "toy",
                          "name": "seed"},
            )
            assert ok + shed == 8 * 4
            assert ok >= 1
            # The cheap lane stayed live through the flood and reports a
            # consistent cluster view.
            with ServiceClient(host, port) as client:
                assert client.ping()["workers"] == 2

"""Chaos benchmark: kill a worker under concurrent debug load.

The fault-tolerance acceptance workload: ``REPRO_CHAOS_CLIENTS``
clients (CI runs 64) each drive their own session through the scripted
toy debug cycle against a 2-worker routed server with journaling
enabled, while the dataset's primary worker is SIGKILLed mid-load via
the deterministic :class:`FaultPlan` harness. The router replays each
session's journal on the replica, so the measured questions are:

* how long does one staged session take to get its first post-kill
  ``debug`` answer (recovery wall-clock, journal replay included);
* how many requests succeeded first-try vs were retried by the client
  vs failed outright — the run asserts **100% eventual success** and
  byte-identical answers, crash or no crash.

Results land in ``BENCH_chaos.json`` under ``REPRO_BENCH_DIR`` (see
``bench_output.py``; a CI artifact).
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.db import Database, Table
from repro.service import (
    DBWipesServer,
    DatasetCatalog,
    FaultPlan,
    ServiceClient,
)
from repro.service import faults
from repro.service.router import replica_set

from bench_output import bench_path, environment

N_CLIENTS = int(os.environ.get("REPRO_CHAOS_CLIENTS", "16"))
MAX_CLIENT_THREADS = 32
#: Crash-aware retries per request (the router usually heals first).
RETRY_LIMIT = 16
#: The primary dies on this request after the herd is released. Each
#: client sends 7 requests, so 2 per client lands mid-load whatever the
#: client count. Counting requests, not sleeping, keeps the kill under
#: load however fast a cycle answers (a repeated selection's debug is a
#: memo hit).
KILL_ON_REQUEST = 2 * N_CLIENTS

TOY_SQL = "SELECT g, avg(v) AS avg_v FROM toy GROUP BY g ORDER BY g"

BENCH_PATH = bench_path("BENCH_chaos.json")


def chaos_catalog() -> DatasetCatalog:
    """Module-level so forked worker processes can reconstruct it."""

    def build() -> Database:
        rng = np.random.default_rng(7)
        n_groups, per = 6, 30
        g = np.repeat(np.arange(n_groups), per)
        v = rng.normal(1.0, 0.1, n_groups * per)
        tag = np.array(["ok"] * (n_groups * per), dtype=object)
        bad = (g == 3) & (np.arange(n_groups * per) % per < 8)
        v[bad] += 100.0
        tag[bad] = "bad"
        db = Database()
        db.register(Table.from_columns({"g": g, "v": v, "tag": tag}, name="toy"))
        return db

    catalog = DatasetCatalog()
    catalog.register("toy", build, bootstrap=TOY_SQL)
    return catalog


def _merge_into_bench(section: str, payload) -> None:
    data = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    if not isinstance(data, dict):
        data = {}
    data[section] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _canonical_report(report: dict) -> str:
    report = dict(report)
    report["timings"] = None
    return json.dumps(report, sort_keys=True)


def _chaos_cycle(client: ServiceClient, sleeps: list[float]) -> str:
    """One full debug cycle where every request survives crash-class
    errors via ``call_with_retry``; returns the canonical report."""

    def call(cmd: str, **args):
        return client.call_with_retry(
            cmd,
            retries=RETRY_LIMIT,
            sleep=lambda s: (sleeps.append(s), time.sleep(s)),
            **args,
        )

    call("open", dataset="toy", name=client.session)
    call("execute", sql=TOY_SQL, max_rows=None)
    call("select_results", brush={"above": 5.0})
    call("zoom")
    call("select_inputs", brush={"above": 50.0})
    call("set_metric", form="too_high", params={"threshold": 2.0})
    return _canonical_report(call("debug"))


class TestChaosKillWorker:
    def test_kill_primary_under_load(self, tmp_path_factory, monkeypatch):
        data_dir = tmp_path_factory.mktemp("chaos-data")
        monkeypatch.setenv("REPRO_DATA_DIR", str(data_dir))
        faults.clear()
        try:
            self._run()
        finally:
            faults.clear()

    def _run(self) -> None:
        with DBWipesServer(
            port=0, workers=2, catalog_factory=chaos_catalog
        ) as srv:
            host, port = srv.address
            primary = replica_set("toy", len(srv.dispatcher.pool))[0]

            # The no-fault reference answer, and a staged probe session
            # whose first post-kill debug times the recovery path.
            with ServiceClient(host, port, session="ref", timeout=600) as c:
                expected = _chaos_cycle(c, [])
            probe = ServiceClient(host, port, session="probe", timeout=600)
            with probe:
                assert _chaos_cycle(probe, []) == expected

                started = threading.Event()
                release = threading.Event()

                def one_client(index: int) -> tuple[str, int]:
                    if index == 0:
                        started.set()
                    release.wait(timeout=60)
                    sleeps: list[float] = []
                    with ServiceClient(
                        host, port, session=f"chaos-{index}", timeout=600
                    ) as client:
                        answer = _chaos_cycle(client, sleeps)
                    return answer, len(sleeps)

                load_start = time.perf_counter()
                with ThreadPoolExecutor(
                    max_workers=min(N_CLIENTS, MAX_CLIENT_THREADS)
                ) as pool:
                    futures = [
                        pool.submit(one_client, i) for i in range(N_CLIENTS)
                    ]
                    started.wait(timeout=60)
                    # Kill the primary cold mid-herd. One shot,
                    # deterministic.
                    plan = FaultPlan(
                        kill_worker=primary, kill_on_request=KILL_ON_REQUEST
                    )
                    faults.install(plan)
                    release.set()
                    deadline = time.perf_counter() + 60
                    while not plan.describe()["kill"]["fired"]:
                        assert time.perf_counter() < deadline, "kill never fired"
                        time.sleep(0.001)
                    killed = time.perf_counter()
                    probe_answer = _chaos_cycle(probe, [])
                    recovery_seconds = time.perf_counter() - killed
                    outcomes = [f.result(timeout=600) for f in futures]
                load_elapsed = time.perf_counter() - load_start

            answers = [answer for answer, __ in outcomes]
            retried = sum(1 for __, n in outcomes if n > 0)
            plan = faults.active_plan()
            assert plan is not None and plan.describe()["kill"]["fired"]

            # 100% eventual success, byte-identical to the no-fault run.
            assert probe_answer == expected
            assert answers == [expected] * N_CLIENTS

            with ServiceClient(host, port, timeout=600) as c:
                merged = c.metrics()["merged"]
                pool_stats = srv.dispatcher.pool.stats()
            failovers = sum(
                point["value"]
                for point in merged["metrics"]
                if point["name"] == "dbwipes_failovers_total"
            )
            recovered = sum(
                point["value"]
                for point in merged["metrics"]
                if point["name"] == "dbwipes_sessions_recovered_total"
            )
            assert failovers >= 1
            assert pool_stats[primary]["restarts"] >= 1

        record = {
            "benchmark": "chaos_kill_primary",
            "n_clients": N_CLIENTS,
            "workers": 2,
            "killed_worker": primary,
            "recovery_seconds": recovery_seconds,
            "load_elapsed_seconds": load_elapsed,
            "succeeded": len(answers),
            "succeeded_first_try": N_CLIENTS - retried,
            "retried_to_success": retried,
            "failed": 0,
            "eventual_success_rate": 1.0,
            "router_failovers": failovers,
            "sessions_recovered": recovered,
            "worker_restarts": [s["restarts"] for s in pool_stats],
            "environment": environment(),
        }
        _merge_into_bench("kill_primary", record)
        print(
            f"\nchaos: killed worker {primary} under {N_CLIENTS}-client load, "
            f"recovered in {recovery_seconds:.3f}s, "
            f"{record['succeeded_first_try']} first-try + {retried} retried "
            f"= 100% eventual success "
            f"({failovers:.0f} failovers, {recovered:.0f} replays) "
            f"-> {BENCH_PATH.name}"
        )

"""The self-healing worker tier: journals, failover, drain, faults.

Unit coverage for the PR-10 fault-tolerance primitives (session
journals, the deterministic :class:`FaultPlan` harness, replica sets,
circuit breakers, the retry helper) plus the chaos acceptance paths:
SIGKILL the primary mid-``debug`` and get the journal-replayed,
failed-over answer byte-identical to a no-fault run; drain + restart a
worker without losing a session; survive a front-end restart by
adopting journaled sessions; kill a worker mid-stream and still get a
structured terminal error.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.errors import ServiceError
from repro.db import Database
from repro.service import (
    CircuitBreaker,
    DatasetCatalog,
    DBWipesServer,
    FaultPlan,
    JournalStore,
    ServiceClient,
    SessionManager,
    WorkerPool,
)
import repro.service.handlers as handlers
import repro.service.router as routing
from repro.service import faults
from repro.service.router import RoutingDispatcher, replica_set
from repro.service.workers import WorkerHandle

from test_async_service import routed_toy_catalog
from test_service import TOY_SQL, toy_table


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    """Every test starts and ends with no fault plan in force."""
    faults.clear()
    yield
    faults.clear()


def _drive_to_metric(client: ServiceClient) -> None:
    client.execute(TOY_SQL)
    client.select_results(brush={"above": 5.0})
    client.zoom()
    client.select_inputs(brush={"above": 50.0})
    client.set_metric("too_high", threshold=2.0)


def _report(client: ServiceClient) -> dict:
    report = client.debug()
    report["timings"] = None  # wall-clock differs run to run, by design
    return report


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def toy_catalog_in(data_dir: str) -> DatasetCatalog:
    """The toy catalog over an explicit data dir: its workers journal
    every session even when ``REPRO_DATA_DIR`` is unset."""
    catalog = DatasetCatalog(data_dir=data_dir)
    table = toy_table()

    def build() -> Database:
        db = Database()
        db.register(table)
        return db

    catalog.register("toy", build, bootstrap=TOY_SQL)
    return catalog


# ----------------------------------------------------------------------
# journals
# ----------------------------------------------------------------------


class TestJournalStore:
    def test_roundtrip_and_peek(self, tmp_path):
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        journal.append("execute", {"sql": TOY_SQL, "max_rows": None})
        journal.append("set_metric", {"form": "too_high", "params": {}})
        assert store.exists("alice")
        assert store.peek("alice") == "toy"
        loaded = store.load("alice")
        assert loaded.dataset == "toy"
        assert loaded.corrupt_records == 0
        assert loaded.records == [
            ("execute", {"sql": TOY_SQL, "max_rows": None}),
            ("set_metric", {"form": "too_high", "params": {}}),
        ]

    def test_reopen_truncates_history(self, tmp_path):
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        journal.append("execute", {"sql": TOY_SQL})
        store.create("alice", "toy")  # explicit open starts fresh
        assert store.load("alice").records == []

    def test_corrupt_tail_yields_longest_valid_prefix(self, tmp_path):
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        journal.append("execute", {"sql": TOY_SQL})
        journal.append("set_metric", {"form": "too_high"})
        path = store.path_for("alice")
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1][:-10] + "X" * 10  # smash the last record
        path.write_text("\n".join(lines) + "\n")
        loaded = store.load("alice")
        assert loaded.records == [("execute", {"sql": TOY_SQL})]
        assert loaded.corrupt_records == 1
        assert store.stats()["corrupt_records"] == 1

    def test_corrupt_open_record_is_a_miss(self, tmp_path):
        store = JournalStore(tmp_path)
        store.create("alice", "toy")
        path = store.path_for("alice")
        path.write_text("not json at all\n" + path.read_text())
        assert store.load("alice") is None
        assert store.peek("alice") is None

    def test_discard_forgets_the_session(self, tmp_path):
        store = JournalStore(tmp_path)
        store.create("alice", "toy")
        assert store.sessions() == 1
        store.discard("alice")
        assert store.sessions() == 0
        assert store.load("alice") is None
        store.discard("alice")  # idempotent

    def test_fault_plan_corrupts_one_record_then_repairs(self, tmp_path):
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        # An append writes only its own line, so the plan must be in
        # place when record 1 itself is written.
        faults.install(FaultPlan(corrupt_session="alice", corrupt_seq=1))
        journal.append("execute", {"sql": TOY_SQL})
        journal.append("set_metric", {"form": "too_high"})
        # Record 1's line was written with a bad checksum: replay
        # keeps only the (empty) prefix before it.
        assert store.load("alice").records == []
        # The corruption trigger is one-shot and the in-memory records
        # are authoritative — the next publish repairs the file (this
        # is drain_prepare's repair path in miniature).
        journal.publish()
        assert [cmd for cmd, _ in store.load("alice").records] == [
            "execute",
            "set_metric",
        ]

    def test_the_500th_append_adds_exactly_one_line(
        self, tmp_path, monkeypatch
    ):
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        path = store.path_for("alice")
        rewrites = []
        real_replace = os.replace
        monkeypatch.setattr(
            os, "replace", lambda *a: rewrites.append(a) or real_replace(*a)
        )
        growth = []
        for _ in range(500):
            before = path.read_bytes()
            journal.append("select_results", {"brush": {"below": 0.0}})
            after = path.read_bytes()
            assert after.startswith(before)
            growth.append(len(after) - len(before))
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 501
        assert growth[-1] == len(lines[-1])
        # Only the seq number's digits differ between the records.
        assert max(growth) - min(growth) == 2
        assert rewrites == []
        assert store.stats()["appends"] == 501  # create's write + 500

    def test_replay_after_500_appends_equals_memory(self, tmp_path):
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        for i in range(500):
            journal.append("select_results", {"brush": {"below": float(i)}})
        loaded = store.load("alice")
        assert loaded.corrupt_records == 0
        assert loaded.records == [
            (record["cmd"], record["args"]) for record in journal.records[1:]
        ]

    def test_torn_last_line_is_dropped(self, tmp_path):
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        journal.append("execute", {"sql": TOY_SQL})
        journal.append("set_metric", {"form": "too_high"})
        path = store.path_for("alice")
        # A crash mid-write leaves part of the last line, no newline.
        path.write_bytes(path.read_bytes()[:-20])
        loaded = store.load("alice")
        assert loaded.records == [("execute", {"sql": TOY_SQL})]
        assert loaded.corrupt_records == 1

    @pytest.mark.parametrize("failure", ["short", "failed"])
    def test_failed_write_is_healed_by_the_next_append(
        self, tmp_path, monkeypatch, failure
    ):
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        journal.append("execute", {"sql": TOY_SQL})
        real_write = os.write

        def broken_write(fd, data):
            if failure == "short":
                return real_write(fd, data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr(os, "write", broken_write)
            journal.append("set_metric", {"form": "too_high"})
        assert journal.dirty
        assert store.stats()["publish_failures"] == 1
        # The file lacks the record (or holds half of it): replay stops.
        assert store.load("alice").records == [("execute", {"sql": TOY_SQL})]
        journal.append("debug", {})
        assert not journal.dirty
        loaded = store.load("alice")
        assert loaded.corrupt_records == 0
        assert [cmd for cmd, _ in loaded.records] == [
            "execute",
            "set_metric",
            "debug",
        ]

    def test_deleted_journal_is_recreated_whole_by_the_next_append(
        self, tmp_path
    ):
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        journal.append("execute", {"sql": TOY_SQL})
        store.path_for("alice").unlink()
        journal.append("set_metric", {"form": "too_high"})
        loaded = store.load("alice")
        assert loaded.dataset == "toy"
        assert [cmd for cmd, _ in loaded.records] == ["execute", "set_metric"]

    def test_append_never_creates_a_headless_file(
        self, tmp_path, monkeypatch
    ):
        """A file deleted between the existence check and the open is not
        regrown as a lone line: the open has no ``O_CREAT``, the append
        marks the journal dirty, and the next one rewrites it whole."""
        store = JournalStore(tmp_path)
        journal = store.create("alice", "toy")
        store.path_for("alice").unlink()
        with monkeypatch.context() as patch:
            patch.setattr(store, "exists", lambda name: True)
            journal.append("execute", {"sql": TOY_SQL})
        assert not store.path_for("alice").exists()
        assert journal.dirty
        journal.append("set_metric", {"form": "too_high"})
        assert [cmd for cmd, _ in store.load("alice").records] == [
            "execute",
            "set_metric",
        ]


# ----------------------------------------------------------------------
# the fault harness
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_kill_fires_once_on_nth_request(self):
        plan = FaultPlan(kill_worker=1, kill_on_request=2)
        assert plan.worker_request(1) == (False, False)
        assert plan.worker_request(0) == (False, False)  # other worker
        assert plan.worker_request(1) == (True, False)
        assert plan.worker_request(1) == (False, False)  # one-shot
        assert plan.describe()["kill"]["fired"] is True

    def test_drop_reply_fires_once(self):
        plan = FaultPlan(drop_worker=0, drop_on_request=1)
        assert plan.worker_request(0) == (False, True)
        assert plan.worker_request(0) == (False, False)

    def test_delay_budget(self):
        plan = FaultPlan(delay_cmd="debug", delay_seconds=0.25, delay_times=2)
        assert plan.delay_before("execute") == 0.0
        assert plan.delay_before("debug") == 0.25
        assert plan.delay_before("debug") == 0.25
        assert plan.delay_before("debug") == 0.0  # budget spent

    def test_env_plan_parses_and_caches(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULT_PLAN_ENV,
            json.dumps({"kill": {"worker": 3, "request": 5}}),
        )
        plan = faults.active_plan()
        assert plan is not None and plan.kill_worker == 3
        assert plan.kill_on_request == 5
        assert faults.active_plan() is plan  # cached against the raw value
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, "not json")
        assert faults.active_plan() is None

    def test_installed_plan_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULT_PLAN_ENV, json.dumps({"kill": {"worker": 3}})
        )
        mine = FaultPlan(kill_worker=0)
        faults.install(mine)
        assert faults.active_plan() is mine
        faults.clear()
        assert faults.active_plan().kill_worker == 3

    def test_kill_fails_a_request_the_worker_answered_first(self):
        """The scripted kill lands after the send, so the worker may be
        mid-dispatch or even done; a reply that beats the kill is
        ignored and the call still fails as ``WorkerCrashed``. Here the
        kill is held back until the worker has surely answered."""
        with WorkerPool(1) as pool:
            handle = pool.workers[0]
            assert handle.call({"id": 0, "cmd": "ping"})["ok"]
            process = handle.process
            real_kill = process.kill

            def late_kill():
                time.sleep(0.5)
                real_kill()

            process.kill = late_kill
            faults.install(FaultPlan(kill_worker=0, kill_on_request=1))
            envelope = handle.call({"id": 1, "cmd": "ping"})
            assert envelope["error"]["kind"] == "WorkerCrashed"
            process.join(timeout=5)
            assert not process.is_alive() and handle.restarts == 1
            assert handle.call({"id": 2, "cmd": "ping"})["ok"]


# ----------------------------------------------------------------------
# replica sets + breakers
# ----------------------------------------------------------------------


class TestReplicaSets:
    def test_deterministic_across_processes(self):
        """Another interpreter, with another ``hash()`` salt, places every
        dataset alike; on 2 workers ``fec`` and ``intel`` keep primary 0."""
        keys = [f"dataset-{i}" for i in range(100)]
        expected = [replica_set(key, n) for key in keys for n in (1, 2, 3, 5)]
        src = str(pathlib.Path(routing.__file__).parents[2])
        script = (
            "from repro.service.router import replica_set\n"
            f"print([replica_set(k, n) for k in {keys!r} for n in (1, 2, 3, 5)])"
        )
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "4242"}
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert json.loads(out) == expected
        assert replica_set("fec", 2)[0] == replica_set("intel", 2)[0] == 0

    def test_distinct_workers_primary_first(self):
        for n in range(2, 7):
            for i in range(50):
                replicas = replica_set(f"dataset-{i}", n)
                assert len(set(replicas)) == len(replicas) == routing.N_REPLICAS
                primary = replicas[0]
                assert replicas == [(primary + k) % n for k in range(len(replicas))]

    def test_primaries_cover_every_worker(self):
        for n in range(1, 7):
            primaries = {replica_set(f"dataset-{i}", n)[0] for i in range(200)}
            assert primaries == set(range(n))

    def test_whole_pool_when_smaller_than_n_replicas(self, monkeypatch):
        monkeypatch.setattr(routing, "N_REPLICAS", 5)
        for n in range(1, 6):
            assert sorted(replica_set("k", n)) == list(range(n))


class TestCircuitBreaker:
    def test_full_transition_cycle(self):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(
            threshold=3, reset_seconds=5.0, clock=lambda: clock["now"]
        )
        assert breaker.state == "closed" and breaker.state_value == 0
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()  # still closed below the threshold
        breaker.record_failure()
        assert breaker.state == "open" and breaker.state_value == 2
        assert not breaker.allow()
        clock["now"] = 4.9
        assert not breaker.allow()
        clock["now"] = 5.0
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half_open" and breaker.state_value == 1
        assert not breaker.allow()  # only one probe at a time
        breaker.record_failure()  # probe failed: re-open for a full window
        assert breaker.state == "open"
        clock["now"] = 10.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"


# ----------------------------------------------------------------------
# the client retry helper
# ----------------------------------------------------------------------


class _ScriptedClient(ServiceClient):
    """call() pops scripted outcomes instead of touching a socket."""

    def __init__(self, script):
        super().__init__(session="scripted")
        self.script = list(script)

    def call(self, cmd, session=None, **args):
        outcome = self.script.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


class _HalfRng:
    def random(self):
        return 0.5  # jitter factor exactly 1.0


class TestCallWithRetry:
    def test_schedule_honors_retry_after_and_doubles(self):
        client = _ScriptedClient(
            [
                ServiceError("busy", kind="ServerBusy", retry_after=0.3),
                ServiceError("died", kind="WorkerCrashed"),
                ServiceError("slow", kind="WorkerTimeout"),
                {"done": True},
            ]
        )
        sleeps: list[float] = []
        result = client.call_with_retry(
            "debug",
            base_backoff=0.05,
            max_backoff=2.0,
            sleep=sleeps.append,
            rng=_HalfRng(),
        )
        assert result == {"done": True}
        # retry_after floor (0.3) beats the first backoff step (0.05);
        # then pure exponential: 0.1, 0.2.
        assert sleeps == pytest.approx([0.3, 0.1, 0.2])

    def test_non_retryable_kind_raises_immediately(self):
        client = _ScriptedClient(
            [ServiceError("nope", kind="SessionError"), {"never": True}]
        )
        sleeps: list[float] = []
        with pytest.raises(ServiceError) as excinfo:
            client.call_with_retry("debug", sleep=sleeps.append)
        assert excinfo.value.kind == "SessionError"
        assert sleeps == []

    def test_retries_exhaust(self):
        client = _ScriptedClient(
            [
                ServiceError("died", kind="WorkerCrashed"),
                ServiceError("died again", kind="WorkerCrashed"),
            ]
        )
        sleeps: list[float] = []
        with pytest.raises(ServiceError):
            client.call_with_retry(
                "debug", retries=1, sleep=sleeps.append, rng=_HalfRng()
            )
        assert len(sleeps) == 1


# ----------------------------------------------------------------------
# pool close race (regression)
# ----------------------------------------------------------------------


class TestPoolCloseRace:
    def test_worker_crash_during_close_never_respawns(self, monkeypatch):
        """A worker that dies while a sibling is being reaped must find
        its respawn guard already latched (two-phase close) — the old
        one-phase close leaked a freshly respawned orphan here."""
        pool = WorkerPool(2)
        h0, h1 = pool.workers
        victim_process = h1.process
        original_reap = WorkerHandle.reap

        def chaotic_reap(self):
            if self is h0 and victim_process is not None:
                victim_process.kill()
                # Give h1's reader thread time to observe the EOF and
                # take its crash-vs-close branch while h0 is reaped.
                deadline = time.monotonic() + 2.0
                while victim_process.is_alive() and time.monotonic() < deadline:
                    time.sleep(0.01)
                time.sleep(0.2)
            original_reap(self)

        monkeypatch.setattr(WorkerHandle, "reap", chaotic_reap)
        pool.close()
        assert h1.restarts == 0
        assert h1.process is None or not h1.process.is_alive()
        envelope = h1.call({"id": 1, "cmd": "ping"})
        assert envelope["error"]["kind"] == "WorkerCrashed"


# ----------------------------------------------------------------------
# chaos acceptance: the routed tier heals
# ----------------------------------------------------------------------


class TestChaosAcceptance:
    def test_kill_primary_mid_debug_answers_byte_identical(
        self, tmp_path, monkeypatch
    ):
        """SIGKILL the dataset's primary while it serves ``debug``: the
        router replays the session's journal on the replica and answers
        byte-identically to a no-fault run — the client never sees the
        crash."""
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            host, port = srv.address
            assert srv.dispatcher.journals is not None
            primary = replica_set("toy", len(srv.dispatcher.pool))[0]
            with ServiceClient(host, port, session="ref", timeout=120) as c:
                c.open("toy")
                _drive_to_metric(c)
                reference = _report(c)
            with ServiceClient(host, port, session="victim", timeout=120) as c:
                c.open("toy")
                _drive_to_metric(c)
                faults.install(
                    FaultPlan(kill_worker=primary, kill_on_request=1)
                )
                healed = _report(c)
            assert canonical(healed) == canonical(reference)
            # The placement failed over to the replica, and the crash
            # surfaced in telemetry rather than at the client.
            placed_on, dataset = srv.dispatcher.placement_of("victim")
            assert placed_on != primary and dataset == "toy"
            with ServiceClient(host, port, timeout=120) as c:
                merged = c.metrics()["merged"]
            totals = {
                name: 0.0
                for name in (
                    "dbwipes_failovers_total",
                    "dbwipes_sessions_recovered_total",
                )
            }
            for series in merged["metrics"]:
                if series["name"] in totals:
                    totals[series["name"]] += series["value"]
            assert totals["dbwipes_failovers_total"] >= 1
            assert totals["dbwipes_sessions_recovered_total"] >= 1

    def test_front_end_restart_adopts_journaled_sessions(
        self, tmp_path, monkeypatch
    ):
        """Placements are in-memory but journals are not: a brand-new
        server over the same data dir re-admits a session it has never
        seen, replaying it on first touch."""
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as first:
            with ServiceClient(
                *first.address, session="survivor", timeout=120
            ) as c:
                c.open("toy")
                _drive_to_metric(c)
                reference = _report(c)
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as second:
            assert second.dispatcher.placement_of("survivor") is None
            with ServiceClient(
                *second.address, session="survivor", timeout=120
            ) as c:
                # No open: the journal alone re-admits the session.
                assert canonical(_report(c)) == canonical(reference)
            assert second.dispatcher.placement_of("survivor") is not None

    def test_unknown_session_still_rejected_at_front(
        self, tmp_path, monkeypatch
    ):
        """A session with neither placement nor journal is refused
        without a worker round-trip, exactly as before."""
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            with ServiceClient(*srv.address, session="ghost") as c:
                with pytest.raises(ServiceError) as excinfo:
                    c.execute(TOY_SQL)
                assert excinfo.value.kind == "UnknownSession"
            assert all(
                s["requests"] == 0 for s in srv.dispatcher.pool.stats()
            )

    def test_drain_restart_loses_no_sessions(self, tmp_path, monkeypatch):
        """Drain the primary with restart: its sessions hand off to the
        replica by replay, the process is replaced, and every session
        keeps answering — the rolling-restart acceptance."""
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            host, port = srv.address
            primary = replica_set("toy", len(srv.dispatcher.pool))[0]
            with ServiceClient(host, port, session="a", timeout=120) as ca:
                ca.open("toy")
                _drive_to_metric(ca)
                reference = _report(ca)
                with ServiceClient(
                    host, port, session="b", timeout=120
                ) as cb:
                    cb.open("toy")
                    _drive_to_metric(cb)
                    summary = ca.drain(primary, deadline=5.0, restart=True)
                    assert summary["worker"] == primary
                    assert summary["sessions_moved"] == 2
                    assert summary["sessions_failed"] == 0
                    assert summary["restarted"] is True
                    assert summary["draining"] is False
                    # Both sessions answer, now from the replica, with
                    # the same bytes as before the drain.
                    assert canonical(_report(ca)) == canonical(reference)
                    assert canonical(_report(cb)) == canonical(reference)
                    for name in ("a", "b"):
                        worker, _ = srv.dispatcher.placement_of(name)
                        assert worker != primary

    def test_corrupt_journal_recovers_longest_prefix(
        self, tmp_path, monkeypatch
    ):
        """A journal with a smashed tail still recovers: replay stops at
        the corruption and reports it, and the session is usable from
        the surviving prefix."""
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            host, port = srv.address
            with ServiceClient(
                host, port, session="patchy", timeout=120
            ) as c:
                c.open("toy")
                _drive_to_metric(c)
                _report(c)
            store = srv.dispatcher.journals
            path = store.path_for("patchy")
            lines = path.read_text().splitlines()
            # Smash everything after execute: brushes/metric/debug gone.
            lines[2] = lines[2][:-8] + "X" * 8
            path.write_text("\n".join(lines) + "\n")
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            with ServiceClient(
                *srv.address, session="patchy", timeout=120
            ) as c:
                recovered = c.recover()
                assert recovered["recovered"] == "patchy"
                assert recovered["corrupt_records"] == 1
                assert recovered["replayed"] == 1  # execute only
                # The session works from the prefix: re-drive the rest.
                c.select_results(brush={"above": 5.0})
                c.zoom()
                c.select_inputs(brush={"above": 50.0})
                c.set_metric("too_high", threshold=2.0)
                assert _report(c)["n_predicates"] >= 1

    def test_crash_heals_when_only_the_workers_see_the_data_dir(
        self, tmp_path, monkeypatch
    ):
        """The workers' catalog names the data dir and the front end's
        environment does not: the workers journal every session, so a
        killed primary still heals byte-identically — the replica's
        ``recover`` decides, not the router's view of the data dir."""
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        with DBWipesServer(
            port=0,
            workers=2,
            catalog_factory=functools.partial(toy_catalog_in, str(tmp_path)),
        ) as srv:
            host, port = srv.address
            assert srv.dispatcher.journals is None
            primary = replica_set("toy", len(srv.dispatcher.pool))[0]
            with ServiceClient(host, port, session="ref", timeout=120) as c:
                c.open("toy")
                _drive_to_metric(c)
                reference = _report(c)
            with ServiceClient(host, port, session="victim", timeout=120) as c:
                c.open("toy")
                _drive_to_metric(c)
                assert JournalStore(tmp_path / "journal").exists("victim")
                faults.install(
                    FaultPlan(kill_worker=primary, kill_on_request=1)
                )
                healed = _report(c)
            assert canonical(healed) == canonical(reference)
            assert srv.dispatcher.placement_of("victim")[0] != primary

    def test_drain_moves_sessions_when_only_the_workers_see_the_data_dir(
        self, tmp_path, monkeypatch
    ):
        """Same set-up: a drain with restart hands the journaled session
        to the replica instead of keeping it on the replaced process."""
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        with DBWipesServer(
            port=0,
            workers=2,
            catalog_factory=functools.partial(toy_catalog_in, str(tmp_path)),
        ) as srv:
            host, port = srv.address
            assert srv.dispatcher.journals is None
            primary = replica_set("toy", len(srv.dispatcher.pool))[0]
            with ServiceClient(host, port, session="a", timeout=120) as c:
                c.open("toy")
                _drive_to_metric(c)
                reference = _report(c)
                summary = c.drain(primary, deadline=5.0, restart=True)
                assert summary["sessions_moved"] == 1
                assert summary["sessions_kept"] == 0
                assert summary["sessions_failed"] == 0
                assert summary["restarted"] is True
                assert canonical(_report(c)) == canonical(reference)
            assert srv.dispatcher.placement_of("a")[0] != primary

    def test_crash_mid_stream_yields_structured_terminal_error(
        self, monkeypatch
    ):
        """No journal tier: killing the worker during a debug must end
        the exchange with a structured WorkerCrashed envelope — never a
        hang or a truncated line."""
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            host, port = srv.address
            assert srv.dispatcher.journals is None
            primary = replica_set("toy", len(srv.dispatcher.pool))[0]
            with ServiceClient(
                host, port, session="streamer", timeout=120
            ) as c:
                c.open("toy")
                _drive_to_metric(c)
                faults.install(
                    FaultPlan(kill_worker=primary, kill_on_request=1)
                )
                with pytest.raises(ServiceError) as excinfo:
                    c.debug()
                assert excinfo.value.kind == "WorkerCrashed"
                # The connection survived the crash: the same client
                # reopens and finishes the cycle on the respawned tier.
                faults.clear()
                c.open("toy")
                _drive_to_metric(c)
                assert _report(c)["n_predicates"] >= 1


class TestScriptedDelays:
    def test_routed_broadcast_honours_delay(self):
        """A scripted delay on a broadcast command (``stats`` fans out to
        every worker) holds the request as it does a session command."""
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            with ServiceClient(*srv.address, timeout=60) as c:
                c.stats()
                faults.install(FaultPlan(delay_cmd="stats", delay_seconds=0.5))
                start = time.perf_counter()
                assert c.stats()["workers"] == 2
                assert time.perf_counter() - start >= 0.5


class TestSingleProcessLifecycleCommands:
    def test_drain_and_resize_need_workers(self):
        """``drain`` needs the multi-worker tier. The worker count is fixed
        for the life of a server, so both tiers answer ``resize`` as an
        unknown command."""
        with DBWipesServer(port=0) as single, DBWipesServer(
            port=0, workers=1, catalog_factory=routed_toy_catalog
        ) as routed:
            with ServiceClient(*single.address, session="solo") as c:
                with pytest.raises(ServiceError) as excinfo:
                    c.call("drain", worker=0)
                assert "multi-worker" in str(excinfo.value)
            for srv in (single, routed):
                with ServiceClient(*srv.address) as c:
                    with pytest.raises(ServiceError) as excinfo:
                        c.call("resize", workers=2)
                    assert excinfo.value.kind == "ProtocolError"
                    assert "unknown command 'resize'" in str(excinfo.value)


# ----------------------------------------------------------------------
# a served session lives on one worker, and its journal stays whole
# ----------------------------------------------------------------------

#: The §3.2-style toy cycle as wire commands, up to and including debug.
TOY_CYCLE = (
    ("execute", {"sql": TOY_SQL}),
    ("select_results", {"brush": {"above": 5.0}}),
    ("zoom", {}),
    ("select_inputs", {"brush": {"above": 50.0}}),
    ("set_metric", {"form": "too_high", "params": {"threshold": 2.0}}),
    ("debug", {}),
)

#: The snapshot fields that describe a session's state (not its timings).
STATE_FIELDS = (
    "state", "sql", "num_rows", "selected_rows", "n_dprime", "metric",
    "applied_predicates",
)


def _call(dispatch, cmd: str, session: str | None = None, **args) -> dict:
    """One request through ``dispatch`` (a router's ``handle`` or a
    manager-bound ``handlers.dispatch``); the result, or a failed test."""
    envelope = dispatch({"id": cmd, "cmd": cmd, "session": session, "args": args})
    assert envelope["ok"], envelope
    return envelope["result"]


def _state(snapshot: dict) -> dict:
    return {field: snapshot[field] for field in STATE_FIELDS}


def _routed(data_dir, call_timeout: float = 30.0):
    """Two workers journaling under ``data_dir``, behind a router that
    does not see the data dir itself."""
    pool = WorkerPool(
        2,
        catalog_factory=functools.partial(toy_catalog_in, str(data_dir)),
        call_timeout=call_timeout,
    )
    return pool, RoutingDispatcher(pool)


def _no_fault_answers(router) -> tuple[dict, str]:
    """The state after the brushes and the SQL after ``apply 0`` of a
    session that never met a fault."""
    _call(router.handle, "open", name="ref", dataset="toy")
    for cmd, args in TOY_CYCLE[:2]:
        _call(router.handle, cmd, "ref", **args)
    brushed = _state(_call(router.handle, "snapshot", "ref"))
    for cmd, args in TOY_CYCLE[2:]:
        _call(router.handle, cmd, "ref", **args)
    _call(router.handle, "apply", "ref", index=0)
    return brushed, _call(router.handle, "sql", "ref")["sql"]


class TestOneLiveCopy:
    def test_reopen_after_a_failover_resumes_the_session(
        self, tmp_path, monkeypatch
    ):
        """A killed primary heals "a" on the replica; a second ``open``
        of "a" (what ``connect --session a`` sends) resumes it there, not
        as a new session on the respawned primary, and the journal keeps
        its history."""
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        pool, router = _routed(tmp_path)
        with pool:
            brushed, applied_sql = _no_fault_answers(router)
            primary = replica_set("toy", len(pool))[0]
            _call(router.handle, "open", name="a", dataset="toy")
            _call(router.handle, "execute", "a", sql=TOY_SQL)
            faults.install(FaultPlan(kill_worker=primary, kill_on_request=1))
            _call(router.handle, "select_results", "a", brush={"above": 5.0})
            faults.clear()
            healed_on = router.placement_of("a")[0]
            assert healed_on != primary
            reopened = _call(router.handle, "open", name="a", dataset="toy")
            assert reopened["worker"] == healed_on
            assert _state(reopened["snapshot"]) == brushed
            loaded = JournalStore(tmp_path / "journal").load("a")
            assert [cmd for cmd, __ in loaded.records][:2] == [
                "execute",
                "select_results",
            ]
            for cmd, args in TOY_CYCLE[2:]:
                _call(router.handle, cmd, "a", **args)
            _call(router.handle, "apply", "a", index=0)
            assert _call(router.handle, "sql", "a")["sql"] == applied_sql

    def test_a_copy_its_journal_moved_past_is_replayed(
        self, tmp_path, monkeypatch
    ):
        """A dropped ``debug`` reply moves "a" from P to Q, where ``apply``
        runs; a kill of Q hands "a" back to P, which still holds its
        pre-move copy. P must replay the journal instead of answering
        from that copy, so ``sql`` carries the applied predicate."""
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        pool, router = _routed(tmp_path, call_timeout=2.0)
        with pool:
            __, applied_sql = _no_fault_answers(router)
            assert "NOT" in applied_sql
            first = _call(router.handle, "open", name="a", dataset="toy")["worker"]
            for cmd, args in TOY_CYCLE:
                _call(router.handle, cmd, "a", **args)
            faults.install(FaultPlan(drop_worker=first, drop_on_request=1))
            _call(router.handle, "debug", "a")  # times out on P, answered by Q
            faults.clear()
            second = router.placement_of("a")[0]
            assert second != first
            _call(router.handle, "apply", "a", index=0)
            faults.install(FaultPlan(kill_worker=second, kill_on_request=1))
            assert _call(router.handle, "sql", "a")["sql"] == applied_sql
            faults.clear()
            assert router.placement_of("a")[0] == first


class _Died(BaseException):
    """A worker dying mid-replay, as far as the replay can tell."""


def _manager(data_dir) -> SessionManager:
    return SessionManager(catalog=toy_catalog_in(str(data_dir)))


def _on(manager: SessionManager):
    return functools.partial(handlers.dispatch, manager)


class TestRecoverWritesAfterReplay:
    def test_death_mid_replay_leaves_the_journal_whole(
        self, tmp_path, monkeypatch
    ):
        """A replay that dies at ``debug`` writes nothing, and the next
        ``recover`` rebuilds the no-fault session from every record."""
        owner = _manager(tmp_path)
        _call(_on(owner), "open", name="a", dataset="toy")
        for cmd, args in TOY_CYCLE:
            _call(_on(owner), cmd, "a", **args)
        _call(_on(owner), "apply", "a", index=0)
        expected = _state(_call(_on(owner), "snapshot", "a"))
        path = JournalStore(tmp_path / "journal").path_for("a")
        before = path.read_bytes()

        def dies(session, args):
            raise _Died()

        heir = _manager(tmp_path)
        with monkeypatch.context() as patch:
            patch.setitem(handlers._SESSION_HANDLERS, "debug", dies)
            with pytest.raises(_Died):
                handlers.dispatch(
                    heir, {"id": 1, "cmd": "recover", "args": {"session": "a"}}
                )
        assert path.read_bytes() == before
        assert "a" not in heir  # the half-replayed copy does not serve
        recovered = _call(_on(heir), "recover", session="a")
        assert recovered["replayed"] == len(TOY_CYCLE) + 1
        assert recovered["truncated_at"] is None
        assert _state(_call(_on(heir), "snapshot", "a")) == expected
        assert path.read_bytes() == before  # a clean replay writes nothing

    def test_replay_that_stops_early_publishes_the_kept_prefix(self, tmp_path):
        """A record that no longer replays truncates the journal to the
        records before it, so later appends follow that prefix."""
        owner = _manager(tmp_path)
        _call(_on(owner), "open", name="a", dataset="toy")
        _call(_on(owner), "execute", "a", sql=TOY_SQL)
        store = JournalStore(tmp_path / "journal")
        journal = owner.get("a").journal
        journal.append("apply", {"index": 0})  # fails: nothing ranked yet
        journal.append("zoom", {})
        heir = _manager(tmp_path)
        recovered = _call(_on(heir), "recover", session="a")
        assert recovered["replayed"] == 1
        assert recovered["truncated_at"].startswith("apply")
        assert [cmd for cmd, __ in store.load("a").records] == ["execute"]
        _call(_on(heir), "select_results", "a", brush={"above": 5.0})
        assert [cmd for cmd, __ in store.load("a").records] == [
            "execute",
            "select_results",
        ]


class TestStaleCopies:
    """Two managers over one data dir stand for two workers: "a" moved
    from ``old`` to ``new``, which journaled past ``old``'s copy."""

    def _moved(self, tmp_path):
        old, new = _manager(tmp_path), _manager(tmp_path)
        _call(_on(old), "open", name="a", dataset="toy")
        _call(_on(old), "execute", "a", sql=TOY_SQL)
        _call(_on(new), "recover", session="a")
        _call(_on(new), "select_results", "a", brush={"above": 5.0})
        return old, new, JournalStore(tmp_path / "journal")

    def test_drain_prepare_does_not_publish_a_stale_copy(self, tmp_path):
        old, new, store = self._moved(tmp_path)
        assert _call(_on(old), "drain_prepare")["journaled"] == 0
        assert "a" not in old
        assert [cmd for cmd, __ in store.load("a").records] == [
            "execute",
            "select_results",
        ]

    def test_recover_replays_over_a_stale_copy(self, tmp_path):
        old, new, store = self._moved(tmp_path)
        recovered = _call(_on(old), "recover", session="a")
        assert not recovered["already_live"]
        assert recovered["replayed"] == 2
        assert _call(_on(old), "snapshot", "a")["selected_rows"] == _call(
            _on(new), "snapshot", "a"
        )["selected_rows"]

    def test_open_of_a_stale_copy_starts_fresh(self, tmp_path):
        old, new, store = self._moved(tmp_path)
        opened = _call(_on(old), "open", name="a", dataset="toy")
        assert opened["snapshot"]["state"] == "new"
        assert store.load("a").records == []

    def test_a_current_copy_stays_live(self, tmp_path):
        old, new, store = self._moved(tmp_path)
        recovered = _call(_on(new), "recover", session="a")
        assert recovered["already_live"]
        assert _call(_on(new), "drain_prepare")["journaled"] == 1
        assert len(store.load("a").records) == 2

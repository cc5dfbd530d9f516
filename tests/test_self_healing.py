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

import json
import os
import time

import pytest

from repro.errors import ServiceError
from repro.service import (
    CircuitBreaker,
    DBWipesServer,
    FaultPlan,
    HashRing,
    JournalStore,
    ServiceClient,
    WorkerPool,
)
from repro.service import faults
from repro.service.workers import WorkerHandle

from test_async_service import routed_toy_catalog
from test_service import TOY_SQL


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
        journal.append("execute", {"sql": TOY_SQL})
        faults.install(FaultPlan(corrupt_session="alice", corrupt_seq=1))
        journal.append("set_metric", {"form": "too_high"})
        # Record 1's line was published with a bad checksum: replay
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


# ----------------------------------------------------------------------
# replica sets + breakers
# ----------------------------------------------------------------------


class TestReplicaSets:
    def test_nodes_for_prefix_and_determinism(self):
        first = HashRing(range(5))
        second = HashRing(range(5))
        for i in range(50):
            key = f"dataset-{i}"
            replicas = first.nodes_for(key, 3)
            assert replicas == second.nodes_for(key, 3)
            assert len(set(replicas)) == 3
            assert replicas[0] == first.node_for(key)
            assert first.nodes_for(key, 2) == replicas[:2]

    def test_nodes_for_exhausts_small_rings(self):
        ring = HashRing(range(2))
        assert sorted(ring.nodes_for("k", 10)) == [0, 1]
        with pytest.raises(ValueError):
            ring.nodes_for("k", 0)


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
            primary = int(srv.dispatcher.ring.node_for("toy"))
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
            primary = int(srv.dispatcher.ring.node_for("toy"))
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

    def test_resize_rebalances_instead_of_dropping(
        self, tmp_path, monkeypatch
    ):
        """Shrinking the pool replays doomed workers' sessions onto the
        survivors; growing keeps placements put."""
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            host, port = srv.address
            primary = int(srv.dispatcher.ring.node_for("toy"))
            with ServiceClient(host, port, session="mover", timeout=120) as c:
                c.open("toy")
                _drive_to_metric(c)
                reference = _report(c)
                grown = c.resize(3)
                assert grown["workers"] == 3
                assert grown["sessions_dropped"] == 0
                # Park the session on the highest surviving index, then
                # shrink past it: the placement must move by replay.
                c.drain(primary, deadline=2.0, restart=True)
                worker, _ = srv.dispatcher.placement_of("mover")
                assert worker != primary
                shrunk = c.resize(1)
                assert shrunk["workers"] == 1
                if worker >= 1:
                    assert shrunk["sessions_moved"] >= 1
                assert srv.dispatcher.placement_of("mover")[0] == 0
                assert canonical(_report(c)) == canonical(reference)
            assert len(srv.dispatcher.pool) == 1

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

    def test_crash_mid_stream_yields_structured_terminal_error(
        self, monkeypatch
    ):
        """No journal tier: killing the worker during a streamed debug
        must end the exchange with a structured WorkerCrashed envelope —
        never a hang or a truncated line."""
        monkeypatch.delenv("REPRO_DATA_DIR", raising=False)
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            host, port = srv.address
            assert srv.dispatcher.journals is None
            primary = int(srv.dispatcher.ring.node_for("toy"))
            with ServiceClient(
                host, port, session="streamer", timeout=120
            ) as c:
                c.open("toy")
                _drive_to_metric(c)
                faults.install(
                    FaultPlan(kill_worker=primary, kill_on_request=1)
                )
                with pytest.raises(ServiceError) as excinfo:
                    for _frame in c.debug_stream():
                        pass
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
        with DBWipesServer(port=0) as srv:
            with ServiceClient(*srv.address, session="solo") as c:
                for cmd, args in (
                    ("drain", {"worker": 0}),
                    ("resize", {"workers": 2}),
                ):
                    with pytest.raises(ServiceError) as excinfo:
                        c.call(cmd, **args)
                    assert "multi-worker" in str(excinfo.value)

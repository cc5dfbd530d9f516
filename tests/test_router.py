"""The router's routing walk, driven over a fake worker pool.

No processes: :class:`FakePool` answers each ``(worker, cmd)`` call from
a few sets (the sessions live on each worker, the journals on a shared
"disk") and records every call, so each test asserts the exact call
sequence a routing decision produced. ``clock`` and ``sleep`` are the
router's test seams: breakers read the fake clock and failover backoff
sleeps on the fake sleep, so no test waits.
"""

from __future__ import annotations

import pytest

import repro.service.router as routing
from repro.obs import registry
from repro.service import RoutingDispatcher, protocol


class FakeHandle:
    def __init__(self, index: int):
        self.index = index
        self.draining = False
        self.in_flight = 0
        self.restarts = 0

    def restart(self) -> bool:
        self.restarts += 1
        return True


class FakePool:
    """Workers that keep sessions in sets and journal to a shared set.

    ``journaled=False`` models workers without a data dir: ``recover``
    answers ``NoJournal``. ``faults[(worker, cmd)]`` is a list of error
    kinds popped one per matching call (``None`` answers normally); a
    ``WorkerCrashed`` fault also drops every session live on that worker,
    as a killed process would.
    """

    start_method = "fake"

    def __init__(self, n: int, journaled: bool = True):
        self.workers = [FakeHandle(index) for index in range(n)]
        self.live: list[set[str]] = [set() for _ in range(n)]
        self.journals: set[str] | None = set() if journaled else None
        self.faults: dict[tuple[int, str], list] = {}
        self.calls: list[tuple[int, str]] = []

    def __len__(self) -> int:
        return len(self.workers)

    def call(self, index, message, timeout=None, on_partial=None) -> dict:
        cmd = message["cmd"]
        args = message.get("args") or {}
        self.calls.append((index, cmd))
        request_id = message.get("id")
        queued = self.faults.get((index, cmd))
        kind = queued.pop(0) if queued else None
        if kind == "WorkerCrashed":
            self.live[index].clear()
        if kind is not None:
            return protocol.error_response(request_id, kind, "scripted fault")
        live = self.live[index]
        if cmd == "open":
            live.add(args["name"])
            if self.journals is not None:
                self.journals.add(args["name"])
            return protocol.ok_response(request_id, {"session": args["name"]})
        if cmd == "recover":
            name = args["session"]
            if name not in live:
                if self.journals is None or name not in self.journals:
                    return protocol.error_response(
                        request_id, "NoJournal", f"no journal for {name!r}"
                    )
                live.add(name)
            return protocol.ok_response(request_id, {"recovered": name})
        if cmd == "drain_prepare":
            return protocol.ok_response(request_id, {"journaled": len(live)})
        session = message.get("session")
        if session not in live:
            return protocol.error_response(
                request_id, "UnknownSession", f"unknown session {session!r}"
            )
        if cmd == "close":
            live.discard(session)
            if self.journals is not None:
                self.journals.discard(session)
        return protocol.ok_response(request_id, {"cmd": cmd})

    def stats(self) -> list[dict]:
        return [{"worker": h.index, "requests": 0} for h in self.workers]

    def close(self) -> None:
        pass


class FakeTime:
    """The ``clock`` and ``sleep`` seams: sleeping advances the clock."""

    def __init__(self):
        self.now = 0.0
        self.sleeps: list[float] = []

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds


@pytest.fixture(autouse=True)
def _no_router_journal_dir(monkeypatch):
    """The router decides healing from the workers' ``recover`` answers,
    so none of these tests gives it a journal directory of its own."""
    monkeypatch.delenv("REPRO_DATA_DIR", raising=False)


def make_router(n: int = 2, journaled: bool = True):
    pool = FakePool(n, journaled=journaled)
    fake_time = FakeTime()
    router = RoutingDispatcher(pool, clock=fake_time.clock, sleep=fake_time.sleep)
    return router, pool, fake_time


def request(router, cmd: str, session: str = "s", **args) -> dict:
    return router.handle({"id": 1, "cmd": cmd, "session": session, "args": args})


def open_session(router, name: str = "s", dataset: str = "toy") -> int:
    envelope = router.handle(
        {"id": 0, "cmd": "open", "args": {"name": name, "dataset": dataset}}
    )
    assert envelope["ok"], envelope
    return envelope["result"]["worker"]


def replica_set(router, dataset: str = "toy") -> tuple[int, int]:
    primary, replica = routing.replica_set(dataset, len(router.pool))
    return primary, replica


def kind(envelope: dict) -> str | None:
    return None if envelope["ok"] else envelope["error"]["kind"]


def open_breaker(router, worker: int) -> None:
    for _ in range(3):  # the breaker threshold
        router._breakers[worker].record_failure()
    assert router._breakers[worker].state == "open"


class TestWalk:
    def test_healthy_forward(self):
        router, pool, fake_time = make_router()
        primary, _ = replica_set(router)
        assert open_session(router) == primary
        assert request(router, "execute", sql="SELECT 1")["ok"]
        assert pool.calls == [(primary, "open"), (primary, "execute")]
        assert fake_time.sleeps == []

    def test_crash_with_a_journal_moves_the_session(self):
        router, pool, fake_time = make_router()
        primary, replica = replica_set(router)
        open_session(router)
        pool.calls.clear()
        pool.faults[(primary, "execute")] = ["WorkerCrashed"]
        assert request(router, "execute", sql="SELECT 1")["ok"]
        assert pool.calls == [
            (primary, "execute"),
            (replica, "recover"),
            (replica, "execute"),
        ]
        assert router.placement_of("s") == (replica, "toy")
        assert len(fake_time.sleeps) == 1  # one backoff before the replica
        # The session stays on the replica afterwards.
        pool.calls.clear()
        assert request(router, "sql")["ok"]
        assert pool.calls == [(replica, "sql")]

    def test_crash_without_a_journal_is_reported(self):
        """Without journals a crash stays ``WorkerCrashed``: the replica's
        ``NoJournal`` answer to one ``recover`` probe ends the walk, and
        the dead session's placement is forgotten."""
        router, pool, _ = make_router(journaled=False)
        primary, replica = replica_set(router)
        open_session(router)
        pool.calls.clear()
        pool.faults[(primary, "execute")] = ["WorkerCrashed"]
        assert kind(request(router, "execute", sql="SELECT 1")) == "WorkerCrashed"
        assert pool.calls == [(primary, "execute"), (replica, "recover")]
        assert router.placement_of("s") is None
        # The next command is refused at the front ...
        pool.calls.clear()
        assert kind(request(router, "sql")) == "UnknownSession"
        assert pool.calls == []
        # ... and a reopen lands on the respawned worker, live.
        assert open_session(router) == primary
        assert request(router, "sql")["ok"]
        assert pool.calls == [(primary, "open"), (primary, "sql")]

    def test_reopen_resumes_on_the_placed_worker(self):
        """A re-``open`` of a placed session recovers it where it lives
        (here the replica it failed over to) and opens it there."""
        router, pool, _ = make_router()
        primary, replica = replica_set(router)
        open_session(router)
        pool.faults[(primary, "execute")] = ["WorkerCrashed"]
        assert request(router, "execute", sql="SELECT 1")["ok"]
        pool.calls.clear()
        assert open_session(router) == replica
        assert pool.calls == [(replica, "recover"), (replica, "open")]
        assert router.placement_of("s") == (replica, "toy")

    def test_reopen_without_a_journal_opens_where_a_new_session_would(self):
        router, pool, _ = make_router(journaled=False)
        primary, replica = replica_set(router)
        open_session(router)
        pool.live[primary].clear()  # lost, e.g. by an eviction
        pool.calls.clear()
        assert open_session(router) == primary
        assert pool.calls == [(primary, "recover"), (primary, "open")]

    def test_reopen_on_a_crashing_worker_is_reported(self):
        router, pool, _ = make_router()
        primary, _ = replica_set(router)
        open_session(router)
        pool.faults[(primary, "recover")] = ["WorkerCrashed"]
        pool.calls.clear()
        envelope = router.handle(
            {"id": 0, "cmd": "open", "args": {"name": "s", "dataset": "toy"}}
        )
        assert kind(envelope) == "WorkerCrashed"
        assert pool.calls == [(primary, "recover")]

    def test_crash_without_a_journal_frees_the_name_for_another_dataset(self):
        router, pool, _ = make_router(journaled=False)
        primary, _ = replica_set(router)
        open_session(router, "s", "toy")
        pool.faults[(primary, "sql")] = ["WorkerCrashed"]
        assert kind(request(router, "sql")) == "WorkerCrashed"
        worker = open_session(router, "s", "other")
        assert router.placement_of("s") == (worker, "other")
        assert request(router, "sql")["ok"]
        assert router.handle({"id": 2, "cmd": "stats"})["result"]["placements"] == 1

    def test_timeout_without_a_journal_keeps_the_placement(self):
        """A timed-out worker may still hold the session, so ``NoJournal``
        after a ``WorkerTimeout`` forgets nothing."""
        router, pool, _ = make_router(journaled=False)
        primary, replica = replica_set(router)
        open_session(router)
        pool.calls.clear()
        pool.faults[(primary, "sql")] = ["WorkerTimeout"]
        assert kind(request(router, "sql")) == "WorkerTimeout"
        assert pool.calls == [(primary, "sql"), (replica, "recover")]
        assert router.placement_of("s") == (primary, "toy")

    def test_unknown_session_is_healed_in_place(self):
        router, pool, _ = make_router()
        primary, _ = replica_set(router)
        open_session(router)
        pool.live[primary].clear()  # evicted, or a respawned process
        pool.calls.clear()
        assert request(router, "sql")["ok"]
        assert pool.calls == [
            (primary, "sql"),
            (primary, "recover"),
            (primary, "sql"),
        ]
        assert router.placement_of("s") == (primary, "toy")

    def test_unknown_session_without_a_journal_is_forgotten(self):
        router, pool, _ = make_router(journaled=False)
        primary, _ = replica_set(router)
        open_session(router, "s", "toy")
        pool.live[primary].clear()  # a respawned process
        pool.calls.clear()
        assert kind(request(router, "sql")) == "UnknownSession"
        assert pool.calls == [(primary, "sql"), (primary, "recover")]
        assert router.placement_of("s") is None
        worker = open_session(router, "s", "other")
        assert router.placement_of("s") == (worker, "other")

    def test_close_is_never_replayed(self):
        router, pool, _ = make_router()
        primary, _ = replica_set(router)
        open_session(router)
        pool.live[primary].clear()
        pool.calls.clear()
        assert kind(request(router, "close")) == "UnknownSession"
        assert pool.calls == [(primary, "close")]
        assert router.placement_of("s") is None

    def test_open_breaker_on_the_placed_worker(self):
        router, pool, _ = make_router()
        primary, replica = replica_set(router)
        open_session(router)
        open_breaker(router, primary)
        pool.calls.clear()
        assert request(router, "sql")["ok"]
        assert pool.calls == [(replica, "recover"), (replica, "sql")]
        assert router.placement_of("s") == (replica, "toy")

    def test_every_breaker_open_forces_the_last_attempt(self):
        """When every breaker refuses, the walk's last entry (the placed
        worker) is tried anyway, as a move: ``recover``, then the
        command."""
        router, pool, _ = make_router()
        primary, replica = replica_set(router)
        open_session(router)
        open_breaker(router, primary)
        open_breaker(router, replica)
        pool.calls.clear()
        assert request(router, "sql")["ok"]
        assert pool.calls == [(primary, "recover"), (primary, "sql")]
        assert router.placement_of("s") == (primary, "toy")


class TestBreakerSettling:
    def test_half_open_probe_answered_no_journal_closes_the_breaker(self):
        """A walk that takes a replica's half-open probe settles it even
        when the replica answers ``NoJournal``: the worker answered, so
        it is healthy, and it is not refused forever."""
        router, pool, fake_time = make_router(journaled=False)
        primary, replica = replica_set(router)
        open_session(router)
        open_breaker(router, replica)
        fake_time.now += 6.0  # past the breaker's reset window
        pool.faults[(primary, "sql")] = ["WorkerCrashed"]
        pool.calls.clear()
        assert kind(request(router, "sql")) == "WorkerCrashed"
        assert pool.calls == [(primary, "sql"), (replica, "recover")]
        breaker = router._breakers[replica]
        assert breaker.state == "closed"
        fake_time.now += 1000.0
        assert breaker.allow()

    def test_forced_forward_settles_the_placed_breaker(self):
        router, pool, _ = make_router()
        primary, replica = replica_set(router)
        open_session(router)
        open_breaker(router, primary)
        open_breaker(router, replica)
        assert request(router, "sql")["ok"]
        assert router._breakers[primary].state == "closed"

    def test_forced_forward_that_crashes_keeps_the_breaker_open(self):
        router, pool, fake_time = make_router()
        primary, replica = replica_set(router)
        open_session(router)
        open_breaker(router, primary)
        open_breaker(router, replica)
        pool.faults[(primary, "sql")] = ["WorkerCrashed"]
        fake_time.now += 4.0  # inside the reset window opened at t=0
        assert kind(request(router, "sql")) == "WorkerCrashed"
        breaker = router._breakers[primary]
        assert breaker.state == "open"
        fake_time.now += 4.0  # the failure restarted the window
        assert not breaker.allow()


class TestDrainAndResize:
    def test_drain_counts_moved_kept_and_failed(self):
        router, pool, _ = make_router()
        primary, replica = replica_set(router)
        for name in ("moved", "failed", "kept"):
            open_session(router, name)
        pool.journals.discard("kept")
        pool.faults[(replica, "recover")] = [None, "WorkerCrashed"]
        pool.calls.clear()
        summary = router.drain(primary, restart=True)
        assert pool.calls == [
            (primary, "drain_prepare"),
            (replica, "recover"),
            (replica, "recover"),
            (replica, "recover"),
        ]
        assert (
            summary["sessions_moved"],
            summary["sessions_kept"],
            summary["sessions_failed"],
        ) == (1, 1, 1)
        assert summary["restarted"] is True and summary["draining"] is False
        assert router.placement_of("moved") == (replica, "toy")
        assert router.placement_of("failed") == (primary, "toy")
        assert router.placement_of("kept") == (primary, "toy")

    def test_drain_without_a_target_keeps_every_session(self):
        router, pool, _ = make_router(n=1)
        open_session(router, "a")
        pool.calls.clear()
        summary = router.drain(0)
        assert pool.calls == [(0, "drain_prepare")]
        assert summary["sessions_kept"] == 1
        assert summary["sessions_moved"] == summary["sessions_failed"] == 0
        assert summary["draining"] is True


class TestRequestLabels:
    def test_unknown_commands_share_one_label(self):
        """Made-up command names all count under ``cmd="invalid"``, so
        they add no registry series of their own; ``resize`` is one."""
        router, pool, _ = make_router()
        names = [f"bogus-{i}" for i in range(50)] + ["resize"]
        invalid = registry().counter(
            "dbwipes_requests_total", labels={"cmd": "invalid", "role": "server"}
        )
        before = invalid.value
        for name in names:
            envelope = router.handle({"id": 1, "cmd": name, "args": {"workers": 1}})
            assert kind(envelope) == "ProtocolError"
            assert f"unknown command {name!r}" in envelope["error"]["message"]
        assert pool.calls == []
        assert invalid.value == before + len(names)
        labelled = {
            dict(series["labels"]).get("cmd")
            for series in registry().snapshot()["metrics"]
        }
        assert labelled.isdisjoint(names)

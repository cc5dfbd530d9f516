"""The asyncio gateway: cheap/heavy lanes, admission control, per-client
rate limiting, one envelope per request, and routed mode.

Reuses the deterministic "toy" dataset from ``test_service`` so every
socket round-trip stays fast; the stepped load curve at scale lives in
``benchmarks/test_service_throughput.py``.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
import time

import pytest

from repro.core import PipelineConfig
from repro.db import Database
from repro.errors import ServiceError
from repro.service import (
    DBWipesServer,
    LocalDispatcher,
    ServiceClient,
    SessionManager,
    TokenBucket,
)
from repro.service.handlers import CHEAP_COMMANDS
from repro.service.protocol import PROTOCOL_VERSION, decode_line, encode
from repro.service.server import _auto_cap

from test_service import TOY_SQL, run_debug_cycle, toy_catalog, toy_table


def strip_timings(payload: dict) -> dict:
    """Report payloads minus the wall-clock ``timings`` block.

    Timings differ between any two runs; everything else must be
    byte-identical between the server and the in-process dispatcher."""
    out = dict(payload)
    out.pop("timings", None)
    return out


def canonical(payload: dict) -> str:
    return json.dumps(strip_timings(payload), sort_keys=True)


def routed_toy_catalog():
    """Module-level so worker processes can reconstruct it."""
    return toy_catalog(toy_table())


def lines_for_stream_flag_debug(host: str, port: int, session: str) -> list[dict]:
    """Every line a raw socket reads for one ``debug`` sent with
    ``"args": {"stream": true}``, up to the answer of a ``ping`` sent
    after it on the same connection (the gateway answers a connection's
    requests in order)."""
    with socket.create_connection((host, port), timeout=120) as sock:
        reader = sock.makefile("rb")
        sock.sendall(
            encode(
                {
                    "id": "debug",
                    "cmd": "debug",
                    "session": session,
                    "args": {"stream": True},
                }
            )
            + encode({"id": "after", "cmd": "ping"})
        )
        lines = []
        while True:
            message = decode_line(reader.readline())
            if message.get("id") == "after":
                return lines
            lines.append(message)


def assert_one_debug_envelope(lines: list[dict], baseline: dict) -> None:
    """``lines`` is one final ``ok`` envelope carrying ``baseline``'s
    report: a stream flag is an ignored argument, not a second answer."""
    assert len(lines) == 1, lines
    (envelope,) = lines
    assert envelope["id"] == "debug"
    assert envelope["ok"] is True
    assert "partial" not in envelope
    assert canonical(envelope["result"]) == canonical(baseline)


def slow_manager(table, release: threading.Event) -> SessionManager:
    """A manager whose ``slow`` dataset builds only once ``release`` is
    set: each ``open("slow")`` holds one heavy slot until then."""
    catalog = toy_catalog(table)

    def build_slow() -> Database:
        assert release.wait(20.0)
        db = Database()
        db.create_table(
            "s",
            {"g": [0, 1], "v": [1.0, 2.0]},
            types={"g": "int", "v": "float"},
        )
        return db

    catalog.register(
        "slow", build_slow, bootstrap="SELECT g, avg(v) AS a FROM s GROUP BY g"
    )
    return SessionManager(catalog=catalog)


def hold_slot(host: str, port: int, name: str) -> threading.Thread:
    """Open the slow dataset from a background client."""

    def occupy():
        with ServiceClient(host, port, session=name) as c:
            c.call_with_retry("open", dataset="slow", name=name, retries=100)

    holder = threading.Thread(target=occupy)
    holder.start()
    return holder


def wait_for_inflight(server: DBWipesServer, n: int) -> None:
    deadline = time.monotonic() + 10.0
    while (
        server.gateway_stats()["inflight"] < n and time.monotonic() < deadline
    ):
        time.sleep(0.005)
    assert server.gateway_stats()["inflight"] == n


class InProcessClient(ServiceClient):
    """A :class:`ServiceClient` whose wire is ``dispatcher.handle``: the
    same requests through the same codec, with no socket or server."""

    def __init__(self, dispatcher, session: str):
        super().__init__(session=session)
        self.dispatcher = dispatcher

    def call(self, cmd: str, session: str | None = None, **args):
        request = {"id": 1, "cmd": cmd, "session": session or self.session}
        if args:
            request["args"] = args
        envelope = self.dispatcher.handle(decode_line(encode(request)))
        return self._unwrap(decode_line(encode(envelope)))


# ----------------------------------------------------------------------
# TokenBucket
# ----------------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2.0, clock=clock)
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()  # burst exhausted
        assert bucket.seconds_until() == pytest.approx(1.0)
        clock.advance(1.0)
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        clock.advance(100.0)  # long idle: tokens cap at burst, not 1000
        for _ in range(3):
            assert bucket.try_take()
        assert not bucket.try_take()

    def test_seconds_until_is_zero_when_affordable(self):
        bucket = TokenBucket(rate=5.0, burst=5.0, clock=_FakeClock())
        assert bucket.seconds_until() == 0.0


# ----------------------------------------------------------------------
# Local (executor) mode
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def shared_table():
    return toy_table()


@pytest.fixture(scope="module")
def async_server(shared_table):
    manager = SessionManager(
        catalog=toy_catalog(shared_table),
        config=PipelineConfig(merge_predicates=True),
    )
    with DBWipesServer(manager, port=0, max_inflight=2, max_queue=16) as srv:
        yield srv


@pytest.fixture()
def async_client(async_server):
    host, port = async_server.address
    with ServiceClient(host, port, session="async-rt", timeout=60) as c:
        yield c


class TestCheapLane:
    def test_ping_reports_protocol_version(self, async_client):
        pong = async_client.ping()
        assert pong["version"] == PROTOCOL_VERSION == 4
        assert pong.get("workers", 0) == 0

    def test_stats_sessions_metrics_answer(self, async_client):
        stats = async_client.stats()
        assert "sessions" in stats
        assert isinstance(async_client.sessions(), list)
        metrics = async_client.metrics()
        assert "merged" in metrics


class TestFullSurfaceParity:
    def test_debug_cycle_matches_in_process_dispatch(self, shared_table):
        """The same scripted cycle must produce the same payload (minus
        wall-clock timings) through the server as through
        ``LocalDispatcher.handle`` in this process."""
        config = PipelineConfig(merge_predicates=True)

        def fresh_manager():
            return SessionManager(
                catalog=toy_catalog(shared_table), config=config
            )

        local = InProcessClient(LocalDispatcher(fresh_manager()), "a")
        local_report = run_debug_cycle(local)
        with DBWipesServer(fresh_manager(), port=0) as gateway:
            with ServiceClient(*gateway.address, session="a") as c:
                served_report = run_debug_cycle(c)
        assert canonical(served_report) == canonical(local_report)
        assert served_report["n_predicates"] >= 1


class TestOneDebugAnswer:
    def test_stream_flag_gets_one_envelope(self, async_server, async_client):
        report = run_debug_cycle(async_client)
        assert_one_debug_envelope(
            lines_for_stream_flag_debug(*async_server.address, "async-rt"),
            report,
        )


class TestAdmissionControl:
    def test_saturated_gateway_sheds_and_recovers(self, shared_table):
        release = threading.Event()
        manager = slow_manager(shared_table, release)
        with DBWipesServer(
            manager, port=0, max_inflight=1, max_queue=0
        ) as srv:
            host, port = srv.address
            holder = hold_slot(host, port, "slowpoke")
            try:
                # Wait until the slow open actually holds the only slot.
                wait_for_inflight(srv, 1)
                with ServiceClient(host, port, session="shed-me") as c:
                    with pytest.raises(ServiceError) as excinfo:
                        c.open("toy")  # heavy: saturated + zero queue
                    shed = excinfo.value
                    assert shed.kind == "ServerBusy"
                    assert shed.retry_after is not None and shed.retry_after > 0
                    # The cheap lane answers even while the heavy lane is
                    # saturated — liveness under overload.
                    assert c.ping()["version"] == PROTOCOL_VERSION
                    release.set()
                    holder.join(10.0)
                    assert not holder.is_alive()
                    # With capacity back, the busy-aware retry helper
                    # finishes the request instead of surfacing the shed.
                    opened = c.call_with_retry(
                        "open", dataset="toy", name="shed-me"
                    )
                    assert opened["dataset"] == "toy"
            finally:
                release.set()
                holder.join(10.0)
            assert srv.gateway_stats()["shed"] >= 1
            assert srv.gateway_stats()["inflight"] == 0
            assert srv.gateway_stats()["waiting"] == 0

    @pytest.mark.parametrize("width", [1, _auto_cap()])
    def test_cheap_lane_answers_with_every_heavy_slot_held(
        self, shared_table, width
    ):
        """The executor keeps threads beyond the gate's widest setting,
        so cheap commands answer while all ``width`` heavy slots block."""
        release = threading.Event()
        manager = slow_manager(shared_table, release)
        with DBWipesServer(
            manager, port=0, max_inflight=width, max_queue=0
        ) as srv:
            host, port = srv.address
            holders = [
                hold_slot(host, port, f"slow-{i}") for i in range(width)
            ]
            try:
                wait_for_inflight(srv, width)
                with ServiceClient(host, port, timeout=5.0) as c:
                    for cmd in ("ping", "stats", "sessions", "metrics"):
                        assert cmd in CHEAP_COMMANDS
                        start = time.monotonic()
                        c.call(cmd)
                        assert time.monotonic() - start < 5.0, cmd
                assert srv.gateway_stats()["inflight"] == width
            finally:
                release.set()
                for holder in holders:
                    holder.join(10.0)
            assert not any(holder.is_alive() for holder in holders)

    def test_idle_gateway_with_zero_queue_admits_requests(self, shared_table):
        """max_queue=0 means "never wait", not "never work": a free slot
        must still admit (regression — the shed gate used to fire on
        queue depth alone)."""
        manager = SessionManager(catalog=toy_catalog(shared_table))
        with DBWipesServer(
            manager, port=0, max_inflight=1, max_queue=0
        ) as srv:
            with ServiceClient(*srv.address, session="solo") as c:
                c.open("toy")
                c.execute(TOY_SQL)
            assert srv.gateway_stats()["shed"] == 0


class TestRateLimiting:
    def test_per_connection_bucket_sheds_second_heavy_call(self, shared_table):
        manager = SessionManager(catalog=toy_catalog(shared_table))
        with DBWipesServer(
            manager, port=0, rate=0.001, burst=1.0
        ) as srv:
            host, port = srv.address
            with ServiceClient(host, port, session="greedy") as c:
                c.open("toy")  # spends the only token
                with pytest.raises(ServiceError) as excinfo:
                    c.execute(TOY_SQL)
                assert excinfo.value.kind == "ServerBusy"
                assert excinfo.value.retry_after > 0
                # Cheap commands are never rate limited.
                assert c.ping()["version"] == PROTOCOL_VERSION
            # A fresh connection gets a fresh bucket.
            with ServiceClient(host, port, session="greedy") as c2:
                c2.execute(TOY_SQL)

    @pytest.mark.parametrize(
        "rate, burst, message",
        [
            (0.0, None, "rate must be positive"),
            (-1.0, None, "rate must be positive"),
            (float("nan"), None, "rate must be positive"),
            (1.0, 0.5, "burst must be >= 1"),
        ],
        ids=["zero-rate", "negative-rate", "nan-rate", "fractional-burst"],
    )
    def test_bad_bucket_is_refused_when_the_server_is_built(
        self, shared_table, rate, burst, message
    ):
        manager = SessionManager(catalog=toy_catalog(shared_table))
        with pytest.raises(ServiceError, match=message):
            DBWipesServer(manager, port=0, rate=rate, burst=burst)

    def test_slow_rate_defaults_to_a_one_token_burst(self, shared_table):
        manager = SessionManager(catalog=toy_catalog(shared_table))
        with DBWipesServer(manager, port=0, rate=0.25) as srv:
            assert srv.burst == 1.0
            with ServiceClient(*srv.address, session="slow") as c:
                assert c.ping()["pong"]
                c.open("toy")  # spends the one token


class TestRoutedAsyncGateway:
    def test_routed_cycle_answers_each_debug_once(self):
        pytest.importorskip("multiprocessing")
        with DBWipesServer(
            port=0, workers=2, catalog_factory=routed_toy_catalog
        ) as srv:
            host, port = srv.address
            with ServiceClient(host, port, session="routed", timeout=120) as c:
                pong = c.ping()
                assert pong["version"] == PROTOCOL_VERSION
                assert pong["workers"] == 2
                report = run_debug_cycle(c)
                assert report["n_predicates"] >= 1
                # A worker sends one envelope back over its pipe, stream
                # flag or not.
                assert_one_debug_envelope(
                    lines_for_stream_flag_debug(host, port, "routed"), report
                )
                # Broadcast cheap commands merge across workers.
                stats = c.stats()
                assert stats["workers"] == 2
                assert "merged" in c.metrics()


class TestShutdown:
    def test_stop_with_a_client_connected_logs_no_error(self, caplog):
        """Stopping the gateway while a client is still connected ends
        that connection's handler quietly. asyncio logs no error: on
        Python 3.11 a handler left to be cancelled at loop exit made the
        stream's done-callback log a ``CancelledError`` traceback."""
        caplog.set_level(logging.ERROR, logger="asyncio")
        srv = DBWipesServer(port=0)
        host, port = srv.start()
        client = ServiceClient(host, port, timeout=30)
        try:
            assert client.ping()["pong"] is True
            srv.stop()
        finally:
            client.close()
        errors = [
            record
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert errors == []

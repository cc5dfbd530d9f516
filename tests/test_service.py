"""The serving tier: wire protocol, concurrency, eviction, shared caches.

Uses a small deterministic "toy" dataset (one bad group driven by a
categorical tag) so every socket round-trip stays fast; the FEC-scale
closed-loop run lives in ``benchmarks/test_service_throughput.py``.
"""

from __future__ import annotations

import json
import math
import socket
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.db import Database, Table
from repro.errors import ProtocolError, ServiceError
from repro.frontend import Brush, DBWipesSession
from repro.service import (
    DBWipesServer,
    DatasetCatalog,
    PreprocessCache,
    ServiceClient,
    SessionManager,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    brush_from_json,
    decode_line,
    encode,
    jsonify,
    result_payload,
)

from reference.protocol import rowwise_result_payload

TOY_SQL = "SELECT g, avg(v) AS avg_v FROM toy GROUP BY g ORDER BY g"


def toy_table() -> Table:
    rng = np.random.default_rng(7)
    n_groups, per = 6, 30
    g = np.repeat(np.arange(n_groups), per)
    v = rng.normal(1.0, 0.1, n_groups * per)
    tag = np.array(["ok"] * (n_groups * per), dtype=object)
    bad = (g == 3) & (np.arange(n_groups * per) % per < 8)
    v[bad] += 100.0
    tag[bad] = "bad"
    return Table.from_columns({"g": g, "v": v, "tag": tag}, name="toy")


def toy_catalog(table: Table, data_dir=None) -> DatasetCatalog:
    catalog = DatasetCatalog(data_dir=data_dir)

    def build() -> Database:
        db = Database()
        db.register(table)
        return db

    catalog.register("toy", build, bootstrap=TOY_SQL)
    return catalog


def run_debug_cycle(client: ServiceClient) -> dict:
    """The scripted toy debug cycle; returns the report payload."""
    client.open("toy")
    client.execute(TOY_SQL)
    client.select_results(brush={"above": 5.0})
    client.zoom()
    client.select_inputs(brush={"above": 50.0})
    client.set_metric("too_high", threshold=2.0)
    return client.debug()


@pytest.fixture(scope="module")
def shared_table():
    return toy_table()


@pytest.fixture(scope="module")
def server(shared_table):
    manager = SessionManager(catalog=toy_catalog(shared_table))
    with DBWipesServer(manager, port=0) as srv:
        yield srv


@pytest.fixture()
def client(server):
    host, port = server.address
    with ServiceClient(host, port, session="roundtrip", timeout=60) as c:
        yield c


@pytest.fixture(scope="module")
def reference_report(shared_table):
    """The single-session answer the service must reproduce."""
    db = Database()
    db.register(shared_table.rename("toy"))
    session = DBWipesSession(db)
    session.execute(TOY_SQL)
    session.select_results(Brush.above(5.0))
    session.zoom()
    session.select_inputs(Brush.above(50.0))
    session.set_metric("too_high", threshold=2.0)
    return session.debug()


class TestProtocolHelpers:
    def test_jsonify_numpy_and_nonfinite(self):
        value = {
            "i": np.int64(3),
            "f": np.float64(1.5),
            "nan": float("nan"),
            "inf": np.inf,
            "arr": np.asarray([1, 2]),
            "bool": np.bool_(True),
            "nested": (np.float32(2.0), {"k": np.nan}),
        }
        out = jsonify(value)
        assert out == {
            "i": 3,
            "f": 1.5,
            "nan": None,
            "inf": None,
            "arr": [1, 2],
            "bool": True,
            "nested": [2.0, {"k": None}],
        }
        json.dumps(out, allow_nan=False)  # strict-JSON safe

    def test_encode_decode_round_trip(self):
        message = {"id": 1, "cmd": "ping", "args": {"x": [1.0, None]}}
        assert decode_line(encode(message)) == message

    def test_decode_rejects_bad_payloads(self):
        with pytest.raises(ProtocolError):
            decode_line(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_line(b"[1, 2]\n")

    def test_brush_from_json_forms(self):
        assert brush_from_json({"above": 2.0}) == Brush.above(2.0)
        assert brush_from_json({"below": 2.0}) == Brush.below(2.0)
        assert brush_from_json({"y1": 0.0}) == Brush(
            -np.inf, np.inf, -np.inf, 0.0
        )
        with pytest.raises(ProtocolError):
            brush_from_json({"weird": 1})
        with pytest.raises(ProtocolError):
            brush_from_json({"x0": "a"})


def _typed(value):
    """A cell as (type, value), with NaN made comparable."""
    if isinstance(value, float) and value != value:
        return (float, "nan")
    return (type(value), value)


class TestResultPayloadParity:
    """The columnar payload against the row-wise builder it replaced."""

    @pytest.fixture(scope="class")
    def db(self):
        db = Database()
        db.create_table(
            "t",
            {
                "i": [3, 1, 2, 5, 4],
                "f": [1.5, None, -2.0, float("nan"), 0.25],
                "b": [True, False, True, False, True],
                "s": ["x", None, "y", "x", None],
            },
            types={"i": "int", "f": "float", "b": "bool", "s": "str"},
        )
        return db

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT i, f, b, s FROM t",
            "SELECT s, count(*) AS n, avg(f) AS a FROM t GROUP BY s ORDER BY s",
            "SELECT i, f, b, s FROM t WHERE i > 100",
        ],
        ids=["rows", "grouped", "empty"],
    )
    @pytest.mark.parametrize("max_rows", [None, 0, 2, 100])
    def test_values_and_types_match(self, db, sql, max_rows):
        result = db.sql(sql)
        payload = result_payload(result, max_rows)
        expected = rowwise_result_payload(result, max_rows)
        assert {k: v for k, v in payload.items() if k != "rows"} == {
            k: v for k, v in expected.items() if k != "rows"
        }
        assert [[_typed(v) for v in row] for row in payload["rows"]] == [
            [_typed(v) for v in row] for row in expected["rows"]
        ]

    def test_covers_every_cell_type(self, db):
        rows = result_payload(db.sql("SELECT i, f, b, s FROM t"))["rows"]
        assert {type(v) for row in rows for v in row} == {
            int, float, bool, str, type(None)
        }
        assert any(v != v for row in rows for v in row)  # a NaN


class TestProtocolRoundTrip:
    """Every wire command, one live socket."""

    def test_full_command_surface(self, client, reference_report):
        pong = client.ping()
        assert pong["pong"] is True and pong["version"] == PROTOCOL_VERSION

        opened = client.open("toy")
        assert opened["dataset"] == "toy"
        assert opened["bootstrap"] == TOY_SQL
        assert opened["snapshot"]["state"] == "new"

        result = client.execute(TOY_SQL)
        assert result["columns"] == ["g", "avg_v"]
        assert result["num_rows"] == 6
        assert result["aggregates"] == ["avg_v"]
        assert not result["truncated"]

        again = client.result(max_rows=2)
        assert again["truncated"] and len(again["rows"]) == 2

        text = client.render()
        assert "avg_v" in text

        selected = client.select_results(brush={"above": 5.0})
        assert selected == [3]

        scatter = client.zoom()
        assert scatter["n"] == 30
        assert scatter["x_label"] == "g" and scatter["y_label"] == "v"
        assert len(scatter["keys"]) == 30

        dprime = client.select_inputs(brush={"above": 50.0})
        assert len(dprime) == 8

        options = client.error_form()
        assert [o["form_id"] for o in options] == ["too_high", "too_low", "not_equal"]

        metric = client.set_metric("too_high", threshold=2.0)
        assert metric == "values are too high (expected <= 2)"

        report = client.debug()
        assert report["n_predicates"] == len(reference_report)
        assert (
            report["predicates"][0]["predicate"]
            == reference_report.best.predicate.describe()
        )
        assert report["epsilon"] == pytest.approx(reference_report.epsilon)
        assert set(report["timings"]) == {
            "preprocess",
            "enumerate_datasets",
            "enumerate_predicates",
            "rank",
        }

        applied = client.apply(0)
        assert applied["applied"] == reference_report.best.predicate.describe()
        assert "WHERE (NOT (" in applied["sql"]
        cleaned = np.asarray(
            [row[1] for row in applied["result"]["rows"]], dtype=np.float64
        )
        assert cleaned.max() < 5.0

        undone = client.undo()
        assert "NOT" not in undone["sql"]
        redone = client.redo()
        assert "NOT" in redone["sql"]
        assert client.sql() == redone["sql"]

        snapshot = client.snapshot()
        assert snapshot["state"] == "executed"
        assert snapshot["applied_predicates"] == [
            reference_report.best.predicate.describe()
        ]
        # Per-stage timing counters survive the wire: a live dashboard
        # can read stage dominance without ad-hoc profiling.
        assert snapshot["timings"]["debug_count"] == 1
        assert set(snapshot["timings"]["last"]) == set(report["timings"])
        assert set(snapshot["timings"]["total"]) == set(report["timings"])

        names = [s["name"] for s in client.sessions()]
        assert "roundtrip" in names
        stats = client.stats()
        assert stats["sessions"] >= 1
        assert stats["preprocess_cache"]["entries"] >= 1

        assert client.close_session() == {"closed": "roundtrip"}
        with pytest.raises(ServiceError) as excinfo:
            client.snapshot()
        assert excinfo.value.kind == "UnknownSession"

    def test_selection_by_explicit_lists(self, client):
        client.open("toy")
        client.execute(TOY_SQL)
        assert client.select_results(rows=[3]) == [3]
        scatter = client.zoom()
        hot = [
            k
            for k, y in zip(scatter["keys"], scatter["y"])
            if y is not None and y > 50.0
        ]
        assert client.select_inputs(tids=hot) == sorted(hot)
        client.close_session()

    def test_debug_without_dprime_uses_influence_fallback(self, client):
        client.open("toy")
        client.execute(TOY_SQL)
        client.select_results(rows=[3])
        client.set_metric("too_high", threshold=2.0)
        report = client.debug()
        assert report["n_dprime"] == 0
        assert report["n_predicates"] > 0
        assert any(
            p["candidate_origin"].startswith("influence@")
            for p in report["predicates"]
        )
        client.close_session()


class TestConcurrentClients:
    def test_eight_clients_distinct_sessions_share_preprocess(self, shared_table,
                                                              reference_report):
        manager = SessionManager(catalog=toy_catalog(shared_table))
        with DBWipesServer(manager, port=0) as server:
            host, port = server.address

            def one_client(i: int) -> str:
                with ServiceClient(
                    host, port, session=f"client-{i}", timeout=120
                ) as c:
                    report = run_debug_cycle(c)
                    return report["predicates"][0]["predicate"]

            with ThreadPoolExecutor(max_workers=8) as pool:
                tops = list(pool.map(one_client, range(8)))

        expected = reference_report.best.predicate.describe()
        assert tops == [expected] * 8
        stats = manager.preprocess_cache.stats()
        # One computation, seven cross-session hits: the debug requests
        # target the same (table, sql, S, metric, agg) identity.
        assert stats["misses"] == 1
        assert stats["hits"] == 7
        assert stats["entries"] == 1
        assert stats["hit_rate"] > 0

    def test_same_session_requests_serialize(self, server):
        host, port = server.address
        with ServiceClient(host, port, session="shared-name", timeout=120) as c:
            c.open("toy")

        def hammer(i: int) -> int:
            with ServiceClient(host, port, session="shared-name", timeout=120) as c:
                result = c.execute(TOY_SQL)
                c.select_results(rows=[3])
                return result["num_rows"]

        with ThreadPoolExecutor(max_workers=4) as pool:
            rows = list(pool.map(hammer, range(8)))
        assert rows == [6] * 8


class TestSessionManagerEviction:
    def make_manager(self, shared_table, **kwargs) -> SessionManager:
        return SessionManager(catalog=toy_catalog(shared_table), **kwargs)

    def test_lru_eviction_drops_least_recently_used(self, shared_table):
        manager = self.make_manager(shared_table, max_sessions=2)
        manager.open("a", "toy")
        manager.open("b", "toy")
        manager.get("a")  # bump a's recency: b is now LRU
        manager.open("c", "toy")
        assert "a" in manager and "c" in manager
        assert "b" not in manager
        assert manager.stats()["lru_evictions"] == 1
        with pytest.raises(ServiceError):
            manager.get("b")

    def test_ttl_expiry_is_lazy_and_counted(self, shared_table):
        now = [0.0]
        manager = self.make_manager(
            shared_table, ttl_seconds=10.0, clock=lambda: now[0]
        )
        manager.open("a", "toy")
        now[0] = 5.0
        manager.get("a")  # refreshes last_used
        now[0] = 14.0
        assert "a" in manager  # 9s idle: still alive
        assert len(manager.list()) == 1
        now[0] = 25.0
        assert manager.list() == []
        assert manager.stats()["ttl_evictions"] == 1
        with pytest.raises(ServiceError) as excinfo:
            manager.get("a")
        assert excinfo.value.kind == "UnknownSession"

    def test_reopen_same_name_same_dataset_is_idempotent(self, shared_table):
        manager = self.make_manager(shared_table)
        first = manager.open("a", "toy")
        again = manager.open("a", "toy")
        assert first is again

    def test_reopen_on_other_dataset_is_an_error(self, shared_table):
        manager = self.make_manager(shared_table)
        manager.catalog.register("toy2", lambda: toy_catalog(shared_table).get("toy"))
        manager.open("a", "toy")
        with pytest.raises(ServiceError):
            manager.open("a", "toy2")

    def test_sessions_share_one_database_object(self, shared_table):
        manager = self.make_manager(shared_table)
        a = manager.open("a", "toy")
        b = manager.open("b", "toy")
        assert a.session.db is b.session.db


class TestMalformedRequests:
    def raw_exchange(self, server, payload: bytes) -> dict:
        host, port = server.address
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(payload)
            line = sock.makefile("rb").readline()
        return json.loads(line)

    def test_invalid_json_gets_protocol_error_envelope(self, server):
        response = self.raw_exchange(server, b"this is not json\n")
        assert response["ok"] is False
        assert response["id"] is None
        assert response["error"]["kind"] == "ProtocolError"

    def test_non_object_request(self, server):
        response = self.raw_exchange(server, b"[1, 2, 3]\n")
        assert response["ok"] is False
        assert response["error"]["kind"] == "ProtocolError"

    def test_missing_cmd_echoes_id(self, server):
        response = self.raw_exchange(server, b'{"id": 42}\n')
        assert response["ok"] is False
        assert response["id"] == 42
        assert response["error"]["kind"] == "ProtocolError"

    def test_unknown_command(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("frobnicate")
        assert excinfo.value.kind == "ProtocolError"
        assert "unknown command" in str(excinfo.value)

    def test_unknown_commands_share_one_metric_label(self, shared_table):
        """Made-up command names all count under ``cmd="invalid"``, so
        they add no registry series of their own."""
        from repro.obs import registry
        from repro.service.handlers import dispatch

        manager = SessionManager(catalog=toy_catalog(shared_table))
        names = [f"bogus-{i}" for i in range(50)]
        invalid = registry().counter(
            "dbwipes_requests_total", labels={"cmd": "invalid", "role": "server"}
        )
        before = invalid.value
        for name in names:
            envelope = dispatch(manager, {"id": 1, "cmd": name})
            assert envelope["error"]["kind"] == "ProtocolError"
        assert invalid.value == before + len(names)
        labelled = {
            dict(series["labels"]).get("cmd")
            for series in registry().snapshot()["metrics"]
        }
        assert labelled.isdisjoint(names)

    def test_client_reports_a_refused_connection(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]  # closed once the block exits
        client = ServiceClient("127.0.0.1", port, timeout=5)
        with pytest.raises(ServiceError, match=f"127.0.0.1:{port} failed"):
            client.ping()

    def test_session_command_without_session(self, server):
        host, port = server.address
        with ServiceClient(host, port, session=None, timeout=30) as c:
            with pytest.raises(ServiceError) as excinfo:
                c.call("execute", sql=TOY_SQL)
        assert excinfo.value.kind == "ProtocolError"

    def test_unknown_session_kind(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.call("execute", session="never-opened", sql=TOY_SQL)
        assert excinfo.value.kind == "UnknownSession"

    def test_out_of_order_session_calls_surface_session_errors(self, client):
        client.open("toy")
        with pytest.raises(ServiceError) as excinfo:
            client.debug()
        assert excinfo.value.kind == "SessionError"
        client.close_session()

    def test_selection_needs_exactly_one_form(self, client):
        client.open("toy")
        client.execute(TOY_SQL)
        with pytest.raises(ServiceError) as excinfo:
            client.call("select_results")
        assert excinfo.value.kind == "ProtocolError"
        with pytest.raises(ServiceError):
            client.call("select_results", rows=[1], brush={"above": 0.0})
        client.close_session()

    def test_open_requires_known_dataset(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.open("nope")
        assert excinfo.value.kind == "UnknownDataset"

    def test_oversized_request_is_rejected_without_desync(self, server):
        from repro.service.protocol import MAX_LINE_BYTES

        host, port = server.address
        # Client-side guard: an over-limit request never hits the wire.
        with ServiceClient(host, port, session="big", timeout=30) as c:
            with pytest.raises(ProtocolError):
                c.call("select_inputs", tids=list(range(2_000_000)))
            # The connection is still framed correctly afterwards.
            assert c.ping()["pong"] is True
        # Server-side guard: a raw oversized line gets one error envelope
        # and a closed connection (never parsed as two requests).
        with socket.create_connection((host, port), timeout=30) as sock:
            sock.sendall(b'{"cmd": "ping", "pad": "' + b"x" * MAX_LINE_BYTES)
            sock.sendall(b'"}\n')
            reader = sock.makefile("rb")
            response = json.loads(reader.readline())
            assert response["ok"] is False
            assert response["error"]["kind"] == "ProtocolError"
            assert reader.readline() == b""  # connection closed, no second envelope

    def test_server_survives_malformed_then_serves(self, server):
        self.raw_exchange(server, b"garbage\n")
        host, port = server.address
        with ServiceClient(host, port, session="after-garbage") as c:
            assert c.ping()["pong"] is True


class TestDisplayArguments:
    """A bad display argument is a ``ProtocolError`` raised before the
    command runs: the session stays as it was, so the journal, which
    records only commands that succeed, still matches it."""

    @pytest.fixture()
    def call(self, shared_table):
        from repro.service.handlers import dispatch

        manager = SessionManager(catalog=toy_catalog(shared_table))

        def call(cmd: str, **args):
            return dispatch(
                manager, {"id": 1, "cmd": cmd, "session": "s", "args": args}
            )

        for cmd, args in [
            ("open", {"name": "s", "dataset": "toy"}),
            ("execute", {"sql": TOY_SQL}),
            ("select_results", {"brush": {"above": 5.0}}),
            ("zoom", {}),
            ("select_inputs", {"brush": {"above": 50.0}}),
            ("set_metric", {"form": "too_high", "params": {"threshold": 2.0}}),
            ("debug", {}),
        ]:
            assert call(cmd, **args)["ok"], cmd
        return call

    def test_rejected_execute_and_apply_leave_the_session_alone(self, call):
        before = (call("sql")["result"], call("snapshot")["result"])
        other = "SELECT g, sum(v) AS s FROM toy GROUP BY g ORDER BY g"
        for cmd, args in [
            ("execute", {"sql": other, "max_rows": "x"}),
            ("apply", {"index": 0, "max_rows": "x"}),
        ]:
            envelope = call(cmd, **args)
            assert envelope["error"]["kind"] == "ProtocolError", cmd
            assert "max_rows" in envelope["error"]["message"]
            assert (call("sql")["result"], call("snapshot")["result"]) == before

    @pytest.mark.parametrize(
        "cmd, args",
        [
            ("result", {"max_rows": [5]}),
            ("zoom", {"max_points": "all"}),
            ("debug", {"max_rows": "x"}),
            ("undo", {"max_rows": {}}),
            ("render", {"width": "wide"}),
            ("render", {"height": None}),
            ("render", {"width": 0}),
            ("set_metric", {"form": "too_high", "params": {"threshold": "hi"}}),
            ("set_metric", {"form": "too_high", "params": {"bogus": 1}}),
            ("set_metric", {"form": "too_high", "params": {"threshold": 10**400}}),
        ],
    )
    def test_bad_values_are_protocol_errors(self, call, cmd, args):
        before = call("snapshot")["result"]
        envelope = call(cmd, **args)
        assert envelope["error"]["kind"] == "ProtocolError"
        assert call("snapshot")["result"] == before

    def test_a_parameter_the_form_does_not_take_is_a_session_error(self, call):
        envelope = call("set_metric", form="too_high", params={"expected": 1.0})
        assert envelope["error"]["kind"] == "SessionError"
        assert "expected" in envelope["error"]["message"]

    @pytest.mark.parametrize(
        "cmd, args",
        [
            ("execute", {"sql": TOY_SQL, "max_rows": -1}),
            ("result", {"max_rows": -1}),
            ("zoom", {"max_points": -1}),
            ("debug", {"max_rows": -1}),
            ("apply", {"index": 0, "max_rows": -1}),
            ("undo", {"max_rows": -1}),
            ("redo", {"max_rows": -1}),
        ],
        ids=["execute", "result", "zoom", "debug", "apply", "undo", "redo"],
    )
    def test_negative_limits_are_protocol_errors(self, call, cmd, args):
        before = (call("sql")["result"], call("snapshot")["result"])
        envelope = call(cmd, **args)
        assert envelope["error"]["kind"] == "ProtocolError", envelope
        assert "negative" in envelope["error"]["message"]
        assert (call("sql")["result"], call("snapshot")["result"]) == before

    def test_render_size_is_bounded(self, call):
        before = call("snapshot")["result"]
        envelope = call("render", width=2000, height=1000)
        assert envelope["error"]["kind"] == "ProtocolError"
        assert "500" in envelope["error"]["message"]
        assert call("snapshot")["result"] == before
        for width, height in [(501, 14), (72, 201)]:
            assert not call("render", width=width, height=height)["ok"]
        text = call("render", width=500, height=200)["result"]["text"]
        assert max(len(line) for line in text.splitlines()) >= 500


class TestNonFiniteInput:
    """The protocol is strict JSON, and a metric parameter or brush bound
    must be a finite number: ``NaN`` and ``±inf`` are a ``ProtocolError``
    that leaves the session and its journal as they were."""

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_decode_line_refuses_non_finite_constants(self, constant):
        line = f'{{"id": 1, "cmd": "ping", "args": {{"x": {constant}}}}}\n'
        with pytest.raises(ProtocolError, match="strict JSON"):
            decode_line(line.encode())

    @pytest.mark.parametrize(
        "brush",
        [
            {"below": math.nan},
            {"above": math.inf},
            {"y1": -math.inf},
            {"x0": 10**400},
            {"above": json.loads("1e999")},
        ],
    )
    def test_brush_bounds_must_be_finite(self, brush):
        with pytest.raises(ProtocolError, match="finite"):
            brush_from_json(brush)

    @pytest.fixture()
    def manager(self, shared_table, tmp_path):
        from repro.service.handlers import dispatch

        # A data dir, so the session keeps a journal.
        manager = SessionManager(catalog=toy_catalog(shared_table, tmp_path))
        for cmd, args in [
            ("open", {"name": "s", "dataset": "toy"}),
            ("execute", {"sql": TOY_SQL}),
            ("select_results", {"brush": {"above": 5.0}}),
            ("zoom", {}),
            ("select_inputs", {"brush": {"above": 50.0}}),
            ("set_metric", {"form": "too_high", "params": {"threshold": 2.0}}),
        ]:
            request = {"id": 1, "cmd": cmd, "session": "s", "args": args}
            assert dispatch(manager, request)["ok"], cmd
        return manager

    @pytest.mark.parametrize(
        "cmd, args",
        [
            ("set_metric", {"form": "too_high", "params": {"threshold": "nan"}}),
            ("set_metric", {"form": "too_high", "params": {"threshold": "-inf"}}),
            ("set_metric", {"form": "too_high", "params": {"threshold": math.inf}}),
            ("set_metric", {"form": "too_high", "params": {"threshold": True}}),
            ("set_metric", {"form": "too_high", "params": {"expected": math.nan}}),
            ("select_results", {"brush": {"below": math.nan}}),
            ("select_inputs", {"brush": {"above": math.inf}}),
        ],
    )
    def test_refused_before_the_session_or_journal_changes(self, manager, cmd, args):
        from repro.service.handlers import dispatch

        managed = manager.get("s")
        before = (managed.session.snapshot(), list(managed.journal.records))
        request = {"id": 2, "cmd": cmd, "session": "s", "args": args}
        envelope = dispatch(manager, request)
        assert envelope["error"]["kind"] == "ProtocolError"
        assert (managed.session.snapshot(), managed.journal.records) == before


class TestSharedPreprocessCacheRegression:
    def test_two_sessions_same_dataset_one_cache_entry(self, shared_table,
                                                       reference_report):
        cache = PreprocessCache()
        manager = SessionManager(
            catalog=toy_catalog(shared_table), preprocess_cache=cache
        )
        with DBWipesServer(manager, port=0) as server:
            host, port = server.address
            tops = []
            for name in ("first", "second"):
                with ServiceClient(host, port, session=name, timeout=120) as c:
                    report = run_debug_cycle(c)
                    tops.append(report["predicates"][0]["predicate"])
        expected = reference_report.best.predicate.describe()
        assert tops == [expected, expected]
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] >= 1

    def test_preprocess_cache_lru_eviction_counts(self):
        cache = PreprocessCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get_or_compute(key, lambda: object())  # type: ignore[arg-type]
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["evictions"] == 1
        # "a" was evicted: recomputing it is a miss.
        cache.get_or_compute("a", lambda: object())  # type: ignore[arg-type]
        assert cache.stats()["misses"] == 4


class TestClientDesync:
    """Regression: a response-id mismatch must drop the connection.

    If the client raised but kept the socket, the stream still held a
    framed response for some other id — the *next* call() would consume
    it and silently return the wrong command's result."""

    @staticmethod
    def _fake_server(scripts):
        """A one-thread TCP server answering each connection with canned
        response lines (ignoring what the client actually sent)."""
        import threading

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)

        def run():
            for canned in scripts:
                conn, _ = listener.accept()
                with conn:
                    rfile = conn.makefile("rb")
                    rfile.readline()  # consume the request line
                    for frame in canned:
                        conn.sendall(encode(frame))
                    rfile.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return listener, thread

    def test_mismatched_id_closes_connection_before_raising(self):
        scripts = [
            # Connection 1: answer request id 1 with a stale envelope for
            # id 999, then leave the real id-1 envelope framed behind it.
            [
                {"id": 999, "ok": True, "result": {"stale": True}},
                {"id": 1, "ok": True, "result": {"fresh": True}},
            ],
            # Connection 2: the client's id counter keeps climbing, so a
            # clean reconnect issues request id 2.
            [{"id": 2, "ok": True, "result": {"reconnected": True}}],
        ]
        listener, thread = self._fake_server(scripts)
        try:
            client = ServiceClient("127.0.0.1", listener.getsockname()[1],
                                   timeout=5.0)
            with pytest.raises(ProtocolError, match="connection closed"):
                client.call("ping")
            # The poisoned connection is gone — the stale id-1 envelope
            # can never be misread as a later call's answer.
            assert client._sock is None and client._rfile is None
            # And the next call transparently reconnects and succeeds.
            assert client.call("ping") == {"reconnected": True}
            client.close()
            thread.join(5.0)
        finally:
            listener.close()

    def test_truncated_line_still_closes_connection(self):
        """The pre-existing truncation path keeps the same contract."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        import threading

        def run():
            conn, _ = listener.accept()
            with conn:
                rfile = conn.makefile("rb")
                rfile.readline()
                conn.sendall(b'{"id": 1, "ok": true')  # no newline, then EOF
                rfile.close()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        try:
            client = ServiceClient("127.0.0.1", listener.getsockname()[1],
                                   timeout=5.0)
            with pytest.raises((ProtocolError, ServiceError)):
                client.call("ping")
            assert client._sock is None
            thread.join(5.0)
        finally:
            listener.close()

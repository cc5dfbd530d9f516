"""Tests for the conference-demo CLI shell."""

import io
import json
import socket

import numpy as np
import pytest

from repro.cli import SCRIPTS, Shell, loopback_client, main
from repro.data import BOOTSTRAP_QUERIES, load_dataset
from repro.errors import ReproError
from repro.service import DatasetCatalog, SessionManager


@pytest.fixture
def shell(donations_db):
    """The shell over an in-process server, and the manager's live session."""
    catalog = DatasetCatalog()
    catalog.register("donations", donations_db)
    manager = SessionManager(catalog=catalog)
    out = io.StringIO()
    with loopback_client(manager) as client:
        client.open("donations")
        yield Shell(client, out=out), out, manager.live(client.session).session


QUERY = (
    "sql SELECT day, sum(amount) AS total FROM donations GROUP BY day "
    "ORDER BY day"
)


class TestShellCommands:
    def test_sql_and_show(self, shell):
        sh, out, session = shell
        sh.run_line(QUERY)
        sh.run_line("show")
        text = out.getvalue()
        assert "rows" in text
        assert "x: day" in text

    def test_full_loop_via_commands(self, shell):
        sh, out, session = shell
        sh.run([
            QUERY,
            "select y< 0",
            "zoom",
            "inputs y< 0",
            "forms",
            "metric too_low 0",
            "debug",
            "apply 1",
            "query",
        ], echo=False)
        text = out.getvalue()
        assert "suspicious results" in text
        assert "Ranked predicates" in text
        assert "applied: NOT" in text
        assert "NOT" in session.current_sql()

    def test_undo_redo(self, shell):
        sh, out, session = shell
        sh.run([
            QUERY, "select y< 0", "zoom", "inputs y< 0",
            "metric too_low 0", "debug", "apply 1", "undo", "redo",
        ], echo=False)
        assert len(session.applied_predicates) == 1
        assert "undone" in out.getvalue()
        assert "redone" in out.getvalue()

    def test_row_selection(self, shell):
        sh, out, session = shell
        sh.run_line(QUERY)
        sh.run_line("select row 0 1 2")
        assert session.selected_rows == (0, 1, 2)

    def test_unknown_command_reports(self, shell):
        sh, out, session = shell
        assert sh.run_line("frobnicate") is True
        assert "unknown command" in out.getvalue()

    def test_errors_are_caught_not_raised(self, shell):
        sh, out, session = shell
        sh.run_line("zoom")  # out of order
        assert "error:" in out.getvalue()

    def test_quit_stops(self, shell):
        sh, __, __ = shell
        assert sh.run_line("quit") is False

    def test_comments_and_blank_lines_ignored(self, shell):
        sh, out, session = shell
        assert sh.run_line("") is True
        assert sh.run_line("# a comment") is True
        assert out.getvalue() == ""

    def test_parse_brush_forms(self):
        brush, rest = Shell._parse_brush(["y>", "5", "std"], "rows")
        assert brush == {"brush": {"y0": 5.0}} and rest == ["std"]
        brush, __ = Shell._parse_brush(["y<", "0"], "rows")
        assert brush == {"brush": {"y1": 0.0}}
        brush, __ = Shell._parse_brush(["x=", "3"], "rows")
        assert brush == {"brush": {"x0": 3.0, "x1": 3.0}}
        rows, __ = Shell._parse_brush(["row", "1", "2"], "rows")
        assert rows == {"rows": [1, 2]}
        tids, __ = Shell._parse_brush(["row", "7"], "tids")
        assert tids == {"tids": [7]}
        with pytest.raises(ReproError):
            Shell._parse_brush([], "rows")
        with pytest.raises(ReproError):
            Shell._parse_brush(["nonsense"], "rows")

    def test_a_number_that_does_not_parse_is_an_error_line(self, shell):
        sh, out, session = shell
        sh.run_line(QUERY)
        assert sh.run_line("select y> abc") is True
        assert "error: could not convert string to float: 'abc'" in out.getvalue()
        assert session.selected_rows == ()

    @pytest.mark.parametrize("line", ["select y> inf", "metric too_low nan"])
    def test_a_non_finite_number_is_refused(self, shell, line):
        sh, out, session = shell
        sh.run([QUERY, "select y< 0", "metric too_low 0"], echo=False)
        before = session.snapshot()
        sh.run_line(line)
        assert "error: " in out.getvalue().splitlines()[-1]
        assert "must be finite" in out.getvalue().splitlines()[-1]
        assert session.snapshot() == before

    def test_debug_prints_the_selection_line_and_every_score_field(self, shell):
        sh, out, session = shell
        sh.run([
            QUERY, "select y< 0", "zoom", "inputs y< 0",
            "metric too_low 0", "debug",
        ], echo=False)
        report = session.report
        top = report.predicates[0]
        text = out.getvalue()
        assert (
            f"S = {list(report.selected_rows)}, |F| = {report.n_inputs}, "
            f"|D'| = {report.n_dprime}, candidates = {report.n_candidates}, "
            f"eps = {report.epsilon:.4g}"
        ) in text
        assert f" 1. {top.describe()}" in text

    def test_sql_prints_column_names_and_the_hidden_row_count(self, shell):
        sh, out, __ = shell
        sh.run_line(QUERY)
        lines = out.getvalue().splitlines()
        assert lines[0] == "30 rows"
        assert lines[1].split() == ["day", "total"]
        assert lines[-1] == "... (22 more rows)"

    def test_server_commands(self, shell):
        sh, out, __ = shell
        sh.run([QUERY, "trace", "snapshot", "stats", "metrics"], echo=False)
        text = out.getvalue()
        assert "  state: executed" in text
        assert "  sessions: 1" in text
        assert "dbwipes_requests_total" in text
        assert "trace " in text and "server.execute" in text

    def test_repl_reads_until_quit(self, shell):
        sh, out, session = shell
        stdin = io.StringIO(QUERY + "\nquit\n")
        sh.repl(stdin=stdin)
        assert "rows" in out.getvalue()


class TestDatasetsAndMain:
    def test_load_dataset_names(self):
        assert "contributions" in load_dataset("fec").table_names
        assert "readings" in load_dataset("intel").table_names
        with pytest.raises(ReproError):
            load_dataset("nope")

    def test_bootstrap_queries_parse(self):
        for name, query in BOOTSTRAP_QUERIES.items():
            db = load_dataset(name)
            result = db.sql(query)
            assert result.num_rows > 0

    def test_scripts_reference_known_commands(self):
        known = {"sql", "show", "select", "zoom", "inputs", "forms",
                 "metric", "debug", "apply", "undo", "redo", "query"}
        for script in SCRIPTS.values():
            for line in script:
                assert line.split()[0] in known

    def test_main_help(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out.lower()
        assert "demo" in out and "sql" in out

    def test_main_unknown_dataset(self, capsys):
        assert main(["mars"]) == 2
        assert capsys.readouterr().err.startswith("error: unknown dataset 'mars'")

    def test_demo_refuses_an_unknown_argument_before_starting(
        self, capsys, monkeypatch
    ):
        def no_bind(sock, address):
            raise AssertionError(f"the demo bound {address}")

        def no_build(name):
            raise AssertionError(f"the demo built {name}")

        monkeypatch.setattr(socket.socket, "bind", no_bind)
        monkeypatch.setattr("repro.service.cache.load_dataset", no_build)
        assert main(["intel", "--scirpt"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown intel argument '--scirpt'")
        assert captured.out == ""

    def test_main_scripted_fec(self, capsys):
        assert main(["fec", "--script"]) == 0
        out = capsys.readouterr().out
        assert "Ranked predicates" in out
        assert "applied: NOT" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--backend", "partitioned"],
            ["--partitions", "4"],
            ["--exec-threads", "4"],
            ["--port"],
        ],
        ids=[
            "unknown-backend",
            "unknown-partitions",
            "unknown-exec-threads",
            "port-without-value",
        ],
    )
    def test_serve_rejects_bad_flags_before_booting(
        self, argv, capsys, monkeypatch
    ):
        def no_bind(sock, address):
            raise AssertionError(f"serve bound {address}")

        monkeypatch.setattr(socket.socket, "bind", no_bind)
        assert main(["serve", *argv]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--rate", "0"], "rate must be positive"),
            (["--rate", "1", "--burst", "0.5"], "burst must be >= 1"),
            (["--workers", "1", "--ttl", "0"], "ttl_seconds must be positive"),
            (["--workers", "1", "--max-sessions", "0"], "max_sessions must be >= 1"),
            (["--workers", "-1"], "workers must be >= 0"),
            (["--slow-threshold", "-1"], "threshold must be >= 0 seconds, not -1.0"),
            (["--slow-threshold", "nan"], "threshold must be >= 0 seconds, not nan"),
        ],
        ids=[
            "zero-rate",
            "fractional-burst",
            "workers-zero-ttl",
            "workers-zero-sessions",
            "negative-workers",
            "negative-slow-threshold",
            "nan-slow-threshold",
        ],
    )
    def test_serve_rejects_bad_limits_before_starting(
        self, argv, message, capsys, monkeypatch
    ):
        from repro.service import workers

        def no_bind(sock, address):
            raise AssertionError(f"serve bound {address}")

        def no_spawn(*args, **kwargs):
            raise AssertionError("serve spawned a worker process")

        monkeypatch.setattr(socket.socket, "bind", no_bind)
        monkeypatch.setattr(workers, "WorkerHandle", no_spawn)
        assert main(["serve", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def closed_port() -> int:
    """A local port nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestRemoteVerbs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["connect", "--sesion", "a"],
            ["metrics", "--jsn"],
            ["drain", "--wroker", "1"],
        ],
        ids=["connect", "metrics", "drain"],
    )
    def test_unknown_flag_is_refused_before_connecting(
        self, argv, capsys, monkeypatch
    ):
        def no_connect(address, *args, **kwargs):
            raise AssertionError(f"{argv[0]} connected to {address}")

        monkeypatch.setattr(socket, "create_connection", no_connect)
        assert main([*argv, "--port", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown {argv[0]} argument {argv[1]!r}")

    def test_store_unknown_flag_is_refused(self, capsys, tmp_path):
        argv = ["store", "inspect", "--data-dir", str(tmp_path), "--bogus"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown store argument '--bogus'")
        assert captured.out == ""

    def test_store_import_then_inspect(self, capsys, tmp_path):
        data_dir = ["--data-dir", str(tmp_path)]
        assert main(["store", "import", "fec", *data_dir]) == 0
        assert capsys.readouterr().out.startswith("imported 'fec' under ")
        assert main(["store", "inspect", *data_dir]) == 0
        info = json.loads(capsys.readouterr().out)
        (fec,) = [entry for entry in info["datasets"] if entry["name"] == "fec"]
        (table,) = fec["tables"]
        assert set(table) == {"name", "rows", "columns", "digest", "bytes"}
        assert all(set(c) == {"name", "type", "file"} for c in table["columns"])
        assert main(["store", "import", "fec", *data_dir]) == 0
        assert capsys.readouterr().out.startswith("already persisted 'fec' under ")
        assert main(["store", "import", "fec", "--chunk-rows", "5", *data_dir]) == 2
        assert "unknown store argument '--chunk-rows'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["connect", "metrics", "drain"])
    def test_unreachable_server_is_an_error_line(self, verb, capsys):
        port = closed_port()
        assert main([verb, "--port", str(port)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot reach 127.0.0.1:{port}: ")
        assert "Traceback" not in err


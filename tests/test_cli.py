"""Tests for the conference-demo CLI shell."""

import io
import socket

import numpy as np
import pytest

from repro.cli import BOOTSTRAP_QUERIES, SCRIPTS, DemoShell, load_dataset, main
from repro.db import Database
from repro.errors import ReproError
from repro.frontend import Brush


@pytest.fixture
def shell(donations_db):
    out = io.StringIO()
    shell = DemoShell(donations_db, out=out)
    return shell, out


QUERY = (
    "sql SELECT day, sum(amount) AS total FROM donations GROUP BY day "
    "ORDER BY day"
)


class TestShellCommands:
    def test_sql_and_show(self, shell):
        sh, out = shell
        sh.run_line(QUERY)
        sh.run_line("show")
        text = out.getvalue()
        assert "rows" in text
        assert "x: day" in text

    def test_full_loop_via_commands(self, shell):
        sh, out = shell
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
        assert "NOT" in sh.session.current_sql()

    def test_undo_redo(self, shell):
        sh, out = shell
        sh.run([
            QUERY, "select y< 0", "zoom", "inputs y< 0",
            "metric too_low 0", "debug", "apply 1", "undo", "redo",
        ], echo=False)
        assert len(sh.session.applied_predicates) == 1
        assert "undone" in out.getvalue()
        assert "redone" in out.getvalue()

    def test_row_selection(self, shell):
        sh, out = shell
        sh.run_line(QUERY)
        sh.run_line("select row 0 1 2")
        assert sh.session.selected_rows == (0, 1, 2)

    def test_unknown_command_reports(self, shell):
        sh, out = shell
        assert sh.run_line("frobnicate") is True
        assert "unknown command" in out.getvalue()

    def test_errors_are_caught_not_raised(self, shell):
        sh, out = shell
        sh.run_line("zoom")  # out of order
        assert "error:" in out.getvalue()

    def test_quit_stops(self, shell):
        sh, __ = shell
        assert sh.run_line("quit") is False

    def test_comments_and_blank_lines_ignored(self, shell):
        sh, out = shell
        assert sh.run_line("") is True
        assert sh.run_line("# a comment") is True
        assert out.getvalue() == ""

    def test_parse_brush_forms(self):
        brush, rest = DemoShell._parse_brush(["y>", "5", "std"])
        assert isinstance(brush, Brush) and rest == ["std"]
        brush, __ = DemoShell._parse_brush(["y<", "0"])
        assert brush.y1 == 0
        brush, __ = DemoShell._parse_brush(["x=", "3"])
        assert brush.x0 == brush.x1 == 3
        rows, __ = DemoShell._parse_brush(["row", "1", "2"])
        assert rows == [1, 2]
        with pytest.raises(ReproError):
            DemoShell._parse_brush([])
        with pytest.raises(ReproError):
            DemoShell._parse_brush(["nonsense"])

    def test_repl_reads_until_quit(self, shell):
        sh, out = shell
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

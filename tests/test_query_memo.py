"""The query memo inside ``Database.sql``: key, bound, freezing, sharing.

A statement already run over the same registered table answers from
the memo. Every test compares the memo's answer with what a fresh
``Database`` over the same table answers, so a stale or colliding
entry fails loudly.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from repro.data import FECConfig, generate_fec, walkthrough_query
from repro.db import Database, Table, parse_select
from repro.db import catalog
from repro.db.expr import ColumnRef, Comparison, Literal
from repro.errors import TypeMismatchError
from repro.frontend import Brush, DBWipesSession
from repro.obs import registry, tracer

BASE = (
    "SELECT k, count(*) AS c, sum(v) AS s FROM t WHERE m > 5 "
    "GROUP BY k, m / 50 HAVING s > 0 ORDER BY s DESC LIMIT 3"
)

#: One variant per statement field; each changes the answer.
VARIANTS = {
    "item": BASE.replace("sum(v) AS", "avg(v) AS"),
    "alias": BASE.replace("AS c", "AS n"),
    "where": BASE.replace("m > 5", "m < 150"),
    "group_by": BASE.replace("GROUP BY k, m / 50", "GROUP BY k"),
    "having": BASE.replace("s > 0", "s > 25"),
    "order_by": BASE.replace("ORDER BY s", "ORDER BY c"),
    "desc": BASE.replace(" DESC", ""),
    "limit": BASE.replace("LIMIT 3", "LIMIT 2"),
}


def _table(n: int = 200, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    return Table.from_columns(
        {
            "m": np.arange(n),
            "v": np.round(rng.normal(1.0, 2.0, n), 3),
            "k": [("a", "b", "c")[i % 3] for i in range(n)],
            "b": np.arange(n) % 2 == 0,
        },
        types={"m": "int", "v": "float", "k": "str", "b": "bool"},
        name="t",
    )


def _db(table: Table) -> Database:
    db = Database()
    db.register(table)
    return db


def _answer(db: Database, query) -> tuple:
    """Everything a caller can read from a result, or the error it raises."""
    try:
        result = db.sql(query)
    except Exception as error:  # noqa: BLE001 - the error is the answer
        return (type(error).__name__, str(error))
    return (
        result.column_names,
        repr(list(result.iter_rows())),
        [result.lineage(row).tolist() for row in range(len(result))],
        result.fine.base.tids.tolist(),
    )


def _counts() -> tuple[float, float, float]:
    reg = registry()
    return tuple(
        reg.counter(f"dbwipes_query_memo_{kind}_total").value
        for kind in ("hits", "misses", "evictions")
    )


class TestKey:
    @pytest.mark.parametrize("field", sorted(VARIANTS))
    def test_every_statement_field_changes_the_key(self, field):
        table = _table()
        db = _db(table)
        base = db.sql(BASE)
        hits, misses, __ = _counts()
        variant = db.sql(VARIANTS[field])
        assert variant is not base
        assert _counts()[:2] == (hits, misses + 1)
        assert _answer(db, VARIANTS[field]) == _answer(_db(table), VARIANTS[field])
        assert _answer(db, VARIANTS[field]) != _answer(db, BASE)

    @pytest.mark.parametrize(
        "first, second",
        [
            (
                "SELECT m / 30 AS w, sum(v) AS s FROM t GROUP BY m / 30",
                "SELECT m / 30.0 AS w, sum(v) AS s FROM t GROUP BY m / 30.0",
            ),
            ("SELECT m, v FROM t WHERE m > 1", "SELECT m, v FROM t WHERE m > TRUE"),
            ("SELECT m, v FROM t WHERE b = TRUE", "SELECT m, v FROM t WHERE b = 1"),
        ],
        ids=["int-vs-float-division", "int-vs-true", "true-vs-int"],
    )
    def test_value_equal_literals_do_not_collide(self, first, second):
        # Literals compare by value, so these are equal dataclasses; a
        # memo keyed on the statement object would answer one for both.
        assert parse_select(first) == parse_select(second)
        assert hash(parse_select(first)) == hash(parse_select(second))
        table = _table()
        db = _db(table)
        db.sql(first)
        for query in (first, second):
            assert _answer(db, query) == _answer(_db(table), query)
        assert _answer(db, first) != _answer(db, second)

    def test_text_and_statement_share_an_entry(self):
        db = _db(_table())
        result = db.sql(BASE)
        assert db.sql(parse_select(BASE)) is result
        assert db.sql(result.statement) is result

    def test_a_failing_statement_caches_nothing(self):
        db = _db(_table())
        for __ in range(2):
            with pytest.raises(TypeMismatchError):
                db.sql("SELECT m FROM t WHERE m > TRUE")
        assert len(db._memo) == 0


class TestObservability:
    def test_one_miss_then_one_hit_and_span_sources(self):
        db = _db(_table())
        hits, misses, __ = _counts()
        with tracer().span("test.root") as root:
            first = db.sql(BASE)
            second = db.sql(BASE)
        assert second is first
        assert _counts()[:2] == (hits + 1, misses + 1)
        spans = [s for s in tracer().spans(root.trace_id) if s["name"] == "db.sql"]
        assert [s["attrs"]["source"] for s in spans] == ["computed", "memo"]
        assert all(s["parent_id"] == root.span_id for s in spans)

    def test_counters_register_with_the_database(self):
        Database()
        names = registry().names()
        for kind in ("hits", "misses", "evictions"):
            assert f"dbwipes_query_memo_{kind}_total" in names


class TestInvalidation:
    def test_reregistered_name_misses_and_answers_new_data(self):
        db = _db(_table(seed=0))
        old = _answer(db, BASE)
        replacement = _table(seed=1)
        db.register(replacement)
        assert len(db._memo) == 0
        __, misses, __ = _counts()
        new = _answer(db, BASE)
        assert _counts()[1] == misses + 1
        assert new == _answer(_db(replacement), BASE)
        assert new != old

    def test_register_keeps_other_tables_entries(self):
        db = _db(_table())
        db.register(_table(seed=1), "u")
        kept = db.sql(BASE)
        db.sql(BASE.replace("FROM t", "FROM u"))
        db.register(_table(seed=2), "u")
        assert len(db._memo) == 1
        assert db.sql(BASE) is kept

    def test_drop_leaves_no_entry_and_no_charge(self):
        db = _db(_table())
        for query in [BASE, *VARIANTS.values()]:
            db.sql(query)
        assert db._memo.nbytes > 0
        db.drop("t")
        assert len(db._memo) == 0
        assert db._memo.nbytes == 0


class TestBound:
    def test_charged_bytes_never_exceed_the_budget(self):
        # About 1.3 MB of lineage per result: the default budget holds a
        # handful, so the sweep evicts.
        n = 160_000
        db = _db(_table(n=n))
        __, __, evictions = _counts()
        for threshold in range(0, n, n // 16):
            query = f"SELECT k, sum(v) AS s FROM t WHERE m >= {threshold} GROUP BY k"
            db.sql(query)
            assert 0 < db._memo.nbytes <= catalog.QUERY_MEMO_MAX_BYTES
        assert _counts()[2] > evictions
        assert 1 < len(db._memo) < 16

    def test_charge_covers_output_lineage_and_filtered_base(self):
        n = 10_000
        db = _db(_table(n=n))
        unfiltered = db.sql("SELECT k, sum(v) AS s FROM t GROUP BY k")
        # 3 output rows and n lineage tids; the base is the table itself.
        assert db._memo.nbytes == 3 * 8 + 3 * 8 + 3 * 8 + 8 * n
        before = db._memo.nbytes
        db.sql("SELECT k, sum(v) AS s FROM t WHERE m < 5000 GROUP BY k")
        # 5000 filtered rows: lineage, base tids, gather positions and
        # the two gathered columns (k's object pointers and v).
        kept = 5000
        assert db._memo.nbytes - before == 3 * 8 * 3 + kept * 8 * 5
        assert unfiltered.fine.base is unfiltered.source
        before = db._memo.nbytes
        db.sql("SELECT k, sum(v) AS s FROM t GROUP BY k ORDER BY s LIMIT 1")
        # One row's lineage is a view that pins all n sorted tids.
        assert db._memo.nbytes - before == 3 * 8 + 8 * n

    def test_over_budget_result_is_returned_not_stored(self, monkeypatch):
        monkeypatch.setattr(catalog, "QUERY_MEMO_MAX_BYTES", 4096)
        table = _table(n=1000)
        db = _db(table)
        query = "SELECT k, sum(v) AS s FROM t GROUP BY k"
        result = db.sql(query)
        assert len(db._memo) == 0 and db._memo.nbytes == 0
        assert _answer(db, query) == _answer(_db(table), query)
        assert db.sql(query) is not result
        assert result.lineage(0).flags.writeable


class TestFreezing:
    @pytest.mark.parametrize(
        "query, column",
        [(BASE, "s"), ("SELECT v FROM t", "v")],
        ids=["aggregate", "projection"],
    )
    def test_a_hit_rejects_writes(self, query, column):
        db = _db(_table())
        result = db.sql(query)
        assert db.sql(query) is result
        with pytest.raises(ValueError):
            result.output.store.column(column)[0] = 0
        with pytest.raises(ValueError):
            result.lineage(0)[0] = 0


class TestConcurrency:
    @pytest.mark.parametrize("budget", [catalog.QUERY_MEMO_MAX_BYTES, 16_384])
    def test_threads_get_fresh_answers(self, monkeypatch, budget):
        monkeypatch.setattr(catalog, "QUERY_MEMO_MAX_BYTES", budget)
        table = _table(n=3000)
        queries = [BASE, *VARIANTS.values(), "SELECT v FROM t WHERE m < 40"]
        expected = {query: _answer(_db(table), query) for query in queries}
        db = _db(table)
        order = np.random.default_rng(3).integers(0, len(queries), 240)
        start = threading.Barrier(4)

        def run(indexes):
            start.wait(timeout=30)
            return [(queries[i], _answer(db, queries[i])) for i in indexes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                chunks = list(pool.map(run, np.array_split(order, 4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for chunk in chunks:
            for query, answer in chunk:
                assert answer == expected[query]
        # A lost update to the charge would break this sum.
        held = sum(size for __, size in db._memo._entries.values())
        assert db._memo.nbytes == held <= budget


class TestSessionLoop:
    def test_undo_and_redo_answer_from_the_memo(self):
        table, __ = generate_fec(
            FECConfig(n_days=150, base_rate=10, events=((40, 3.0),), anomaly_day=100)
        )
        db = _db(table)
        session = DBWipesSession(db)
        executed = session.execute(walkthrough_query())
        totals = np.asarray(executed.column("total"), dtype=np.float64)
        session.select_results(sorted(int(r) for r in np.argsort(totals)[:6]))
        session.zoom()
        session.select_inputs(Brush.below(0.0))
        session.set_metric("too_low", threshold=float(np.median(totals)))
        session.debug()
        applied = session.apply_predicate(0)
        assert session.undo_cleaning() is executed
        assert session.redo_cleaning() is applied
        for result in (executed, applied):
            query = result.statement
            assert _answer(db, query) == _answer(_db(table), query)


class TestNumpyLiterals:
    @pytest.mark.parametrize(
        "value, python",
        [(np.int64(5), 5), (np.float64(5.5), 5.5), (np.bool_(True), True)],
        ids=["int64", "float64", "bool"],
    )
    def test_numpy_scalar_literal_answers_like_its_python_value(self, value, python):
        # ``to_sql`` renders np.int64(5) as 5, so the memo key cannot tell
        # them apart: both must type and evaluate alike.
        table = _table()
        column = "b" if isinstance(python, bool) else "m"
        statement = parse_select("SELECT m, v FROM t")
        numpy_form, python_form = (
            replace(statement, where=Comparison("=", ColumnRef(column), Literal(v)))
            for v in (value, python)
        )
        assert numpy_form.to_sql() == python_form.to_sql()
        assert type(Literal(value).value) is type(python)
        db = _db(table)
        db.sql(python_form)
        assert _answer(db, numpy_form) == _answer(_db(table), numpy_form)
        assert _answer(_db(table), numpy_form) == _answer(_db(table), python_form)

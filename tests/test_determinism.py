"""End-to-end determinism of the debug cycle on the histogram tree path.

The fast split path must not introduce any run-to-run variance: the full
FEC debug cycle, repeated from fresh state (fresh tables, fresh
pipeline caches, and — for hash-randomization coverage — a fresh
interpreter), must produce byte-identical ranked predicates, scores,
and rule descriptions. A service-mode run must match single-session
mode while sharing one :class:`SplitIndex` through the preprocess
cache.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from reference.scoring import per_rule_scoring
from repro.core import PipelineConfig
from repro.data import FECConfig, generate_fec, walkthrough_query
from repro.db import Database
from repro.frontend import Brush, DBWipesSession
from repro.service import DBWipesServer, DatasetCatalog, ServiceClient, SessionManager

SRC = str(Path(__file__).resolve().parent.parent / "src")

FEC_CONFIG = FECConfig(
    n_days=150,
    base_rate=10,
    events=((40, 3.0), (90, 4.0)),
    anomaly_day=100,
)


def _fec_db() -> Database:
    table, __ = generate_fec(FEC_CONFIG)
    db = Database()
    db.register(table)
    return db


def _debug_lines(db: Database, config: PipelineConfig | None = None) -> list[str]:
    """One scripted §3.2 FEC debug cycle, rendered to stable text lines."""
    session = DBWipesSession(db, config)
    session.execute(walkthrough_query("MCCAIN"))
    session.select_results(Brush.below(0.0))
    session.zoom()
    session.select_inputs(Brush.below(0.0))
    session.set_metric("too_low", threshold=0.0)
    report = session.debug()
    return [
        "|".join(
            (
                ranked.predicate.describe(),
                ranked.predicate.to_sql(),
                repr(ranked.score),
                repr(ranked.epsilon_before),
                repr(ranked.epsilon_after),
                ranked.candidate_origin,
                ranked.source,
                ranked.describe(),
            )
        )
        for ranked in report
    ]


class TestDebugCycleDeterminism:
    def test_two_fresh_runs_are_byte_identical(self):
        first = _debug_lines(_fec_db())
        second = _debug_lines(_fec_db())
        assert first  # the cycle must actually rank something
        assert first == second

    def test_repeat_debug_within_one_session_is_byte_identical(self):
        db = _fec_db()
        session = DBWipesSession(db)
        session.execute(walkthrough_query("MCCAIN"))
        session.select_results(Brush.below(0.0))
        session.zoom()
        session.select_inputs(Brush.below(0.0))
        session.set_metric("too_low", threshold=0.0)
        first = [ranked.describe() for ranked in session.debug()]
        second = [ranked.describe() for ranked in session.debug()]
        assert first == second

    def test_fresh_interpreters_are_byte_identical(self):
        """Two subprocesses (independent hash randomization) agree."""
        script = (
            "import sys; sys.path.insert(0, {src!r})\n"
            "from repro.data import FECConfig, generate_fec, walkthrough_query\n"
            "from repro.db import Database\n"
            "from repro.frontend import Brush, DBWipesSession\n"
            "table, _ = generate_fec(FECConfig(n_days=150, base_rate=10, "
            "events=((40, 3.0), (90, 4.0)), anomaly_day=100))\n"
            "db = Database(); db.register(table)\n"
            "session = DBWipesSession(db)\n"
            "session.execute(walkthrough_query('MCCAIN'))\n"
            "session.select_results(Brush.below(0.0))\n"
            "session.zoom()\n"
            "session.select_inputs(Brush.below(0.0))\n"
            "session.set_metric('too_low', threshold=0.0)\n"
            "for r in session.debug():\n"
            "    print(r.predicate.to_sql(), repr(r.score), r.describe(), r.source)\n"
        ).format(src=SRC)
        outputs = []
        for __ in range(2):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=300,
                cwd=str(Path(__file__).resolve().parent.parent),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip()


class TestBatchedScoringParity:
    """The batched Ranker/Merger path must be byte-identical to the
    per-rule reference on the full debug cycle — scores, Δε previews,
    descriptions, order, everything that reaches the user."""

    def test_batch_and_per_rule_reference_are_byte_identical(self):
        db = _fec_db()
        batch = _debug_lines(db)
        with per_rule_scoring():
            reference = _debug_lines(db)
        assert batch  # the cycle must actually rank something
        assert batch == reference

    def test_parity_holds_with_merging_enabled(self):
        db = _fec_db()
        config = PipelineConfig(merge_predicates=True)
        batch = _debug_lines(db, config)
        with per_rule_scoring():
            reference = _debug_lines(db, config)
        assert batch
        assert batch == reference


class TestServiceModeParity:
    def test_service_answers_match_single_session_and_share_split_index(self):
        db = _fec_db()
        catalog = DatasetCatalog()
        catalog.register("fec", db, bootstrap=walkthrough_query("MCCAIN"))
        manager = SessionManager(catalog=catalog)

        expected = _debug_lines(db)

        def one_client(name: str) -> list[str]:
            with ServiceClient(host, port, session=name, timeout=300) as client:
                client.open("fec")
                client.execute(client.bootstrap, max_rows=0)
                client.select_results(brush={"below": 0.0})
                client.zoom(max_points=0)
                client.select_inputs(brush={"below": 0.0})
                client.set_metric("too_low", threshold=0.0)
                report = client.debug()
                return [entry["predicate"] for entry in report["predicates"]]

        with DBWipesServer(manager, port=0) as server:
            host, port = server.address
            answers = [one_client(f"det-{i}") for i in range(2)]

        described = [line.split("|", 1)[0] for line in expected]
        assert answers[0] == described
        assert answers[1] == described

        # The shared PreprocessResult carries exactly one SplitIndex memo,
        # shared by both sessions (the cache saw one miss, then hits).
        stats = manager.preprocess_cache.stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 1
        entries = list(manager.preprocess_cache._entries.values())
        assert len(entries) == 1
        memo_keys = [
            key for key in entries[0].value._column_memo if key[0] == "split_index"
        ]
        assert len(memo_keys) == 1

"""Golden answers of the scripted demo flows, to the last bit.

The printed ``python -m repro intel|fec --script`` transcripts round
scores to three or four digits, so they cannot catch a one-ulp change.
This module replays both flows through the demo shell against an
in-process server (scale 1, with and without merging), reads each
report from the manager's live session, and compares one blake2b
digest per ``debug`` against ``tests/golden/scripted_flows.json``. A
third flow, ``intel-clean``, is the intel script with D′ brushed at
``y> 60``: there the k-means cleaner finds clusters and drops
examples, and merging accepts a merge, which the two scripted flows
never do. A digest covers, in order:

* every field of every ranked predicate: the predicate's exact clause
  bounds, then ``repr`` of score, ε before/after, accuracy, precision,
  recall, complexity, match count, candidate origin and source;
* every CN2-SD rule the debug's subgroup fits returned: predicate,
  ``repr(quality)``, covered and covered-positive weights.

Re-record (only for an intended answer change, stated in CHANGES.md)::

    PYTHONPATH=src python tests/test_golden_answers.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.cli import SCRIPTS, Shell, loopback_client
from repro.core import PipelineConfig, enumerator
from repro.core.enumerator import DatasetEnumerator
from repro.db.predicate import NumericClause, Predicate
from repro.learn import SubgroupDiscovery, choose_k, standardize
from repro.service import SessionManager

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "scripted_flows.json"

#: Flow name -> (dataset, shell script).
SCRIPTED = {
    "intel": ("intel", SCRIPTS["intel"]),
    "fec": ("fec", SCRIPTS["fec"]),
    "intel-clean": (
        "intel",
        ["inputs y> 60" if line == "inputs y> 100" else line
         for line in SCRIPTS["intel"]],
    ),
}

FLOWS = [(flow, merge) for flow in SCRIPTED for merge in (False, True)]


def _flow_id(flow: str, merge: bool) -> str:
    return f"{flow}-{'merge' if merge else 'nomerge'}"


def _num(value) -> str:
    return "None" if value is None else repr(float(value))


def _predicate_text(predicate: Predicate) -> str:
    """Exact and hash-seed independent (``describe`` rounds bounds)."""
    parts = []
    for clause in predicate.clauses:
        if isinstance(clause, NumericClause):
            parts.append(
                f"{clause.column}:{_num(clause.lo)}:{_num(clause.hi)}:"
                f"{clause.lo_inclusive}:{clause.hi_inclusive}"
            )
        else:
            values = sorted(repr(value) for value in clause.values)
            parts.append(f"{clause.column}:{values}:{clause.negated}")
    return " & ".join(parts)


def _field_text(value) -> str:
    if isinstance(value, Predicate):
        return _predicate_text(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return repr(int(value))
    return repr(value)


def answer_lines(report, rules) -> list[str]:
    """The text a debug's digest is taken over."""
    lines = [
        "|".join(
            _field_text(getattr(ranked, field.name))
            for field in dataclasses.fields(ranked)
        )
        for ranked in report
    ]
    lines.extend(
        "cn2sd|"
        + "|".join(
            (
                _predicate_text(rule.predicate),
                repr(rule.quality),
                _num(rule.n_covered),
                _num(rule.n_pos_covered),
            )
        )
        for rule in rules
    )
    return lines


def digest(lines: list[str]) -> str:
    text = "\n".join(lines)
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def run_flow(flow: str, merge: bool, monkeypatch) -> list[tuple]:
    """``(report, cn2sd rules, cleanings)`` for each debug of the flow.

    A cleaning is ``(k, |D′|, kept)``: the k the k-means cleaner's
    silhouette contest picked, and the example counts ``clean_dprime``
    was given and returned.
    """
    fitted: list = []
    ks: list = []
    cleanings: list = []
    real_fit = SubgroupDiscovery.fit
    real_mask = enumerator.dominant_cluster_mask
    real_clean = DatasetEnumerator.clean_dprime

    def recording_fit(self, *args, **kwargs):
        rules = real_fit(self, *args, **kwargs)
        fitted.extend(rules)
        return rules

    def recording_mask(X, seed=0):
        Z = np.nan_to_num(standardize(X)[0], nan=0.0)
        ks.append(choose_k(Z, seed=seed))
        return real_mask(X, seed=seed)

    def recording_clean(self, F, dprime, pre=None):
        kept = real_clean(self, F, dprime, pre=pre)
        cleanings.append((ks.pop() if ks else 1, len(dprime), len(kept)))
        return kept

    monkeypatch.setattr(SubgroupDiscovery, "fit", recording_fit)
    monkeypatch.setattr(enumerator, "dominant_cluster_mask", recording_mask)
    monkeypatch.setattr(DatasetEnumerator, "clean_dprime", recording_clean)
    dataset, script = SCRIPTED[flow]
    manager = SessionManager(config=PipelineConfig(merge_predicates=merge))
    answers = []
    with loopback_client(manager) as client:
        shell = Shell(client, out=io.StringIO())
        shell.run_line(f"sql {client.open(dataset)['bootstrap']}")
        for line in script:
            shell.run_line(line)
            if line == "debug":
                report = manager.live(client.session).session.report
                answers.append((report, list(fitted), list(cleanings)))
                fitted.clear()
                cleanings.clear()
    return answers


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


@pytest.mark.parametrize(
    "flow, merge", FLOWS, ids=[_flow_id(f, m) for f, m in FLOWS]
)
def test_scripted_flow_matches_golden(flow, merge, golden, monkeypatch):
    answers = run_flow(flow, merge, monkeypatch)
    # Every flow debugs, and every debug's digest covers CN2-SD rules.
    assert answers and all(rules for __, rules, __ in answers)
    if flow == "intel-clean":
        # The flow guards the cleaner: it clusters D' and drops examples;
        # with merging on, the merger accepts a merge.
        (report, __, [(k, n_dprime, n_kept)]), = answers
        assert k >= 2 and n_kept < n_dprime
        merged = [ranked for ranked in report if ranked.source.startswith("merge")]
        assert bool(merged) == merge
    digests = [digest(answer_lines(report, rules)) for report, rules, __ in answers]
    assert digests == golden[_flow_id(flow, merge)]


def test_one_ulp_nudge_to_a_score_changes_the_digest(golden, monkeypatch):
    (report, rules, __), = run_flow("intel", False, monkeypatch)
    assert digest(answer_lines(report, rules)) == golden["intel-nomerge"][0]
    first = report.predicates[0]
    nudged = dataclasses.replace(first, score=math.nextafter(first.score, math.inf))
    lines = answer_lines((nudged, *report.predicates[1:]), rules)
    assert digest(lines) != golden["intel-nomerge"][0]


if __name__ == "__main__":
    patcher = pytest.MonkeyPatch()
    recorded = {
        _flow_id(flow, merge): [
            digest(answer_lines(report, rules))
            for report, rules, __ in run_flow(flow, merge, patcher)
        ]
        for flow, merge in FLOWS
    }
    patcher.undo()
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({"digests": recorded}, indent=2, sort_keys=True) + "\n"
    )
    print(f"recorded {GOLDEN_PATH}")

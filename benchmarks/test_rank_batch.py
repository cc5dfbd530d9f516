"""A3 ablation: the batched mask-and-score engine vs the per-rule
reference across the Ranker + Merger tier.

Scales the intel workload 1×/10×/50× (rows), runs the rank+merge stage
with the per-rule reference (``tests/reference/scoring.py``: one mask
evaluation per rule per table, one grouped Δε pass per rule, a second
mask evaluation in dedupe, O(n²) pair rescans in the merger) and with
the production batched engine (distinct clauses evaluated once,
bit-packed conjunctions, digest-deduped one-pass grouped Δε, popcount
confusion, cached merge pairs), and asserts the ranked output is
byte-identical — order, scores, descriptions.

Timings are recorded two ways, matching how the stage is actually paid
for in production:

* **cold** — first debug of a selection: the engine and Δε memos are
  empty and must be built;
* **cycle total** — ``CYCLES`` debug cycles against one (cached)
  ``PreprocessResult``, the deployed shape of the serving tier: PR 2's
  closed-loop benchmark measured a 0.96 preprocess-cache hit rate, so
  nearly every rank+merge in service mode runs against warm memos. The
  per-rule reference has no memo to warm — re-scoring from scratch per
  cycle *is* the pre-PR behavior being replaced.

Results land in ``BENCH_rank.json`` (uploaded as a CI artifact next to
``BENCH_service.json`` / ``BENCH_tree.json``). The acceptance gate is
the 10× workload: cycle-total speedup ≥ 5×.

Scale selection is env-driven: the default (``1``) is the tier-1 smoke
— every PR runs the batch path end-to-end with the parity assertions —
and ``REPRO_RANK_BENCH_SCALES=1,10,50`` is the full gated ablation.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core import (
    DatasetEnumerator,
    PredicateEnumerator,
    PredicateRanker,
    Preprocessor,
    RankerWeights,
    TooHigh,
)
from repro.core.merger import PredicateMerger
from repro.data import IntelConfig, generate_intel
from repro.db import Database

from bench_output import bench_path, environment
from reference.scoring import PerRuleMerger, PerRuleRanker

BENCH_PATH = bench_path("BENCH_rank.json")
MIN_SPEEDUP = 5.0
#: Debug cycles per measurement (the §3 demo loop debugs repeatedly and
#: the service shares one PreprocessResult across sessions; 6 is far
#: below the ~24 warm evaluations per miss the PR 2 benchmark implies).
CYCLES = 6

SCALES = tuple(
    int(scale)
    for scale in os.environ.get("REPRO_RANK_BENCH_SCALES", "1").split(",")
    if scale.strip()
)


def _workload(scale: int):
    """The intel debug stage at ``scale``× rows, ready to rank."""
    table, __ = generate_intel(
        IntelConfig(
            n_sensors=54,
            duration_minutes=720 * scale,
            interval_minutes=2.0,
            failing_sensors=(15, 18),
            failure_onset_frac=0.7,
        )
    )
    db = Database()
    db.register(table)
    result = db.sql(
        "SELECT minute / 30 AS w, avg(temp) AS avg_temp, "
        "stddev(temp) AS std_temp FROM readings GROUP BY minute / 30 ORDER BY w"
    )
    std = np.asarray(result.column("std_temp"))
    cutoff = 4 * float(np.median(std))
    S = [i for i in range(result.num_rows) if std[i] > cutoff]
    F = result.inputs_for(S)
    dprime = np.asarray(F.tids)[np.asarray(F.column("temp")) > 100.0]
    pre = Preprocessor().run(result, S, TooHigh(4.0), agg_name="std_temp")
    candidates = DatasetEnumerator(seed=0).run(pre, dprime)
    rules = PredicateEnumerator().run(pre, candidates)
    # The enumerator warms the shared SplitIndex exactly as a real debug
    # cycle would before the rank stage begins.
    return pre, candidates, rules


def _drop_stage_memos(pre) -> None:
    """Forget the engine + Δε memos so a timing starts cold."""
    for key in [k for k in pre._column_memo if k[0] == "mask_engine"]:
        del pre._column_memo[key]
    pre.segments.memo.clear()


def _lines(ranked) -> list[str]:
    return [
        "|".join(
            (
                entry.predicate.describe(),
                entry.predicate.to_sql(),
                repr(entry.score),
                repr(entry.epsilon_before),
                repr(entry.epsilon_after),
                repr(entry.accuracy),
                str(entry.n_matched),
                entry.candidate_origin,
                entry.source,
            )
        )
        for entry in ranked
    ]


#: The rank+merge stage's two implementations: the per-rule oracle and
#: the production batch path.
SCORERS = {
    "per_rule": (PerRuleRanker, PerRuleMerger),
    "batch": (PredicateRanker, PredicateMerger),
}


def _measure(pre, candidates, rules, algorithm: str, repeats: int):
    """Best-of cold and ``CYCLES``-total stage times, plus the output."""
    ranker_class, merger_class = SCORERS[algorithm]
    ranker = ranker_class()
    merger = merger_class(weights=RankerWeights())

    def stage():
        ranked = ranker.run(pre, candidates, rules)
        return merger.run(pre, candidates, list(ranked))

    best_cold = float("inf")
    best_total = float("inf")
    merged = None
    for __ in range(repeats):
        _drop_stage_memos(pre)
        start = time.perf_counter()
        merged = stage()
        cold = time.perf_counter() - start
        total = cold
        for __ in range(CYCLES - 1):
            start = time.perf_counter()
            merged = stage()
            total += time.perf_counter() - start
        best_cold = min(best_cold, cold)
        best_total = min(best_total, total)
    return best_cold, best_total, _lines(merged)


class TestRankBatchAblation:
    def test_batched_rank_and_merge_vs_per_rule_reference(self):
        payload: dict = {
            "workload": "intel",
            "environment": environment(),
            "cycles": CYCLES,
            "min_speedup": MIN_SPEEDUP,
            "gate_scale": 10,
            "scales": {},
        }
        speedup_at_10 = None
        for scale in SCALES:
            pre, candidates, rules = _workload(scale)
            repeats = 3 if scale < 50 else 2
            results = {}
            for algorithm in ("per_rule", "batch"):
                results[algorithm] = _measure(
                    pre, candidates, rules, algorithm, repeats
                )
            cold_ref, total_ref, lines_ref = results["per_rule"]
            cold_batch, total_batch, lines_batch = results["batch"]

            # Byte-identical ranked output: order, scores, descriptions.
            assert lines_batch == lines_ref, f"output diverged at {scale}x"
            assert lines_batch, f"nothing ranked at {scale}x"

            cold_speedup = cold_ref / cold_batch
            total_speedup = total_ref / total_batch
            payload["scales"][str(scale)] = {
                "repeats": repeats,
                "f_size": len(pre.F),
                "n_rules": len(rules),
                "n_ranked": len(lines_batch),
                "per_rule": {
                    "cold_ms": round(cold_ref * 1000, 3),
                    "cycle_total_ms": round(total_ref * 1000, 3),
                },
                "batch": {
                    "cold_ms": round(cold_batch * 1000, 3),
                    "cycle_total_ms": round(total_batch * 1000, 3),
                },
                "cold_speedup": round(cold_speedup, 2),
                "cycle_speedup": round(total_speedup, 2),
            }
            print(
                f"\nA3 {scale}x: |F|={len(pre.F)}, {len(rules)} rules: "
                f"per-rule {total_ref * 1000:.1f} ms vs batch "
                f"{total_batch * 1000:.1f} ms over {CYCLES} cycles "
                f"({total_speedup:.1f}x; cold {cold_speedup:.1f}x)"
            )
            if scale == 10:
                speedup_at_10 = total_speedup
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"-> {BENCH_PATH.name}")
        if speedup_at_10 is not None:
            assert speedup_at_10 >= MIN_SPEEDUP
        elif 10 in SCALES:  # pragma: no cover - defensive
            pytest.fail("10x scale ran but recorded no speedup")

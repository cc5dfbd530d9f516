"""A4 ablation: histogram tree induction vs its two oracles inside the
Predicate Enumerator.

Runs the full enumerate-predicates stage (K candidate sets × 5 tree
strategies) on the intel workload (|F| ≈ 4050) three times — with the
production node kernel (one offset-coded histogram per node, sibling
subtraction, one fit per distinct tree), with the per-column histogram
oracle (``ColumnHistogramTree``: one histogram per column per node, the
kernel the node kernel replaced), and with the exact per-threshold
masking oracle (``ExactDecisionTree``), both in ``tests/reference/tree.py``
and scoring the identical candidate thresholds. It asserts the three
outputs are answer-identical and the production path is ≥5× faster
than the exact oracle (the column arm's time is recorded, not gated),
and records the numbers with ``environment()`` to ``BENCH_tree.json``
under ``REPRO_BENCH_DIR`` (see ``bench_output.py``; uploaded as a CI
artifact next to ``BENCH_service.json``).
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext

import numpy as np
import pytest

from reference.tree import (
    ColumnHistogramTree,
    ExactDecisionTree,
    column_histogram_trees,
    exact_trees,
)
from repro.core import TooHigh
from repro.core.enumerator import DatasetEnumerator
from repro.core.predicates import PredicateEnumerator
from repro.core.preprocessor import Preprocessor
from repro.learn import DecisionTree, SplitIndex

from bench_output import bench_path, environment

BENCH_PATH = bench_path("BENCH_tree.json")
MIN_SPEEDUP = 5.0


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def intel_stage(intel_result, intel_selection):
    """Preprocessed intel selection + candidate sets (not timed)."""
    S, F, dprime = intel_selection
    pre = Preprocessor().run(intel_result, S, TooHigh(4.0), agg_name="std_temp")
    candidates = DatasetEnumerator(seed=0).run(pre, dprime)
    return pre, candidates


def _drop_split_index(pre) -> None:
    """Forget memoized SplitIndexes so timings include the build."""
    for key in [k for k in pre._column_memo if k[0] == "split_index"]:
        del pre._column_memo[key]


def _rule_lines(candidate_rules) -> list[str]:
    return [
        f"{cr.candidate_index}|{cr.rule.predicate.describe()}|{cr.rule.source}"
        for cr in candidate_rules
    ]


class TestTreeInductionAblation:
    def test_hist_vs_exact_enumerate_predicates(self, intel_stage):
        pre, candidates = intel_stage
        f_size = len(pre.F)
        assert f_size > 3000  # the paper-scale selection, |F| ≈ 4050

        outputs: dict[str, list[str]] = {}
        seconds: dict[str, float] = {}
        enumerator = PredicateEnumerator()
        for algorithm, trees, repeats in (
            ("exact", exact_trees, 2),
            ("column", column_histogram_trees, 3),
            ("hist", nullcontext, 3),
        ):

            def run():
                _drop_split_index(pre)
                outputs[algorithm] = _rule_lines(enumerator.run(pre, candidates))

            with trees():
                seconds[algorithm] = _best_of(run, repeats)

        # Answer parity end-to-end: same rules for every candidate.
        assert outputs["hist"] == outputs["column"] == outputs["exact"]
        assert outputs["hist"]  # the stage actually produced predicates

        speedup = seconds["exact"] / seconds["hist"]

        # Single-fit micro ablation on the largest candidate set.
        labels = max(
            (candidate.label_mask(pre.F) for candidate in candidates),
            key=lambda mask: int(mask.sum()),
        )
        index = pre.split_index(features=list(pre.F.schema.names))
        fit_seconds: dict[str, float] = {}
        for algorithm, tree_class, repeats in (
            ("exact", ExactDecisionTree, 2),
            ("column", ColumnHistogramTree, 3),
            ("hist", DecisionTree, 3),
        ):
            tree = tree_class(max_depth=5, min_samples_leaf=2)
            fit_seconds[algorithm] = _best_of(
                lambda: tree.fit(pre.F, labels, split_index=index), repeats
            )
        fit_speedup = fit_seconds["exact"] / fit_seconds["hist"]

        payload = {
            "workload": "intel",
            "environment": environment(),
            "f_size": f_size,
            "n_candidates": len(candidates),
            "n_strategies": len(PredicateEnumerator().strategies),
            "n_rules": len(outputs["hist"]),
            "enumerate_predicates": {
                "exact_seconds": round(seconds["exact"], 4),
                "column_seconds": round(seconds["column"], 4),
                "hist_seconds": round(seconds["hist"], 4),
                "speedup": round(speedup, 2),
                "speedup_vs_column": round(seconds["column"] / seconds["hist"], 2),
            },
            "single_fit": {
                "exact_seconds": round(fit_seconds["exact"], 4),
                "column_seconds": round(fit_seconds["column"], 4),
                "hist_seconds": round(fit_seconds["hist"], 4),
                "speedup": round(fit_speedup, 2),
                "speedup_vs_column": round(
                    fit_seconds["column"] / fit_seconds["hist"], 2
                ),
            },
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")

        print(
            f"\nA4: |F|={f_size}, {len(candidates)} candidates x "
            f"{payload['n_strategies']} strategies: "
            f"exact {seconds['exact'] * 1000:.0f} ms, "
            f"column {seconds['column'] * 1000:.0f} ms, "
            f"hist {seconds['hist'] * 1000:.0f} ms ({speedup:.1f}x); "
            f"single fit {fit_speedup:.1f}x -> {BENCH_PATH.name}"
        )
        assert speedup >= MIN_SPEEDUP

    def test_shared_index_is_memoized_across_strategies(self, intel_stage):
        pre, candidates = intel_stage
        _drop_split_index(pre)
        PredicateEnumerator().run(pre, candidates)
        keys = [k for k in pre._column_memo if k[0] == "split_index"]
        assert len(keys) == 1  # K x S fits shared one index

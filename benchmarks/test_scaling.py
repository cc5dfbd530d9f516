"""Q2: runtime scaling of the ranked-provenance pipeline.

Sweeps the input size (rows of the base table / of F) and the selection
size |S|, measuring end-to-end ``debug()`` latency and bare query
execution. Expected shape: near-linear growth in |F| — the pipeline's
stages are all linear passes over F (influence via removable aggregates,
condition-mask precomputation, tree building with capped thresholds).

The grouped-kernel ablation (A5) compares the segmented vectorized
kernels (`compute_grouped` / `leave_one_out_grouped` /
`compute_without_grouped`) against the per-group Python loop they
replaced, on the same data the scaling sweep uses.
"""

import time

import numpy as np
import pytest

from reference.aggregates import (
    compute_grouped_loop,
    compute_without_grouped_loop,
    leave_one_out_grouped_loop,
)
from repro.core import RankedProvenance, TooHigh
from repro.data import IntelConfig, generate_intel
from repro.db import Database, SegmentedValues, get_aggregate

ROWS_SWEEP = [5400, 21600, 43200]  # readings: 54 sensors x {100,400,800} epochs


def _build(rows: int):
    epochs = rows // 54
    duration = epochs * 2
    table, truth = generate_intel(
        IntelConfig(
            n_sensors=54,
            duration_minutes=duration,
            interval_minutes=2.0,
            failing_sensors=(15, 18),
            failure_onset_frac=0.7,
        )
    )
    db = Database()
    db.register(table)
    result = db.sql(
        "SELECT minute / 30 AS w, avg(temp) AS a, stddev(temp) AS s "
        "FROM readings GROUP BY minute / 30 ORDER BY w"
    )
    std = np.asarray(result.column("s"))
    cutoff = 4 * float(np.median(std))
    S = [i for i in range(result.num_rows) if std[i] > cutoff]
    F = result.inputs_for(S)
    dprime = np.asarray(F.tids)[np.asarray(F.column("temp")) > 100.0]
    return db, result, S, dprime, len(F)


@pytest.mark.parametrize("rows", ROWS_SWEEP)
def test_q2_debug_latency_vs_rows(benchmark, rows):
    db, result, S, dprime, f_size = _build(rows)
    pipeline = RankedProvenance()

    report = benchmark(
        pipeline.debug, result, S, TooHigh(4.0), dprime_tids=dprime,
        agg_name="s",
    )
    assert len(report) > 0
    print(f"\nQ2: rows={rows}, |F|={f_size}, |S|={len(S)}, "
          f"stage timings (ms): "
          + ", ".join(f"{k}={1000 * v:.0f}" for k, v in report.timings.items()))


@pytest.mark.parametrize("rows", ROWS_SWEEP)
def test_q2_query_execution_vs_rows(benchmark, rows):
    db, __, __, __, __ = _build(rows)

    result = benchmark(
        db.sql,
        "SELECT minute / 30 AS w, avg(temp) AS a, stddev(temp) AS s "
        "FROM readings GROUP BY minute / 30 ORDER BY w",
    )
    assert result.num_rows > 0


def _intel_segments(rows: int) -> SegmentedValues:
    """Per-minute temperature segments of the intel table (many groups)."""
    epochs = rows // 54
    table, __ = generate_intel(
        IntelConfig(
            n_sensors=54,
            duration_minutes=epochs * 2,
            interval_minutes=2.0,
            failing_sensors=(15, 18),
            failure_onset_frac=0.7,
        )
    )
    temps = np.asarray(table.column("temp"), dtype=np.float64)
    minutes = np.asarray(table.column("minute"), dtype=np.float64)
    uniques, codes = np.unique(minutes, return_inverse=True)
    order = np.argsort(codes, kind="stable")
    counts = np.bincount(codes, minlength=len(uniques))
    return SegmentedValues(temps[order], np.concatenate([[0], np.cumsum(counts)]))


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for __ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("agg_name", ["avg", "stddev", "max"])
def test_q2_grouped_kernels_vs_python_loop(agg_name):
    """A5 ablation: the segmented kernels must beat the per-group loop.

    Runs on the largest configured input size. The loops in
    ``tests/reference/aggregates.py`` have the code shape the
    executor/influence/ranker hot paths used before the segmented
    rewrite (one Python-level recomputation per group, one mask row).
    """
    seg = _intel_segments(ROWS_SWEEP[-1])
    assert seg.n_segments > 500  # many groups: the loop's worst case
    agg = get_aggregate(agg_name)
    rng = np.random.default_rng(0)
    masks = rng.random((1, len(seg.values))) < 0.25

    timings = {}
    for kernel, grouped, loop in [
        ("compute", agg.compute_grouped, compute_grouped_loop),
        ("leave_one_out", agg.leave_one_out_grouped, leave_one_out_grouped_loop),
    ]:
        np.testing.assert_allclose(
            grouped(seg), loop(agg, seg), rtol=1e-6, atol=1e-6
        )
        timings[kernel] = (_best_of(lambda: grouped(seg)),
                           _best_of(lambda: loop(agg, seg)))
    np.testing.assert_allclose(
        agg.compute_without_grouped(seg, masks),
        compute_without_grouped_loop(agg, seg, masks),
        rtol=1e-6, atol=1e-6,
    )
    timings["compute_without"] = (
        _best_of(lambda: agg.compute_without_grouped(seg, masks)),
        _best_of(lambda: compute_without_grouped_loop(agg, seg, masks)),
    )

    report = ", ".join(
        f"{kernel}: grouped={1000 * fast:.2f}ms loop={1000 * slow:.2f}ms "
        f"({slow / fast:.0f}x)"
        for kernel, (fast, slow) in timings.items()
    )
    print(f"\nA5 ablation [{agg_name}] |values|={len(seg.values)}, "
          f"groups={seg.n_segments} -> {report}")
    for kernel, (fast, slow) in timings.items():
        assert fast < slow, f"{agg_name}/{kernel}: grouped kernel slower than loop"


@pytest.mark.parametrize("n_selected", [1, 4, 8])
def test_q2_debug_latency_vs_selection_size(benchmark, n_selected):
    db, result, S, dprime, __ = _build(21600)
    S = S[:n_selected] if len(S) >= n_selected else S
    pipeline = RankedProvenance()

    report = benchmark(
        pipeline.debug, result, S, TooHigh(4.0), dprime_tids=dprime,
        agg_name="s",
    )
    assert report.epsilon >= 0

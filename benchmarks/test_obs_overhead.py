"""Telemetry overhead: warm ``debug()`` with instrumentation on vs off.

The observability contract is *always-on-cheap*: spans, stage
histograms, and request counters stay enabled in production, so their
cost must be provably small. At each workload scale of
``REPRO_OBS_BENCH_SCALES`` (default ``1`` — the tier-1 smoke; CI runs
``1,10``) this benchmark times ``debug()`` calls with the
kill switch on and off, **interleaved** A/B so clock drift and
cache-warming cancel, and asserts the median enabled run is within 5%
of the median disabled run. Each sample debugs on a fresh
:class:`DBWipesSession` over one shared :class:`Database`: a session
memoizes its last answer, so re-debugging one session would time a
memo hit instead of the five pipeline stages the spans instrument.

Results land in ``BENCH_obs.json`` under ``REPRO_BENCH_DIR`` (see
``bench_output.py``; a CI artifact), one section per scale.
"""

from __future__ import annotations

import gc
import json
import os
import time

import numpy as np
import pytest

from repro.core import PipelineConfig
from repro.data import IntelConfig, generate_intel
from repro.db import Database
from repro.frontend import Brush, DBWipesSession
from repro.obs import set_enabled, tracer

from bench_output import bench_path

SCALES = tuple(
    int(scale)
    for scale in os.environ.get("REPRO_OBS_BENCH_SCALES", "1").split(",")
    if scale.strip()
)
#: A/B rounds per scale; medians over this many samples per arm.
N_ROUNDS = 9
#: The acceptance bound: enabled vs disabled warm-debug medians.
MAX_OVERHEAD_PCT = 5.0
BASE_MINUTES = 240

BOOTSTRAP = (
    "SELECT minute / 30 AS w, avg(temp) AS avg_temp, "
    "stddev(temp) AS std_temp FROM readings GROUP BY minute / 30 ORDER BY w"
)

BENCH_PATH = bench_path("BENCH_obs.json")


def _intel_db(scale: int) -> Database:
    table, __ = generate_intel(
        IntelConfig(
            n_sensors=54,
            duration_minutes=BASE_MINUTES * scale,
            interval_minutes=2.0,
            failing_sensors=(15, 18),
            failure_onset_frac=0.7,
            seed=100,
        )
    )
    db = Database()
    db.register(table)
    return db


def _brushed_session(db: Database) -> DBWipesSession:
    """A fresh session with the selection and metric set, not yet debugged."""
    session = DBWipesSession(db, PipelineConfig())
    result = session.execute(BOOTSTRAP)
    std = np.asarray(result.column("std_temp"), dtype=float)
    cutoff = 4.0 * float(np.median(std[np.isfinite(std)]))
    session.select_results(Brush.above(cutoff), y="std_temp")
    session.set_metric("too_high")
    return session


def _merge_into_bench(section: str, payload) -> None:
    data = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    if not isinstance(data, dict):
        data = {}
    data[section] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


class TestObsOverhead:
    @pytest.mark.parametrize("scale", SCALES)
    def test_warm_debug_overhead_within_bound(self, scale):
        db = _intel_db(scale)
        samples: dict[bool, list[float]] = {True: [], False: []}
        try:
            # Warm both arms once (imports, allocator, flag-flip
            # effects). Neither is timed.
            for enabled in (True, False):
                set_enabled(enabled)
                _brushed_session(db).debug()
            for round_index in range(N_ROUNDS):
                # Interleaved A/B, alternating which arm goes first.
                order = (False, True) if round_index % 2 == 0 else (True, False)
                for enabled in order:
                    set_enabled(enabled)
                    session = _brushed_session(db)
                    # Collect the previous sample's garbage outside the
                    # timed window, so neither arm pays for the other.
                    gc.collect()
                    start = time.perf_counter()
                    session.debug()
                    samples[enabled].append(time.perf_counter() - start)
        finally:
            set_enabled(True)

        # One instrumented debug() worth of spans, for the record.
        session = _brushed_session(db)
        with tracer().span("bench.root") as root:
            session.debug()
        spans_per_debug = len(tracer().spans(root.trace_id)) - 1

        enabled_median = float(np.median(samples[True]))
        disabled_median = float(np.median(samples[False]))
        overhead_pct = 100.0 * (enabled_median / disabled_median - 1.0)

        section = {
            "benchmark": "obs_overhead",
            "scale": scale,
            "rows": 54 * (BASE_MINUTES * scale) // 2,
            "n_rounds": N_ROUNDS,
            "spans_per_debug": spans_per_debug,
            "enabled_seconds_median": enabled_median,
            "disabled_seconds_median": disabled_median,
            "enabled_seconds": samples[True],
            "disabled_seconds": samples[False],
            "overhead_pct": overhead_pct,
            "max_overhead_pct": MAX_OVERHEAD_PCT,
        }
        _merge_into_bench(f"overhead_scale_{scale}x", section)
        print(
            f"\nobs overhead {scale}x: enabled={enabled_median:.4f}s, "
            f"disabled={disabled_median:.4f}s, overhead={overhead_pct:+.2f}% "
            f"({spans_per_debug} spans/debug) -> {BENCH_PATH.name}"
        )
        assert overhead_pct <= MAX_OVERHEAD_PCT, (
            f"instrumentation costs {overhead_pct:.2f}% on debug() "
            f"at {scale}x (bound: {MAX_OVERHEAD_PCT}%)"
        )

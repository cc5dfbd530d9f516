"""Shared workload fixtures for the benchmark harness.

Each fixture is session-scoped: dataset generation is not part of any
measured benchmark. Sizes are laptop-scale (the paper's demo ran live on
a laptop too) but configurable via the ``REPRO_BENCH_SCALE`` environment
variable (1 = default, 2 = double duration/rows, ...).

The ablations compare against the parity oracles in ``tests/reference``;
``tests/`` goes on ``sys.path`` here so ``import reference`` also works
when one benchmark file runs on its own.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.data import (
    FECConfig,
    IntelConfig,
    SyntheticConfig,
    generate_fec,
    generate_intel,
    generate_synthetic,
)
from repro.db import Database

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "1"))


@pytest.fixture(scope="session")
def intel_workload():
    """Intel Lab stand-in: 54 sensors, high-variance failure windows."""
    table, truth = generate_intel(
        IntelConfig(
            n_sensors=54,
            duration_minutes=720 * SCALE,
            interval_minutes=2.0,
            failing_sensors=(15, 18),
            failure_onset_frac=0.7,
        )
    )
    db = Database()
    db.register(table)
    return db, table, truth


@pytest.fixture(scope="session")
def intel_result(intel_workload):
    db, __, __ = intel_workload
    return db.sql(
        "SELECT minute / 30 AS w, avg(temp) AS avg_temp, "
        "stddev(temp) AS std_temp FROM readings GROUP BY minute / 30 "
        "ORDER BY w"
    )


@pytest.fixture(scope="session")
def intel_selection(intel_result):
    """The Figure-4 selection: S (high-stddev windows) and D' (hot tuples)."""
    std = np.asarray(intel_result.column("std_temp"))
    cutoff = 4 * float(np.median(std))
    S = [i for i in range(intel_result.num_rows) if std[i] > cutoff]
    F = intel_result.inputs_for(S)
    dprime = np.asarray(F.tids)[np.asarray(F.column("temp")) > 100.0]
    return S, F, dprime


@pytest.fixture(scope="session")
def fec_workload():
    """FEC stand-in with the REATTRIBUTION TO SPOUSE anomaly."""
    table, truth = generate_fec(FECConfig(n_days=600, base_rate=30 * SCALE))
    db = Database()
    db.register(table)
    return db, table, truth


@pytest.fixture(scope="session")
def decoy_workload():
    """Clustered moderate anomaly + extreme legitimate decoys (limitation 1)."""
    table, truth = generate_synthetic(
        SyntheticConfig(
            n_rows=6000 * SCALE,
            shift_stds=10.0,
            legit_outlier_rate=0.01,
            legit_outlier_stds=25.0,
            predicate_kind="categorical",
            seed=13,
        )
    )
    db = Database()
    db.register(table)
    return db, table, truth

"""Durable storage tier benchmarks → ``BENCH_store.json``.

Three questions, each answered across dataset scales (the Intel
workload at 1× / 10× / 50× rows via ``REPRO_STORE_BENCH_SCALES``):

* **open latency** — reopening a persisted table reads manifests and
  maps column bytes lazily, so it must be far cheaper than regenerating
  the dataset (the whole point of warm restarts);
* **cold vs warm restart** — the first ``debug()`` of a freshly
  restarted process: cold pays dataset build + persist, warm pays a
  manifest reopen + recompute of the preprocessing from the mapped
  table. The answers must be byte-identical; the speedup is the
  durability payoff on record;
* **mmap overhead** — a warm in-cache debug cycle over a memory-mapped
  table vs the in-memory reference must stay within a small constant
  factor (the lazy gathers hit the page cache, not the disk).

Results merge into ``BENCH_store.json`` under ``REPRO_BENCH_DIR`` (see
``bench_output.py``; uploaded as a CI artifact).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.data import generate_intel, intel_at_scale
from repro.db import Database, Table
from repro.frontend import Brush, DBWipesSession
from repro.service.cache import DatasetCatalog

from bench_output import bench_path, environment

SCALES = tuple(
    int(s)
    for s in os.environ.get("REPRO_STORE_BENCH_SCALES", "1,10,50").split(",")
    if s.strip()
)

BENCH_PATH = bench_path("BENCH_store.json")

INTEL_SQL = (
    "SELECT minute / 30 AS window, avg(temp) AS avg_temp, "
    "stddev(temp) AS std_temp FROM readings GROUP BY minute / 30 "
    "ORDER BY window"
)


def _merge_into_bench(section: str, payload) -> None:
    """Update one section of ``BENCH_store.json``, keeping the others;
    each section records where it was measured."""
    data = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    if not isinstance(data, dict):
        data = {}
    data[section] = {**payload, "environment": environment()}
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


def _intel_table(scale: int) -> Table:
    table, __ = generate_intel(intel_at_scale(scale, failure_onset_frac=0.7))
    return table


def _debug_cycle(db: Database) -> tuple[list[str], float]:
    """One scripted Figure-4 debug cycle; returns (canonical lines, secs)."""
    start = time.perf_counter()
    session = DBWipesSession(db)
    session.execute(INTEL_SQL)
    session.select_results(Brush.above(7.0), y="std_temp")
    session.zoom()
    session.select_inputs(Brush.above(100.0))
    session.set_metric("too_high")
    report = session.debug()
    seconds = time.perf_counter() - start
    lines = [
        "|".join(
            (
                ranked.predicate.describe(),
                repr(ranked.score),
                repr(ranked.epsilon_after),
            )
        )
        for ranked in report
    ]
    assert lines
    return lines, seconds


class TestOpenLatency:
    def test_open_is_cheaper_than_generate(self, tmp_path):
        rows = []
        for scale in SCALES:
            t0 = time.perf_counter()
            table = _intel_table(scale)
            generate_seconds = time.perf_counter() - t0

            t0 = time.perf_counter()
            table.save(tmp_path / f"intel-{scale}x")
            save_seconds = time.perf_counter() - t0

            t0 = time.perf_counter()
            reopened = Table.open(tmp_path / f"intel-{scale}x")
            open_seconds = time.perf_counter() - t0
            assert reopened.num_rows == table.num_rows

            rows.append(
                {
                    "scale": scale,
                    "rows": table.num_rows,
                    "generate_seconds": round(generate_seconds, 6),
                    "save_seconds": round(save_seconds, 6),
                    "open_seconds": round(open_seconds, 6),
                }
            )
        # Lazy opens read one manifest regardless of size: at the
        # largest scale the reopen must beat regeneration outright.
        largest = rows[-1]
        assert largest["open_seconds"] < largest["generate_seconds"]
        _merge_into_bench("open_latency", {"scales": rows, "repeats": 1})


class TestWarmRestart:
    def _catalog(self, data_dir, scale: int) -> DatasetCatalog:
        catalog = DatasetCatalog(data_dir=data_dir)

        def build() -> Database:
            db = Database()
            db.register(_intel_table(scale))
            return db

        catalog.register("intel", build)
        return catalog

    def test_restarted_first_debug_is_warm_and_identical(self, tmp_path):
        rows = []
        for scale in SCALES:
            data_dir = tmp_path / f"{scale}x"

            # Cold boot: build + persist the dataset, answer the first
            # debug().
            t0 = time.perf_counter()
            catalog = self._catalog(data_dir, scale)
            db = catalog.get("intel")
            cold_lines, __ = _debug_cycle(db)
            cold_seconds = time.perf_counter() - t0

            # Restart: fresh process state, same data dir. The first
            # debug reopens the mapped table, recomputes its
            # preprocessing and must come back byte-identical.
            t0 = time.perf_counter()
            restarted = DatasetCatalog(data_dir=data_dir)
            db = restarted.get("intel")
            warm_lines, __ = _debug_cycle(db)
            warm_seconds = time.perf_counter() - t0

            assert warm_lines == cold_lines
            rows.append(
                {
                    "scale": scale,
                    "rows": db.table("readings").num_rows,
                    "cold_first_debug_seconds": round(cold_seconds, 6),
                    "warm_first_debug_seconds": round(warm_seconds, 6),
                    "speedup": round(cold_seconds / max(warm_seconds, 1e-9), 3),
                }
            )
        # Warmness must be measurable, not incidental: at the largest
        # scale the restarted first debug beats the cold one outright.
        assert rows[-1]["warm_first_debug_seconds"] < rows[-1][
            "cold_first_debug_seconds"
        ]
        _merge_into_bench("warm_restart", {"scales": rows, "repeats": 1})


class TestMmapOverhead:
    #: Warm mmap cycles may cost at most this factor over in-memory.
    BOUND = 3.0
    REPEATS = 3

    def test_warm_cycle_overhead_is_bounded(self, tmp_path):
        scale = SCALES[0]
        table = _intel_table(scale)
        mem_db = Database()
        mem_db.register(table)
        mmap_db = mem_db.save(tmp_path / "intel")

        def median_cycle(db: Database) -> tuple[list[str], float]:
            lines, __ = _debug_cycle(db)  # warm the page/split caches
            timings = []
            for __ in range(self.REPEATS):
                again, seconds = _debug_cycle(db)
                assert again == lines
                timings.append(seconds)
            timings.sort()
            return lines, timings[len(timings) // 2]

        mem_lines, mem_seconds = median_cycle(mem_db)
        mmap_lines, mmap_seconds = median_cycle(mmap_db)
        assert mmap_lines == mem_lines  # parity, then performance
        ratio = mmap_seconds / max(mem_seconds, 1e-9)
        assert ratio < self.BOUND, (
            f"mmap warm cycle {ratio:.2f}× in-memory (bound {self.BOUND}×)"
        )
        _merge_into_bench(
            "mmap_overhead",
            {
                "scale": scale,
                "rows": table.num_rows,
                "in_memory_seconds": round(mem_seconds, 6),
                "mmap_seconds": round(mmap_seconds, 6),
                "ratio": round(ratio, 3),
                "bound": self.BOUND,
                "repeats": self.REPEATS,
            },
        )

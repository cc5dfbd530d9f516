"""Cross-session sharding benchmark: 1 vs N workers.

At each workload scale of ``REPRO_PARTITION_BENCH_SCALES`` (default
``1`` — the tier-1 smoke; CI runs ``1,10,50``), the same multi-dataset
debug workload runs through a single-process server and through an
N-worker server that routes by a hash of the dataset id. Datasets shard
across workers, so the worker tier preprocesses and ranks in true
parallel processes; at the 50× scale the compute dominates the IPC and the
multi-worker req/s should exceed the single-process baseline on a
multi-core host (on one core the expectation degenerates to ~1.0, so
the record carries its ``environment``, ``cpu_count`` included).
Per-worker preprocess-cache hit rates are recorded — cache affinity
means each shard keeps its own hit rate high.

Results land in ``BENCH_partition.json`` under ``REPRO_BENCH_DIR`` (see
``bench_output.py``; a CI artifact), one section per scale.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.data import IntelConfig, generate_intel
from repro.db import Database
from repro.service import (
    DatasetCatalog,
    DBWipesServer,
    ServiceClient,
    SessionManager,
)
from repro.service.router import replica_set

from bench_output import bench_path, environment

SCALES = tuple(
    int(scale)
    for scale in os.environ.get("REPRO_PARTITION_BENCH_SCALES", "1").split(",")
    if scale.strip()
)
N_DATASETS = 4
N_WORKERS = 4
N_CYCLES = 2
#: Wire requests per debug cycle (excluding the one-time open).
REQUESTS_PER_CYCLE = 4
#: Base duration in minutes; scale 50 ≈ 324k readings across datasets.
BASE_MINUTES = 240

BOOTSTRAP = (
    "SELECT minute / 30 AS w, avg(temp) AS avg_temp, "
    "stddev(temp) AS std_temp FROM readings GROUP BY minute / 30 ORDER BY w"
)

BENCH_PATH = bench_path("BENCH_partition.json")


def _sharded_dataset_names() -> list[str]:
    """N dataset names that the router provably spreads 1:1 over workers.

    The placement is deterministic, so probing candidate names here
    picks the same shards the server will: every worker gets exactly one
    dataset and the benchmark measures true N-way parallelism, not the
    luck of the hash draw.
    """
    names: list[str] = []
    owners: set[int] = set()
    candidate = 0
    while len(names) < N_DATASETS:
        name = f"intel-{candidate}"
        owner = replica_set(name, N_WORKERS)[0]
        if owner not in owners:
            owners.add(owner)
            names.append(name)
        candidate += 1
    return names


def _intel_db(scale: int, seed: int) -> Database:
    table, __ = generate_intel(
        IntelConfig(
            n_sensors=54,
            duration_minutes=BASE_MINUTES * scale,
            interval_minutes=2.0,
            failing_sensors=(15, 18),
            failure_onset_frac=0.7,
            seed=seed,
        )
    )
    db = Database()
    db.register(table)
    return db


def _build_catalog(databases: dict[str, Database]) -> DatasetCatalog:
    catalog = DatasetCatalog()
    for name, db in databases.items():
        catalog.register(name, db, bootstrap=BOOTSTRAP)
    return catalog


def run_cycle(client: ServiceClient) -> str:
    """One intel debug cycle; returns the top predicate text."""
    result = client.execute(BOOTSTRAP, max_rows=None)
    std_index = result["columns"].index("std_temp")
    stds = sorted(
        row[std_index] for row in result["rows"] if row[std_index] is not None
    )
    cutoff = 4.0 * stds[len(stds) // 2]
    client.select_results(brush={"above": cutoff}, y="std_temp")
    client.set_metric("too_high")
    report = client.debug(max_rows=1)
    return report["predicates"][0]["predicate"]


def _drive(host: str, port: int, dataset: str) -> list[str]:
    with ServiceClient(
        host, port, session=f"bench-{dataset}", timeout=600
    ) as client:
        client.open(dataset)
        return [run_cycle(client) for __ in range(N_CYCLES)]


def _measure_tier(server: DBWipesServer, names: list[str]) -> tuple[dict, dict]:
    host, port = server.address
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(names)) as pool:
        answers = dict(
            zip(names, pool.map(lambda n: _drive(host, port, n), names))
        )
    elapsed = time.perf_counter() - start
    n_requests = len(names) * (1 + N_CYCLES * REQUESTS_PER_CYCLE)
    return answers, {
        "n_clients": len(names),
        "n_cycles_per_client": N_CYCLES,
        "elapsed_seconds": elapsed,
        "requests_per_second": n_requests / elapsed,
        "debug_cycles_per_second": (len(names) * N_CYCLES) / elapsed,
    }


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


class TestPartitionedServing:
    @pytest.mark.parametrize("scale", SCALES)
    def test_one_vs_n_workers(self, scale):
        names = _sharded_dataset_names()
        databases = {
            name: _intel_db(scale, seed=100 + i)
            for i, name in enumerate(names)
        }

        manager = SessionManager(catalog=_build_catalog(databases))
        with DBWipesServer(manager, port=0) as single:
            single_answers, single_record = _measure_tier(single, names)

        multi = DBWipesServer(
            port=0,
            workers=N_WORKERS,
            catalog_factory=lambda: _build_catalog(databases),
        )
        multi.start()
        try:
            multi_answers, multi_record = _measure_tier(multi, names)
            with ServiceClient(*multi.address, timeout=600) as client:
                stats = client.stats()
        finally:
            multi.stop()

        # Parity first: each dataset's ranked answer is tier-independent,
        # and repeat cycles within a tier agree with themselves.
        assert multi_answers == single_answers
        for answers in single_answers.values():
            assert len(set(answers)) == 1

        per_worker_cache = [
            {
                "worker": entry["worker"],
                "requests": entry["requests"],
                "sessions": entry["stats"]["sessions"],
                "preprocess_cache": entry["stats"]["preprocess_cache"],
            }
            for entry in stats["per_worker"]
            if "stats" in entry
        ]
        busy = [w for w in per_worker_cache if w["sessions"] > 0]
        # Cache affinity: every shard that served sessions did its one
        # preprocess and hit its own cache for every repeat cycle.
        for worker in busy:
            cache = worker["preprocess_cache"]
            assert cache["hits"] >= cache["misses"]

        section = {
            "benchmark": "partitioned_serving",
            "scale": scale,
            "n_datasets": N_DATASETS,
            "n_workers": N_WORKERS,
            # Context for the speedup: N processes cannot beat one on a
            # single-core host — there the honest expectation is ~1.0.
            "environment": environment(),
            "rows_per_dataset": 54 * (BASE_MINUTES * scale) // 2,
            "single_process": single_record,
            "multi_worker": multi_record,
            "speedup": (
                multi_record["requests_per_second"]
                / single_record["requests_per_second"]
            ),
            "datasets_sharded_over": len(busy),
            "per_worker": per_worker_cache,
        }
        _merge_into_bench(f"serving_scale_{scale}x", section)
        print(
            f"\npartitioned serving {scale}x: "
            f"single={single_record['requests_per_second']:.1f} req/s, "
            f"{N_WORKERS} workers={multi_record['requests_per_second']:.1f} "
            f"req/s (speedup {section['speedup']:.2f}, "
            f"{len(busy)} shards busy) -> {BENCH_PATH.name}"
        )

"""Closed-loop service throughput: K clients × M debug cycles.

The acceptance workload of the serving tier: 8 concurrent clients each
replay the scripted §3.2 FEC debug cycle (execute → brush S → zoom →
brush D' → metric → debug → apply → undo) against one server process.
Asserts correctness (every client sees the single-session ranked
answer) and records requests/sec plus shared preprocess-cache hit/miss
counts to ``BENCH_service.json`` under ``REPRO_BENCH_DIR`` (see
``bench_output.py``; uploaded as a CI artifact).

A second benchmark sweeps a stepped load curve — one debug cycle per
client at each step of ``REPRO_SERVICE_LOAD_STEPS`` concurrent clients
(default ``8,64``; CI runs ``8,64,512``) — recording requests/sec,
cycle p50/p99 and shed requests at each step so a throughput regression
at high fan-in shows up as a bent curve, not a single blended number.
A third sweeps the same steps with the gate opened to one thread per
concurrent request and records the gated curve's speedup over it.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.frontend import Brush, DBWipesSession
from repro.service import (
    DBWipesServer,
    DatasetCatalog,
    ServiceClient,
    SessionManager,
)

from bench_output import bench_path, environment

SCALE = int(os.environ.get("REPRO_BENCH_SCALE", "1"))
N_CLIENTS = 8
N_CYCLES = 3 * SCALE
#: Wire requests issued per debug cycle (excluding the one-time open).
REQUESTS_PER_CYCLE = 8
#: The stepped load curve: concurrent-client counts, lightest first.
LOAD_STEPS = tuple(
    int(step)
    for step in os.environ.get("REPRO_SERVICE_LOAD_STEPS", "8,64").split(",")
    if step.strip()
)
#: Client-side thread cap per step (512 logical clients share 64 threads).
MAX_CLIENT_THREADS = 64

BENCH_PATH = bench_path("BENCH_service.json")


def _merge_into_bench(section: str, payload) -> None:
    """Update one section of ``BENCH_service.json``, keeping the others."""
    data = {}
    if BENCH_PATH.exists():
        try:
            data = json.loads(BENCH_PATH.read_text())
        except (ValueError, OSError):
            data = {}
    if not isinstance(data, dict) or "benchmark" in data:
        # A pre-curve flat record: supersede it with the sectioned form.
        data = {}
    data[section] = payload
    BENCH_PATH.write_text(json.dumps(data, indent=2) + "\n")


def run_cycle(client: ServiceClient) -> str:
    """One scripted FEC debug cycle; returns the top predicate text."""
    client.execute(client.bootstrap, max_rows=0)
    client.select_results(brush={"below": 0.0})
    client.zoom(max_points=0)
    client.select_inputs(brush={"below": 0.0})
    client.set_metric("too_low", threshold=0.0)
    report = client.debug(max_rows=1)
    client.apply(0, max_rows=0)
    client.undo(max_rows=0)
    return report["predicates"][0]["predicate"]


class TestServiceThroughput:
    def test_eight_concurrent_clients_closed_loop(self, fec_workload):
        db, __, __ = fec_workload
        catalog = DatasetCatalog()
        catalog.register("fec", db, bootstrap=_bootstrap())
        manager = SessionManager(catalog=catalog)

        # Single-session reference answer on the same shared database.
        session = DBWipesSession(db)
        session.execute(_bootstrap())
        session.select_results(Brush.below(0.0))
        session.zoom()
        session.select_inputs(Brush.below(0.0))
        session.set_metric("too_low", threshold=0.0)
        expected = session.debug().best.predicate.describe()

        with DBWipesServer(manager, port=0) as server:
            host, port = server.address

            def one_client(index: int) -> list[str]:
                with ServiceClient(
                    host, port, session=f"bench-{index}", timeout=600
                ) as client:
                    client.open("fec")
                    return [run_cycle(client) for __ in range(N_CYCLES)]

            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
                answers = list(pool.map(one_client, range(N_CLIENTS)))
            elapsed = time.perf_counter() - start

        # Correctness: every cycle of every client matches single-session mode.
        assert answers == [[expected] * N_CYCLES] * N_CLIENTS

        cache_stats = manager.preprocess_cache.stats()
        # All clients debug the same (table, sql, S, metric) identity: one
        # computation, everything else hits across sessions and cycles.
        assert cache_stats["hits"] > 0
        assert cache_stats["misses"] >= 1

        n_requests = N_CLIENTS * (1 + N_CYCLES * REQUESTS_PER_CYCLE)
        record = {
            "benchmark": "service_closed_loop",
            "n_clients": N_CLIENTS,
            "n_cycles_per_client": N_CYCLES,
            "n_requests": n_requests,
            "elapsed_seconds": elapsed,
            "requests_per_second": n_requests / elapsed,
            "debug_cycles_per_second": (N_CLIENTS * N_CYCLES) / elapsed,
            "preprocess_cache": cache_stats,
            "top_predicate": expected,
            "environment": environment(),
        }
        _merge_into_bench("closed_loop", record)
        print(
            f"\nservice throughput: {record['requests_per_second']:.0f} req/s, "
            f"{record['debug_cycles_per_second']:.1f} debug cycles/s, "
            f"cache hit rate {cache_stats['hit_rate']:.2f} "
            f"({cache_stats['hits']} hits / {cache_stats['misses']} misses) "
            f"-> {BENCH_PATH.name}"
        )


#: Busy-aware retries per request on the admission-controlled gateway.
RETRY_LIMIT = 64


def open_with_retry(client: ServiceClient, dataset: str = "fec") -> dict:
    """``client.open`` via the ServerBusy-aware retry helper."""
    result = client.call_with_retry(
        "open", dataset=dataset, name=client.session, retries=RETRY_LIMIT
    )
    client.bootstrap = result.get("bootstrap")
    return result


def run_cycle_with_retry(client: ServiceClient) -> str:
    """``run_cycle`` where every request honors ``retry_after`` sheds."""

    def call(cmd: str, **args):
        return client.call_with_retry(cmd, retries=RETRY_LIMIT, **args)

    call("execute", sql=client.bootstrap, max_rows=0)
    call("select_results", brush={"below": 0.0})
    call("zoom", max_points=0)
    call("select_inputs", brush={"below": 0.0})
    call("set_metric", form="too_low", params={"threshold": 0.0})
    report = call("debug", max_rows=1)
    call("apply", index=0, max_rows=0)
    call("undo", max_rows=0)
    return report["predicates"][0]["predicate"]


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


#: The gate of the stepped curve: a small in-flight bound is fastest
#: under the GIL (see repro.service.server).
GATED_INFLIGHT = 2
#: Queue depth covering the client-side thread cap: requests wait rather
#: than shed, so shed-rate stays a signal, not the norm.
MAX_QUEUE = MAX_CLIENT_THREADS + 8


def _sweep(db, max_inflight: int, label: str) -> dict:
    """One FEC debug cycle per client at each step of ``LOAD_STEPS``.

    Boots one gateway with the gate pinned at ``max_inflight``, warms
    the shared preprocess cache with one cycle (so every step measures
    steady-state serving, not the first preprocess), then drives each
    step. Every request must resolve (a result, or ``ServerBusy``
    retried to a result) to the warm cycle's answer: a hang or a
    drifted answer fails the benchmark, at 512 clients included.
    """
    catalog = DatasetCatalog()
    catalog.register("fec", db, bootstrap=_bootstrap())
    manager = SessionManager(catalog=catalog, max_sessions=max(LOAD_STEPS) + 8)
    curve = []
    with DBWipesServer(
        manager, port=0, max_inflight=max_inflight, max_queue=MAX_QUEUE
    ) as server:
        host, port = server.address
        with ServiceClient(host, port, session=f"warm-{label}", timeout=600) as c:
            open_with_retry(c)
            expected = run_cycle_with_retry(c)

        for step in LOAD_STEPS:
            shed_before = server.gateway_stats()["shed"]

            def one_client(index: int) -> tuple[str, float]:
                t0 = time.perf_counter()
                with ServiceClient(
                    host, port, session=f"{label}-{step}-{index}", timeout=600
                ) as client:
                    open_with_retry(client)
                    answer = run_cycle_with_retry(client)
                return answer, time.perf_counter() - t0

            start = time.perf_counter()
            with ThreadPoolExecutor(
                max_workers=min(step, MAX_CLIENT_THREADS)
            ) as pool:
                outcomes = list(pool.map(one_client, range(step)))
            elapsed = time.perf_counter() - start

            answers = [answer for answer, __ in outcomes]
            assert answers == [expected] * step  # zero hangs, zero drift
            latencies = sorted(seconds for __, seconds in outcomes)
            n_requests = step * (1 + REQUESTS_PER_CYCLE)
            shed = server.gateway_stats()["shed"] - shed_before
            curve.append(
                {
                    "clients": step,
                    "n_requests": n_requests,
                    "elapsed_seconds": elapsed,
                    "requests_per_second": n_requests / elapsed,
                    "debug_cycles_per_second": step / elapsed,
                    "cycle_p50_seconds": _percentile(latencies, 0.50),
                    "cycle_p99_seconds": _percentile(latencies, 0.99),
                    "shed_requests": shed,
                    "shed_rate": shed / float(n_requests),
                }
            )
        final_stats = server.gateway_stats()
    assert final_stats["inflight"] == 0 and final_stats["waiting"] == 0
    return {
        "top_predicate": expected,
        "curve": curve,
        "gateway": final_stats,
        "preprocess_cache": manager.preprocess_cache.stats(),
    }


@pytest.fixture(scope="module")
def gated_sweep(fec_workload):
    """The stepped curve through the ``GATED_INFLIGHT`` gate, run once."""
    db, __, __ = fec_workload
    return _sweep(db, GATED_INFLIGHT, "gw")


class TestSteppedLoadCurve:
    """One FEC debug cycle per client at each step of ``LOAD_STEPS``.

    The gateway bounds heavy-lane concurrency at ``max_inflight``: on a
    GIL-bound workload a queue beats a pile of threads.
    """

    def test_stepped_load_curve(self, gated_sweep):
        curve = gated_sweep["curve"]
        _merge_into_bench(
            "load_curve",
            {
                "benchmark": "service_stepped_load",
                "steps": list(LOAD_STEPS),
                "max_client_threads": MAX_CLIENT_THREADS,
                "gateway": {
                    "max_inflight": GATED_INFLIGHT,
                    "max_queue": MAX_QUEUE,
                    "shed_total": gated_sweep["gateway"]["shed"],
                },
                "preprocess_cache": gated_sweep["preprocess_cache"],
                "curve": curve,
                "top_predicate": gated_sweep["top_predicate"],
                "environment": environment(),
            },
        )
        summary = ", ".join(
            f"{point['clients']}cl={point['requests_per_second']:.0f}req/s"
            for point in curve
        )
        print(f"\nservice load curve: {summary} -> {BENCH_PATH.name}")


class TestAsyncVsThreadedLoadCurve:
    """The gate's queue against one thread per concurrent request.

    The stepped workload again, through the same server with its gate
    opened to ``MAX_CLIENT_THREADS``: every client's request is admitted
    at once and runs on its own executor thread, as under a
    thread-per-connection server. Both arms must give the same ranked
    answer. The record keeps the threaded curve and the gated arm's
    requests/sec over it at each step, the measurement behind a small
    ``max_inflight``; the ratio is per-machine, so it is not asserted.
    """

    def test_async_vs_threaded_load_curve(self, fec_workload, gated_sweep):
        db, __, __ = fec_workload
        threaded = _sweep(db, MAX_CLIENT_THREADS, "thr")
        assert threaded["top_predicate"] == gated_sweep["top_predicate"]
        # No step has more concurrent requests than the gate admits.
        assert threaded["gateway"]["shed"] == 0

        speedups = {
            str(t_point["clients"]): (
                a_point["requests_per_second"] / t_point["requests_per_second"]
            )
            for t_point, a_point in zip(threaded["curve"], gated_sweep["curve"])
        }
        _merge_into_bench(
            "async_load_curve",
            {
                "benchmark": "service_async_vs_threaded",
                "steps": list(LOAD_STEPS),
                "max_client_threads": MAX_CLIENT_THREADS,
                "gated_max_inflight": GATED_INFLIGHT,
                "threaded_max_inflight": MAX_CLIENT_THREADS,
                "threaded": threaded["curve"],
                "async_speedup": speedups,
                "top_predicate": threaded["top_predicate"],
                "environment": environment(),
            },
        )
        summary = ", ".join(
            f"{clients}cl={speedup:.2f}x" for clients, speedup in speedups.items()
        )
        print(f"\nasync vs threaded speedup: {summary} -> {BENCH_PATH.name}")


def _bootstrap() -> str:
    from repro.data import walkthrough_query

    return walkthrough_query("MCCAIN")

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
(default ``8,64``; CI runs ``8,64,512``) — recording requests/sec at
each step so a throughput regression at high fan-in shows up as a bent
curve, not a single blended number.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.frontend import Brush, DBWipesSession
from repro.service import (
    AsyncDBWipesServer,
    DBWipesServer,
    DatasetCatalog,
    ServiceClient,
    SessionManager,
)

from bench_output import bench_path

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
        }
        _merge_into_bench("closed_loop", record)
        print(
            f"\nservice throughput: {record['requests_per_second']:.0f} req/s, "
            f"{record['debug_cycles_per_second']:.1f} debug cycles/s, "
            f"cache hit rate {cache_stats['hit_rate']:.2f} "
            f"({cache_stats['hits']} hits / {cache_stats['misses']} misses) "
            f"-> {BENCH_PATH.name}"
        )


class TestSteppedLoadCurve:
    def test_stepped_load_curve(self, fec_workload):
        db, __, __ = fec_workload
        catalog = DatasetCatalog()
        catalog.register("fec", db, bootstrap=_bootstrap())
        manager = SessionManager(
            catalog=catalog, max_sessions=max(LOAD_STEPS) + 8
        )
        curve = []
        with DBWipesServer(manager, port=0) as server:
            host, port = server.address

            # Warm the shared preprocess cache once so every step
            # measures steady-state serving, not the first preprocess.
            with ServiceClient(host, port, session="warm", timeout=600) as c:
                c.open("fec")
                expected = run_cycle(c)

            for step in LOAD_STEPS:
                def one_client(index: int) -> str:
                    with ServiceClient(
                        host, port, session=f"load-{step}-{index}", timeout=600
                    ) as client:
                        client.open("fec")
                        return run_cycle(client)

                start = time.perf_counter()
                with ThreadPoolExecutor(
                    max_workers=min(step, MAX_CLIENT_THREADS)
                ) as pool:
                    answers = list(pool.map(one_client, range(step)))
                elapsed = time.perf_counter() - start

                assert answers == [expected] * step
                n_requests = step * (1 + REQUESTS_PER_CYCLE)
                curve.append(
                    {
                        "clients": step,
                        "n_requests": n_requests,
                        "elapsed_seconds": elapsed,
                        "requests_per_second": n_requests / elapsed,
                        "debug_cycles_per_second": step / elapsed,
                    }
                )

        _merge_into_bench(
            "load_curve",
            {
                "benchmark": "service_stepped_load",
                "steps": list(LOAD_STEPS),
                "max_client_threads": MAX_CLIENT_THREADS,
                "preprocess_cache": manager.preprocess_cache.stats(),
                "curve": curve,
            },
        )
        summary = ", ".join(
            f"{point['clients']}cl={point['requests_per_second']:.0f}req/s"
            for point in curve
        )
        print(f"\nservice load curve: {summary} -> {BENCH_PATH.name}")


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


class TestAsyncVsThreadedLoadCurve:
    """The same stepped workload through both front ends.

    At every step of ``LOAD_STEPS`` logical clients, each client runs
    one FEC debug cycle through (a) the thread-per-connection server and
    (b) the admission-controlled asyncio gateway. The gateway bounds
    heavy-lane concurrency at ``max_inflight`` — on a GIL-bound workload
    the queue beats the thread pile-up, which is the point of PR 8.
    Every request must resolve (result, or ServerBusy retried to a
    result): a hang fails the benchmark, at 512 clients included.
    """

    #: Small in-flight bound: fastest under the GIL (see async_server).
    MAX_INFLIGHT = 2
    #: Queue depth covering the client-side thread cap: requests wait
    #: rather than shed, so shed-rate stays a signal, not the norm.
    MAX_QUEUE = MAX_CLIENT_THREADS + 8

    def _drive(self, label: str, server, shed_counter) -> tuple[str, list[dict]]:
        host, port = server.address
        with ServiceClient(host, port, session=f"warm-{label}", timeout=600) as c:
            open_with_retry(c)
            expected = run_cycle_with_retry(c)
        curve = []
        for step in LOAD_STEPS:
            shed_before = shed_counter()

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
            curve.append(
                {
                    "clients": step,
                    "n_requests": n_requests,
                    "elapsed_seconds": elapsed,
                    "requests_per_second": n_requests / elapsed,
                    "debug_cycles_per_second": step / elapsed,
                    "cycle_p50_seconds": _percentile(latencies, 0.50),
                    "cycle_p99_seconds": _percentile(latencies, 0.99),
                    "shed_requests": shed_counter() - shed_before,
                    "shed_rate": (shed_counter() - shed_before)
                    / float(n_requests),
                }
            )
        return expected, curve

    def test_async_vs_threaded_load_curve(self, fec_workload):
        db, __, __ = fec_workload

        def make_manager() -> SessionManager:
            catalog = DatasetCatalog()
            catalog.register("fec", db, bootstrap=_bootstrap())
            return SessionManager(
                catalog=catalog, max_sessions=max(LOAD_STEPS) + 8
            )

        with DBWipesServer(make_manager(), port=0) as threaded:
            t_expected, threaded_curve = self._drive(
                "thr", threaded, lambda: 0
            )
        with AsyncDBWipesServer(
            make_manager(),
            port=0,
            max_inflight=self.MAX_INFLIGHT,
            max_queue=self.MAX_QUEUE,
        ) as gateway:
            a_expected, async_curve = self._drive(
                "gw", gateway, lambda: gateway.gateway_stats()["shed"]
            )
            final_stats = gateway.gateway_stats()
        assert a_expected == t_expected  # byte-identical ranked answer
        assert final_stats["inflight"] == 0 and final_stats["waiting"] == 0

        speedups = {
            str(t_point["clients"]): (
                a_point["requests_per_second"] / t_point["requests_per_second"]
            )
            for t_point, a_point in zip(threaded_curve, async_curve)
        }
        record = {
            "benchmark": "service_async_vs_threaded",
            "steps": list(LOAD_STEPS),
            "max_client_threads": MAX_CLIENT_THREADS,
            "gateway": {
                "max_inflight": self.MAX_INFLIGHT,
                "max_queue": self.MAX_QUEUE,
                "shed_total": final_stats["shed"],
            },
            "threaded": threaded_curve,
            "async": async_curve,
            "async_speedup": speedups,
            "top_predicate": t_expected,
        }
        _merge_into_bench("async_load_curve", record)
        summary = ", ".join(
            f"{clients}cl={speedup:.2f}x" for clients, speedup in speedups.items()
        )
        print(f"\nasync vs threaded speedup: {summary} -> {BENCH_PATH.name}")

        # The headline claim (async >= 2x threaded at 64 clients) is a
        # measured acceptance number, not a per-machine invariant: only
        # enforce it when the runner opts in (CI does; tier-1 at scale 1
        # on arbitrary hardware must not flake on it).
        if os.environ.get("REPRO_BENCH_ASSERT_ASYNC") == "1":
            gated = [s for c, s in speedups.items() if int(c) >= 64]
            assert gated, "no >=64-client step in REPRO_SERVICE_LOAD_STEPS"
            assert max(gated) >= 2.0, f"async speedup below 2x: {speedups}"


def _bootstrap() -> str:
    from repro.data import walkthrough_query

    return walkthrough_query("MCCAIN")

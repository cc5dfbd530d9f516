"""The multi-process serving tier: pool, ring, and router behavior.

Covers the three layers of the worker tier:
:class:`~repro.service.workers.WorkerPool` (process lifecycle and
envelope transport), :class:`~repro.service.router.HashRing`
(deterministic, stable dataset→worker assignment), and
:class:`~repro.service.router.RoutingDispatcher` (placement bookkeeping
and scatter-gather fan-out) — plus end-to-end parity: the same debug
cycle through a multi-worker server returns byte-identical payloads to
the single-process server.
"""

from __future__ import annotations

import pytest

from repro.cli import BOOTSTRAP_QUERIES
from repro.errors import ServiceError
from repro.service import (
    DBWipesServer,
    HashRing,
    RoutingDispatcher,
    ServiceClient,
    WorkerPool,
)


def _debug_payload(client: ServiceClient, session: str) -> dict:
    client.open("intel", session=session)
    client.execute(BOOTSTRAP_QUERIES["intel"])
    client.select_results(brush={"above": 2.0}, y="std_temp")
    client.set_metric("too_high")
    report = client.debug(max_rows=None)
    report["timings"] = None  # wall-clock differs run to run, by design
    return report


class TestHashRing:
    def test_deterministic_across_instances(self):
        first = HashRing(range(4))
        second = HashRing(range(4))
        keys = [f"dataset-{i}" for i in range(100)]
        assert [first.node_for(k) for k in keys] == [
            second.node_for(k) for k in keys
        ]

    def test_spreads_keys(self):
        ring = HashRing(range(4))
        owners = {ring.node_for(f"dataset-{i}") for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_mostly_stable_when_a_node_joins(self):
        keys = [f"dataset-{i}" for i in range(400)]
        small = HashRing(range(4))
        grown = HashRing(range(5))
        moved = sum(
            1 for k in keys if small.node_for(k) != grown.node_for(k)
        )
        # Consistent hashing moves ~1/5 of the keys; mod-N would move ~4/5.
        assert moved < len(keys) // 2

    def test_rejects_empty_and_bad_replicas(self):
        with pytest.raises(ValueError):
            HashRing([])
        with pytest.raises(ValueError):
            HashRing([0], replicas=0)


class TestWorkerPool:
    def test_ping_and_broadcast(self):
        with WorkerPool(2) as pool:
            assert len(pool) == 2
            envelope = pool.call(0, {"id": 1, "cmd": "ping"})
            assert envelope["ok"] and envelope["result"]["pong"]
            envelopes = [
                pool.call(i, {"id": 2, "cmd": "stats"}) for i in range(2)
            ]
            assert len(envelopes) == 2
            assert all(e["ok"] for e in envelopes)

    def test_rejects_zero_workers(self):
        with pytest.raises(ServiceError):
            WorkerPool(0)

    def test_stats_shape(self):
        with WorkerPool(2) as pool:
            stats = pool.stats()
            assert [s["worker"] for s in stats] == [0, 1]
            for s in stats:
                assert s["alive"]
                assert s["restarts"] == 0

    def test_timeout_yields_structured_envelope(self):
        with WorkerPool(1, call_timeout=0.0) as pool:
            envelope = pool.call(0, {"id": 5, "cmd": "ping"}, timeout=0.0)
            # Zero patience: either the response raced in, or a
            # WorkerTimeout envelope — never an exception or a hang.
            if not envelope["ok"]:
                assert envelope["error"]["kind"] == "WorkerTimeout"

    def test_timeouts_increment_the_worker_counter(self):
        from repro.obs import registry

        counter = registry().counter(
            "dbwipes_worker_timeouts_total", labels={"worker": "0"}
        )
        before = counter.value
        observed = 0
        with WorkerPool(1, call_timeout=0.0) as pool:
            for i in range(5):
                envelope = pool.call(0, {"id": i, "cmd": "ping"}, timeout=0.0)
                if not envelope["ok"]:
                    assert envelope["error"]["kind"] == "WorkerTimeout"
                    observed += 1
        # Zero patience over five calls: at least one must have timed
        # out, and the counter moved once per timeout envelope returned.
        assert observed >= 1
        assert counter.value == before + observed


class TestRoutingDispatcher:
    @pytest.fixture()
    def router(self):
        pool = WorkerPool(3)
        dispatcher = RoutingDispatcher(pool)
        yield dispatcher
        dispatcher.close()

    def test_ping_reports_worker_count(self, router):
        envelope = router.handle({"id": 1, "cmd": "ping"})
        assert envelope["ok"]
        assert envelope["result"]["workers"] == 3

    def test_open_routes_by_dataset_and_annotates(self, router):
        envelope = router.handle(
            {"id": 2, "cmd": "open", "args": {"name": "a", "dataset": "intel"}}
        )
        assert envelope["ok"]
        worker = envelope["result"]["worker"]
        assert router.placement_of("a") == (worker, "intel")
        # Same dataset, different session → same shard (cache affinity).
        second = router.handle(
            {"id": 3, "cmd": "open", "args": {"name": "b", "dataset": "intel"}}
        )
        assert second["result"]["worker"] == worker

    def test_reopen_on_other_dataset_rejected_at_front(self, router):
        router.handle(
            {"id": 4, "cmd": "open", "args": {"name": "a", "dataset": "intel"}}
        )
        envelope = router.handle(
            {"id": 5, "cmd": "open", "args": {"name": "a", "dataset": "fec"}}
        )
        assert not envelope["ok"]
        assert envelope["error"]["kind"] == "ServiceError"

    def test_unknown_session_rejected_at_front(self, router):
        envelope = router.handle({"id": 6, "cmd": "sql", "session": "ghost"})
        assert not envelope["ok"]
        assert envelope["error"]["kind"] == "UnknownSession"
        # No worker round-trip happened for it.
        assert all(s["requests"] == 0 for s in router.pool.stats())

    def test_close_drops_placement(self, router):
        router.handle(
            {"id": 7, "cmd": "open", "args": {"name": "a", "dataset": "intel"}}
        )
        assert router.placement_of("a") is not None
        envelope = router.handle({"id": 8, "cmd": "close", "session": "a"})
        assert envelope["ok"]
        assert router.placement_of("a") is None

    def test_stats_scatter_gather(self, router):
        router.handle(
            {"id": 9, "cmd": "open", "args": {"name": "a", "dataset": "intel"}}
        )
        envelope = router.handle({"id": 10, "cmd": "stats"})
        assert envelope["ok"]
        stats = envelope["result"]
        assert stats["workers"] == 3
        assert stats["sessions"] == 1
        assert stats["placements"] == 1
        assert len(stats["per_worker"]) == 3
        assert {"hits", "misses", "hit_rate"} <= set(
            stats["preprocess_cache"]
        )
        for entry in stats["per_worker"]:
            assert "stats" in entry  # each worker answered the broadcast

    def test_sessions_tagged_with_worker(self, router):
        router.handle(
            {"id": 11, "cmd": "open", "args": {"name": "a", "dataset": "intel"}}
        )
        router.handle(
            {"id": 12, "cmd": "open", "args": {"name": "b", "dataset": "fec"}}
        )
        envelope = router.handle({"id": 13, "cmd": "sessions"})
        assert envelope["ok"]
        tagged = {
            info["name"]: info["worker"]
            for info in envelope["result"]["sessions"]
        }
        assert tagged.keys() == {"a", "b"}
        assert tagged["a"] == router.placement_of("a")[0]

    def test_unknown_command_rejected(self, router):
        envelope = router.handle({"id": 14, "cmd": "frobnicate"})
        assert not envelope["ok"]
        assert envelope["error"]["kind"] == "ProtocolError"

    def test_stats_merge_sums_not_averages(self, router):
        # Sessions land on the shards their datasets hash to; the
        # cluster stats must sum the per-worker cache counters and
        # recompute the hit rate from the sums (averaging per-worker
        # rates is wrong under skew).
        for i, dataset in enumerate(("intel", "fec")):
            router.handle(
                {
                    "id": 20 + i,
                    "cmd": "open",
                    "args": {"name": f"s{i}", "dataset": dataset},
                }
            )
        envelope = router.handle({"id": 30, "cmd": "stats"})
        stats = envelope["result"]
        cache = stats["preprocess_cache"]
        summed = {"hits": 0, "misses": 0, "evictions": 0, "entries": 0}
        for entry in stats["per_worker"]:
            for key in summed:
                summed[key] += entry["stats"]["preprocess_cache"][key]
        for key, total in summed.items():
            assert cache[key] == total
        lookups = cache["hits"] + cache["misses"]
        expected_rate = cache["hits"] / lookups if lookups else 0.0
        assert cache["hit_rate"] == pytest.approx(expected_rate)
        assert stats["worker_requests"] == sum(
            entry["requests"] for entry in stats["per_worker"]
        )

    def test_metrics_scatter_gather(self, router):
        router.handle(
            {"id": 40, "cmd": "open", "args": {"name": "m", "dataset": "intel"}}
        )
        envelope = router.handle({"id": 41, "cmd": "metrics"})
        assert envelope["ok"]
        result = envelope["result"]
        assert result["workers"] == 3
        assert len(result["per_worker"]) == 3
        names = {m["name"] for m in result["merged"]["metrics"]}
        # Front-end counters and worker-process counters meet in one
        # merged snapshot.
        assert "dbwipes_worker_requests_total" in names
        assert "dbwipes_requests_total" in names
        assert "dbwipes_sessions_open" in names

    def test_trace_scatter_gather(self, router):
        envelope = router.handle(
            {"id": 50, "cmd": "open", "args": {"name": "t", "dataset": "intel"}}
        )
        trace_id = envelope["trace"]
        assert isinstance(trace_id, str)
        gathered = router.handle(
            {"id": 51, "cmd": "trace", "args": {"trace_id": trace_id}}
        )
        assert gathered["ok"]
        result = gathered["result"]
        assert result["trace_id"] == trace_id
        names = [s["name"] for s in result["spans"]]
        # The front-end span and the worker-process span joined up.
        assert "server.open" in names
        assert "router.open" in names
        assert "worker.open" in names
        assert {s["trace_id"] for s in result["spans"]} == {trace_id}


class TestMultiWorkerParity:
    """The debug cycle through N workers matches the one-process server."""

    def test_debug_payload_identical_across_tiers(self):
        single = DBWipesServer(port=0)
        host, port = single.start()
        try:
            client = ServiceClient(host, port)
            expected = _debug_payload(client, "solo")
            client.close()
        finally:
            single.stop()
        assert expected["n_predicates"] > 0

        multi = DBWipesServer(port=0, workers=3)
        host, port = multi.start()
        try:
            client = ServiceClient(host, port)
            actual = _debug_payload(client, "fanout")
            stats = client.stats()
            client.close()
        finally:
            multi.stop()

        assert actual == expected
        assert stats["workers"] == 3
        assert stats["placements"] == 1

    def test_cache_affinity_across_sessions(self):
        server = DBWipesServer(port=0, workers=3)
        host, port = server.start()
        try:
            client = ServiceClient(host, port)
            first = _debug_payload(client, "alice")
            second = _debug_payload(client, "bob")
            assert second == first
            stats = client.stats()
            client.close()
        finally:
            server.stop()
        # Both sessions hashed to one worker, so the second debug hit
        # that worker's PreprocessCache: one miss total, one hit.
        cache = stats["preprocess_cache"]
        assert cache["misses"] == 1
        assert cache["hits"] >= 1
        assert cache["hit_rate"] > 0.0
        # Exactly one worker did all the session work.
        busy = [
            w for w in stats["per_worker"] if w["stats"]["sessions"] > 0
        ]
        assert len(busy) == 1

"""The telemetry subsystem: metrics, tracing, logs, and cluster exposition.

Unit coverage for the :mod:`repro.obs` primitives (counter / gauge /
histogram semantics, registry get-or-create, merge rules, Prometheus
rendering, span trees, the slow-request log), plus the acceptance path:
one ``debug()`` through a 2-worker server must produce one trace —
server → router → worker → pipeline stages, all under a single trace
id — and ``metrics`` must return a cluster-merged snapshot covering
every documented metric name.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.core import PipelineConfig
from repro.data import BOOTSTRAP_QUERIES
from repro.errors import ObservabilityError
from repro.obs import (
    CORE_METRICS,
    MetricsRegistry,
    Tracer,
    merge_snapshots,
    registry,
    render_prometheus,
    render_tree,
    set_enabled,
    set_slow_threshold,
    slow_threshold,
)
from repro.obs.logs import logger, maybe_log_slow
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.obs.trace import from_wire, span_tree, wire_context
from repro.service import DBWipesServer, ServiceClient


class TestPrimitives:
    def test_counter_only_goes_up(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ObservabilityError):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7.0

    def test_histogram_cumulative_dump(self):
        hist = Histogram(bounds=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            hist.observe(value)
        dump = hist.dump()
        # Cumulative per Prometheus: each bucket counts everything <= bound.
        assert dump["buckets"] == [1, 3, 4]
        assert dump["count"] == 5  # the +Inf bucket is the total
        assert dump["sum"] == pytest.approx(56.05)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram(bounds=())
        with pytest.raises(ObservabilityError):
            Histogram(bounds=(1.0, 0.5))
        with pytest.raises(ObservabilityError):
            Histogram(bounds=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        a = reg.counter("requests_total", labels={"cmd": "debug"})
        b = reg.counter("requests_total", labels={"cmd": "debug"})
        assert a is b
        # A different label set is a different time series.
        c = reg.counter("requests_total", labels={"cmd": "ping"})
        assert c is not a

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("dual_use")
        with pytest.raises(ObservabilityError):
            reg.gauge("dual_use")
        with pytest.raises(ObservabilityError):
            reg.histogram("dual_use")

    def test_bad_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError):
            reg.counter("")
        with pytest.raises(ObservabilityError):
            reg.counter("has space")

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", help="Cache hits.").inc(3)
        reg.histogram("seconds", bounds=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        by_name = {m["name"]: m for m in snap["metrics"]}
        assert by_name["hits_total"]["value"] == 3.0
        assert by_name["seconds"]["buckets"] == [1]
        assert snap["help"]["hits_total"] == "Cache hits."


class TestClusterMerge:
    def _worker_snapshot(self, hits: int, lookups: int) -> dict:
        reg = MetricsRegistry()
        reg.counter("cache_hits_total").inc(hits)
        reg.counter("cache_lookups_total").inc(lookups)
        reg.histogram("req_seconds", bounds=(0.1, 1.0)).observe(0.05)
        return reg.snapshot()

    def test_counters_sum_and_rates_recompute(self):
        # Skewed shards: 90/100 and 1/10. The correct cluster hit rate
        # is 91/110 ≈ 0.827 — averaging per-worker rates (0.9, 0.1)
        # would claim 0.5. Merge must expose the sums, not the ratios.
        merged = merge_snapshots(
            [self._worker_snapshot(90, 100), self._worker_snapshot(1, 10)]
        )
        values = {m["name"]: m.get("value") for m in merged["metrics"]}
        assert values["cache_hits_total"] == 91.0
        assert values["cache_lookups_total"] == 110.0
        assert 91.0 / 110.0 != pytest.approx((0.9 + 0.1) / 2)

    def test_histograms_merge_bucket_wise(self):
        merged = merge_snapshots(
            [self._worker_snapshot(1, 1), self._worker_snapshot(1, 1)]
        )
        hist = next(m for m in merged["metrics"] if m["name"] == "req_seconds")
        assert hist["buckets"] == [2, 2]
        assert hist["count"] == 2

    def test_mismatched_bounds_raise(self):
        a = MetricsRegistry()
        a.histogram("seconds", bounds=(0.1, 1.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("seconds", bounds=(0.2, 2.0)).observe(0.5)
        with pytest.raises(ObservabilityError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_conflicting_kinds_raise(self):
        a = MetricsRegistry()
        a.counter("thing")
        b = MetricsRegistry()
        b.gauge("thing")
        with pytest.raises(ObservabilityError):
            merge_snapshots([a.snapshot(), b.snapshot()])


class TestRenderPrometheus:
    def test_text_format(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", labels={"cache": "pp"}, help="Hits.").inc(7)
        reg.histogram("seconds", bounds=(0.5, 1.0)).observe(0.2)
        text = render_prometheus(reg.snapshot())
        assert "# HELP hits_total Hits." in text
        assert "# TYPE hits_total counter" in text
        assert 'hits_total{cache="pp"} 7' in text
        assert 'seconds_bucket{le="0.5"} 1' in text
        assert 'seconds_bucket{le="+Inf"} 1' in text
        assert "seconds_sum 0.2" in text
        assert "seconds_count 1" in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus({"metrics": [], "help": {}}) == ""


class TestTracer:
    def test_nested_spans_share_one_trace(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        spans = tracer.spans(outer.trace_id)
        assert [s["name"] for s in spans] == ["outer", "inner"]
        roots = span_tree(spans)
        assert len(roots) == 1
        assert roots[0]["name"] == "outer"
        assert roots[0]["children"][0]["name"] == "inner"

    def test_wire_context_grafts_across_processes(self):
        # Two Tracer instances stand in for two processes: the wire
        # context carries (trace id, parent span id) across the hop, and
        # the merged flat span list still nests into one tree.
        front, worker = Tracer(), Tracer()
        with front.span("server.debug") as root:
            context = wire_context(root)
            trace_id, parent_id = from_wire({"trace": context})
            with worker.span("worker.debug", trace_id=trace_id,
                             parent_id=parent_id):
                pass
        merged = front.spans(root.trace_id) + worker.spans(root.trace_id)
        assert {s["trace_id"] for s in merged} == {root.trace_id}
        roots = span_tree(merged)
        assert len(roots) == 1
        assert roots[0]["children"][0]["name"] == "worker.debug"
        assert "worker.debug" in render_tree(roots)

    def test_disabled_spans_record_nothing(self):
        tracer = Tracer()
        set_enabled(False)
        try:
            with tracer.span("ghost") as span:
                assert span.trace_id is None
                span.set(ignored=True)  # same surface, no recording
        finally:
            set_enabled(True)
        assert tracer.trace_ids() == []

    def test_exception_marks_span_and_reraises(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("nope")
        recorded = tracer.spans(span.trace_id)
        assert recorded[0]["attrs"]["error"] == "ValueError"

    def test_ring_buffer_bounds(self):
        tracer = Tracer(max_traces=2, max_spans_per_trace=3)
        ids = []
        for __ in range(3):
            with tracer.span("root") as span:
                ids.append(span.trace_id)
        assert tracer.trace_ids() == ids[1:]  # oldest trace evicted
        with tracer.span("wide") as span:
            for __ in range(5):
                with tracer.span("child"):
                    pass
        assert len(tracer.spans(span.trace_id)) == 3
        assert tracer.dropped(span.trace_id) == 3  # 2 children + the root


class TestSlowRequestLog:
    def test_threshold_gates_logging(self):
        original = slow_threshold()
        logger().clear()
        try:
            set_slow_threshold(0.5)
            assert not maybe_log_slow("debug", 0.2)
            assert maybe_log_slow("debug", 0.7, session="alice")
        finally:
            set_slow_threshold(original)
        records = logger().recent("slow_request")
        assert len(records) == 1
        assert records[0]["cmd"] == "debug"
        assert records[0]["session"] == "alice"
        assert records[0]["threshold"] == 0.5

    def test_counter_exposed_before_any_slow_request(self):
        """A fresh process exposes the slow-request counter once a
        session manager exists, before any request was slow."""
        code = (
            "from repro.obs import registry\n"
            "from repro.service import SessionManager\n"
            "SessionManager()\n"
            "print('dbwipes_slow_requests_total' in registry().names())\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert result.stdout.strip() == "True"

    def test_slow_request_counts_in_registry(self):
        counter = registry().counter(
            "dbwipes_slow_requests_total", labels={"cmd": "zoom"}
        )
        before = counter.value
        original = slow_threshold()
        try:
            set_slow_threshold(0.0)
            maybe_log_slow("zoom", 0.001)
        finally:
            set_slow_threshold(original)
        assert counter.value == before + 1


@pytest.fixture(scope="module")
def cluster_debug():
    """One debug cycle through a 2-worker server.

    Yields the trace and the cluster-merged metrics so the acceptance
    assertions below share one (relatively expensive) server boot.
    """
    server = DBWipesServer(port=0, workers=2, config=PipelineConfig())
    host, port = server.start()
    try:
        with ServiceClient(host, port, session="obs") as client:
            client.open("intel")
            client.execute(BOOTSTRAP_QUERIES["intel"])
            client.select_results(brush={"above": 2.0}, y="std_temp")
            client.set_metric("too_high")
            client.debug()
            debug_trace = client.last_trace
            client.apply(0)
            client.undo()
            undo_trace = client.last_trace
            yield {
                "debug_trace": debug_trace,
                "trace": client.trace(debug_trace),
                "undo_trace": client.trace(undo_trace),
                "metrics": client.metrics(),
            }
    finally:
        server.stop()


class TestClusterAcceptance:
    """The ISSUE's acceptance path, end to end."""

    def test_one_debug_is_one_trace(self, cluster_debug):
        trace = cluster_debug["trace"]
        assert trace["trace_id"] == cluster_debug["debug_trace"]
        spans = trace["spans"]
        # Every span — front-end and worker-process alike — carries the
        # single trace id the client saw on its response envelope.
        assert {s["trace_id"] for s in spans} == {trace["trace_id"]}
        names = [s["name"] for s in spans]
        for needed in (
            "server.debug",
            "router.debug",
            "worker.debug",
            "pipeline.debug",
            "stage.preprocess",
            "stage.enumerate_datasets",
            "stage.enumerate_predicates",
            "stage.rank",
        ):
            assert needed in names, f"missing span {needed!r}"
        # One root (the front-end accept span), stages under the worker.
        tree = trace["tree"]
        assert len(tree) == 1
        assert tree[0]["name"] == "server.debug"

    def test_undo_answers_from_the_query_memo(self, cluster_debug):
        # ``undo`` re-runs the statement ``execute`` ran on that worker.
        spans = cluster_debug["undo_trace"]["spans"]
        sql = [s for s in spans if s["name"] == "db.sql"]
        assert [s["attrs"]["source"] for s in sql] == ["memo"]
        parents = {s["span_id"]: s["name"] for s in spans}
        assert parents[sql[0]["parent_id"]] == "worker.undo"
        merged = cluster_debug["metrics"]["merged"]
        hits = sum(
            m["value"]
            for m in merged["metrics"]
            if m["name"] == "dbwipes_query_memo_hits_total"
        )
        assert hits >= 1

    def test_merged_metrics_cover_core_names(self, cluster_debug):
        merged = cluster_debug["metrics"]["merged"]
        names = {m["name"] for m in merged["metrics"]}
        missing = [name for name in CORE_METRICS if name not in names]
        assert not missing, f"unregistered core metrics: {missing}"

    def test_merged_counters_carry_the_work(self, cluster_debug):
        merged = cluster_debug["metrics"]["merged"]
        totals: dict[str, float] = {}
        for metric in merged["metrics"]:
            if metric["kind"] == "counter":
                totals[metric["name"]] = (
                    totals.get(metric["name"], 0.0) + metric["value"]
                )
        assert totals["dbwipes_preprocess_cache_misses_total"] >= 1
        assert totals["dbwipes_debugs_total"] >= 1
        # Requests counted at both roles, kept distinguishable by label.
        roles = {
            dict(m["labels"]).get("role")
            for m in merged["metrics"]
            if m["name"] == "dbwipes_requests_total"
        }
        assert {"server", "worker"} <= roles

    def test_stage_histograms_merge_and_render(self, cluster_debug):
        merged = cluster_debug["metrics"]["merged"]
        stages = {
            dict(m["labels"]).get("stage")
            for m in merged["metrics"]
            if m["name"] == "dbwipes_stage_seconds"
        }
        assert {
            "preprocess",
            "enumerate_datasets",
            "enumerate_predicates",
            "rank",
        } <= stages
        text = render_prometheus(merged)
        assert 'dbwipes_stage_seconds_bucket{stage="rank",le="+Inf"}' in text

    def test_registry_smoke_duplicate_kind_fails(self):
        # The CI registry smoke check: every core name must keep its
        # kind — re-registering any of them differently must fail loud.
        reg = registry()
        reg.gauge("dbwipes_sessions_open")  # real kind, get-or-create
        with pytest.raises(ObservabilityError):
            reg.histogram("dbwipes_sessions_open")


class TestSessionMetricsGating:
    """All four SessionManager registry mirrors obey the obs flag
    *together* — disabling observability must freeze the open gauge, the
    request counter, and both eviction counters as one unit (regression:
    the gauge and request counter used to keep moving while the eviction
    counters were gated)."""

    def _manager(self, clock):
        from repro.db import Database
        from repro.service import DatasetCatalog, SessionManager

        def build():
            db = Database()
            db.create_table(
                "t",
                {"g": [0, 0, 1, 1], "v": [1.0, 2.0, 3.0, 4.0]},
                types={"g": "int", "v": "float"},
            )
            return db

        catalog = DatasetCatalog()
        catalog.register("tiny", build)
        return SessionManager(
            catalog=catalog, max_sessions=1, ttl_seconds=10.0, clock=clock
        )

    @staticmethod
    def _mirror_values():
        reg = registry()
        return (
            reg.gauge("dbwipes_sessions_open").value,
            reg.counter("dbwipes_session_requests_total").value,
            reg.counter("dbwipes_session_lru_evictions_total").value,
            reg.counter("dbwipes_session_ttl_evictions_total").value,
        )

    def _exercise_all_paths(self, manager, clock):
        """Drive open, borrow, LRU eviction, and TTL expiry once each."""
        manager.open("a", "tiny")
        with manager.borrow("a"):
            pass
        manager.open("b", "tiny")  # max_sessions=1: LRU-evicts "a"
        clock.advance(100.0)
        assert manager.evict_expired() == 1  # TTL-reaps "b"

    def test_disabled_freezes_every_mirror(self):
        class Clock:
            now = 0.0

            def __call__(self):
                return self.now

            def advance(self, s):
                self.now += s

        clock = Clock()
        manager = self._manager(clock)
        before = self._mirror_values()
        set_enabled(False)
        try:
            self._exercise_all_paths(manager, clock)
            assert self._mirror_values() == before
        finally:
            set_enabled(True)
        # The ad-hoc stats counters are unconditional either way.
        stats = manager.stats()
        assert stats["lru_evictions"] == 1
        assert stats["ttl_evictions"] == 1
        # Re-enabled: every mirror moves again, in step.
        self._exercise_all_paths(manager, clock)
        after = self._mirror_values()
        assert after[0] == before[0]  # open +2, evicted -2 → net zero
        assert after[1] == before[1] + 1
        assert after[2] == before[2] + 1
        assert after[3] == before[3] + 1

"""Process-local metrics primitives and the named registry.

Three primitives, all thread-safe behind one per-metric lock:

* :class:`Counter` — a monotonically increasing float (requests served,
  cache hits, worker respawns). Cluster merge rule: **sum**.
* :class:`Gauge` — a point-in-time value (open sessions, live workers).
  Cluster merge rule: **sum** (each process reports its own share).
* :class:`Histogram` — cumulative fixed-bucket counts plus sum/count,
  Prometheus-style (every observation lands in all buckets whose upper
  bound it does not exceed). Cluster merge rule: **bucket-wise sum**.

The :class:`MetricsRegistry` names metrics ``name{label="value"}``; one
process-global registry (:func:`registry`) absorbs the ad-hoc counters
the system already computed — ``PreprocessCache`` hit/miss/eviction
counts, ``SessionManager`` eviction stats, ``WorkerPool`` crash/respawn
counts, per-stage pipeline timings — so every number lands in one place
instead of N bespoke dicts.

Registration is get-or-create: asking for the same (name, labels) again
returns the same object, which is what lets N ``PreprocessCache``
instances in one process share one process-wide counter. Re-registering
a name as a *different* metric type raises
:class:`~repro.errors.ObservabilityError` — the registry smoke test in
CI relies on that to catch metric-name collisions at review time.

Derived ratios (cache hit rates, averages) are **never** stored as
metrics: exposition recomputes them from the summed counters, because
averaging per-worker rates is wrong whenever dataset hashing skews
load across shards.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable, Mapping, Sequence

from ..errors import ObservabilityError

#: Fixed latency buckets (seconds) shared by every duration histogram —
#: fixed so that cluster merging is a plain bucket-wise sum with no
#: bucket realignment. Spans four orders of magnitude around the
#: interactive-latency budget the demo argues about.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

LabelsArg = Mapping[str, str] | None
#: Canonical metric key: (name, ((label, value), ...)) sorted by label.
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _labels_key(labels: LabelsArg) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_name(name: str, labels: tuple[tuple[str, str], ...]) -> str:
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing value. Merge rule: sum."""

    kind = "counter"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def dump(self) -> dict:
        return {"value": self.value}


class Gauge:
    """A point-in-time value. Merge rule: sum of per-process shares."""

    kind = "gauge"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def dump(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``bounds`` are the finite upper bounds; an implicit +Inf bucket
    catches the tail. ``observe`` is a bisect plus two adds under one
    lock — cheap enough to stay always-on in the debug hot path.
    """

    kind = "histogram"

    def __init__(self, bounds: Sequence[float] = LATENCY_BUCKETS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ObservabilityError(
                "histogram bounds must be non-empty, unique, and ascending"
            )
        self.bounds = bounds
        self._lock = threading.Lock()
        #: Per-bound counts plus the +Inf tail at index -1 (non-cumulative
        #: internally; dumped cumulatively, as Prometheus renders them).
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def dump(self) -> dict:
        with self._lock:
            cumulative = []
            running = 0
            for count in self._counts[:-1]:
                running += count
                cumulative.append(running)
            return {
                "bounds": list(self.bounds),
                "buckets": cumulative,
                "sum": self._sum,
                "count": self._count,
            }


class MetricsRegistry:
    """A named, labeled registry of metrics for one process.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create; the only
    error is re-registering a (name, labels) pair as a different kind —
    a real bug the CI smoke check exists to catch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[MetricKey, Counter | Gauge | Histogram] = {}
        self._help: dict[str, str] = {}

    def _get_or_create(self, name, labels, kind, factory, help):
        if not name or not name.replace("_", "a").isalnum():
            raise ObservabilityError(
                f"metric name {name!r} must be non-empty [a-zA-Z0-9_]"
            )
        key: MetricKey = (name, _labels_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
                if help and name not in self._help:
                    self._help[name] = help
            elif metric.kind != kind:
                raise ObservabilityError(
                    f"metric {_render_name(*key)!r} is already registered "
                    f"as a {metric.kind}, not a {kind}"
                )
            return metric

    def counter(self, name: str, labels: LabelsArg = None, help: str = "") -> Counter:
        return self._get_or_create(name, labels, "counter", Counter, help)

    def gauge(self, name: str, labels: LabelsArg = None, help: str = "") -> Gauge:
        return self._get_or_create(name, labels, "gauge", Gauge, help)

    def histogram(
        self,
        name: str,
        labels: LabelsArg = None,
        bounds: Sequence[float] = LATENCY_BUCKETS,
        help: str = "",
    ) -> Histogram:
        return self._get_or_create(
            name, labels, "histogram", lambda: Histogram(bounds), help
        )

    def names(self) -> set[str]:
        """Every registered metric name (label sets collapsed)."""
        with self._lock:
            return {name for name, __ in self._metrics}

    def snapshot(self) -> dict:
        """A JSON-safe dump of every metric: the exposition wire format.

        ``{"metrics": [{"name", "labels", "kind", ...dump}], "help": {}}``
        — a flat list (not a dict keyed by rendered name) so merge code
        never has to re-parse label strings.
        """
        with self._lock:
            items = list(self._metrics.items())
            help = dict(self._help)
        return {
            "metrics": [
                {
                    "name": name,
                    "labels": [list(pair) for pair in labels],
                    "kind": metric.kind,
                    **metric.dump(),
                }
                for (name, labels), metric in items
            ],
            "help": help,
        }

    def clear(self) -> None:
        """Drop every metric (worker startup / tests)."""
        with self._lock:
            self._metrics.clear()
            self._help.clear()


# ----------------------------------------------------------------------
# the process-global registry
# ----------------------------------------------------------------------

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry every subsystem reports into."""
    return _REGISTRY


# ----------------------------------------------------------------------
# cluster merging + rendering
# ----------------------------------------------------------------------


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Merge per-process registry snapshots into one cluster snapshot.

    Counters and gauges sum; histograms sum bucket-wise (their bounds
    are fixed, so same-name histograms always align — mismatched bounds
    raise rather than silently misreport). Ratios are *not* merged here:
    recompute hit rates and means from the summed counters downstream.
    """
    merged: dict[MetricKey, dict] = {}
    help: dict[str, str] = {}
    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        for name, text in (snapshot.get("help") or {}).items():
            help.setdefault(name, text)
        for entry in snapshot.get("metrics", ()):
            key: MetricKey = (
                entry["name"],
                tuple((k, v) for k, v in entry.get("labels", ())),
            )
            seen = merged.get(key)
            if seen is None:
                copied = dict(entry)
                copied["labels"] = [list(pair) for pair in key[1]]
                if entry["kind"] == "histogram":
                    copied["buckets"] = list(entry["buckets"])
                merged[key] = copied
                continue
            if seen["kind"] != entry["kind"]:
                raise ObservabilityError(
                    f"metric {_render_name(*key)!r} has conflicting kinds "
                    f"across processes: {seen['kind']} vs {entry['kind']}"
                )
            if entry["kind"] == "histogram":
                if list(seen["bounds"]) != list(entry["bounds"]):
                    raise ObservabilityError(
                        f"histogram {_render_name(*key)!r} has mismatched "
                        "buckets across processes"
                    )
                seen["buckets"] = [
                    a + b for a, b in zip(seen["buckets"], entry["buckets"])
                ]
                seen["sum"] += entry["sum"]
                seen["count"] += entry["count"]
            else:
                seen["value"] += entry["value"]
    return {
        "metrics": [
            merged[key] for key in sorted(merged, key=lambda k: (k[0], k[1]))
        ],
        "help": help,
    }


def render_prometheus(snapshot: dict) -> str:
    """A registry (or merged) snapshot in Prometheus text format."""
    by_name: dict[str, list[dict]] = {}
    for entry in snapshot.get("metrics", ()):
        by_name.setdefault(entry["name"], []).append(entry)
    help = snapshot.get("help") or {}
    lines: list[str] = []
    for name in sorted(by_name):
        entries = by_name[name]
        if name in help:
            lines.append(f"# HELP {name} {help[name]}")
        lines.append(f"# TYPE {name} {entries[0]['kind']}")
        for entry in entries:
            labels = tuple((k, v) for k, v in entry.get("labels", ()))
            if entry["kind"] == "histogram":
                for bound, count in zip(entry["bounds"], entry["buckets"]):
                    le = labels + (("le", format(bound, "g")),)
                    lines.append(f"{_render_name(name + '_bucket', le)} {count}")
                inf = labels + (("le", "+Inf"),)
                lines.append(
                    f"{_render_name(name + '_bucket', inf)} {entry['count']}"
                )
                lines.append(
                    f"{_render_name(name + '_sum', labels)} "
                    f"{format(entry['sum'], 'g')}"
                )
                lines.append(
                    f"{_render_name(name + '_count', labels)} {entry['count']}"
                )
            else:
                lines.append(
                    f"{_render_name(name, labels)} "
                    f"{format(entry['value'], 'g')}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


#: The metric names the README's reference table documents. The CI
#: registry smoke check drives one debug cycle through a 2-worker
#: server and asserts every one of these shows up in the cluster-merged
#: snapshot — an exposition that names an unregistered metric (or a
#: rename that orphans the docs) fails fast.
CORE_METRICS = (
    "dbwipes_preprocess_cache_hits_total",
    "dbwipes_preprocess_cache_misses_total",
    "dbwipes_preprocess_cache_evictions_total",
    "dbwipes_sessions_open",
    "dbwipes_session_requests_total",
    "dbwipes_session_lru_evictions_total",
    "dbwipes_session_ttl_evictions_total",
    "dbwipes_worker_requests_total",
    "dbwipes_worker_respawns_total",
    "dbwipes_worker_timeouts_total",
    "dbwipes_worker_crashed_requests_total",
    "dbwipes_requests_total",
    "dbwipes_request_seconds",
    "dbwipes_slow_requests_total",
    "dbwipes_debugs_total",
    "dbwipes_stage_seconds",
    # Registered by the backend at construction time, so they expose
    # at zero before the first debug.
    "dbwipes_stage_memo_hits_total",
    "dbwipes_stage_memo_misses_total",
    # Registered by every Database at construction time.
    "dbwipes_query_memo_hits_total",
    "dbwipes_query_memo_misses_total",
    "dbwipes_query_memo_evictions_total",
    # Fault tolerance (PR 10) — registered at construction time by the
    # RoutingDispatcher (failovers/breaker/drains) and SessionManager
    # (recoveries), so they expose at zero before any fault occurs.
    "dbwipes_failovers_total",
    "dbwipes_breaker_state",
    "dbwipes_drains_total",
    "dbwipes_sessions_recovered_total",
)

"""Cache-affine routing: which worker serves which session.

The routing rule is **consistent hashing on the dataset id**: every
session opened on dataset ``d`` lands on ``ring.node_for(d)``, so one
worker owns all sessions of a dataset — and with them every shared
artifact those sessions hit (the dataset build itself, the
``PreprocessCache`` entry for a debugged selection, its ``SplitIndex``
and clause-mask memos). That affinity is the serving story: the
preprocess-cache hit rate measured on the single-process tier (~0.96)
carries over to N processes because a dataset's requests never spray
across shards. Consistent hashing (not ``hash(d) % N``) keeps most
assignments stable when the worker count changes between deployments.

The :class:`RoutingDispatcher` is the front end's brain: server-scoped
commands are answered or fanned out here (``ping`` locally, ``stats`` /
``sessions`` scatter-gathered across workers), ``open`` routes by
dataset and records the session→worker assignment, and every
session-scoped command follows that assignment. Unknown sessions are
rejected at the front without a worker round-trip, mirroring the
``UnknownSession`` error the in-process manager raises.

**Self-healing** (PR 10): each dataset now has a deterministic replica
*set* (:meth:`HashRing.nodes_for`), not a single owner. A session
command that comes back ``WorkerCrashed``/``WorkerTimeout`` fails over
along that set with jittered, bounded backoff: the router first sends
``recover`` to the candidate — the worker replays the session's
journal (:mod:`repro.service.journal`) off the shared data dir — then
re-forwards the original request and moves the placement. Per-worker
circuit breakers trip after consecutive failures and half-open on a
timer, steering both failover and new-session placement away from a
flapping worker. Without a data dir there is no journal to replay, so
the pre-PR-10 semantics hold: crashes drop placements and clients
reopen. ``drain`` stops admitting sessions to one worker, waits out
its in-flight requests (deadline-bounded), flushes its journals, hands
its placements to replicas, and optionally restarts the process —
the rolling-restart verb. ``resize`` grows or shrinks the pool and
rebalances placements by the same replay mechanism instead of
dropping them.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import random
import threading
import time
from typing import Callable, Hashable, Sequence

from ..errors import ReproError, ServiceError
from ..obs import logs as obs_logs
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.flags import enabled as obs_enabled
from . import faults, protocol
from .cache import DATA_DIR_ENV
from .handlers import SLOW_LOG_LIMIT, Dispatcher, _SERVER_HANDLERS, _SESSION_HANDLERS
from .journal import JournalStore
from .workers import WorkerPool

#: Error kinds that trigger failover to a replica (crash-class only:
#: logical errors like UnknownSession get in-place recovery instead).
FAILOVER_KINDS = frozenset({"WorkerCrashed", "WorkerTimeout"})


class HashRing:
    """Consistent hashing over a fixed node set with virtual replicas.

    Hashes are ``blake2b`` (stable across processes and runs — never the
    builtin ``hash()``, which is salted per interpreter). Each node gets
    ``replicas`` points on the ring; a key belongs to the first node
    point at or clockwise of its own hash.
    """

    def __init__(self, nodes: Sequence[Hashable], replicas: int = 64):
        if not nodes:
            raise ValueError("HashRing needs at least one node")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        points = sorted(
            (self._hash(f"{node}#{replica}"), node)
            for node in nodes
            for replica in range(replicas)
        )
        self._hashes = [point[0] for point in points]
        self._nodes = [point[1] for point in points]

    @staticmethod
    def _hash(text: str) -> int:
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")

    def node_for(self, key: str) -> Hashable:
        """The node owning ``key`` — deterministic across processes."""
        position = bisect.bisect_right(self._hashes, self._hash(str(key)))
        return self._nodes[position % len(self._nodes)]

    def nodes_for(self, key: str, n: int) -> list[Hashable]:
        """The first ``n`` distinct nodes clockwise of ``key``'s hash.

        ``nodes_for(key, n)[0] == node_for(key)`` always, and the list
        for ``n`` is a prefix of the list for ``n + 1`` — so the replica
        set is as stable under ring changes as the primary assignment
        itself. With fewer than ``n`` distinct nodes the full node set
        is returned.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        start = bisect.bisect_right(self._hashes, self._hash(str(key)))
        nodes: list[Hashable] = []
        for offset in range(len(self._nodes)):
            node = self._nodes[(start + offset) % len(self._nodes)]
            if node not in nodes:
                nodes.append(node)
                if len(nodes) == n:
                    break
        return nodes


class CircuitBreaker:
    """A per-worker trip switch over consecutive failures.

    Closed (healthy) until ``threshold`` consecutive failures open it;
    while open every :meth:`allow` is refused until ``reset_seconds``
    elapse, after which exactly one probe is admitted (half-open). The
    probe's outcome settles it: success closes the breaker, failure
    re-opens it for another full reset window. The clock is injectable
    so tests drive transitions deterministically.
    """

    _STATE_VALUES = {"closed": 0, "half_open": 1, "open": 2}

    def __init__(
        self,
        threshold: int = 3,
        reset_seconds: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self.threshold = threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def state_value(self) -> int:
        """The state as a gauge value (0 closed, 1 half-open, 2 open)."""
        return self._STATE_VALUES[self.state]

    def allow(self) -> bool:
        """May a request be sent now? Consumes the half-open probe."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if self._clock() - self._opened_at >= self.reset_seconds:
                    self._state = "half_open"
                    return True
                return False
            # half-open: the single probe is already in flight.
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == "half_open" or self._failures >= self.threshold:
                self._state = "open"
                self._opened_at = self._clock()


class RoutingDispatcher(Dispatcher):
    """Scatter-gather front end over a :class:`WorkerPool`.

    One blocking path carries every command: :meth:`handle` →
    :meth:`_dispatch` → :meth:`_forward` (or :meth:`_broadcast`, which
    forwards to each worker in turn) → :meth:`WorkerPool.call`. The
    server awaits it through the inherited ``handle_async``, on an
    executor thread, so pipe waits, failover backoff and drain waits
    never block the event loop. Workers forward partial debug frames
    back over the pipe, so routed ``debug`` streams end to end.
    """

    def __init__(
        self,
        pool: WorkerPool,
        replicas: int = 64,
        n_replicas: int = 2,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 5.0,
        max_failover_attempts: int | None = None,
        backoff_base: float = 0.05,
        backoff_max: float = 1.0,
        data_dir: str | os.PathLike | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
    ):
        self.pool = pool
        self._ring_points = replicas
        self.ring = HashRing(list(range(len(pool))), replicas=replicas)
        #: Replica-set width: each dataset has this many candidate
        #: workers (clamped to the pool size).
        self.n_replicas = max(1, min(int(n_replicas), len(pool)))
        self._max_failover_attempts = max_failover_attempts
        self._backoff_base = backoff_base
        self._backoff_max = backoff_max
        self._breaker_threshold = breaker_threshold
        self._breaker_reset_seconds = breaker_reset_seconds
        self._clock = clock
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random()
        self._lock = threading.Lock()
        #: session name -> (worker index, dataset name)
        self._placements: dict[str, tuple[int, str]] = {}
        self._routed = 0
        #: The router's own view of the shared journal directory: used
        #: to *peek* (does a journal exist, which dataset) so unplaced
        #: sessions can be re-admitted after a front-end restart. The
        #: actual replay happens worker-side via the ``recover`` command.
        if data_dir is None:
            data_dir = os.environ.get(DATA_DIR_ENV) or None
        self.journals = (
            JournalStore(os.path.join(os.fspath(data_dir), "journal"))
            if data_dir is not None
            else None
        )
        # Register the fault-tolerance metrics at construction so they
        # appear in cluster expositions at zero even before the first
        # failover (the CORE_METRICS acceptance relies on this).
        reg = obs_metrics.registry()
        self._m_drains = reg.counter(
            "dbwipes_drains_total",
            help="Drain operations completed on the worker tier.",
        )
        self._breakers: dict[int, CircuitBreaker] = {}
        self._m_failovers: dict[int, obs_metrics.Counter] = {}
        self._m_breaker: dict[int, obs_metrics.Gauge] = {}
        for index in range(len(pool)):
            self._track_worker(index)

    def _track_worker(self, index: int) -> None:
        """Breaker + metrics for one worker index (idempotent)."""
        if index in self._breakers:
            return
        reg = obs_metrics.registry()
        self._breakers[index] = CircuitBreaker(
            threshold=self._breaker_threshold,
            reset_seconds=self._breaker_reset_seconds,
            clock=self._clock,
        )
        self._m_failovers[index] = reg.counter(
            "dbwipes_failovers_total",
            labels={"worker": str(index)},
            help="Failed-over requests, by the worker that failed.",
        )
        gauge = reg.gauge(
            "dbwipes_breaker_state",
            labels={"worker": str(index)},
            help="Circuit breaker state (0 closed, 1 half-open, 2 open).",
        )
        gauge.set(0)
        self._m_breaker[index] = gauge

    def _breaker_success(self, worker: int) -> None:
        breaker = self._breakers.get(worker)
        if breaker is None:
            return
        breaker.record_success()
        self._m_breaker[worker].set(breaker.state_value)

    def _breaker_failure(self, worker: int) -> None:
        breaker = self._breakers.get(worker)
        if breaker is None:
            return
        breaker.record_failure()
        self._m_breaker[worker].set(breaker.state_value)

    def _breaker_allows(self, worker: int) -> bool:
        breaker = self._breakers.get(worker)
        if breaker is None:
            return True
        allowed = breaker.allow()
        self._m_breaker[worker].set(breaker.state_value)
        return allowed

    # -- dispatch entry ------------------------------------------------

    def handle(self, message: dict, emit_partial=None) -> dict:
        """Route one decoded request; always returns an envelope.

        The front end is the server accept path of the cluster: the root
        ``server.<cmd>`` span is minted here (or grafted onto a trace
        context the client sent), every worker forward rides a child
        ``router.<cmd>`` span whose context crosses the pipe in the
        message's ``trace`` field, and the response envelope is stamped
        with the trace id so clients can recover the full span tree.

        ``emit_partial(seq, payload)`` — when provided and the request
        asks for a stream — receives each partial frame a worker sends
        back over the pipe, ahead of the returned terminating envelope.
        A mid-stream failover replays the stream from the replica, so
        partial frames are at-least-once; the final envelope is exact.
        """
        request_id = message.get("id")
        try:
            cmd, session, args = protocol.validate_request(message)
        except ReproError as error:
            kind = getattr(error, "kind", None) or type(error).__name__
            return protocol.error_response(request_id, kind, str(error))
        trace_id, parent_id = obs_trace.from_wire(message)
        start = time.perf_counter()
        with obs_trace.span(
            f"server.{cmd}", trace_id=trace_id, parent_id=parent_id
        ) as span:
            envelope = self._dispatch(
                request_id, cmd, session, args, message, emit_partial
            )
            if not envelope.get("ok"):
                error = envelope.get("error")
                if isinstance(error, dict):
                    span.set(error=error.get("kind"))
            stamped_trace = span.trace_id
        seconds = time.perf_counter() - start
        if obs_enabled():
            labels = {"cmd": cmd, "role": "server"}
            reg = obs_metrics.registry()
            reg.counter(
                "dbwipes_requests_total",
                labels=labels,
                help="Requests dispatched, by command and process role.",
            ).inc()
            reg.histogram(
                "dbwipes_request_seconds",
                labels=labels,
                help="Request wall seconds, by command and process role.",
            ).observe(seconds)
            obs_logs.maybe_log_slow(cmd, seconds, role="server", session=session)
        if stamped_trace is not None:
            envelope["trace"] = stamped_trace
        return envelope

    def _dispatch(
        self,
        request_id,
        cmd: str,
        session: str | None,
        args: dict,
        message: dict,
        emit_partial=None,
    ) -> dict:
        if cmd == "ping":
            return self._pong(request_id)
        if cmd == "stats":
            return self._merge_stats(request_id, self._broadcast("stats", message))
        if cmd == "sessions":
            return self._merge_sessions(
                request_id, self._broadcast("sessions", message)
            )
        if cmd == "metrics":
            return self._merge_metrics(
                request_id, self._broadcast("metrics", message)
            )
        if cmd == "storage":
            return self._merge_storage(
                request_id, self._broadcast("storage", message)
            )
        if cmd == "trace":
            resolved = self._trace_resolve(request_id, message, args)
            if isinstance(resolved, dict):
                return resolved
            trace_id, spans, dropped, explicit = resolved
            return self._merge_trace(
                request_id,
                trace_id,
                spans,
                dropped,
                self._broadcast("trace", explicit),
            )
        if cmd == "open":
            checked = self._open_check(request_id, args)
            if isinstance(checked, dict):
                return checked
            name, dataset, worker = checked
            envelope = self._forward(worker, "open", message)
            return self._open_finish(envelope, worker, name, dataset)
        if cmd == "recover":
            return self._recover_command(request_id, session, args)
        if cmd == "drain":
            return self._drain_command(request_id, args)
        if cmd == "resize":
            return self._resize_command(request_id, args)
        if cmd in _SESSION_HANDLERS:
            return self._route_session(
                request_id, cmd, session, args, message, emit_partial
            )
        return self._unknown_command(request_id, cmd)

    def _pong(self, request_id) -> dict:
        return protocol.ok_response(
            request_id,
            {
                "pong": True,
                "version": protocol.PROTOCOL_VERSION,
                "workers": len(self.pool),
            },
        )

    @staticmethod
    def _unknown_command(request_id, cmd: str) -> dict:
        known = sorted(set(_SERVER_HANDLERS) | set(_SESSION_HANDLERS))
        return protocol.error_response(
            request_id, "ProtocolError", f"unknown command {cmd!r} (known: {known})"
        )

    # -- traced worker forwards ----------------------------------------

    def _forward(
        self, worker: int, cmd: str, message: dict, on_partial=None
    ) -> dict:
        """One worker call under a ``router.<cmd>`` span.

        The span's context is injected into the forwarded message's
        ``trace`` field, so the worker's ``worker.<cmd>`` span (and the
        pipeline stages underneath) link into the front end's trace.
        """
        plan = faults.active_plan()
        if plan is not None:
            delay = plan.delay_before(cmd)
            if delay > 0:
                self._sleep(delay)
        with obs_trace.span(f"router.{cmd}", worker=worker) as span:
            context = obs_trace.wire_context(span)
            forwarded = {**message, "trace": context} if context else message
            return self.pool.call(worker, forwarded, on_partial=on_partial)

    def _broadcast(self, cmd: str, message: dict) -> list[dict]:
        """The forward above, fanned out to every worker in order."""
        return [
            self._forward(index, cmd, message) for index in range(len(self.pool))
        ]

    # -- server-scoped fan-out -----------------------------------------

    def _merge_stats(self, request_id, envelopes: list[dict]) -> dict:
        """Worker stats merged into true cluster totals.

        Every per-worker counter is *summed* and the cache hit rate is
        recomputed from the summed lookups — never averaged across
        workers, because consistent hashing skews load per shard (a
        99%-hit worker serving 10× the traffic of a 50%-hit worker must
        dominate the cluster rate).
        """
        per_worker = []
        sessions = 0
        hits = misses = evictions = entries = 0
        disk_hits = disk_misses = disk_writes = 0
        lru_evictions = ttl_evictions = 0
        worker_requests = restarts = 0
        for process_stats, envelope in zip(self.pool.stats(), envelopes):
            entry = dict(process_stats)
            worker_requests += int(entry.get("requests", 0))
            restarts += int(entry.get("restarts", 0))
            if envelope.get("ok"):
                stats = envelope["result"]
                entry["stats"] = stats
                sessions += int(stats.get("sessions", 0))
                lru_evictions += int(stats.get("lru_evictions", 0))
                ttl_evictions += int(stats.get("ttl_evictions", 0))
                cache = stats.get("preprocess_cache", {})
                hits += int(cache.get("hits", 0))
                misses += int(cache.get("misses", 0))
                evictions += int(cache.get("evictions", 0))
                entries += int(cache.get("entries", 0))
                disk_hits += int(cache.get("disk_hits", 0))
                disk_misses += int(cache.get("disk_misses", 0))
                disk_writes += int(cache.get("disk_writes", 0))
            else:
                entry["error"] = envelope.get("error")
            per_worker.append(entry)
        total = hits + misses
        with self._lock:
            routed = self._routed
            placements = len(self._placements)
        return protocol.ok_response(
            request_id,
            {
                "workers": len(self.pool),
                "start_method": self.pool.start_method,
                "sessions": sessions,
                "placements": placements,
                "routed_requests": routed,
                "worker_requests": worker_requests,
                "restarts": restarts,
                "lru_evictions": lru_evictions,
                "ttl_evictions": ttl_evictions,
                "preprocess_cache": {
                    "hits": hits,
                    "misses": misses,
                    "evictions": evictions,
                    "entries": entries,
                    "hit_rate": (hits / total) if total else 0.0,
                    "disk_hits": disk_hits,
                    "disk_misses": disk_misses,
                    "disk_writes": disk_writes,
                },
                "per_worker": per_worker,
            },
        )

    def _merge_storage(self, request_id, envelopes: list[dict]) -> dict:
        """Cluster view of the durable tier.

        Every worker shares one data dir, so the dataset/table listing
        comes from the first healthy worker; the per-worker artifact
        *activity* counters (saves/loads) are summed — they live in each
        worker's process, not on disk.
        """
        merged: dict = {
            "workers": len(self.pool),
            "data_dir": None,
            "datasets": [],
            "preprocess_artifacts": None,
        }
        saves = loads = load_failures = entries = 0
        seen_artifacts = False
        first_ok = None
        for envelope in envelopes:
            if not envelope.get("ok"):
                continue
            result = envelope["result"]
            if first_ok is None:
                first_ok = result
            artifacts = result.get("preprocess_artifacts")
            if isinstance(artifacts, dict):
                seen_artifacts = True
                saves += int(artifacts.get("saves", 0))
                loads += int(artifacts.get("loads", 0))
                load_failures += int(artifacts.get("load_failures", 0))
                entries = max(entries, int(artifacts.get("entries", 0)))
        if first_ok is not None:
            merged["data_dir"] = first_ok.get("data_dir")
            merged["datasets"] = first_ok.get("datasets", [])
        if seen_artifacts:
            merged["preprocess_artifacts"] = {
                "entries": entries,
                "saves": saves,
                "loads": loads,
                "load_failures": load_failures,
            }
        return protocol.ok_response(request_id, merged)

    def _merge_sessions(self, request_id, envelopes: list[dict]) -> dict:
        """Every worker's session list, each entry tagged with its worker."""
        merged = []
        for index, envelope in enumerate(envelopes):
            if not envelope.get("ok"):
                continue
            for info in envelope["result"].get("sessions", []):
                info = dict(info)
                info["worker"] = index
                merged.append(info)
        return protocol.ok_response(request_id, {"sessions": merged})

    def _merge_metrics(self, request_id, envelopes: list[dict]) -> dict:
        """Cluster exposition: scatter registries, merge correctly.

        Counters and gauges sum; histogram buckets sum; nothing is ever
        averaged. The front end's own registry (request counters, worker
        crash/respawn/timeout counters) joins the merge alongside every
        worker's snapshot.
        """
        front = obs_metrics.registry().snapshot()
        snapshots = [front]
        per_worker = []
        slow = list(obs_logs.logger().recent("slow_request"))
        for index, envelope in enumerate(envelopes):
            if envelope.get("ok"):
                result = envelope["result"]
                snapshot = result.get("merged")
                if isinstance(snapshot, dict):
                    snapshots.append(snapshot)
                per_worker.append({"worker": index, "metrics": snapshot})
                slow.extend(result.get("slow_requests") or ())
            else:
                per_worker.append(
                    {"worker": index, "error": envelope.get("error")}
                )
        slow.sort(key=lambda record: record.get("ts", 0.0))
        return protocol.ok_response(
            request_id,
            {
                "workers": len(self.pool),
                "merged": obs_metrics.merge_snapshots(snapshots),
                "per_worker": per_worker,
                "slow_requests": slow[-SLOW_LOG_LIMIT:],
            },
        )

    def _trace_resolve(
        self, request_id, message: dict, args: dict
    ) -> dict | tuple:
        """Resolve the target trace id on the front end.

        The default trace id resolves *here* (most recently finished
        front-end trace, excluding the in-flight request's own) and the
        broadcast carries it explicitly, so every worker contributes the
        spans it recorded for that exact trace. Returns an early
        envelope when there is nothing to gather, else
        ``(trace_id, front_spans, front_dropped, explicit_message)``.
        """
        tracer = obs_trace.tracer()
        trace_id = args.get("trace_id")
        if trace_id is None:
            current = tracer.current()
            trace_id = tracer.last_trace_id(
                exclude=current[0] if current else None
            )
        if not isinstance(trace_id, str) or not trace_id:
            return protocol.ok_response(
                request_id,
                {"trace_id": None, "spans": [], "tree": [], "dropped": 0},
            )
        spans = tracer.spans(trace_id)
        dropped = tracer.dropped(trace_id)
        explicit = {
            **message,
            "args": {**args, "trace_id": trace_id},
        }
        return trace_id, spans, dropped, explicit

    def _merge_trace(
        self, request_id, trace_id: str, spans: list, dropped: int,
        envelopes: list[dict],
    ) -> dict:
        """Worker span contributions folded into the front end's."""
        for envelope in envelopes:
            if not envelope.get("ok"):
                continue
            result = envelope["result"]
            spans.extend(result.get("spans") or ())
            dropped += int(result.get("dropped") or 0)
        return protocol.ok_response(
            request_id,
            {
                "trace_id": trace_id,
                "spans": spans,
                "tree": obs_trace.span_tree(spans),
                "dropped": dropped,
            },
        )

    # -- session routing -----------------------------------------------

    def _open_check(self, request_id, args: dict) -> dict | tuple[str, str, int]:
        """Validate an ``open`` and pick its worker by dataset hash.

        Returns an error envelope, or ``(name, dataset, worker)``.
        """
        name = args.get("name")
        dataset = args.get("dataset")
        if not isinstance(name, str) or not name:
            return protocol.error_response(
                request_id,
                "ProtocolError",
                "'open' needs a non-empty 'name' string in args",
            )
        if not isinstance(dataset, str) or not dataset:
            return protocol.error_response(
                request_id,
                "ProtocolError",
                "'open' needs a non-empty 'dataset' string in args",
            )
        with self._lock:
            placement = self._placements.get(name)
        if placement is not None and placement[1] != dataset:
            # Mirror the manager's reopen-on-another-dataset error at the
            # front: the old placement's worker owns the live session.
            return protocol.error_response(
                request_id,
                "ServiceError",
                f"session {name!r} is open on dataset {placement[1]!r}; "
                f"close it before reopening on {dataset!r}",
            )
        return name, dataset, self._placement_target(dataset)

    def _placement_target(self, dataset: str) -> int:
        """The first admissible worker in the dataset's replica set.

        The ring primary wins unless it is draining or its breaker is
        open, in which case placement slides to the next replica —
        new sessions steer around a flapping or departing worker. Falls
        back to the primary when every candidate is inadmissible.
        """
        candidates = [
            int(node) for node in self.ring.nodes_for(dataset, self.n_replicas)
        ]
        for worker in candidates:
            if worker >= len(self.pool):
                continue
            if self.pool.workers[worker].draining:
                continue
            breaker = self._breakers.get(worker)
            if breaker is not None and breaker.state == "open":
                continue
            return worker
        return candidates[0]

    def _open_finish(
        self, envelope: dict, worker: int, name: str, dataset: str
    ) -> dict:
        """Record (or roll back) the placement an ``open`` produced."""
        if envelope.get("ok"):
            with self._lock:
                self._placements[name] = (worker, dataset)
                self._routed += 1
            protocol.annotate_worker(envelope, worker)
        elif self._crashed(envelope) and self.journals is None:
            # No journals → sessions die with their process; drop their
            # placements so clients get a fast UnknownSession. With a
            # journal tier the placements stay and heal lazily by replay.
            self._drop_worker_placements(worker)
        return envelope

    def _route_session(
        self,
        request_id,
        cmd: str,
        session: str | None,
        args: dict,
        message: dict,
        emit_partial=None,
    ) -> dict:
        """Route one session-scoped command, healing as needed.

        Without a journal tier this is the pre-PR-10 path: resolve the
        placement, forward once, and let crashes drop placements. With
        journals it becomes the self-healing path: unplaced-but-journaled
        sessions are adopted, worker-side ``UnknownSession`` (a respawned
        or evicted worker) triggers in-place replay, and crash-class
        errors fail over along the dataset's replica set.
        """
        if not session:
            return protocol.error_response(
                request_id,
                "ProtocolError",
                f"command {cmd!r} needs a 'session' field",
            )
        with self._lock:
            placement = self._placements.get(session)
        if placement is None:
            placement = self._adopt(session)
        if placement is None:
            return protocol.error_response(
                request_id,
                "UnknownSession",
                f"unknown session {session!r}; open it first",
            )
        worker, dataset = placement
        on_partial = None
        if emit_partial is not None and args.get("stream"):

            def on_partial(envelope, _emit=emit_partial):
                _emit(envelope.get("seq", 0), envelope.get("result"))

        if self.journals is None:
            envelope = self._forward(worker, cmd, message, on_partial=on_partial)
            return self._route_finish(envelope, cmd, session, worker)
        return self._route_with_failover(
            request_id, cmd, session, dataset, worker, message, on_partial
        )

    def _adopt(self, session: str) -> tuple[int, str] | None:
        """Re-admit a journaled session that has no placement.

        This is how sessions survive a front-end restart: the placement
        map is in-memory, but the journal names the dataset, so the
        session is re-placed on the dataset's current primary and the
        first forwarded command heals it by replay (the worker answers
        ``UnknownSession``, the router recovers in place and re-sends).
        """
        if self.journals is None or not self.journals.exists(session):
            return None
        dataset = self.journals.peek(session)
        if dataset is None:
            return None
        worker = self._placement_target(dataset)
        with self._lock:
            current = self._placements.get(session)
            if current is None:
                current = (worker, dataset)
                self._placements[session] = current
        return current

    def _route_with_failover(
        self,
        request_id,
        cmd: str,
        session: str,
        dataset: str,
        worker: int,
        message: dict,
        on_partial=None,
    ) -> dict:
        """Forward with replay-based healing and replica failover.

        The candidate list is ``[primary, replicas…, primary]`` — the
        final entry retries the primary once more because a crashed
        worker has been respawned by the time the replicas were tried.
        Attempt 0 is a plain forward; every later attempt backs off
        (jittered, honouring ``retry_after``) and replays the session's
        journal on the candidate before re-sending the command.
        """
        candidates = [worker]
        for node in self.ring.nodes_for(dataset, self.n_replicas):
            node = int(node)
            if node != worker and node < len(self.pool):
                candidates.append(node)
        candidates.append(worker)
        if self._max_failover_attempts is not None:
            candidates = candidates[: max(1, int(self._max_failover_attempts))]
        last_envelope: dict | None = None
        attempted = False
        for attempt, target in enumerate(candidates):
            if attempt:
                if not self._breaker_allows(target):
                    continue
                self._failover_backoff(attempt, last_envelope)
                recovered = self._recover_on(target, session)
                if recovered is None:
                    break  # no journal: replay impossible, stop here
                if not recovered:
                    self._breaker_failure(target)
                    continue
            elif not self._breaker_allows(target):
                # Primary's breaker is open: skip straight to replicas.
                last_envelope = protocol.error_response(
                    request_id,
                    "WorkerCrashed",
                    f"worker {target} circuit breaker is open",
                )
                continue
            attempted = True
            envelope = self._forward(target, cmd, message, on_partial=on_partial)
            last_envelope = envelope
            kind = self._error_kind(envelope)
            if kind == "UnknownSession" and cmd != "close":
                # Healthy worker, lost session (respawn/eviction/adopted
                # placement): replay in place once and re-send.
                if self._recover_on(target, session) is True:
                    envelope = self._forward(
                        target, cmd, message, on_partial=on_partial
                    )
                    last_envelope = envelope
                    kind = self._error_kind(envelope)
            if kind in FAILOVER_KINDS:
                self._breaker_failure(target)
                if obs_enabled() and target in self._m_failovers:
                    self._m_failovers[target].inc()
                continue
            self._breaker_success(target)
            return self._failover_finish(
                envelope, cmd, session, dataset, worker, target
            )
        if not attempted:
            # Every candidate was inadmissible (breakers open): force one
            # real attempt at the primary rather than failing on a guess.
            envelope = self._forward(worker, cmd, message, on_partial=on_partial)
            return self._failover_finish(
                envelope, cmd, session, dataset, worker, worker
            )
        # Exhausted (or journal-less): restore the legacy contract.
        if last_envelope is not None and self._crashed(last_envelope):
            self._drop_worker_placements(worker)
        with self._lock:
            self._routed += 1
        return last_envelope

    def _failover_finish(
        self,
        envelope: dict,
        cmd: str,
        session: str,
        dataset: str,
        worker: int,
        target: int,
    ) -> dict:
        """Bookkeeping after a settled (non-crash) session command."""
        with self._lock:
            self._routed += 1
            if envelope.get("ok") and target != worker:
                self._placements[session] = (target, dataset)
        if cmd == "close" and (
            envelope.get("ok") or self._error_kind(envelope) == "UnknownSession"
        ):
            with self._lock:
                self._placements.pop(session, None)
            if self.journals is not None:
                self.journals.discard(session)
        return envelope

    def _recover_on(self, target: int, session: str) -> bool | None:
        """Ask ``target`` to replay ``session``'s journal.

        Returns ``True`` when the session is live on the target (replayed
        or already open there), ``False`` when the recover attempt itself
        failed (crash/timeout on the target — try elsewhere), and
        ``None`` when there is no journal (recovery impossible anywhere).
        """
        message = {
            "id": f"recover::{session}",
            "cmd": "recover",
            "args": {"session": session},
        }
        envelope = self._forward(target, "recover", message)
        if envelope.get("ok"):
            return True
        if self._error_kind(envelope) == "NoJournal":
            return None
        return False

    def _failover_backoff(self, attempt: int, last_envelope: dict | None) -> None:
        """Jittered exponential delay before failover attempt ``attempt``.

        Honours the ``retry_after`` hint of the previous error envelope
        when it asks for a longer wait than the schedule would.
        """
        delay = min(self._backoff_max, self._backoff_base * (2 ** (attempt - 1)))
        delay *= 0.5 + self._rng.random()  # jitter in [0.5x, 1.5x)
        error = (last_envelope or {}).get("error")
        if isinstance(error, dict) and error.get("retry_after") is not None:
            try:
                delay = max(delay, float(error["retry_after"]))
            except (TypeError, ValueError):
                pass
        if delay > 0:
            self._sleep(delay)

    def _route_finish(
        self, envelope: dict, cmd: str, session: str | None, worker: int
    ) -> dict:
        """Placement bookkeeping after a routed session command
        (journal-less mode — crashes lose sessions)."""
        with self._lock:
            self._routed += 1
        if cmd == "close" and (
            envelope.get("ok") or self._error_kind(envelope) == "UnknownSession"
        ):
            with self._lock:
                self._placements.pop(session, None)
        if self._crashed(envelope):
            # The dead process took its sessions with it; drop their
            # placements so clients get a fast UnknownSession and reopen
            # onto the respawned worker.
            self._drop_worker_placements(worker)
        return envelope

    # -- recover / drain / resize --------------------------------------

    def _recover_command(
        self, request_id, session: str | None, args: dict
    ) -> dict:
        """Wire-level ``recover``: replay one session where it belongs."""
        name = args.get("session") or session
        if not isinstance(name, str) or not name:
            return protocol.error_response(
                request_id,
                "ProtocolError",
                "'recover' needs a non-empty 'session' (args or field)",
            )
        with self._lock:
            placement = self._placements.get(name)
        if placement is None:
            placement = self._adopt(name)
        if placement is None:
            return protocol.error_response(
                request_id,
                "NoJournal",
                f"session {name!r} has no placement and no journal to replay",
            )
        worker, _dataset = placement
        envelope = self._forward(
            worker,
            "recover",
            {"id": request_id, "cmd": "recover", "args": {"session": name}},
        )
        if envelope.get("ok"):
            protocol.annotate_worker(envelope, worker)
            self._breaker_success(worker)
        with self._lock:
            self._routed += 1
        return envelope

    def _drain_command(self, request_id, args: dict) -> dict:
        worker = args.get("worker")
        if isinstance(worker, bool) or not isinstance(worker, int):
            return protocol.error_response(
                request_id,
                "ProtocolError",
                "'drain' needs an integer 'worker' in args",
            )
        try:
            deadline = float(args.get("deadline", 5.0))
        except (TypeError, ValueError):
            return protocol.error_response(
                request_id, "ProtocolError", "'deadline' must be a number"
            )
        restart = bool(args.get("restart", False))
        try:
            summary = self.drain(worker, deadline=deadline, restart=restart)
        except ReproError as error:
            kind = getattr(error, "kind", None) or type(error).__name__
            return protocol.error_response(request_id, kind, str(error))
        return protocol.ok_response(request_id, summary)

    def _resize_command(self, request_id, args: dict) -> dict:
        workers = args.get("workers")
        if isinstance(workers, bool) or not isinstance(workers, int):
            return protocol.error_response(
                request_id,
                "ProtocolError",
                "'resize' needs an integer 'workers' in args",
            )
        try:
            summary = self.resize(workers)
        except ReproError as error:
            kind = getattr(error, "kind", None) or type(error).__name__
            return protocol.error_response(request_id, kind, str(error))
        return protocol.ok_response(request_id, summary)

    def drain(
        self, worker: int, deadline: float = 5.0, restart: bool = False
    ) -> dict:
        """Gracefully take one worker out of rotation.

        Stops new-session admission (the draining flag steers
        :meth:`_placement_target` away), waits for the worker's in-flight
        requests bounded by ``deadline`` seconds, asks it to flush every
        live session's journal (``drain_prepare`` — which also repairs
        journals corrupted on disk, the in-memory records being
        authoritative), then hands its placements to replicas by replay.
        With ``restart=True`` the worker process is finally replaced and
        re-admitted — the rolling-restart primitive.
        """
        worker = int(worker)
        if not 0 <= worker < len(self.pool):
            raise ServiceError(
                f"worker index {worker} out of range (pool has {len(self.pool)})"
            )
        handle = self.pool.workers[worker]
        handle.draining = True
        start = self._clock()
        deadline_at = start + max(0.0, deadline)
        while handle.in_flight > 0 and self._clock() < deadline_at:
            self._sleep(0.02)
        waited = self._clock() - start
        residual = handle.in_flight
        journaled = 0
        prepare = self._forward(
            worker,
            "drain_prepare",
            {"id": f"drain::{worker}", "cmd": "drain_prepare", "args": {}},
        )
        if prepare.get("ok"):
            journaled = int(prepare["result"].get("journaled", 0))
        moved = failed = kept = 0
        with self._lock:
            owned = [
                (name, placement[1])
                for name, placement in self._placements.items()
                if placement[0] == worker
            ]
        for name, dataset in owned:
            target = self._handoff_target(worker, dataset)
            if target is None or self.journals is None:
                kept += 1
                continue
            if self._recover_on(target, name) is True:
                with self._lock:
                    self._placements[name] = (target, dataset)
                moved += 1
            else:
                failed += 1
        restarted = False
        if restart:
            restarted = handle.restart()
            handle.draining = False
            self._breaker_success(worker)
        if obs_enabled():
            self._m_drains.inc()
        return {
            "worker": worker,
            "waited_seconds": waited,
            "residual_in_flight": residual,
            "journaled": journaled,
            "sessions_moved": moved,
            "sessions_failed": failed,
            "sessions_kept": kept,
            "restarted": restarted,
            "draining": handle.draining,
        }

    def _handoff_target(self, worker: int, dataset: str) -> int | None:
        """Where a draining worker's session should land: the first
        admissible replica, else any healthy worker, else nowhere."""
        candidates = [
            int(node) for node in self.ring.nodes_for(dataset, self.n_replicas)
        ]
        candidates += [
            index for index in range(len(self.pool)) if index not in candidates
        ]
        for index in candidates:
            if index == worker or index >= len(self.pool):
                continue
            if self.pool.workers[index].draining:
                continue
            breaker = self._breakers.get(index)
            if breaker is not None and breaker.state == "open":
                continue
            return index
        return None

    def resize(self, n_workers: int) -> dict:
        """Grow or shrink the worker tier, rebalancing placements.

        Shrinking flushes the doomed workers' journals, replays each of
        their sessions onto the new ring's owner, and only then closes
        the processes — journaled sessions move instead of dying.
        Sessions without a journal tier are dropped with a count.
        Growing spawns workers and rebuilds the ring; existing placements
        stay put (consistent hashing moves only new opens).
        """
        n_workers = int(n_workers)
        if n_workers < 1:
            raise ServiceError("resize needs at least one worker")
        old = len(self.pool)
        moved = dropped = 0
        if n_workers < old:
            new_ring = HashRing(
                list(range(n_workers)), replicas=self._ring_points
            )
            for index in range(n_workers, old):
                self.pool.workers[index].draining = True
                self._forward(
                    index,
                    "drain_prepare",
                    {
                        "id": f"resize::{index}",
                        "cmd": "drain_prepare",
                        "args": {},
                    },
                )
            with self._lock:
                doomed = [
                    (name, placement)
                    for name, placement in self._placements.items()
                    if placement[0] >= n_workers
                ]
            for name, (_index, dataset) in doomed:
                target = int(new_ring.node_for(dataset))
                if (
                    self.journals is not None
                    and self._recover_on(target, name) is True
                ):
                    with self._lock:
                        self._placements[name] = (target, dataset)
                    moved += 1
                else:
                    with self._lock:
                        self._placements.pop(name, None)
                    dropped += 1
            self.pool.resize(n_workers)
            self.ring = new_ring
            for index in range(n_workers, old):
                self._breakers.pop(index, None)
        else:
            self.pool.resize(n_workers)
            self.ring = HashRing(
                list(range(n_workers)), replicas=self._ring_points
            )
            for index in range(old, n_workers):
                self._track_worker(index)
        with self._lock:
            placements = len(self._placements)
        return {
            "workers": len(self.pool),
            "sessions_moved": moved,
            "sessions_dropped": dropped,
            "placements": placements,
        }

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _error_kind(envelope: dict) -> str | None:
        error = envelope.get("error")
        return error.get("kind") if isinstance(error, dict) else None

    @classmethod
    def _crashed(cls, envelope: dict) -> bool:
        return cls._error_kind(envelope) == "WorkerCrashed"

    def _drop_worker_placements(self, worker: int) -> None:
        with self._lock:
            self._placements = {
                name: placement
                for name, placement in self._placements.items()
                if placement[0] != worker
            }

    def placement_of(self, session: str) -> tuple[int, str] | None:
        """The (worker, dataset) assignment of a session, if any."""
        with self._lock:
            return self._placements.get(session)

    def close(self) -> None:
        """Shut the pool down."""
        self.pool.close()

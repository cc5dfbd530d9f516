"""Cache-affine routing: which worker serves which session.

The routing rule is **a fixed hash of the dataset id**: every session
opened on dataset ``d`` lands on ``replica_set(d, n_workers)[0]``, so
one worker owns all sessions of a dataset — and with them every shared
in-memory structure those sessions hit (the dataset build itself, the
``PreprocessCache`` entry for a debugged selection, its ``SplitIndex``
and clause-mask memos). That affinity is the serving story: the
preprocess-cache hit rate measured on the single-process tier (~0.96)
carries over to N processes because a dataset's requests never spray
across shards. The worker count is fixed for the life of a server, so
nothing needs assignments that stay stable when it changes: every
per-worker cache lives in memory, and every durable file sits in the
data dir all workers share. To change the count, restart the server;
``recover`` heals the sessions.

The :class:`RoutingDispatcher` is the front end's brain: server-scoped
commands are answered or fanned out here (``ping`` locally, ``stats`` /
``sessions`` scatter-gathered across workers), ``open`` routes by
dataset and records the session→worker assignment, and every
session-scoped command follows that assignment. Unknown sessions are
rejected at the front without a worker round-trip, mirroring the
``UnknownSession`` error the in-process manager raises.

**Self-healing**: each dataset has a deterministic replica *set*
(:func:`replica_set`), not a single owner. Every session command
takes one walk, ``[placed, replicas…, placed]``. A command that comes
back ``WorkerCrashed``/``WorkerTimeout`` moves on along the walk with
jittered, bounded backoff, and each later candidate is first sent
``recover``: the worker replays the session's journal
(:mod:`repro.service.journal`) off the data dir it shares with the
other workers. The worker's answer decides. A replayed journal moves
the placement there and the command is re-sent; ``NoJournal`` ends the
walk, so without a data dir a crash is reported, not healed, and the
dead session's placement is forgotten. Per-worker
circuit breakers trip after consecutive failures and half-open on a
timer, steering both the walk and new-session placement away from a
flapping worker. ``drain`` stops admitting sessions to one worker,
waits out its in-flight requests (deadline-bounded), flushes its
journals, hands its placements to other workers by the same replay,
and optionally restarts the process — the rolling-restart verb.
"""

from __future__ import annotations

import hashlib
import os
import random
import threading
import time
from typing import Callable

from ..errors import ProtocolError, ReproError, ServiceError
from ..obs import logs as obs_logs
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.flags import enabled as obs_enabled
from . import faults, protocol
from .cache import DATA_DIR_ENV
from .handlers import (
    COMMANDS,
    SLOW_LOG_LIMIT,
    Dispatcher,
    _SESSION_HANDLERS,
    instrumented,
)
from .journal import JournalStore
from .workers import WorkerPool

#: Error kinds that trigger failover to a replica (crash-class only:
#: logical errors like UnknownSession get in-place recovery instead).
FAILOVER_KINDS = frozenset({"WorkerCrashed", "WorkerTimeout"})

#: Replica-set width: each dataset has this many candidate workers
#: (all of them in a smaller pool).
N_REPLICAS = 2

#: Failover backoff before walk attempt ``k``: ``BACKOFF_BASE × 2^(k-1)``
#: seconds, capped at ``BACKOFF_MAX`` and jittered into [0.5×, 1.5×).
BACKOFF_BASE = 0.05
BACKOFF_MAX = 1.0

#: Seconds a drain waits for in-flight requests when the caller names
#: no deadline.
DRAIN_DEADLINE = 5.0


def replica_set(dataset: str, n_workers: int) -> list[int]:
    """The workers that may hold ``dataset``'s sessions, primary first.

    The primary is the dataset's ``blake2b`` hash mod ``n_workers``
    (stable across processes and runs — never the builtin ``hash()``,
    which is salted per interpreter); the replicas are the next indexes,
    up to :data:`N_REPLICAS` workers (all of them in a smaller pool).
    """
    digest = hashlib.blake2b(dataset.encode("utf-8"), digest_size=8).digest()
    primary = int.from_bytes(digest, "big") % n_workers
    return [(primary + k) % n_workers for k in range(min(N_REPLICAS, n_workers))]


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
    never block the event loop. ``clock`` (breakers, drain wait) and
    ``sleep`` (backoff, drain wait) are seams for tests.
    """

    def __init__(
        self,
        pool: WorkerPool,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.pool = pool
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        #: session name -> (worker index, dataset name)
        self._placements: dict[str, tuple[int, str]] = {}
        self._routed = 0
        #: The front end's view of the journal directory (from
        #: ``REPRO_DATA_DIR``): it only adopts unplaced sessions after a
        #: front-end restart and forgets closed ones. Whether a session
        #: can move is decided by the workers' ``recover`` answers.
        data_dir = os.environ.get(DATA_DIR_ENV)
        self.journals = (
            JournalStore(os.path.join(data_dir, "journal")) if data_dir else None
        )
        # Register the fault-tolerance metrics at construction so they
        # appear in cluster expositions at zero even before the first
        # failover (the CORE_METRICS acceptance relies on this).
        reg = obs_metrics.registry()
        self._m_drains = reg.counter(
            "dbwipes_drains_total",
            help="Drain operations completed on the worker tier.",
        )
        workers = range(len(pool))
        self._breakers = [CircuitBreaker(clock=clock) for _ in workers]
        self._m_failovers = [
            reg.counter(
                "dbwipes_failovers_total",
                labels={"worker": str(index)},
                help="Failed-over requests, by the worker that failed.",
            )
            for index in workers
        ]
        self._m_breaker = [
            reg.gauge(
                "dbwipes_breaker_state",
                labels={"worker": str(index)},
                help="Circuit breaker state (0 closed, 1 half-open, 2 open).",
            )
            for index in workers
        ]
        for gauge in self._m_breaker:
            gauge.set(0)

    def _allow(self, worker: int) -> bool:
        """May a request go to ``worker`` now? May take its breaker's
        half-open probe, so the caller must :meth:`_settle` the attempt."""
        breaker = self._breakers[worker]
        allowed = breaker.allow()
        self._m_breaker[worker].set(breaker.state_value)
        return allowed

    def _settle(self, worker: int, healthy: bool) -> None:
        """Record an attempt's outcome on ``worker``'s breaker. A worker
        that answered at all (``NoJournal`` included) is healthy."""
        breaker = self._breakers[worker]
        if healthy:
            breaker.record_success()
        else:
            breaker.record_failure()
        self._m_breaker[worker].set(breaker.state_value)

    def _admissible(self, worker: int, probe: bool = False) -> bool:
        """The one rule for where a session may go: new-session
        placement, a drain's hand-off and each move of the walk.

        ``worker`` must not be draining, and not refused by its breaker:
        not open, or with ``probe``, admitted by :meth:`_allow` (which
        may take the half-open probe).
        """
        if self.pool.workers[worker].draining:
            return False
        if probe:
            return self._allow(worker)
        return self._breakers[worker].state != "open"

    # -- dispatch entry ------------------------------------------------

    def handle(self, message: dict) -> dict:
        """Route one decoded request; always returns an envelope.

        The front end is the server accept path of the cluster: the root
        ``server.<cmd>`` span is minted here by
        :func:`~repro.service.handlers.instrumented` (or grafted onto a
        trace context the client sent), every worker forward rides a
        child ``router.<cmd>`` span whose context crosses the pipe in
        the message's ``trace`` field, and the response envelope is
        stamped with the trace id so clients can recover the full span
        tree.
        """
        return instrumented("server", message, lambda: self._dispatch(message))

    def _dispatch(self, message: dict) -> dict:
        """Answer or route one request. A request the router rejects
        raises a :class:`ReproError`, answered here as an error envelope
        of its ``kind`` (or class name)."""
        request_id = message.get("id")
        try:
            cmd, session, args = protocol.validate_request(message)
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
                return self._open(args, message)
            if cmd == "recover":
                return self._recover_command(request_id, session, args)
            if cmd == "drain":
                return self._drain_command(request_id, args)
            if cmd in _SESSION_HANDLERS:
                return self._route_session(request_id, cmd, session, message)
            known = sorted(COMMANDS)
            raise ProtocolError(f"unknown command {cmd!r} (known: {known})")
        except ReproError as error:
            kind = getattr(error, "kind", None) or type(error).__name__
            return protocol.error_response(request_id, kind, str(error))

    def _pong(self, request_id) -> dict:
        return protocol.ok_response(
            request_id,
            {
                "pong": True,
                "version": protocol.PROTOCOL_VERSION,
                "workers": len(self.pool),
            },
        )

    # -- traced worker forwards ----------------------------------------

    def _forward(self, worker: int, cmd: str, message: dict) -> dict:
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
            return self.pool.call(worker, forwarded)

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
        workers, because dataset hashing skews load per shard (a
        99%-hit worker serving 10× the traffic of a 50%-hit worker must
        dominate the cluster rate).
        """
        per_worker = []
        sessions = 0
        hits = misses = evictions = entries = 0
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
                },
                "per_worker": per_worker,
            },
        )

    def _merge_storage(self, request_id, envelopes: list[dict]) -> dict:
        """Cluster view of the durable tier.

        Every worker shares one data dir, so the dataset/table listing
        comes from the first healthy worker.
        """
        merged: dict = {"workers": len(self.pool), "data_dir": None, "datasets": []}
        for envelope in envelopes:
            if envelope.get("ok"):
                result = envelope["result"]
                merged["data_dir"] = result.get("data_dir")
                merged["datasets"] = result.get("datasets", [])
                break
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

    def _open(self, args: dict, message: dict) -> dict:
        """Validate an ``open``, send it to its worker, and record the
        placement it produced.

        A new name goes to the dataset's :meth:`_placement_target`. A
        re-``open`` of a placed name (what ``connect --session`` sends)
        goes to the worker that holds it, after a ``recover`` there: the
        session answers live, or is replayed when a respawn lost it,
        instead of starting over on the dataset's primary. ``NoJournal``
        falls through to a plain open; a crash-class answer is returned.
        """
        name = args.get("name")
        dataset = args.get("dataset")
        if not isinstance(name, str) or not name:
            raise ProtocolError("'open' needs a non-empty 'name' string in args")
        if not isinstance(dataset, str) or not dataset:
            raise ProtocolError("'open' needs a non-empty 'dataset' string in args")
        with self._lock:
            placement = self._placements.get(name)
        if placement is not None and placement[1] != dataset:
            # Mirror the manager's reopen-on-another-dataset error at the
            # front: the old placement's worker owns the live session.
            raise ServiceError(
                f"session {name!r} is open on dataset {placement[1]!r}; "
                f"close it before reopening on {dataset!r}"
            )
        worker = None
        if placement is not None:
            kind = self._hand_off(name, dataset, placement[0])
            if kind is None:
                worker = placement[0]
            else:
                self._settle(placement[0], kind not in FAILOVER_KINDS)
                if kind in FAILOVER_KINDS:
                    raise ServiceError(
                        f"worker {placement[0]} could not recover session "
                        f"{name!r}",
                        kind=kind,
                    )
        if worker is None:
            worker = self._placement_target(dataset)
        envelope = self._forward(worker, "open", message)
        if envelope.get("ok"):
            with self._lock:
                self._placements[name] = (worker, dataset)
                self._routed += 1
            protocol.annotate_worker(envelope, worker)
        return envelope

    def _placement_target(self, dataset: str) -> int:
        """Where a session of ``dataset`` should live: the first
        :meth:`_admissible` worker of its replica set, then of the rest
        of the pool, so new sessions and hand-offs steer around a
        flapping or departing worker. Falls back to the primary when no
        worker is admissible (hand-offs check the answer).
        """
        replicas = replica_set(dataset, len(self.pool))
        rest = [index for index in range(len(self.pool)) if index not in replicas]
        return next(
            (worker for worker in replicas + rest if self._admissible(worker)),
            replicas[0],
        )

    def _route_session(
        self, request_id, cmd: str, session: str | None, message: dict
    ) -> dict:
        """Route one session-scoped command along :meth:`_walk`.

        A session with neither placement nor journal is refused here. A
        ``close`` that the worker accepted, or answered
        ``UnknownSession``, forgets the placement and the journal.
        """
        if not session:
            raise ProtocolError(f"command {cmd!r} needs a 'session' field")
        placement = self._placement(session)
        if placement is None:
            raise ServiceError(
                f"unknown session {session!r}; open it first", kind="UnknownSession"
            )
        worker, dataset = placement
        envelope = self._walk(request_id, cmd, session, dataset, worker, message)
        closed = cmd == "close" and (
            envelope.get("ok") or self._error_kind(envelope) == "UnknownSession"
        )
        with self._lock:
            self._routed += 1
            if closed:
                self._placements.pop(session, None)
        if closed and self.journals is not None:
            self.journals.discard(session)
        return envelope

    def _placement(self, session: str) -> tuple[int, str] | None:
        """The session's (worker, dataset), adopting a journaled session
        that has none.

        Adoption is how sessions survive a front-end restart: the
        placement map is in-memory, but the journal names the dataset,
        so the session is re-placed by :meth:`_placement_target` and the
        first forwarded command heals it by replay (the worker answers
        ``UnknownSession``, the router recovers in place and re-sends).
        Only a front end that sees the journal directory
        (``REPRO_DATA_DIR``) can adopt.
        """
        with self._lock:
            placement = self._placements.get(session)
        if placement is not None or self.journals is None:
            return placement
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

    def _walk(
        self,
        request_id,
        cmd: str,
        session: str,
        dataset: str,
        placed: int,
        message: dict,
    ) -> dict:
        """Forward one session command, healing its session on failure.

        The walk is ``[placed, replicas…, placed]``; the final entry
        retries the placed worker, respawned by then if it crashed.
        Attempt 0 forwards to the placed worker (which keeps its
        sessions while it drains). Each later attempt moves the session
        to an :meth:`_admissible` worker after a jittered backoff, by
        :meth:`_hand_off`: a replayed journal moves it and the command
        is re-sent; ``NoJournal`` ends the walk, so a crash without
        journals is reported, not healed, and the dead session's
        placement is forgotten. When every breaker refused, the last
        move is forced. Each attempt settles its breaker.
        """
        candidates = replica_set(dataset, len(self.pool))
        replicas = [worker for worker in candidates if worker != placed]
        walk = [placed, *replicas, placed]
        last: dict | None = None
        sent_to = placed
        admitted = False
        for attempt, target in enumerate(walk):
            if attempt:
                forced = attempt == len(walk) - 1 and not admitted
                allowed = self._admissible(target, probe=True) or forced
            else:
                allowed = self._allow(target)
            if not allowed:
                continue
            admitted = True
            if attempt:
                self._backoff(attempt, last)
                kind = self._hand_off(session, dataset, target)
                if kind is not None:
                    self._settle(target, kind not in FAILOVER_KINDS)
                    if kind != "NoJournal":
                        continue
                    if last is not None and self._error_kind(last) == "WorkerCrashed":
                        # The session died with that process, and no
                        # journal can bring it back anywhere.
                        self._forget(session, sent_to)
                    break
            sent_to = target
            last = self._forward(target, cmd, message)
            if cmd != "close" and self._error_kind(last) == "UnknownSession":
                # A respawn, an eviction or an adopted placement lost the
                # session on a healthy worker: replay it in place and
                # re-send, or forget it when there is no journal.
                kind = self._hand_off(session, dataset, target)
                if kind is None:
                    last = self._forward(target, cmd, message)
                elif kind == "NoJournal":
                    self._forget(session, target)
            healthy = self._error_kind(last) not in FAILOVER_KINDS
            self._settle(target, healthy)
            if healthy:
                return last
            if obs_enabled():
                self._m_failovers[target].inc()
        if last is None:
            # The placed worker's breaker refused it and no move landed.
            last = protocol.error_response(
                request_id,
                "WorkerCrashed",
                f"worker {placed} circuit breaker is open",
            )
        return last

    def _hand_off(self, session: str, dataset: str, target: int) -> str | None:
        """Replay ``session`` on ``target`` and move its placement there.

        The target's ``recover`` answer decides: ``None`` once the
        session is live and placed there, else the answer's error kind
        (``NoJournal``: nothing to replay anywhere; a crash-class kind:
        the target itself failed).
        """
        envelope = self._forward(
            target,
            "recover",
            {
                "id": f"recover::{session}",
                "cmd": "recover",
                "args": {"session": session},
            },
        )
        if not envelope.get("ok"):
            return envelope["error"]["kind"]
        with self._lock:
            self._placements[session] = (target, dataset)
        return None

    def _forget(self, session: str, worker: int) -> None:
        """Drop ``session``'s placement if it is still on ``worker``,
        which no longer holds it and has no journal to replay it."""
        with self._lock:
            placement = self._placements.get(session)
            if placement is not None and placement[0] == worker:
                del self._placements[session]

    def _backoff(self, attempt: int, last: dict | None) -> None:
        """Jittered exponential delay before walk attempt ``attempt``.

        Honours the ``retry_after`` hint of the previous error envelope
        when it asks for a longer wait than the schedule would.
        """
        delay = min(BACKOFF_MAX, BACKOFF_BASE * (2 ** (attempt - 1)))
        delay *= 0.5 + random.random()  # jitter in [0.5x, 1.5x)
        error = (last or {}).get("error")
        if isinstance(error, dict) and error.get("retry_after") is not None:
            try:
                delay = max(delay, float(error["retry_after"]))
            except (TypeError, ValueError):
                pass
        self._sleep(delay)

    # -- recover / drain -----------------------------------------------

    def _recover_command(
        self, request_id, session: str | None, args: dict
    ) -> dict:
        """Wire-level ``recover``: replay one session where it belongs."""
        name = args.get("session") or session
        if not isinstance(name, str) or not name:
            raise ProtocolError(
                "'recover' needs a non-empty 'session' (args or field)"
            )
        placement = self._placement(name)
        if placement is None:
            raise ServiceError(
                f"session {name!r} has no placement and no journal to replay",
                kind="NoJournal",
            )
        worker, _dataset = placement
        envelope = self._forward(
            worker,
            "recover",
            {"id": request_id, "cmd": "recover", "args": {"session": name}},
        )
        if envelope.get("ok"):
            protocol.annotate_worker(envelope, worker)
            self._settle(worker, True)
        with self._lock:
            self._routed += 1
        return envelope

    def _drain_command(self, request_id, args: dict) -> dict:
        worker = args.get("worker")
        if isinstance(worker, bool) or not isinstance(worker, int):
            raise ProtocolError("'drain' needs an integer 'worker' in args")
        try:
            deadline = float(args.get("deadline", DRAIN_DEADLINE))
        except (TypeError, ValueError):
            raise ProtocolError("'deadline' must be a number") from None
        restart = bool(args.get("restart", False))
        summary = self.drain(worker, deadline=deadline, restart=restart)
        return protocol.ok_response(request_id, summary)

    def drain(
        self, worker: int, deadline: float = DRAIN_DEADLINE, restart: bool = False
    ) -> dict:
        """Gracefully take one worker out of rotation.

        Stops new-session admission (the draining flag makes the worker
        inadmissible), waits for its in-flight requests bounded by
        ``deadline`` seconds, asks it to flush every live session's
        journal (``drain_prepare`` — which also repairs journals
        corrupted on disk, the in-memory records being authoritative),
        then hands each of its sessions to its :meth:`_placement_target`
        by replay: moved when the target replays its journal, kept when
        there is no journal or no admissible target, failed when the
        target errs. With ``restart=True`` the worker process is finally
        replaced and re-admitted — the rolling-restart primitive.
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
            target = self._placement_target(dataset)
            if not self._admissible(target):
                kept += 1
                continue
            kind = self._hand_off(name, dataset, target)
            if kind is None:
                moved += 1
            elif kind == "NoJournal":
                kept += 1
            else:
                failed += 1
        restarted = False
        if restart:
            restarted = handle.restart()
            handle.draining = False
            self._settle(worker, True)
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

    # -- helpers -------------------------------------------------------

    @staticmethod
    def _error_kind(envelope: dict) -> str | None:
        error = envelope.get("error")
        return error.get("kind") if isinstance(error, dict) else None

    def placement_of(self, session: str) -> tuple[int, str] | None:
        """The (worker, dataset) assignment of a session, if any."""
        with self._lock:
            return self._placements.get(session)

    def close(self) -> None:
        """Shut the pool down."""
        self.pool.close()

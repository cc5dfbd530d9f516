"""The multiprocessing worker pool behind the routing front end.

Each worker is a separate OS process owning its *own*
:class:`~repro.service.sessions.SessionManager` over its own
:class:`~repro.service.cache.DatasetCatalog`. The catalog builds
datasets lazily, so a worker only ever materializes the datasets the
router hashes onto it — that is the catalog shard, and with it the
worker's ``PreprocessCache`` / ``SplitIndex`` / ``MaskSet`` memos stay
local to exactly the sessions that hit them (cache affinity).

Transport is one duplex :func:`multiprocessing.Pipe` per worker carrying
``(request_token, message)`` tuples down and ``(request_token,
envelope)`` tuples back. The parent side multiplexes: sends happen under
a lock, a daemon reader thread completes pending calls as responses
arrive, and many front-end executor threads can have calls in flight
on one worker at once.

A worker that dies — killed, OOMed, crashed — must never strand a
client connection: the reader thread sees the pipe close, fails every
pending call with a structured ``WorkerCrashed`` error envelope (the
same ``kind`` convention every other service error uses), and respawns
the process. What happens to the dead worker's sessions depends on the
durable tier: with a data dir, each session's journal
(:mod:`repro.service.journal`) lets the router replay it onto a
replica or the respawned process; without one, clients re-``open``.

Two lifecycle verbs beyond crash-respawn: :meth:`WorkerHandle.restart`
swaps in a fresh process (rolling restarts, via ``drain``), and
:attr:`WorkerHandle.draining` marks a worker closed to *new* session
placements while in-flight work finishes. Pool shutdown is two-phase —
every handle is marked closed before any is reaped — so a worker crash
that lands mid-``close()`` can no longer race the reader thread into
respawning an orphan process.

Deterministic fault injection (:mod:`repro.service.faults`) hooks the
request path here: an active plan can SIGKILL a worker right after its
Nth request hits the pipe, or discard a reply so the caller observes a
``WorkerTimeout``.

The ``fork`` start method is preferred (prebuilt catalogs and closures
cross to the child without pickling); ``spawn`` is the fallback where
fork is unavailable, and there the ``catalog_factory`` / ``config``
arguments must be picklable.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
from typing import Any, Callable

from ..errors import ServiceError
from ..obs.flags import enabled as obs_enabled
from ..obs.metrics import registry as obs_registry
from . import faults
from .cache import DatasetCatalog
from .protocol import error_response
from .sessions import check_limits

#: Default seconds a routed call waits before giving up with a
#: ``WorkerTimeout`` envelope (None = wait forever).
DEFAULT_CALL_TIMEOUT: float | None = 300.0


def _worker_main(
    conn,
    index: int,
    catalog_factory: Callable[[], DatasetCatalog] | None,
    config,
    max_sessions: int,
    ttl_seconds: float | None,
) -> None:
    """Worker process entry: a (recv, dispatch, send) loop until EOF."""
    from ..obs import flags as obs_flags
    from ..obs import trace as obs_trace_mod
    from .handlers import dispatch
    from .sessions import SessionManager

    # A fresh telemetry slate: under ``fork`` the child inherits the
    # parent's registry and trace buffer as they stood at spawn time,
    # and reporting those inherited values again would double-count them
    # in the cluster merge. Under ``spawn`` these are no-ops.
    obs_registry().clear()
    obs_trace_mod.tracer().clear()
    obs_flags.reset_from_env()

    # Durable-tier fork safety mirrors the registry reset above: each
    # worker builds its own catalog against the shared REPRO_DATA_DIR,
    # and every table write in that tier stages under a per-*pid* temp
    # name published by atomic rename with first-writer-wins — so N
    # forked workers racing on a cold dataset produce one copy, never a
    # clobber (and a parent forked mid-persist cannot collide with any
    # child's staging paths).
    catalog = (
        catalog_factory()
        if catalog_factory is not None
        else DatasetCatalog.with_demo_datasets()
    )
    manager = SessionManager(
        catalog=catalog,
        config=config,
        max_sessions=max_sessions,
        ttl_seconds=ttl_seconds,
    )
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:  # orderly shutdown sentinel
            break
        token, message = item
        try:
            envelope = dispatch(manager, message, role="worker")
        except BaseException as error:  # noqa: BLE001 — dispatch shields, belt and braces
            envelope = error_response(
                message.get("id") if isinstance(message, dict) else None,
                "InternalError",
                f"{type(error).__name__}: {error}",
            )
        try:
            conn.send((token, envelope))
        except (BrokenPipeError, OSError):
            break
    conn.close()


class _Pending:
    """One in-flight call: the caller's event and the response slot."""

    __slots__ = ("request_id", "event", "envelope")

    def __init__(self, request_id: Any):
        self.request_id = request_id
        self.event = threading.Event()
        self.envelope: dict | None = None

    def complete(self, envelope: dict) -> None:
        self.envelope = envelope
        self.event.set()


class WorkerHandle:
    """One worker process plus the parent-side request multiplexing."""

    def __init__(
        self,
        index: int,
        ctx,
        catalog_factory: Callable[[], DatasetCatalog] | None = None,
        config=None,
        max_sessions: int = 64,
        ttl_seconds: float | None = None,
        call_timeout: float | None = DEFAULT_CALL_TIMEOUT,
    ):
        self.index = index
        self._ctx = ctx
        self._catalog_factory = catalog_factory
        self._config = config
        self._max_sessions = max_sessions
        self._ttl_seconds = ttl_seconds
        self.call_timeout = call_timeout
        self.requests = 0
        self.restarts = 0
        #: Set by the router's drain path: a draining worker serves its
        #: in-flight and already-placed work but admits no new sessions.
        self.draining = False
        # Parent-side failure telemetry: these counters live in the
        # front-end process (where crashes/timeouts are *observed*) and
        # join the cluster merge through the router's own snapshot.
        reg = obs_registry()
        labels = {"worker": str(index)}
        self._m_requests = reg.counter(
            "dbwipes_worker_requests_total",
            labels=labels,
            help="Requests forwarded to a worker process.",
        )
        self._m_respawns = reg.counter(
            "dbwipes_worker_respawns_total",
            labels=labels,
            help="Worker processes respawned after a crash.",
        )
        self._m_timeouts = reg.counter(
            "dbwipes_worker_timeouts_total",
            labels=labels,
            help="Forwarded requests that hit the call timeout.",
        )
        self._m_crashed = reg.counter(
            "dbwipes_worker_crashed_requests_total",
            labels=labels,
            help="Forwarded requests failed by a worker crash.",
        )
        #: Guards the connection, the pending map, and the generation
        #: counter (sends are serialized; only the reader thread recvs).
        self._lock = threading.Lock()
        self._pending: dict[int, _Pending] = {}
        #: Calls a fault plan scripted. The reader discards a ``"drop"``
        #: call's reply, so the caller observes a WorkerTimeout; it
        #: ignores a ``"kill"`` call's reply (the worker was killed after
        #: the send), so the EOF fails it as ``WorkerCrashed`` even when
        #: the worker answered first.
        self._faulted: dict[int, str] = {}
        self._next_token = 0
        self._generation = 0
        self._closed = False
        self.process = None
        self._conn = None
        with self._lock:
            self._spawn_locked()

    # -- lifecycle -----------------------------------------------------

    def _spawn_locked(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self.index,
                self._catalog_factory,
                self._config,
                self._max_sessions,
                self._ttl_seconds,
            ),
            name=f"dbwipes-worker-{self.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        self.process = process
        self._conn = parent_conn
        self._generation += 1
        reader = threading.Thread(
            target=self._read_loop,
            args=(parent_conn, self._generation),
            name=f"dbwipes-worker-{self.index}-reader",
            daemon=True,
        )
        reader.start()

    def request_close(self) -> None:
        """Phase one of shutdown: latch the closed flag and nudge.

        Once the flag is up the reader thread can never respawn this
        worker again — crashes that land between now and :meth:`reap`
        strand no orphan process. Idempotent; never blocks.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            try:
                self._conn.send(None)
            except (BrokenPipeError, OSError):
                pass

    def reap(self) -> None:
        """Phase two of shutdown: join, escalate to terminate, clean up."""
        with self._lock:
            conn, process = self._conn, self.process
            stranded = list(self._pending.values())
            self._pending.clear()
        if process is not None:
            process.join(timeout=2)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2)
        try:
            conn.close()
        except OSError:
            pass
        for pending in stranded:
            pending.complete(
                error_response(
                    pending.request_id, "WorkerCrashed", "worker pool is closed"
                )
            )

    def close(self) -> None:
        """Orderly shutdown: sentinel, join briefly, then terminate."""
        self.request_close()
        self.reap()

    def restart(self) -> bool:
        """Swap in a fresh worker process (the rolling-restart verb).

        Unlike a crash respawn this is deliberate: the old process gets
        the shutdown sentinel and a bounded join before termination,
        and any in-flight calls (the drain path waits those out first,
        so normally none) fail with a structured envelope. Returns
        False when the handle is already closed.
        """
        with self._lock:
            if self._closed:
                return False
            old_conn, old_process = self._conn, self.process
            stranded = list(self._pending.values())
            self._pending.clear()
            self._faulted.clear()
            try:
                old_conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            # Bumping the generation inside _spawn_locked makes the old
            # reader thread exit silently at EOF instead of respawning.
            self._spawn_locked()
            self.restarts += 1
        old_process.join(timeout=5)
        if old_process.is_alive():
            old_process.terminate()
            old_process.join(timeout=2)
        try:
            old_conn.close()
        except OSError:
            pass
        for pending in stranded:
            pending.complete(
                error_response(
                    pending.request_id,
                    "WorkerCrashed",
                    f"worker {self.index} restarted while handling the request",
                )
            )
        return True

    @property
    def alive(self) -> bool:
        """Whether the current worker process is running."""
        return self.process is not None and self.process.is_alive()

    @property
    def in_flight(self) -> int:
        """Calls sent and not yet answered (the drain path polls this)."""
        with self._lock:
            return len(self._pending)

    # -- request path --------------------------------------------------

    def _begin_call(self, message: dict, pending: _Pending) -> int | dict:
        """Register ``pending`` and send; an error envelope on failure.

        Returns the pipe token on success so the caller can cancel the
        pending entry on its own timeout path.
        """
        plan = faults.active_plan()
        kill_now = drop_reply = False
        if plan is not None:
            kill_now, drop_reply = plan.worker_request(self.index)
        with self._lock:
            if self._closed:
                return error_response(
                    pending.request_id, "WorkerCrashed", "worker pool is closed"
                )
            token = self._next_token
            self._next_token += 1
            self._pending[token] = pending
            if kill_now or drop_reply:
                self._faulted[token] = "kill" if kill_now else "drop"
            self.requests += 1
            if obs_enabled():
                self._m_requests.inc()
            try:
                self._conn.send((token, message))
            except (BrokenPipeError, OSError):
                # The reader thread handles the respawn on EOF; this
                # call just reports the crash.
                self._pending.pop(token, None)
                self._faulted.pop(token, None)
                self._m_crashed.inc()
                return error_response(
                    pending.request_id,
                    "WorkerCrashed",
                    f"worker {self.index} is down; it is being restarted",
                )
            process = self.process
        if kill_now and process is not None:
            # After the send, so the worker dies with the request in its
            # pipe or mid-dispatch — the scripted version of kill -9.
            process.kill()
        return token

    def _timed_out(self, token: int, request_id, timeout) -> dict:
        with self._lock:
            self._pending.pop(token, None)
            self._faulted.pop(token, None)
        self._m_timeouts.inc()
        return error_response(
            request_id,
            "WorkerTimeout",
            f"worker {self.index} did not answer within {timeout}s",
        )

    def call(self, message: dict, timeout: float | None = None) -> dict:
        """Send one request to the worker and wait for its envelope.

        Never raises for worker failures: a dead worker yields a
        ``WorkerCrashed`` envelope (and a respawn), an unresponsive one a
        ``WorkerTimeout`` envelope — the connection is never left hung.
        """
        if timeout is None:
            timeout = self.call_timeout
        request_id = message.get("id") if isinstance(message, dict) else None
        pending = _Pending(request_id)
        outcome = self._begin_call(message, pending)
        if isinstance(outcome, dict):
            return outcome
        if pending.event.wait(timeout):
            assert pending.envelope is not None
            return pending.envelope
        return self._timed_out(outcome, request_id, timeout)

    def _read_loop(self, conn, generation: int) -> None:
        while True:
            try:
                token, envelope = conn.recv()
            except (EOFError, OSError):
                break
            except (ValueError, TypeError):
                continue  # unframeable response; keep the worker alive
            with self._lock:
                fault = self._faulted.get(token)
                if fault == "drop":
                    # Fault plan: discard the reply; the caller times out.
                    del self._faulted[token]
                    self._pending.pop(token, None)
                    continue
                if fault == "kill":
                    # Fault plan: a reply that beat the kill is ignored;
                    # the call stays pending until the EOF strands it.
                    continue
                pending = self._pending.pop(token, None)
            if pending is not None:
                pending.complete(envelope)
        # The pipe closed: orderly shutdown, a superseded generation, or
        # a crash. Only the crash respawns and fails the in-flight calls.
        with self._lock:
            if self._closed or generation != self._generation:
                return
            stranded = list(self._pending.values())
            self._pending.clear()
            self._faulted.clear()
            self.restarts += 1
            self._spawn_locked()
        self._m_respawns.inc()
        if stranded:
            self._m_crashed.inc(len(stranded))
        for pending in stranded:
            pending.complete(
                error_response(
                    pending.request_id,
                    "WorkerCrashed",
                    f"worker {self.index} exited while handling the request; "
                    "it has been restarted — reopen the session and retry",
                )
            )

    def stats(self) -> dict:
        """Process-level counters (requests, restarts, liveness)."""
        with self._lock:
            return {
                "worker": self.index,
                "pid": self.process.pid if self.process else None,
                "alive": self.alive,
                "requests": self.requests,
                "restarts": self.restarts,
                "in_flight": len(self._pending),
                "draining": self.draining,
            }


class WorkerPool:
    """N workers, one handle each, addressed by index.

    The pool knows nothing about routing — the
    :class:`~repro.service.router.RoutingDispatcher` decides which index
    serves which dataset/session; the pool just moves envelopes.
    """

    def __init__(
        self,
        n_workers: int,
        catalog_factory: Callable[[], DatasetCatalog] | None = None,
        config=None,
        max_sessions: int = 64,
        ttl_seconds: float | None = None,
        call_timeout: float | None = DEFAULT_CALL_TIMEOUT,
    ):
        if n_workers < 1:
            raise ServiceError("n_workers must be >= 1")
        check_limits(max_sessions, ttl_seconds)
        self.start_method = (
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        ctx = multiprocessing.get_context(self.start_method)
        self.workers = [
            WorkerHandle(
                index,
                ctx,
                catalog_factory=catalog_factory,
                config=config,
                max_sessions=max_sessions,
                ttl_seconds=ttl_seconds,
                call_timeout=call_timeout,
            )
            for index in range(n_workers)
        ]

    def __len__(self) -> int:
        return len(self.workers)

    def call(self, index: int, message: dict, timeout: float | None = None) -> dict:
        """One request to one worker; always returns an envelope."""
        return self.workers[index].call(message, timeout=timeout)

    async def call_async(self, index: int, message: dict, **kwargs) -> dict:
        """:meth:`call` on a thread of the running loop's executor.

        The server reaches workers through the router's blocking path;
        this awaitable name stays for the bench's layer tracer
        (``bench/tracing.py``), which wraps it.
        """
        return await asyncio.to_thread(self.call, index, message, **kwargs)

    def stats(self) -> list[dict]:
        """Per-worker process counters, in worker order."""
        return [worker.stats() for worker in self.workers]

    def close(self) -> None:
        """Shut every worker down, two-phase.

        Every handle latches its closed flag *before* any handle is
        joined: a worker that crashes while an earlier sibling is being
        reaped finds its own respawn guard already up, so pool close can
        never leak a freshly respawned orphan process.
        """
        for worker in self.workers:
            worker.request_close()
        for worker in self.workers:
            worker.reap()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

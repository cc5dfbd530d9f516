"""The DBWipes server: JSON lines over TCP through one asyncio gateway.

One event loop accepts connections and parses frames, so thousands of
idle or slow clients cost file descriptors, not threads. Every command
then runs through the dispatcher's ``handle_async`` — ``handle`` on a
thread of one bounded executor. Two dispatchers exist:

* :class:`~repro.service.handlers.LocalDispatcher` (``workers=0``): one
  :class:`~repro.service.sessions.SessionManager` in this process;
* :class:`~repro.service.router.RoutingDispatcher` (``workers=N``): the
  router sends session commands to N worker processes by a fixed
  hash of the dataset id, so each worker's caches stay hot for its
  shard of the catalog.

On top of either, the gateway keeps an explicit capacity model:

* **cheap commands** (:data:`~repro.service.handlers.CHEAP_COMMANDS`:
  ``ping``/``stats``/``sessions``/``metrics``/``trace``/...) skip
  admission and run on executor threads reserved for them
  (:data:`CHEAP_LANE_THREADS`), so they stay fast no matter how
  saturated the heavy lane is;
* **heavy commands** (anything that runs the pipeline, touches a dataset
  or takes a session lock) pass *admission control*: at most
  ``max_inflight`` execute at once and at most ``max_queue`` wait for a
  slot;
* **everything beyond that is shed**, immediately, with a structured
  ``ServerBusy`` envelope carrying ``retry_after`` — an EWMA over the
  per-stage timing counters of recently served requests (see
  ``protocol.busy_response``) — instead of silent unbounded queue growth;
* **per-client token buckets** (``rate``/``burst``) bound any single
  connection's heavy-command rate before it reaches the shared queue.

Whatever the lane, each request line gets exactly one response line:
its envelope.

Dependency-free by design: ``asyncio``, ``concurrent.futures`` and
``multiprocessing`` from the standard library plus the repo's own
session/pipeline code — nothing to install, so the demo serves from any
laptop.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor

from ..errors import ServiceError
from ..obs import trace as obs_trace
from ..obs.flags import enabled as obs_enabled
from ..obs.metrics import registry as obs_registry
from .handlers import CHEAP_COMMANDS, LocalDispatcher
from .protocol import (
    MAX_LINE_BYTES,
    busy_response,
    decode_line,
    encode,
    error_response,
)
from .sessions import SessionManager

#: Fallback heavy-request service time (seconds) before the EWMA has a
#: sample — only used for the very first shed's ``retry_after``.
DEFAULT_SERVICE_SECONDS = 0.05

#: ``retry_after`` is clamped into this range: long enough to matter,
#: short enough that a well-behaved client retries within the demo.
MIN_RETRY_AFTER = 0.01
MAX_RETRY_AFTER = 5.0

#: Auto-tuned admission: bound the convoy delay a newly admitted heavy
#: request sits behind (``inflight × EWMA service time``) to roughly this
#: many seconds. Fast workloads widen the gate; slow ones narrow it.
AUTO_TARGET_DELAY_SECONDS = 2.0

#: Auto-tuned ``max_inflight`` stays inside these bounds (the upper one
#: additionally capped by CPU count — see ``_auto_cap``).
AUTO_MIN_INFLIGHT = 1
AUTO_MAX_INFLIGHT = 16

#: Where an auto-tuned gateway starts before the first EWMA sample.
AUTO_START_INFLIGHT = 4

#: Executor threads beyond the gate's widest setting, left free for the
#: cheap lane while every heavy slot is busy.
CHEAP_LANE_THREADS = 4

#: How long ``stop`` lets a connection's handler finish its in-flight
#: request before the loop exits (under ``stop``'s 10 s thread join).
STOP_GRACE_SECONDS = 5.0


def _auto_cap() -> int:
    """Ceiling for the auto-tuned gate: 2× cores, in [4, AUTO_MAX]."""
    cores = os.cpu_count() or 1
    return max(4, min(AUTO_MAX_INFLIGHT, 2 * cores))


class _AdmissionGate:
    """A counting gate whose limit can change while coroutines wait.

    ``asyncio.Semaphore`` bakes its count in at construction; auto-tuning
    needs to widen or narrow admission *while requests are queued*, so
    this keeps an explicit waiter deque and an adjustable ``limit``.
    Everything runs on the event loop — no locks. Narrowing never
    revokes in-flight work; the excess drains as requests finish.
    """

    def __init__(self, limit: int):
        self.limit = max(1, int(limit))
        self.inflight = 0
        self._waiters: deque[asyncio.Future] = deque()

    async def acquire(self) -> None:
        if self.inflight < self.limit:
            self.inflight += 1
            return
        future = asyncio.get_running_loop().create_future()
        self._waiters.append(future)
        try:
            await future
        except asyncio.CancelledError:
            if future.done() and not future.cancelled():
                # Granted and cancelled in the same tick: return the slot.
                self.release()
            raise

    def release(self) -> None:
        self.inflight -= 1
        self._wake()

    def set_limit(self, limit: int) -> None:
        self.limit = max(1, int(limit))
        self._wake()

    def _wake(self) -> None:
        while self._waiters and self.inflight < self.limit:
            future = self._waiters.popleft()
            if future.done():
                continue
            self.inflight += 1
            future.set_result(None)


class TokenBucket:
    """A classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Heavy commands cost one token each; cheap commands are free. Runs
    entirely on the event loop, so no locking is needed.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic):
        self.check(rate, burst)
        self.rate = float(rate)
        self.capacity = float(burst)
        self.tokens = float(burst)
        self._clock = clock
        self._last = clock()

    @staticmethod
    def check(rate: float, burst: float) -> None:
        """Refuse a bucket that could never hand out a token."""
        if not rate > 0:
            raise ServiceError("rate must be positive")
        if not burst >= 1:
            raise ServiceError("burst must be >= 1")

    def _refill(self) -> None:
        now = self._clock()
        self.tokens = min(self.capacity, self.tokens + (now - self._last) * self.rate)
        self._last = now

    def try_take(self, n: float = 1.0) -> bool:
        """Spend ``n`` tokens if available; never blocks."""
        self._refill()
        if self.tokens >= n:
            self.tokens -= n
            return True
        return False

    def seconds_until(self, n: float = 1.0) -> float:
        """How long until ``n`` tokens will have accumulated."""
        self._refill()
        deficit = n - self.tokens
        return max(0.0, deficit / self.rate)


class DBWipesServer:
    """The serving tier: many sessions, one port — one process or many.

    >>> server = DBWipesServer(port=0)      # 0 = pick a free port
    >>> host, port = server.start()         # the loop runs in a thread
    >>> ...                                 # clients connect
    >>> server.stop()

    ``workers=N`` (N >= 1) swaps the in-process
    :class:`~repro.service.sessions.SessionManager` for a
    :class:`~repro.service.workers.WorkerPool` behind a
    :class:`~repro.service.router.RoutingDispatcher`. In that mode
    ``manager`` is ``None``; ``catalog_factory``, ``config``,
    ``max_sessions`` and ``ttl_seconds`` configure every worker's own
    manager instead. In process, ``max_sessions`` and ``ttl_seconds``
    configure the manager built when none is given. The gateway knobs:

    ``max_inflight``
        Heavy commands executing at once. The GIL makes a *small* bound
        fastest. ``None`` (the default) auto-tunes: the gate is resized
        after each heavy completion so that ``inflight × EWMA service
        time`` stays near :data:`AUTO_TARGET_DELAY_SECONDS`, clamped to
        ``[AUTO_MIN_INFLIGHT, 2 × cores ≤ AUTO_MAX_INFLIGHT]``. Passing
        an integer pins the gate (the ``--max-inflight`` override).
    ``max_queue``
        Heavy commands allowed to wait for a slot; one more is shed.
    ``rate`` / ``burst``
        Per-connection token bucket on heavy commands; ``rate=None``
        disables rate limiting, and ``burst`` defaults to
        ``max(1, 2 × rate)``.

    Every value is checked here, before the port is bound or a worker
    is spawned: a bad one raises :class:`~repro.errors.ServiceError`.
    """

    def __init__(
        self,
        manager: SessionManager | None = None,
        host: str = "127.0.0.1",
        port: int = 8642,
        workers: int = 0,
        catalog_factory=None,
        config=None,
        max_sessions: int = 64,
        ttl_seconds: float | None = None,
        max_inflight: int | None = None,
        max_queue: int = 32,
        rate: float | None = None,
        burst: float | None = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ServiceError("max_inflight must be >= 1 (or None to auto-tune)")
        if max_queue < 0:
            raise ServiceError("max_queue must be >= 0")
        if workers < 0:
            raise ServiceError("workers must be >= 0 (0 serves in process)")
        if burst is None:
            burst = max(1.0, 2.0 * (rate or 0.0))
        if rate is not None:
            TokenBucket.check(rate, burst)
        self.rate = rate
        self.burst = float(burst)
        self.host = host
        self.port = port
        #: Whether the gate resizes itself from the service-time EWMA.
        self.auto_inflight = max_inflight is None
        #: The widest the gate can get: the executor holds this many
        #: heavy threads plus :data:`CHEAP_LANE_THREADS`.
        self._inflight_cap = (
            _auto_cap() if self.auto_inflight else int(max_inflight)
        )
        self.max_inflight = (
            min(AUTO_START_INFLIGHT, self._inflight_cap)
            if self.auto_inflight
            else self._inflight_cap
        )
        self.max_queue = int(max_queue)
        if workers > 0:
            from .router import RoutingDispatcher
            from .workers import WorkerPool

            self.manager = None
            self.dispatcher = RoutingDispatcher(
                WorkerPool(
                    int(workers),
                    catalog_factory=catalog_factory,
                    config=config,
                    max_sessions=max_sessions,
                    ttl_seconds=ttl_seconds,
                )
            )
        else:
            if manager is None:
                manager = SessionManager(
                    max_sessions=max_sessions, ttl_seconds=ttl_seconds
                )
            self.manager = manager
            self.dispatcher = LocalDispatcher(manager)

        # Admission state — touched only from the event loop.
        self._inflight = 0
        self._waiting = 0
        self._ewma_heavy_seconds: float | None = None
        self._shed_count = 0

        self._loop: asyncio.AbstractEventLoop | None = None
        self._gate: _AdmissionGate | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        self._bound: tuple[str, int] | None = None
        #: Open connections: handler task -> writer (touched only from
        #: the event loop).
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

        reg = obs_registry()
        self._g_inflight = reg.gauge(
            "dbwipes_gateway_inflight",
            help="Heavy commands currently executing in the async gateway.",
        )
        self._g_queue = reg.gauge(
            "dbwipes_gateway_queue_depth",
            help="Heavy commands waiting for an admission slot.",
        )
        self._m_shed_queue = reg.counter(
            "dbwipes_shed_total",
            labels={"reason": "queue_full"},
            help="Requests shed by the async gateway, by reason.",
        )
        self._m_shed_rate = reg.counter(
            "dbwipes_shed_total",
            labels={"reason": "rate_limited"},
            help="Requests shed by the async gateway, by reason.",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolved even when created with port 0."""
        if self._bound is None:
            raise ServiceError("server is not started")
        return self._bound

    def start(self) -> tuple[str, int]:
        """Run the event loop in a daemon thread; returns the address."""
        if self._thread is None:
            self._started.clear()
            self._startup_error = None
            self._thread = threading.Thread(
                target=self._run_loop,
                name="dbwipes-server",
                daemon=True,
            )
            self._thread.start()
            self._started.wait(timeout=30)
            if self._startup_error is not None:
                error = self._startup_error
                self._thread.join(timeout=5)
                self._thread = None
                raise ServiceError(f"server failed to start: {error}")
        assert self._bound is not None
        return self._bound

    def join(self) -> None:
        """Block until the serving thread exits (pair with :meth:`start`)."""
        if self._thread is not None:
            self._thread.join()

    def stop(self) -> None:
        """Stop accepting, drain the loop, stop workers."""
        loop = self._loop
        if loop is not None and self._stop_event is not None:
            try:
                loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.dispatcher.close()

    def __enter__(self) -> "DBWipesServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 — surfaced via start()
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()
            else:
                raise

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._gate = _AdmissionGate(self.max_inflight)
        self._stop_event = asyncio.Event()
        # ``asyncio.to_thread`` (each dispatcher's ``handle_async``) runs
        # on the loop's default executor: the widest gate plus the cheap
        # lane, so an auto-tuned gate never outruns its threads.
        executor = ThreadPoolExecutor(
            max_workers=self._inflight_cap + CHEAP_LANE_THREADS,
            thread_name_prefix="dbwipes-exec",
        )
        self._loop.set_default_executor(executor)
        server = await asyncio.start_server(
            self._serve_connection,
            self.host,
            self.port,
            # One full protocol line must fit the stream buffer; the +2
            # leaves readline room to distinguish "too long" from "fits".
            limit=MAX_LINE_BYTES + 2,
            # Hundreds of simultaneous connects must queue, not get
            # kernel RSTs.
            backlog=512,
        )
        sockname = server.sockets[0].getsockname()
        self._bound = (str(sockname[0]), int(sockname[1]))
        self._started.set()
        try:
            async with server:
                await self._stop_event.wait()
                # End every connection's handler before the loop exits:
                # asyncio.run would cancel it, and on Python 3.11 the
                # stream's done-callback (``task.exception()``) logs a
                # traceback for a cancelled handler. A closed writer makes
                # an idle handler's readline see EOF; a busy one finishes
                # its request first, for at most STOP_GRACE_SECONDS.
                server.close()
                for writer in self._connections.values():
                    writer.close()
                if self._connections:
                    await asyncio.wait(
                        list(self._connections), timeout=STOP_GRACE_SECONDS
                    )
        finally:
            executor.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------
    # per-connection protocol loop
    # ------------------------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        bucket = (
            TokenBucket(self.rate, self.burst) if self.rate is not None else None
        )
        handler = asyncio.current_task()
        self._connections[handler] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    # readline wraps a line-too-long overrun in ValueError.
                    await self._write(
                        writer,
                        error_response(
                            None,
                            "ProtocolError",
                            f"request line exceeds {MAX_LINE_BYTES} bytes "
                            "or is truncated; closing connection",
                        ),
                    )
                    return
                except (ConnectionError, OSError):
                    return
                if not line:
                    return  # client closed the connection
                if not line.endswith(b"\n"):
                    # EOF mid-line: nothing more will resynchronize it.
                    return
                if len(line) > MAX_LINE_BYTES:
                    await self._write(
                        writer,
                        error_response(
                            None,
                            "ProtocolError",
                            f"request line exceeds {MAX_LINE_BYTES} bytes "
                            "or is truncated; closing connection",
                        ),
                    )
                    return
                if line.strip() == b"":
                    continue
                envelope = await self._respond_to(line, bucket)
                if not await self._write(writer, envelope):
                    return
        finally:
            del self._connections[handler]
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _write(self, writer: asyncio.StreamWriter, response: dict) -> bool:
        data = encode(response)
        if len(data) > MAX_LINE_BYTES:
            # Never emit a line the client cannot frame; tell it to
            # request less instead.
            data = encode(
                error_response(
                    response.get("id"),
                    "ProtocolError",
                    f"response exceeds {MAX_LINE_BYTES} bytes; "
                    "request fewer rows/points (max_rows / max_points)",
                )
            )
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return True

    async def _respond_to(self, line: bytes, bucket: TokenBucket | None) -> dict:
        try:
            message = decode_line(line)
        except Exception as error:
            return error_response(None, type(error).__name__, str(error))
        request_id = message.get("id") if isinstance(message, dict) else None
        cmd = message.get("cmd") if isinstance(message, dict) else None

        if isinstance(cmd, str) and cmd in CHEAP_COMMANDS:
            # Cheap lane: skips admission, so liveness and telemetry stay
            # observable under overload, which is exactly when they matter.
            return await self._handle_cheap(message, request_id, cmd)
        return await self._handle_heavy(message, request_id, cmd, bucket)

    # ------------------------------------------------------------------
    # the two lanes
    # ------------------------------------------------------------------

    async def _run(self, message: dict, request_id) -> dict:
        """One request through the dispatcher on an executor thread."""
        try:
            return await self.dispatcher.handle_async(message)
        except RuntimeError:
            # The executor shut down under the request (server stopping).
            return error_response(
                request_id, "ServiceError", "server is shutting down"
            )

    async def _handle_cheap(self, message: dict, request_id, cmd) -> dict:
        envelope = await self._run(message, request_id)
        if (
            cmd == "stats"
            and envelope.get("ok")
            and isinstance(envelope.get("result"), dict)
        ):
            # The gateway's admission state lives on this loop, not in
            # any session manager — graft it into the stats snapshot so
            # clients can see the (possibly auto-tuned) gate width.
            envelope["result"]["gateway"] = self.gateway_stats()
        return envelope

    async def _handle_heavy(
        self, message: dict, request_id, cmd, bucket: TokenBucket | None
    ) -> dict:
        if bucket is not None and not bucket.try_take(1.0):
            self._shed_count += 1
            if obs_enabled():
                self._m_shed_rate.inc()
            return busy_response(
                request_id,
                "rate limit exceeded for this connection; slow down",
                max(MIN_RETRY_AFTER, min(MAX_RETRY_AFTER, bucket.seconds_until(1.0))),
            )
        if self._inflight >= self.max_inflight and self._waiting >= self.max_queue:
            self._shed_count += 1
            if obs_enabled():
                self._m_shed_queue.inc()
            return busy_response(
                request_id,
                f"server at capacity ({self._inflight} in flight, "
                f"{self._waiting} queued); retry shortly",
                self._retry_after(),
            )
        assert self._gate is not None
        self._waiting += 1
        if obs_enabled():
            self._g_queue.set(float(self._waiting))
        trace_id, parent_id = obs_trace.from_wire(message)
        with obs_trace.span(
            "gateway.admit", trace_id=trace_id, parent_id=parent_id
        ) as span:
            span.set(queued=self._waiting, inflight=self._inflight)
            await self._gate.acquire()
        self._waiting -= 1
        self._inflight += 1
        if obs_enabled():
            self._g_queue.set(float(self._waiting))
            self._g_inflight.set(float(self._inflight))
        start = time.perf_counter()
        try:
            envelope = await self._run(message, request_id)
        finally:
            self._inflight -= 1
            self._gate.release()
            if obs_enabled():
                self._g_inflight.set(float(self._inflight))
        self._observe_heavy(cmd, envelope, time.perf_counter() - start)
        return envelope

    # ------------------------------------------------------------------
    # the shedding signal
    # ------------------------------------------------------------------

    def _observe_heavy(self, cmd, envelope: dict, wall_seconds: float) -> None:
        """Feed the retry_after EWMA from the request just served.

        Uses the per-stage timing counters when the response carries
        them (``debug`` reports their sum — the dominant cost under
        load) and the gateway-observed wall time otherwise.
        """
        seconds = wall_seconds
        if cmd == "debug" and envelope.get("ok"):
            result = envelope.get("result")
            timings = result.get("timings") if isinstance(result, dict) else None
            if isinstance(timings, dict):
                stage_sum = sum(
                    float(v)
                    for v in timings.values()
                    if isinstance(v, (int, float))
                )
                if stage_sum > 0:
                    seconds = stage_sum
        previous = self._ewma_heavy_seconds
        self._ewma_heavy_seconds = (
            seconds if previous is None else 0.2 * seconds + 0.8 * previous
        )
        if self.auto_inflight:
            self._retune_gate()

    def _retune_gate(self) -> None:
        """Resize admission so backlog drain time tracks the target.

        With an EWMA service time of *s* seconds, admitting *n* at once
        means a newly admitted request waits roughly ``n × s`` behind the
        GIL / worker pool. Solve for the *n* that keeps that near
        :data:`AUTO_TARGET_DELAY_SECONDS`: fast requests widen the gate
        (more concurrency costs little), slow ones narrow it toward
        serial execution (where each finishes soonest). Clamped to
        ``[AUTO_MIN_INFLIGHT, cap]``; the executor was sized to the cap
        up front, so widening never outruns the thread pool.
        """
        ewma = self._ewma_heavy_seconds
        if ewma is None or self._gate is None:
            return
        target = int(AUTO_TARGET_DELAY_SECONDS / max(ewma, 1e-4))
        target = max(AUTO_MIN_INFLIGHT, min(self._inflight_cap, target))
        if target != self.max_inflight:
            self.max_inflight = target
            self._gate.set_limit(target)

    def _retry_after(self) -> float:
        """Suggested backoff: expected backlog drain time, clamped."""
        base = (
            self._ewma_heavy_seconds
            if self._ewma_heavy_seconds is not None
            else DEFAULT_SERVICE_SECONDS
        )
        backlog = self._waiting + self._inflight + 1
        estimate = base * backlog / max(1, self.max_inflight)
        return max(MIN_RETRY_AFTER, min(MAX_RETRY_AFTER, estimate))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def gateway_stats(self) -> dict:
        """Loop-side admission counters (racy reads, fine for tests)."""
        return {
            "max_inflight": self.max_inflight,
            "auto_inflight": self.auto_inflight,
            "max_queue": self.max_queue,
            "inflight": self._inflight,
            "waiting": self._waiting,
            "shed": self._shed_count,
            "ewma_heavy_seconds": self._ewma_heavy_seconds,
        }

"""A blocking JSON-line client for the DBWipes service.

:class:`ServiceClient` owns one TCP connection and one session name; its
methods mirror :class:`~repro.frontend.session.DBWipesSession` so a
local script ports to the service by swapping the object::

    with ServiceClient(host, port, session="alice") as client:
        client.open("fec")
        client.execute(client.bootstrap)
        client.select_results(brush={"below": 0.0})
        client.zoom()
        client.select_inputs(brush={"below": 0.0})
        client.set_metric("too_low", threshold=0.0)
        report = client.debug()
        client.apply(0)

Server-reported failures raise :class:`~repro.errors.ServiceError`
whose ``kind`` is the server-side exception class name. A request
argument that is NaN or ±inf raises
:class:`~repro.errors.ProtocolError` before anything is sent.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Callable

from ..errors import ProtocolError, ServiceError
from .protocol import MAX_LINE_BYTES, decode_line, encode, refuse_non_finite

#: Error kinds :meth:`ServiceClient.call_with_retry` treats as
#: transient. ``ServerBusy`` is load shedding (honour its
#: ``retry_after``); ``WorkerCrashed``/``WorkerTimeout`` escape to the
#: client only when the router exhausted failover (or runs without a
#: journal tier), and the worker has been respawned by the time the
#: error arrives — a short backoff and a retry usually succeeds.
RETRYABLE_KINDS = frozenset({"ServerBusy", "WorkerCrashed", "WorkerTimeout"})


class ServiceClient:
    """One connection + one (optional) default session name."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8642,
        session: str | None = None,
        timeout: float | None = 60.0,
    ):
        self.host = host
        self.port = port
        self.session = session
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._rfile = None
        self._next_id = 0
        #: The dataset's suggested first query, filled in by :meth:`open`.
        self.bootstrap: str | None = None
        #: Trace id of the most recent response (server-stamped), so a
        #: ``debug()`` can be followed by ``trace(client.last_trace)``.
        self.last_trace: str | None = None

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def connect(self) -> "ServiceClient":
        """Open the TCP connection (idempotent)."""
        if self._sock is None:
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as error:
                raise self._failed(error)
            self._rfile = self._sock.makefile("rb")
        return self

    def _failed(self, error: OSError) -> ServiceError:
        """Close the connection; the error to raise for ``error``."""
        self.close()
        return ServiceError(f"connection to {self.host}:{self.port} failed: {error}")

    def close(self) -> None:
        """Close the connection (the server keeps the session alive)."""
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the protocol
    # ------------------------------------------------------------------

    def call(self, cmd: str, session: str | None = None, **args: Any) -> Any:
        """Send one request and block for its response's ``result``."""
        return self._unwrap(self._receive(self._send(cmd, session, args)))

    def call_with_retry(
        self,
        cmd: str,
        session: str | None = None,
        retries: int = 4,
        base_backoff: float = 0.05,
        max_backoff: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
        rng: random.Random | None = None,
        **args: Any,
    ) -> Any:
        """Like :meth:`call`, but retries transient failures with
        jittered exponential backoff.

        Retries every kind in :data:`RETRYABLE_KINDS` for up to
        ``retries`` additional attempts. The schedule is
        ``base_backoff * 2**attempt`` capped at ``max_backoff``, with
        ±50% jitter so synchronized clients spread out; a server-sent
        ``retry_after`` hint (ServerBusy load shedding) raises the
        floor when it asks for a longer wait. ``sleep`` and ``rng`` are
        injectable so tests can pin the schedule with a fake clock.
        """
        if rng is None:
            rng = random.Random()
        attempt = 0
        while True:
            try:
                return self.call(cmd, session=session, **args)
            except ServiceError as error:
                if error.kind not in RETRYABLE_KINDS or attempt >= retries:
                    raise
                delay = min(max_backoff, base_backoff * (2**attempt))
                delay *= 0.5 + rng.random()  # jitter in [0.5x, 1.5x)
                hint = error.retry_after
                if hint is not None:
                    try:
                        delay = max(delay, float(hint))
                    except (TypeError, ValueError):
                        pass
                sleep(delay)
                attempt += 1

    def _send(self, cmd: str, session: str | None, args: dict[str, Any]) -> int:
        self.connect()
        assert self._sock is not None and self._rfile is not None
        self._next_id += 1
        request_id = self._next_id
        request: dict[str, Any] = {"id": request_id, "cmd": cmd}
        target = session if session is not None else self.session
        if target is not None:
            request["session"] = target
        if args:
            refuse_non_finite(args)
            request["args"] = args
        payload = encode(request)
        if len(payload) > MAX_LINE_BYTES:
            # Sending it would desync the line framing on both ends.
            raise ProtocolError(
                f"request exceeds {MAX_LINE_BYTES} bytes; send fewer values"
            )
        try:
            self._sock.sendall(payload)
        except OSError as error:
            raise self._failed(error)
        return request_id

    def _receive(self, request_id: int) -> dict:
        assert self._rfile is not None
        try:
            line = self._rfile.readline(MAX_LINE_BYTES + 1)
        except OSError as error:
            raise self._failed(error)
        if not line:
            self.close()
            raise ServiceError("server closed the connection")
        if not line.endswith(b"\n"):
            # Truncated response: the stream cannot be re-framed.
            self.close()
            raise ProtocolError(
                f"response exceeds {MAX_LINE_BYTES} bytes or was truncated; "
                "connection closed"
            )
        response = decode_line(line)
        if response.get("id") != request_id:
            # The connection still has a response framed for some other
            # id; any later call() would silently consume it and return
            # the wrong result. Drop the connection so the next call
            # starts on a clean stream (mirrors the truncated-line path).
            self.close()
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id}; connection closed"
            )
        return response

    def _unwrap(self, response: dict) -> Any:
        trace = response.get("trace")
        if isinstance(trace, str):
            self.last_trace = trace
        if response.get("ok"):
            return response.get("result")
        error = response.get("error") or {}
        raise ServiceError(
            str(error.get("message", "unknown server error")),
            kind=error.get("kind"),
            retry_after=error.get("retry_after"),
        )

    # ------------------------------------------------------------------
    # convenience wrappers (mirror DBWipesSession)
    # ------------------------------------------------------------------

    def ping(self) -> dict:
        """Liveness + protocol version."""
        return self.call("ping")

    def stats(self) -> dict:
        """Server counters (sessions, evictions, preprocess cache)."""
        return self.call("stats")

    def sessions(self) -> list[dict]:
        """Summaries of every live session."""
        return self.call("sessions")["sessions"]

    def metrics(self) -> dict:
        """The cluster-merged telemetry registry snapshot."""
        return self.call("metrics")

    def trace(self, trace_id: str | None = None) -> dict:
        """One trace's spans + tree (defaults to the most recent trace)."""
        return self.call("trace", trace_id=trace_id)

    def recover(self, session: str | None = None) -> dict:
        """Replay a journaled session on its owning worker."""
        target = session if session is not None else self.session
        if not target:
            raise ServiceError("no session name set; pass session=...")
        return self.call("recover", session=target)

    def drain(
        self, worker: int, deadline: float = 5.0, restart: bool = False
    ) -> dict:
        """Gracefully drain one worker (optionally restarting it)."""
        return self.call(
            "drain", worker=worker, deadline=deadline, restart=restart
        )

    def open(self, dataset: str, session: str | None = None) -> dict:
        """Open (or rejoin) this client's session on a dataset."""
        if session is not None:
            self.session = session
        if not self.session:
            raise ServiceError("no session name set; pass session=...")
        result = self.call("open", dataset=dataset, name=self.session)
        self.bootstrap = result.get("bootstrap")
        return result

    def close_session(self) -> dict:
        """Tear down the server-side session."""
        return self.call("close")

    def execute(self, sql: str, max_rows: int | None = 200) -> dict:
        """Run a new query."""
        return self.call("execute", sql=sql, max_rows=max_rows)

    def result(self, max_rows: int | None = 200) -> dict:
        """Re-fetch the current result."""
        return self.call("result", max_rows=max_rows)

    def render(self, width: int = 72, height: int = 14, y: str | None = None) -> str:
        """The server-rendered ASCII scatterplot."""
        return self.call("render", width=width, height=height, y=y)["text"]

    def select_results(
        self,
        rows: list[int] | None = None,
        brush: dict | list[dict] | None = None,
        x: str | None = None,
        y: str | None = None,
    ) -> list[int]:
        """Brush (or list) the suspicious output rows S."""
        return self.call(
            "select_results", rows=rows, brush=brush, x=x, y=y
        )["selected_rows"]

    def zoom(
        self,
        x: str | None = None,
        y: str | None = None,
        max_points: int | None = 2000,
    ) -> dict:
        """Zoom into the input tuples behind S."""
        return self.call("zoom", x=x, y=y, max_points=max_points)

    def select_inputs(
        self, tids: list[int] | None = None, brush: dict | list[dict] | None = None
    ) -> list[int]:
        """Brush (or list) the suspicious input tuples D'."""
        return self.call("select_inputs", tids=tids, brush=brush)["dprime"]

    def error_form(self, agg: str | None = None) -> list[dict]:
        """The error-metric options for the debugged aggregate."""
        return self.call("error_form", agg=agg)["options"]

    def set_metric(self, form: str, agg: str | None = None, **params: float) -> str:
        """Choose the error metric ε by form id."""
        return self.call("set_metric", form=form, agg=agg, params=params)["metric"]

    def debug(self, agg: str | None = None, max_rows: int | None = None) -> dict:
        """Run ranked provenance; returns the report payload."""
        return self.call("debug", agg=agg, max_rows=max_rows)

    def apply(self, index: int, max_rows: int | None = 200) -> dict:
        """Click the ranked predicate at 0-based ``index``."""
        return self.call("apply", index=index, max_rows=max_rows)

    def undo(self, max_rows: int | None = 200) -> dict:
        """Undo the most recent cleaning."""
        return self.call("undo", max_rows=max_rows)

    def redo(self, max_rows: int | None = 200) -> dict:
        """Re-apply the most recently undone cleaning."""
        return self.call("redo", max_rows=max_rows)

    def sql(self) -> str:
        """The session's current query text."""
        return self.call("sql")["sql"]

    def snapshot(self) -> dict:
        """The session's state snapshot."""
        return self.call("snapshot")

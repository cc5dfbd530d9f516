"""The concurrent DBWipes server: JSON lines over TCP.

A thread-per-connection :class:`socketserver.ThreadingTCPServer` whose
handler reads newline-delimited JSON requests and hands each to a
*dispatcher* (see :mod:`repro.service.protocol` for the wire format).
Two dispatchers exist:

* :class:`~repro.service.handlers.LocalDispatcher` (``workers=0``) —
  the original single-process mode: one
  :class:`~repro.service.sessions.SessionManager` in this process.
* :class:`~repro.service.router.RoutingDispatcher` (``workers=N``) —
  the multi-worker serving tier: the front end routes session commands
  to N worker processes by consistent hash of the dataset id, so each
  worker's caches stay hot for its shard of the catalog.

Dependency-free by design: the standard library's ``socketserver`` and
``multiprocessing`` plus the repo's own session/pipeline code — nothing
to install, so the demo serves from any laptop.
"""

from __future__ import annotations

import socket
import socketserver
import threading

from .handlers import LocalDispatcher
from .protocol import (
    MAX_LINE_BYTES,
    decode_line,
    encode,
    error_response,
    partial_response,
)
from .sessions import SessionManager


class _RequestHandler(socketserver.StreamRequestHandler):
    """One client connection: a loop of (read line, dispatch, write line)."""

    server: "_TCPServer"

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        while True:
            try:
                line = self.rfile.readline(MAX_LINE_BYTES + 1)
            except (ConnectionError, OSError):
                return
            if not line:
                return  # client closed the connection
            if not line.endswith(b"\n"):
                # Oversized (truncated by the readline limit) or a partial
                # final line: the stream cannot be resynchronized to the
                # next request boundary, so report and close — never parse
                # the remainder as if it were a fresh request.
                self._write(
                    error_response(
                        None,
                        "ProtocolError",
                        f"request line exceeds {MAX_LINE_BYTES} bytes "
                        "or is truncated; closing connection",
                    )
                )
                return
            if line.strip() == b"":
                continue
            if not self._write(self._respond_to(line)):
                return

    def _write(self, response: dict) -> bool:
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
            self.wfile.write(data)
            self.wfile.flush()
        except (ConnectionError, OSError):
            return False
        return True

    def _respond_to(self, line: bytes) -> dict:
        try:
            message = decode_line(line)
        except Exception as error:
            return error_response(None, type(error).__name__, str(error))
        dispatcher = self.server.dispatcher
        emit = None
        if getattr(dispatcher, "supports_streaming", False):
            args = message.get("args") if isinstance(message, dict) else None
            if isinstance(args, dict) and args.get("stream"):
                emit = self._make_emit(message.get("id"))
        return dispatcher.handle(message, emit)

    def _make_emit(self, request_id):
        """A partial-frame writer for one streamed request.

        Partials are written as they arrive (possibly from a worker
        handle's reader thread) strictly before the dispatcher returns
        the terminating envelope, so frame order on the wire matches
        emit order. A client that went away mid-stream is tolerated —
        the final write in :meth:`_write` reports the broken pipe.
        """

        def emit(seq: int, payload: dict) -> None:
            try:
                data = encode(partial_response(request_id, seq, payload))
                if len(data) > MAX_LINE_BYTES:
                    return  # skip the frame; the final envelope decides
                self.wfile.write(data)
                self.wfile.flush()
            except (ConnectionError, OSError):
                pass

        return emit


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    # socketserver's default listen backlog is 5: a hundred clients
    # connecting at once get kernel RSTs before accept() ever runs.
    request_queue_size = 512

    def __init__(self, address: tuple[str, int], dispatcher):
        super().__init__(address, _RequestHandler)
        self.dispatcher = dispatcher


class DBWipesServer:
    """The serving tier: many sessions, one port — one process or many.

    >>> server = DBWipesServer(port=0)      # 0 = pick a free port
    >>> host, port = server.start()         # background thread
    >>> ...                                 # clients connect
    >>> server.stop()

    ``workers=N`` (N >= 1) swaps the in-process
    :class:`~repro.service.sessions.SessionManager` for a
    :class:`~repro.service.workers.WorkerPool` behind a
    :class:`~repro.service.router.RoutingDispatcher` — each worker owns
    a catalog shard by consistent hash of the dataset id. In that mode
    ``manager`` is ignored (``None``); ``catalog_factory``, ``config``,
    ``max_sessions``, and ``ttl_seconds`` configure every worker's own
    manager instead. ``serve_forever()`` is the blocking entry used by
    ``python -m repro serve``.
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
    ):
        self.pool = None
        if workers and int(workers) > 0:
            from .router import RoutingDispatcher
            from .workers import WorkerPool

            self.manager = None
            self.pool = WorkerPool(
                int(workers),
                catalog_factory=catalog_factory,
                config=config,
                max_sessions=max_sessions,
                ttl_seconds=ttl_seconds,
            )
            self.dispatcher = RoutingDispatcher(self.pool)
        else:
            self.manager = manager if manager is not None else SessionManager()
            self.dispatcher = LocalDispatcher(self.manager)
        self._server = _TCPServer((host, port), self.dispatcher)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolved even when created with port 0."""
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        """Serve from a daemon thread; returns the bound address."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="dbwipes-server",
                daemon=True,
            )
            self._thread.start()
        return self.address

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`stop` or interrupt."""
        self._server.serve_forever()

    def stop(self) -> None:
        """Stop accepting connections, release the socket, stop workers."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "DBWipesServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def connect_socket(host: str, port: int, timeout: float | None) -> socket.socket:
    """A connected TCP socket (shared by the client and health checks)."""
    return socket.create_connection((host, port), timeout=timeout)

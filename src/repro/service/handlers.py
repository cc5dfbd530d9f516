"""Command dispatch: one wire request in, one response envelope out.

Each handler is a pure function of ``(manager, session_name, args)``.
Session-scoped handlers run with the target session *borrowed* (under
its per-session lock), so a handler never observes another client's
half-applied mutation. Any :class:`~repro.errors.ReproError` becomes an
error envelope carrying the exception class name; anything else is
reported as ``InternalError`` without killing the connection.
"""

from __future__ import annotations

import asyncio
import math
import time
from typing import Any, Callable

from ..errors import ProtocolError, ReproError, ServiceError
from ..frontend.session import DBWipesSession
from ..obs import logs as obs_logs
from ..obs import trace as obs_trace
from ..obs.flags import enabled as obs_enabled
from ..obs.metrics import registry as obs_registry
from . import protocol
from .journal import JOURNALED_COMMANDS
from .sessions import SessionManager

#: Default row/point truncation for result and scatter payloads; clients
#: can ask for more (or fewer) via ``max_rows`` / ``max_points``.
DEFAULT_MAX_ROWS = 200
DEFAULT_MAX_POINTS = 2000

#: Largest ``render`` plot in characters: the text grid costs time and
#: memory in proportion to ``width × height``.
MAX_RENDER_WIDTH = 500
MAX_RENDER_HEIGHT = 200

#: Commands the gateway runs outside admission control, on executor
#: threads reserved for them: read-only manager/registry lookups that
#: never run the pipeline, touch a dataset, or block on a session lock.
#: Everything else is "heavy" and passes the admission gate first.
CHEAP_COMMANDS = frozenset(
    {"ping", "stats", "sessions", "metrics", "trace", "storage", "drain"}
)
# ``drain`` rides the cheap lane deliberately: it is the operator's
# overload-recovery lever, so it must not be shed by the very admission
# control it exists to relieve.


class Dispatcher:
    """A front end's command path: subclasses define the blocking
    ``handle(message) -> envelope``; the server awaits it through
    :meth:`handle_async`."""

    async def handle_async(self, message: dict) -> dict:
        """:meth:`handle` on a thread of the running loop's executor."""
        return await asyncio.to_thread(self.handle, message)


class LocalDispatcher(Dispatcher):
    """The single-process front end: every command runs in this process.

    Shares the ``handle(message) -> envelope`` shape with
    :class:`~repro.service.router.RoutingDispatcher`, so the TCP server
    is indifferent to whether a worker pool sits behind it.
    """

    def __init__(self, manager: SessionManager):
        self.manager = manager

    def handle(self, message: dict) -> dict:
        return dispatch(self.manager, message)

    def close(self) -> None:
        """Nothing to shut down in-process."""


def dispatch(manager: SessionManager, message: dict, role: str = "server") -> dict:
    """Handle one decoded request message; always returns one envelope.

    The entry point of the single-process server (``role="server"``) and
    of every worker process (``role="worker"``), instrumented by
    :func:`instrumented`.
    """
    request_id = message.get("id") if isinstance(message, dict) else None
    return instrumented(
        role, message, lambda: _dispatch_inner(manager, message, request_id)
    )


def instrumented(role: str, message: dict, run: Callable[[], dict]) -> dict:
    """``run()``'s envelope, with one request's instrumentation around it.

    Shared by :func:`dispatch` and the routing front end
    (:meth:`~repro.service.router.RoutingDispatcher.handle`): the request
    runs under a ``<role>.<cmd>`` span (continuing the trace carried in
    the message's ``trace`` field, or minting one at a root), bumps the
    per-command request counter/latency histogram, may land in the
    slow-request log, and has its trace id stamped on the response
    envelope so clients can fetch the span tree afterwards.
    """
    raw_cmd = message.get("cmd") if isinstance(message, dict) else None
    # A ``cmd`` outside :data:`COMMANDS` is labelled ``invalid``, so a
    # client cannot add a registry series (or a span name) per made-up name.
    known = isinstance(raw_cmd, str) and raw_cmd in COMMANDS
    cmd_label = raw_cmd if known else "invalid"
    trace_id, parent_id = obs_trace.from_wire(message)
    start = time.perf_counter()
    with obs_trace.span(
        f"{role}.{cmd_label}", trace_id=trace_id, parent_id=parent_id
    ) as span:
        envelope = run()
        if not envelope.get("ok"):
            span.set(error=envelope["error"]["kind"])
        stamped_trace = span.trace_id
    seconds = time.perf_counter() - start
    if obs_enabled():
        labels = {"cmd": cmd_label, "role": role}
        reg = obs_registry()
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
        obs_logs.maybe_log_slow(
            cmd_label,
            seconds,
            role=role,
            session=message.get("session") if isinstance(message, dict) else None,
        )
    if stamped_trace is not None:
        envelope.setdefault("trace", stamped_trace)
    return envelope


def _dispatch_inner(manager: SessionManager, message: dict, request_id) -> dict:
    try:
        cmd, session_name, args = protocol.validate_request(message)
        if cmd in _SERVER_HANDLERS:
            if cmd == "recover" and not args.get("session") and session_name:
                # Let clients address recover like any session command.
                args = {**args, "session": session_name}
            result = _SERVER_HANDLERS[cmd](manager, args)
        elif cmd in _SESSION_HANDLERS:
            if not session_name:
                raise ProtocolError(f"command {cmd!r} needs a 'session' field")
            if cmd == "close":
                manager.close(session_name)
                result = {"closed": session_name}
            else:
                with manager.borrow(session_name) as session:
                    result = _SESSION_HANDLERS[cmd](session, args)
                if cmd in JOURNALED_COMMANDS:
                    # Journaled only after the handler succeeds, so the
                    # replay history never contains a failed mutation.
                    manager.record(session_name, cmd, args)
        else:
            known = sorted(COMMANDS)
            raise ProtocolError(f"unknown command {cmd!r} (known: {known})")
    except ReproError as error:
        kind = getattr(error, "kind", None) or type(error).__name__
        return protocol.error_response(request_id, kind, str(error))
    except Exception as error:  # noqa: BLE001 — a handler bug must not kill the server
        return protocol.error_response(
            request_id, "InternalError", f"{type(error).__name__}: {error}"
        )
    return protocol.ok_response(request_id, result)


# ----------------------------------------------------------------------
# server-scoped commands
# ----------------------------------------------------------------------


def _ping(manager: SessionManager, args: dict) -> dict:
    return {"pong": True, "version": protocol.PROTOCOL_VERSION}


def _stats(manager: SessionManager, args: dict) -> dict:
    return manager.stats()


def _sessions(manager: SessionManager, args: dict) -> dict:
    return {"sessions": manager.list()}


def _open(manager: SessionManager, args: dict) -> dict:
    name = args.get("name")
    dataset = args.get("dataset")
    if not isinstance(name, str) or not name:
        raise ProtocolError("'open' needs a non-empty 'name' string in args")
    if not isinstance(dataset, str) or not dataset:
        raise ProtocolError("'open' needs a non-empty 'dataset' string in args")
    managed = manager.open(name, dataset)
    return {
        "session": managed.name,
        "dataset": managed.dataset,
        "bootstrap": manager.catalog.bootstrap(dataset),
        "snapshot": managed.session.snapshot(),
    }


#: How many recent slow-request records ride along with ``metrics``.
SLOW_LOG_LIMIT = 20


def _metrics(manager: SessionManager, args: dict) -> dict:
    """This process's registry snapshot (the scatter half of exposition).

    In the single-process server this *is* the cluster view; behind the
    routing front end each worker answers with its own snapshot and the
    router merges them (counters summed — never averaged).
    """
    snapshot = obs_registry().snapshot()
    return {
        "workers": 0,
        "merged": snapshot,
        "slow_requests": obs_logs.logger().recent("slow_request")[-SLOW_LOG_LIMIT:],
    }


def _storage(manager: SessionManager, args: dict) -> dict:
    """The durable tier's state: data dir and persisted datasets.

    Manifest reads only — never materializes a table or touches column
    bytes, so it stays in the cheap lane.
    """
    return manager.catalog.storage_info()


def _trace(manager: SessionManager, args: dict) -> dict:
    """Spans of one recent trace from this process's ring buffer.

    With no ``trace_id`` the most recently finished trace is returned
    (excluding the in-flight ``trace`` request's own). The routing front
    end resolves the default on the front, then broadcasts the explicit
    id so every worker contributes the spans it recorded for that trace.
    """
    tracer = obs_trace.tracer()
    trace_id = args.get("trace_id")
    if trace_id is None:
        current = tracer.current()
        trace_id = tracer.last_trace_id(
            exclude=current[0] if current else None
        )
    if not isinstance(trace_id, str) or not trace_id:
        return {"trace_id": None, "spans": [], "tree": [], "dropped": 0}
    spans = tracer.spans(trace_id)
    return {
        "trace_id": trace_id,
        "spans": spans,
        "tree": obs_trace.span_tree(spans),
        "dropped": tracer.dropped(trace_id),
    }


def _recover(manager: SessionManager, args: dict) -> dict:
    """Rebuild a session by replaying its journal (idempotent).

    The self-healing primitive: the router sends ``recover`` to a
    replica (or a respawned primary) before re-forwarding a request
    whose owner crashed, before a re-``open`` of a placed session, and
    ``drain`` uses it to hand sessions off. A live copy answers
    ``already_live`` unless another worker has journaled past it; then
    it is dropped and the journal replayed (see
    :meth:`~repro.service.sessions.SessionManager.live`).

    The replayed session adopts the loaded records as its journal, and
    the replay writes nothing, so a worker that dies mid-replay leaves
    the file whole for the next ``recover``. Replay stops at the first
    failing command — a truncated journal or changed dataset yields the
    longest valid prefix, never an error loop. Only then, or when the
    load dropped a corrupt tail, is the kept prefix published (one
    atomic rename), so later appends follow it.
    """
    name = args.get("session")
    if not isinstance(name, str) or not name:
        raise ProtocolError(
            "'recover' needs a non-empty 'session' string in args"
        )
    managed = manager.live(name)
    if managed is not None:
        return {
            "recovered": name,
            "dataset": managed.dataset,
            "replayed": 0,
            "already_live": True,
            "corrupt_records": 0,
            "truncated_at": None,
            "state": managed.session.state,
        }
    journals = manager.journals
    if journals is None:
        raise ServiceError(
            "session journaling is disabled (no data dir): nothing to "
            "recover",
            kind="NoJournal",
        )
    loaded = journals.load(name)
    if loaded is None:
        raise ServiceError(
            f"no journal for session {name!r}", kind="NoJournal"
        )
    managed = manager.open(name, loaded.dataset, history=loaded)
    records = loaded.records
    replayed = 0
    truncated_at = None
    kept = len(records)
    try:
        for index, (cmd, cmd_args) in enumerate(records):
            handler = _SESSION_HANDLERS.get(cmd)
            if cmd not in JOURNALED_COMMANDS or handler is None:
                continue
            try:
                with manager.borrow(name) as session:
                    handler(session, cmd_args)
            except ReproError as error:
                truncated_at = f"{cmd}: {error}"
                kept = index
                break
            replayed += 1
    except BaseException:
        # A half-replayed copy must not serve; the journal is untouched.
        manager.forget(name)
        raise
    if truncated_at is not None or loaded.corrupt_records:
        managed.journal.truncate(1 + kept)  # the open record, then ``kept``
    manager.mark_recovered()
    return {
        "recovered": name,
        "dataset": loaded.dataset,
        "replayed": replayed,
        "already_live": False,
        "corrupt_records": loaded.corrupt_records,
        "truncated_at": truncated_at,
        "state": managed.session.state,
    }


def _drain_prepare(manager: SessionManager, args: dict) -> dict:
    """Flush every live session's journal from memory to disk.

    Sent by the router's drain path before handing sessions off; the
    in-memory records are authoritative, so this also repairs journal
    files corrupted on disk since their last publish. A copy that
    another worker has journaled past is dropped, not published.
    """
    return {"journaled": manager.journal_all(), "sessions": len(manager)}


def _drain(manager: SessionManager, args: dict) -> dict:
    # The routing front end intercepts ``drain`` before dispatch; only
    # a single-process server ever reaches this handler.
    raise ServiceError(
        "'drain' needs the multi-worker tier; start the server with "
        "--workers N"
    )


_SERVER_HANDLERS: dict[str, Callable[[SessionManager, dict], Any]] = {
    "ping": _ping,
    "stats": _stats,
    "sessions": _sessions,
    "open": _open,
    "metrics": _metrics,
    "trace": _trace,
    "storage": _storage,
    "recover": _recover,
    "drain_prepare": _drain_prepare,
    "drain": _drain,
}


# ----------------------------------------------------------------------
# session-scoped commands (run under the session's lock)
# ----------------------------------------------------------------------


def _execute(session: DBWipesSession, args: dict) -> dict:
    sql = args.get("sql")
    if not isinstance(sql, str) or not sql.strip():
        raise ProtocolError("'execute' needs a non-empty 'sql' string in args")
    max_rows = _limit(args, "max_rows", DEFAULT_MAX_ROWS)
    return protocol.result_payload(session.execute(sql), max_rows)


def _result(session: DBWipesSession, args: dict) -> dict:
    max_rows = _limit(args, "max_rows", DEFAULT_MAX_ROWS)
    return protocol.result_payload(session.result, max_rows)


def _render(session: DBWipesSession, args: dict) -> dict:
    width = _integer("width", args.get("width", 72))
    height = _integer("height", args.get("height", 14))
    if not (1 <= width <= MAX_RENDER_WIDTH and 1 <= height <= MAX_RENDER_HEIGHT):
        raise ProtocolError(
            f"'width' must be 1 to {MAX_RENDER_WIDTH} and 'height' 1 to "
            f"{MAX_RENDER_HEIGHT}, not {width} x {height}"
        )
    y = args.get("y")
    return {"text": session.render(y=y, width=width, height=height)}


def _select_results(session: DBWipesSession, args: dict) -> dict:
    selection = protocol.selection_from_args(args, "rows")
    x = args.get("x")
    y = args.get("y")
    rows = session.select_results(selection, x=x, y=y)
    return {"selected_rows": list(rows)}


def _zoom(session: DBWipesSession, args: dict) -> dict:
    max_points = _limit(args, "max_points", DEFAULT_MAX_POINTS)
    scatter = session.zoom(x=args.get("x"), y=args.get("y"))
    return protocol.scatter_payload(scatter, max_points)


def _select_inputs(session: DBWipesSession, args: dict) -> dict:
    selection = protocol.selection_from_args(args, "tids")
    dprime = session.select_inputs(selection)
    return {"n_dprime": len(dprime), "dprime": dprime}


def _error_form(session: DBWipesSession, args: dict) -> dict:
    options = session.error_form(args.get("agg"))
    return {"options": protocol.forms_payload(options)}


def _set_metric(session: DBWipesSession, args: dict) -> dict:
    form = args.get("form")
    if not isinstance(form, str) or not form:
        raise ProtocolError("'set_metric' needs a 'form' id string in args")
    params = args.get("params", {})
    if params is None:
        params = {}
    if not isinstance(params, dict):
        raise ProtocolError("'params' must be a JSON object when present")
    params = {name: _metric_param(name, value) for name, value in params.items()}
    metric = session.set_metric(form, agg_name=args.get("agg"), **params)
    return {"metric": metric.describe()}


def _debug(session: DBWipesSession, args: dict) -> dict:
    max_rows = _limit(args, "max_rows", None)
    return protocol.report_payload(session.debug(args.get("agg")), max_rows)


def _apply(session: DBWipesSession, args: dict) -> dict:
    index = args.get("index")
    if not isinstance(index, int) or isinstance(index, bool):
        raise ProtocolError("'apply' needs an integer 'index' (0-based rank) in args")
    max_rows = _limit(args, "max_rows", DEFAULT_MAX_ROWS)
    result = session.apply_predicate(index)
    applied = session.applied_predicates[-1]
    return {
        "applied": applied.describe(),
        "applied_sql": applied.to_sql(),
        "sql": session.current_sql(),
        "result": protocol.result_payload(result, max_rows),
    }


def _undo(session: DBWipesSession, args: dict) -> dict:
    max_rows = _limit(args, "max_rows", DEFAULT_MAX_ROWS)
    result = session.undo_cleaning()
    return {
        "sql": session.current_sql(),
        "result": protocol.result_payload(result, max_rows),
    }


def _redo(session: DBWipesSession, args: dict) -> dict:
    max_rows = _limit(args, "max_rows", DEFAULT_MAX_ROWS)
    result = session.redo_cleaning()
    return {
        "sql": session.current_sql(),
        "result": protocol.result_payload(result, max_rows),
    }


def _sql(session: DBWipesSession, args: dict) -> dict:
    return {"sql": session.current_sql()}


def _snapshot(session: DBWipesSession, args: dict) -> dict:
    return session.snapshot()


# Display arguments are parsed before a handler runs its session
# command: a bad value then changes nothing, and ``dispatch`` journals
# only the commands that succeed, so the journal matches the session.


def _integer(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(f"{name!r} must be an integer, not {value!r}") from None


def _limit(args: dict, name: str, default: int | None) -> int | None:
    """``max_rows`` / ``max_points``: a non-negative integer, or null for
    no limit."""
    value = args.get(name, default)
    if value is None:
        return None
    limit = _integer(name, value)
    if limit < 0:
        raise ProtocolError(f"{name!r} must not be negative, not {limit}")
    return limit


def _metric_param(name, value):
    """One ``set_metric`` parameter: ``threshold`` and ``expected`` take
    a finite number; the metric itself checks ``combine``."""
    if name == "combine":
        return value
    if name not in ("threshold", "expected"):
        raise ProtocolError(
            f"unknown metric parameter {name!r} (known: threshold, expected, combine)"
        )
    try:
        if isinstance(value, bool):
            raise TypeError(value)
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ProtocolError(f"{name!r} must be a number, not {value!r}") from None
    if not math.isfinite(number):
        raise ProtocolError(f"{name!r} must be finite, not {value!r}")
    return number


_SESSION_HANDLERS: dict[str, Callable[[DBWipesSession, dict], Any]] = {
    "execute": _execute,
    "result": _result,
    "render": _render,
    "select_results": _select_results,
    "zoom": _zoom,
    "select_inputs": _select_inputs,
    "error_form": _error_form,
    "set_metric": _set_metric,
    "debug": _debug,
    "apply": _apply,
    "undo": _undo,
    "redo": _redo,
    "sql": _sql,
    "snapshot": _snapshot,
    "close": lambda session, args: {},  # handled in dispatch (needs the manager)
}

#: Every command name a dispatcher answers.
COMMANDS = frozenset(_SERVER_HANDLERS) | frozenset(_SESSION_HANDLERS)

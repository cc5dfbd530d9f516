"""The JSON-line wire protocol of the DBWipes service.

One request, one response, one line each — newline-delimited JSON over a
TCP stream. Requests are objects::

    {"id": 7, "cmd": "select_results", "session": "alice",
     "args": {"brush": {"y1": 0.0}, "y": "std_temp"}}

``id`` is an arbitrary client token echoed back verbatim; ``session``
names the target session (omitted for server-scoped commands such as
``ping``/``stats``); ``args`` is the command's keyword arguments.

Responses either succeed::

    {"id": 7, "ok": true, "result": {...}}

or carry an error envelope whose ``kind`` is the server-side exception
class name, so clients can distinguish user mistakes
(``SessionError``, ``SQLSyntaxError``) from protocol violations
(``ProtocolError``) and crashes (``InternalError``)::

    {"id": 7, "ok": false, "error": {"kind": "SessionError",
                                     "message": "select ... first"}}

The multi-process front end adds kinds of its own: a request whose
worker process died mid-flight gets ``WorkerCrashed`` (the worker is
respawned) and one whose worker stopped answering gets
``WorkerTimeout`` — a routed request always ends in an envelope, never
a hung connection. When the server runs with a data dir, the router
first *heals* such requests transparently: every mutating command is
journaled per session, and on a crash the router replays the journal
on a replica (or the respawned primary) and re-sends the request, so
these kinds surface only after failover is exhausted. ``NoJournal``
marks the one unrecoverable case — a session with neither live state
nor a journal to replay.

Two lifecycle commands ride the same framing on the routed tier:
``recover`` (``args: {"session": ...}`` or the ``session`` field)
replays one session's journal where it belongs; ``drain``
(``args: {"worker": N, "deadline": S, "restart": bool}``) takes a
worker out of rotation gracefully — waits out in-flight work, flushes
journals, hands placements to replicas, optionally restarts the
process. On the single-process tier ``recover`` works the same
(journals permitting) while ``drain`` returns a structured
``ServiceError``. The worker count is fixed for the life of a server.

The server's gateway (:mod:`repro.service.server`) adds one more wire
form. A request shed by admission control or per-client rate
limiting gets a ``ServerBusy`` error envelope whose error object
carries ``retry_after`` (seconds the client should back off before
retrying)::

    {"id": 7, "ok": false, "error": {"kind": "ServerBusy",
                                     "message": "...",
                                     "retry_after": 0.25}}

Telemetry rides the same framing. Every response envelope is stamped
with a top-level ``"trace"`` string — the request's trace id — and a
request *may* carry ``"trace": {"id": ..., "parent": ...}`` to join an
existing trace (the router adds this when forwarding to workers, so one
client request is one trace across processes). Two server-scoped
commands expose what was recorded: ``metrics`` returns the
cluster-merged registry snapshot (counters summed across workers,
histograms merged bucket-wise) plus recent slow-request records, and
``trace`` returns one trace's spans as a flat list and a nested tree
(``args: {"trace_id": ...}``; defaults to the most recent trace).

Everything on the wire is JSON-safe: numpy scalars are unwrapped,
arrays become lists, and NaN/±inf become ``null`` in a response. A
request may not carry them: :class:`~repro.service.client.ServiceClient`
refuses one before sending (:func:`refuse_non_finite`). The protocol is
strict JSON in both directions: :func:`encode` runs with ``allow_nan``
off, and :func:`decode_line` refuses ``NaN``, ``Infinity`` and
``-Infinity``. A number too large for a float (``1e999``) still decodes
to ``inf``, so the argument parsers that take numbers refuse non-finite
values themselves.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterable

import numpy as np

from ..core.report import DebugReport, RankedPredicate
from ..db.result import ResultSet
from ..errors import ProtocolError
from ..frontend.forms import FormOption
from ..frontend.scatter import ScatterData
from ..frontend.selection import Brush

#: Bumped on wire-incompatible changes; served by ``ping``.
#: 2 = ``ServerBusy``/``retry_after`` envelopes and streamed partial
#: ``debug`` frames (the gateway). 3 = ``resize`` left the protocol.
#: 4 = streamed partial frames left it: every request gets one envelope.
PROTOCOL_VERSION = 4

#: Upper bound on one wire line in either direction; longer lines are a
#: protocol error (keeps a misbehaving peer from ballooning memory, and
#: a truncated line can never be re-framed). The command tables live in
#: :mod:`repro.service.handlers`.
MAX_LINE_BYTES = 8 * 1024 * 1024


# ----------------------------------------------------------------------
# JSON-safe conversion
# ----------------------------------------------------------------------


def jsonify(value: Any) -> Any:
    """Recursively convert ``value`` into strict-JSON-safe data.

    Numpy integers/floats/bools unwrap to Python scalars; arrays become
    lists; non-finite floats become ``None``.
    """
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return jsonify(float(value))
    if isinstance(value, np.ndarray):
        return [jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonify(v) for v in value]
    return str(value)


def refuse_non_finite(value: Any, name: str = "args") -> None:
    """Raise :class:`~repro.errors.ProtocolError` at a NaN or ±inf in a
    request's arguments.

    :func:`jsonify` would send it as ``null``, which the server reads as
    a missing value: a ``null`` brush bound is an open side, so
    ``{"y0": inf}`` would select everything.
    """
    if isinstance(value, dict):
        for key, item in value.items():
            refuse_non_finite(item, str(key))
    elif isinstance(value, (list, tuple)):
        for item in value:
            refuse_non_finite(item, name)
    elif isinstance(value, (float, np.floating)) and not math.isfinite(value):
        raise ProtocolError(f"{name!r} must be finite, not {value!r}")


def encode(message: dict) -> bytes:
    """One wire line: compact JSON + newline."""
    return (
        json.dumps(jsonify(message), separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def decode_line(line: bytes | str) -> dict:
    """Parse one wire line into a message object.

    Raises :class:`~repro.errors.ProtocolError` for malformed JSON or a
    non-object payload.
    """
    if isinstance(line, bytes):
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError(f"request line exceeds {MAX_LINE_BYTES} bytes")
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"request is not valid UTF-8: {error}") from None
    try:
        message = json.loads(line, parse_constant=_refuse_constant)
    except json.JSONDecodeError as error:
        raise ProtocolError(f"request is not valid JSON: {error.msg}") from None
    if not isinstance(message, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(message).__name__}"
        )
    return message


def _refuse_constant(name: str) -> Any:
    raise ProtocolError(f"request is not strict JSON: {name} is not a number")


def validate_request(message: dict) -> tuple[str, str | None, dict]:
    """Check a decoded request's shape; returns (cmd, session, args)."""
    cmd = message.get("cmd")
    if not isinstance(cmd, str) or not cmd:
        raise ProtocolError("request needs a string 'cmd' field")
    session = message.get("session")
    if session is not None and not isinstance(session, str):
        raise ProtocolError("'session' must be a string when present")
    args = message.get("args", {})
    if args is None:
        args = {}
    if not isinstance(args, dict):
        raise ProtocolError("'args' must be a JSON object when present")
    return cmd, session, args


def ok_response(request_id: Any, result: Any) -> dict:
    """A success envelope echoing the request id."""
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, kind: str, message: str) -> dict:
    """An error envelope echoing the request id."""
    return {"id": request_id, "ok": False, "error": {"kind": kind, "message": message}}


def busy_response(request_id: Any, message: str, retry_after: float) -> dict:
    """A ``ServerBusy`` load-shed envelope with a suggested backoff.

    ``retry_after`` is the gateway's estimate (seconds) of when capacity
    frees up, derived from the per-stage timing counters of recently
    served requests — never a bare constant.
    """
    return {
        "id": request_id,
        "ok": False,
        "error": {
            "kind": "ServerBusy",
            "message": message,
            "retry_after": round(float(retry_after), 4),
        },
    }


def annotate_worker(envelope: dict, worker: int) -> dict:
    """Tag a success envelope's object result with the answering worker.

    The routing front end stamps ``open`` responses this way so clients
    can observe the dataset-hash placement without a ``stats`` call.
    """
    result = envelope.get("result")
    if envelope.get("ok") and isinstance(result, dict):
        result["worker"] = worker
    return envelope


# ----------------------------------------------------------------------
# payload builders (server -> client)
# ----------------------------------------------------------------------


def result_payload(result: ResultSet, max_rows: int | None = None) -> dict:
    """A query result as columns + row lists (optionally truncated)."""
    num_rows = result.num_rows
    shown = num_rows if max_rows is None else min(num_rows, max_rows)
    # ``tolist`` gives the Python scalars ``python_value`` would, a
    # column at a time.
    columns = [
        result.column(name)[:shown].tolist() for name in result.column_names
    ]
    return {
        "columns": list(result.column_names),
        "group_keys": list(result.group_key_names),
        "aggregates": list(result.aggregate_names),
        "num_rows": num_rows,
        "rows": [list(row) for row in zip(*columns)],
        "truncated": shown < num_rows,
    }


def scatter_payload(scatter: ScatterData, max_points: int | None = None) -> dict:
    """A scatterplot as parallel coordinate/key lists."""
    n = len(scatter)
    shown = n if max_points is None else min(n, max_points)
    return {
        "kind": scatter.kind,
        "x_label": scatter.x_label,
        "y_label": scatter.y_label,
        "n": n,
        "x": scatter.x[:shown],
        "y": scatter.y[:shown],
        "keys": scatter.keys[:shown],
        "truncated": shown < n,
    }


def ranked_payload(ranked: RankedPredicate) -> dict:
    """One ranked predicate, with both SQL and display renderings."""
    return {
        "predicate": ranked.predicate.describe(),
        "sql": ranked.predicate.to_sql(),
        "score": ranked.score,
        "epsilon_before": ranked.epsilon_before,
        "epsilon_after": ranked.epsilon_after,
        "error_reduction": ranked.error_reduction,
        "accuracy": ranked.accuracy,
        "precision": ranked.precision,
        "recall": ranked.recall,
        "complexity": ranked.complexity,
        "n_matched": ranked.n_matched,
        "candidate_origin": ranked.candidate_origin,
        "source": ranked.source,
    }


def report_payload(report: DebugReport, max_rows: int | None = None) -> dict:
    """A debug report: ranked predicates plus request-level stats."""
    shown = len(report) if max_rows is None else min(len(report), max_rows)
    return {
        "predicates": [ranked_payload(report[i]) for i in range(shown)],
        "n_predicates": len(report),
        "epsilon": report.epsilon,
        "metric": report.metric_description,
        "selected_rows": list(report.selected_rows),
        "n_inputs": report.n_inputs,
        "n_dprime": report.n_dprime,
        "n_candidates": report.n_candidates,
        "timings": dict(report.timings),
    }


def forms_payload(options: Iterable[FormOption]) -> list[dict]:
    """The error-metric form options (Figure 5) as JSON objects."""
    return [
        {
            "form_id": option.form_id,
            "label": option.label,
            "params": list(option.params),
            "defaults": dict(option.defaults),
        }
        for option in options
    ]


# ----------------------------------------------------------------------
# argument parsers (client -> server)
# ----------------------------------------------------------------------


def brush_from_json(obj: Any) -> Brush:
    """A :class:`Brush` from its wire form.

    Accepts ``{"x0":…,"x1":…,"y0":…,"y1":…}`` with any subset of bounds
    (missing or ``null`` bounds are unbounded), or the shorthands
    ``{"above": v}`` / ``{"below": v}``.
    """
    if not isinstance(obj, dict):
        raise ProtocolError("brush must be a JSON object")
    if "above" in obj:
        return Brush.above(_bound(obj["above"], "above"))
    if "below" in obj:
        return Brush.below(_bound(obj["below"], "below"))
    allowed = {"x0", "x1", "y0", "y1"}
    unknown = set(obj) - allowed
    if unknown:
        raise ProtocolError(f"unknown brush fields: {sorted(unknown)}")
    def pick(name: str, default: float) -> float:
        value = obj.get(name)
        return default if value is None else _bound(value, name)

    return Brush(
        x0=pick("x0", -math.inf),
        x1=pick("x1", math.inf),
        y0=pick("y0", -math.inf),
        y1=pick("y1", math.inf),
    )


def selection_from_args(args: dict, keys_field: str) -> Any:
    """The selection argument for select_results / select_inputs.

    ``keys_field`` is ``"rows"`` or ``"tids"``; exactly one of that
    field or ``"brush"`` must be present.
    """
    has_keys = keys_field in args and args[keys_field] is not None
    has_brush = "brush" in args and args["brush"] is not None
    if has_keys == has_brush:
        raise ProtocolError(
            f"selection needs exactly one of {keys_field!r} or 'brush'"
        )
    if has_brush:
        brush = args["brush"]
        if isinstance(brush, list):
            return [brush_from_json(b) for b in brush]
        return brush_from_json(brush)
    keys = args[keys_field]
    if not isinstance(keys, list):
        raise ProtocolError(f"{keys_field!r} must be a list of integers")
    try:
        return [int(k) for k in keys]
    except (TypeError, ValueError):
        raise ProtocolError(f"{keys_field!r} must be a list of integers") from None


def _bound(value: Any, name: str) -> float:
    """A finite brush bound; an open side is a missing or ``null`` bound."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(f"brush bound {name!r} must be a number")
    try:
        bound = float(value)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ProtocolError(f"brush bound {name!r} must be finite, not {value!r}")
    return bound

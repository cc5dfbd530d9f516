"""Request tracing: trace/span context and the recent-trace ring buffer.

One *trace* is one request's story across the whole stack: the server
accept path mints a trace id, the wire envelope carries it across the
router and the worker pipe transport, and the execution backend opens a
span per pipeline stage, so a single ``debug()`` yields one tree::

    server.debug (front end)
    └─ router.debug (worker=1)
       └─ worker.debug (worker process)
          └─ pipeline.debug
             ├─ stage.preprocess
             ├─ stage.enumerate_datasets
             ├─ stage.enumerate_predicates
             ├─ stage.rank
             └─ stage.merge

Spans are process-local: each process's :class:`Tracer` keeps a ring
buffer of its recent traces' *finished* spans, and the ``trace`` wire
command scatter-gathers them by trace id into one JSON tree
(:func:`span_tree`). Context propagates through
:mod:`contextvars` inside a process and through the ``trace`` field of
the wire message between processes (:func:`wire_context`,
:func:`from_wire`).

Always-on-cheap: an enabled span is a dict, two clock reads, and one
deque append; :func:`~repro.obs.flags.set_enabled` (or
``REPRO_OBS_DISABLED=1``) turns spans into no-ops for the overhead
ablation in ``benchmarks/test_obs_overhead.py``.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Iterator

from .flags import enabled

#: Ring-buffer limits: how many distinct traces a process remembers and
#: how many spans one trace may accumulate before further spans are
#: counted but dropped (a runaway fan-out must not balloon memory).
MAX_TRACES = 64
MAX_SPANS_PER_TRACE = 512

#: (trace_id, span_id) of the active span in this thread/task.
_CURRENT: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "repro_obs_span", default=None
)


def new_id() -> str:
    """A 16-hex-char id, unique across processes (no seeding, no clock)."""
    return os.urandom(8).hex()


class ActiveSpan:
    """The mutable handle yielded by :func:`Tracer.span`."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "attrs", "start")

    def __init__(self, trace_id, span_id, parent_id, name, attrs, start):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start = start

    def set(self, **attrs: Any) -> None:
        """Attach attributes to the span (JSON-safe values only)."""
        self.attrs.update(attrs)


class _NullSpan:
    """The disabled-path handle: same surface, no recording."""

    __slots__ = ()
    trace_id = None
    span_id = None

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Per-process span recorder with a bounded recent-trace buffer."""

    def __init__(
        self,
        max_traces: int = MAX_TRACES,
        max_spans_per_trace: int = MAX_SPANS_PER_TRACE,
    ):
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._lock = threading.Lock()
        #: trace_id -> list of finished span dicts, oldest trace first.
        self._traces: OrderedDict[str, list[dict]] = OrderedDict()
        self._dropped: dict[str, int] = {}

    @contextmanager
    def span(
        self,
        name: str,
        trace_id: str | None = None,
        parent_id: str | None = None,
        **attrs: Any,
    ) -> Iterator[ActiveSpan | _NullSpan]:
        """Open one span; finished spans land in the ring buffer.

        With no explicit ``trace_id`` the span continues the thread's
        current trace (or mints a fresh one at a root). An explicit
        ``trace_id``/``parent_id`` pair grafts onto a remote parent —
        that is how the wire context crosses processes.
        """
        if not enabled():
            yield _NULL_SPAN
            return
        if trace_id is None:
            current = _CURRENT.get()
            if current is not None:
                trace_id, parent_id = current
            else:
                trace_id = new_id()
        span_id = new_id()
        active = ActiveSpan(
            trace_id, span_id, parent_id, name, dict(attrs), time.time()
        )
        token = _CURRENT.set((trace_id, span_id))
        t0 = time.perf_counter()
        try:
            yield active
        except BaseException as error:
            active.attrs.setdefault("error", type(error).__name__)
            raise
        finally:
            duration = time.perf_counter() - t0
            _CURRENT.reset(token)
            self._record(active, duration)

    def _record(self, span: ActiveSpan, duration: float) -> None:
        record = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "start": span.start,
            "seconds": duration,
            "attrs": span.attrs,
        }
        with self._lock:
            spans = self._traces.get(span.trace_id)
            if spans is None:
                spans = []
                self._traces[span.trace_id] = spans
                while len(self._traces) > self.max_traces:
                    old, __ = self._traces.popitem(last=False)
                    self._dropped.pop(old, None)
            else:
                self._traces.move_to_end(span.trace_id)
            if len(spans) >= self.max_spans_per_trace:
                self._dropped[span.trace_id] = (
                    self._dropped.get(span.trace_id, 0) + 1
                )
            else:
                spans.append(record)

    # -- recovery ------------------------------------------------------

    def current(self) -> tuple[str, str] | None:
        """The active (trace_id, span_id) in this thread, if any."""
        return _CURRENT.get()

    def spans(self, trace_id: str) -> list[dict]:
        """Finished spans of one trace (start-ordered), possibly empty."""
        with self._lock:
            return sorted(
                (dict(s) for s in self._traces.get(trace_id, ())),
                key=lambda s: s["start"],
            )

    def dropped(self, trace_id: str) -> int:
        """Spans dropped from a trace by the per-trace cap."""
        with self._lock:
            return self._dropped.get(trace_id, 0)

    def trace_ids(self) -> list[str]:
        """Known trace ids, least recently touched first."""
        with self._lock:
            return list(self._traces)

    def last_trace_id(self, exclude: str | None = None) -> str | None:
        """The most recently touched trace id, skipping ``exclude``."""
        with self._lock:
            for trace_id in reversed(self._traces):
                if trace_id != exclude:
                    return trace_id
        return None

    def clear(self) -> None:
        """Drop every buffered trace (worker startup / tests)."""
        with self._lock:
            self._traces.clear()
            self._dropped.clear()


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def span(name: str, **kwargs: Any):
    """Shorthand for ``tracer().span(...)`` at call sites."""
    return _TRACER.span(name, **kwargs)


# ----------------------------------------------------------------------
# wire propagation
# ----------------------------------------------------------------------


def wire_context(span_handle) -> dict | None:
    """The ``trace`` field value carrying ``span_handle`` across a hop."""
    if span_handle.trace_id is None:
        return None
    return {"id": span_handle.trace_id, "parent": span_handle.span_id}


def from_wire(message: Any) -> tuple[str | None, str | None]:
    """(trace_id, parent_id) from a wire message's ``trace`` field."""
    if not isinstance(message, dict):
        return None, None
    context = message.get("trace")
    if not isinstance(context, dict):
        return None, None
    trace_id = context.get("id")
    parent_id = context.get("parent")
    return (
        trace_id if isinstance(trace_id, str) else None,
        parent_id if isinstance(parent_id, str) else None,
    )


# ----------------------------------------------------------------------
# tree assembly (merging spans gathered from many processes)
# ----------------------------------------------------------------------


def span_tree(spans: list[dict]) -> list[dict]:
    """Nest a flat span list into parent→children trees.

    Spans whose parent is absent from the list (or None) become roots.
    Children sort by start time; the input may mix spans collected from
    different processes — ids are globally unique, so linking is safe.
    """
    nodes = {s["span_id"]: {**s, "children": []} for s in spans}
    roots: list[dict] = []
    for node in nodes.values():
        parent = nodes.get(node.get("parent_id"))
        if parent is None:
            roots.append(node)
        else:
            parent["children"].append(node)
    def sort_children(node: dict) -> None:
        node["children"].sort(key=lambda child: child["start"])
        for child in node["children"]:
            sort_children(child)
    roots.sort(key=lambda node: node["start"])
    for root in roots:
        sort_children(root)
    return roots


def render_tree(roots: list[dict], indent: int = 0) -> str:
    """An ASCII rendering of a span tree (the CLI's trace view)."""
    lines: list[str] = []
    for root in roots:
        attrs = root.get("attrs") or {}
        suffix = (
            " [" + " ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
            if attrs
            else ""
        )
        lines.append(
            f"{'  ' * indent}{root['name']}  "
            f"{root['seconds'] * 1000:.2f}ms{suffix}"
        )
        lines.append(render_tree(root["children"], indent + 1))
    return "\n".join(line for line in lines if line)

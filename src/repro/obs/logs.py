"""Structured JSON-line logging with trace-id correlation.

Every record is one JSON object per line — machine-greppable, with the
active trace id stamped automatically so a slow-request line can be
joined against its span tree (``python -m repro connect`` → ``trace``).

The module keeps one process-global :class:`StructuredLogger` plus the
slow-request policy: any request whose wall time exceeds
:func:`slow_threshold` seconds gets a ``slow_request`` record and bumps
``dbwipes_slow_requests_total``. The threshold is configurable per
process (:func:`set_slow_threshold`) or via the
``REPRO_SLOW_REQUEST_SECONDS`` environment variable, which the serve
CLI exports so spawned workers inherit the same policy.

Records always land in a bounded in-memory ring (``recent()``) so tests
and the ``metrics`` command can read them back without capturing
stderr; emitting to a stream is opt-in (:func:`log_to_stderr`, or
``REPRO_OBS_LOG_STDERR=1`` for worker processes).
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from collections import deque
from typing import Any, TextIO

from .flags import enabled
from .trace import tracer

DEFAULT_SLOW_SECONDS = 1.0
_LOG_CAPACITY = 256


def _threshold_from_env() -> float:
    raw = os.environ.get("REPRO_SLOW_REQUEST_SECONDS", "").strip()
    if not raw:
        return DEFAULT_SLOW_SECONDS
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_SLOW_SECONDS
    return value if value >= 0 else DEFAULT_SLOW_SECONDS


_SLOW_SECONDS = _threshold_from_env()


def slow_threshold() -> float:
    """Seconds beyond which a request is logged as slow."""
    return _SLOW_SECONDS


def set_slow_threshold(seconds: float) -> None:
    """Set the slow-request threshold for this process (seconds, >= 0).

    A negative or NaN value is a ``ValueError``: a worker reading it from
    ``REPRO_SLOW_REQUEST_SECONDS`` would keep the default instead.
    """
    global _SLOW_SECONDS
    seconds = float(seconds)
    if not seconds >= 0:
        raise ValueError(
            f"slow-request threshold must be >= 0 seconds, not {seconds}"
        )
    _SLOW_SECONDS = seconds


class StructuredLogger:
    """JSON-line logger with a bounded ring of recent records."""

    def __init__(self, stream: TextIO | None = None, capacity: int = _LOG_CAPACITY):
        self.stream = stream
        self._lock = threading.Lock()
        self._recent: deque[dict] = deque(maxlen=capacity)

    def log(self, event: str, **fields: Any) -> dict:
        """Record one event; trace id is stamped from the live context."""
        record: dict[str, Any] = {"ts": time.time(), "event": event}
        current = tracer().current()
        if current is not None:
            record["trace_id"] = current[0]
        record.update(fields)
        with self._lock:
            self._recent.append(record)
            stream = self.stream
        if stream is not None:
            try:
                stream.write(json.dumps(record, sort_keys=True) + "\n")
                stream.flush()
            except (OSError, ValueError):
                pass  # a closed/broken stream must never fail a request
        return record

    def recent(self, event: str | None = None) -> list[dict]:
        """Recent records, optionally filtered by event name."""
        with self._lock:
            records = list(self._recent)
        if event is None:
            return records
        return [r for r in records if r.get("event") == event]

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()


_LOGGER = StructuredLogger(
    stream=sys.stderr
    if os.environ.get("REPRO_OBS_LOG_STDERR", "").strip().lower()
    in ("1", "true", "yes", "on")
    else None
)


def logger() -> StructuredLogger:
    """The process-global structured logger."""
    return _LOGGER


def log_to_stderr(on: bool = True) -> None:
    """Mirror structured records to stderr (the serve CLI turns this on)."""
    _LOGGER.stream = sys.stderr if on else None


def maybe_log_slow(cmd: str, seconds: float, **fields: Any) -> bool:
    """Log (and count) a slow request; returns True when it was slow.

    Called from every dispatch path with the request's wall time; the
    registry import is deferred to keep module import order flexible.
    """
    if not enabled() or seconds < _SLOW_SECONDS:
        return False
    from .metrics import registry

    registry().counter(
        "dbwipes_slow_requests_total",
        labels={"cmd": cmd},
        help="Requests slower than the slow-request threshold.",
    ).inc()
    _LOGGER.log(
        "slow_request",
        cmd=cmd,
        seconds=round(seconds, 6),
        threshold=_SLOW_SECONDS,
        **fields,
    )
    return True

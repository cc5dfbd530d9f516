"""Deterministic fault injection for the serving tier.

A :class:`FaultPlan` describes a small set of scripted failures —
kill a worker on its Nth forwarded request, delay matching calls,
drop (discard) a worker's reply, or corrupt one journal record — and
is consumed at well-defined points:

- :class:`~repro.service.workers.WorkerHandle` asks the plan on every
  forwarded request whether to SIGKILL the worker (after the request
  is on the pipe, so the worker dies mid-processing; a reply that beats
  the kill is ignored, so the caller always observes ``WorkerCrashed``)
  or to discard the eventual reply (the caller then observes a
  ``WorkerTimeout``).
- :class:`~repro.service.router.RoutingDispatcher` asks for a delay
  before forwarding a matching command.
- :class:`~repro.service.journal.JournalStore` asks whether to write a
  deliberately corrupted line for one ``(session, seq)`` record.

Plans are deterministic by construction: triggers count requests from
the moment the plan is installed and fire exactly once, so a chaos
test or benchmark replays the same failure at the same point every
run. Install a plan either in-process (:func:`install`, used by
tests) or via the ``REPRO_FAULT_PLAN`` environment variable (JSON,
inherited by forked workers — the only way to reach worker-side
consumers like the journal writer).
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "active_plan",
    "clear",
    "install",
]

#: Environment variable holding a JSON fault plan (see
#: :meth:`FaultPlan.from_json` for the shape).
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


@dataclass
class FaultPlan:
    """A scripted, one-shot set of failures for the worker tier.

    All triggers are consumed at most ``once`` (or ``times`` for
    delays); a fired trigger never re-fires, so the surrounding system
    is observed *recovering*, not failing forever.
    """

    #: SIGKILL this worker index on its Nth forwarded request
    #: (1-based, counted from plan installation). ``None`` disables.
    kill_worker: int | None = None
    kill_on_request: int = 1

    #: Discard the reply to this worker's Nth forwarded request — the
    #: caller sees a ``WorkerTimeout`` once its patience runs out.
    drop_worker: int | None = None
    drop_on_request: int = 1

    #: Sleep this long before forwarding the next ``delay_times``
    #: requests whose command equals ``delay_cmd``.
    delay_cmd: str | None = None
    delay_seconds: float = 0.0
    delay_times: int = 1

    #: Write a deliberately corrupted journal line for this
    #: ``(session, seq)`` record (bad checksum, detected on replay).
    corrupt_session: str | None = None
    corrupt_seq: int | None = None

    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _requests: dict[int, int] = field(default_factory=dict, repr=False)
    _killed: bool = field(default=False, repr=False)
    _dropped: bool = field(default=False, repr=False)
    _delays_left: int = field(default=-1, repr=False)
    _corrupted: bool = field(default=False, repr=False)

    @classmethod
    def from_json(cls, spec: dict) -> "FaultPlan":
        """Build a plan from the wire/env JSON shape::

            {"kill":    {"worker": 1, "request": 1},
             "drop":    {"worker": 0, "request": 2},
             "delay":   {"cmd": "debug", "seconds": 0.2, "times": 1},
             "corrupt_journal": {"session": "alice", "seq": 3}}
        """
        kill = spec.get("kill") or {}
        drop = spec.get("drop") or {}
        delay = spec.get("delay") or {}
        corrupt = spec.get("corrupt_journal") or {}
        return cls(
            kill_worker=kill.get("worker"),
            kill_on_request=int(kill.get("request", 1)),
            drop_worker=drop.get("worker"),
            drop_on_request=int(drop.get("request", 1)),
            delay_cmd=delay.get("cmd"),
            delay_seconds=float(delay.get("seconds", 0.0)),
            delay_times=int(delay.get("times", 1)),
            corrupt_session=corrupt.get("session"),
            corrupt_seq=(
                int(corrupt["seq"]) if corrupt.get("seq") is not None else None
            ),
        )

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        raw = os.environ.get(FAULT_PLAN_ENV)
        if not raw:
            return None
        try:
            spec = json.loads(raw)
        except ValueError:
            return None
        if not isinstance(spec, dict):
            return None
        return cls.from_json(spec)

    # -- trigger points ------------------------------------------------

    def worker_request(self, worker: int) -> tuple[bool, bool]:
        """Count one forwarded request; returns ``(kill_now, drop_reply)``."""
        with self._lock:
            count = self._requests.get(worker, 0) + 1
            self._requests[worker] = count
            kill = (
                not self._killed
                and self.kill_worker == worker
                and count >= self.kill_on_request
            )
            if kill:
                self._killed = True
            drop = (
                not self._dropped
                and self.drop_worker == worker
                and count >= self.drop_on_request
            )
            if drop:
                self._dropped = True
            return kill, drop

    def delay_before(self, cmd: str) -> float:
        """Seconds to sleep before forwarding ``cmd`` (0.0 = no fault)."""
        if self.delay_cmd is None or cmd != self.delay_cmd:
            return 0.0
        with self._lock:
            if self._delays_left < 0:
                self._delays_left = max(0, self.delay_times)
            if self._delays_left == 0:
                return 0.0
            self._delays_left -= 1
            return max(0.0, self.delay_seconds)

    def corrupts_record(self, session: str, seq: int) -> bool:
        """True exactly once for the configured ``(session, seq)`` record."""
        if self.corrupt_session is None or self.corrupt_seq is None:
            return False
        with self._lock:
            if self._corrupted:
                return False
            if session != self.corrupt_session or seq != self.corrupt_seq:
                return False
            self._corrupted = True
            return True

    def describe(self) -> dict:
        """Introspection for tests and the chaos benchmark."""
        with self._lock:
            return {
                "kill": {"worker": self.kill_worker, "fired": self._killed},
                "drop": {"worker": self.drop_worker, "fired": self._dropped},
                "delay": {"cmd": self.delay_cmd, "left": self._delays_left},
                "corrupt": {
                    "session": self.corrupt_session,
                    "fired": self._corrupted,
                },
                "requests": dict(self._requests),
            }


# ----------------------------------------------------------------------
# the process-active plan
# ----------------------------------------------------------------------

_INSTALLED: FaultPlan | None = None
_ENV_PLAN: FaultPlan | None = None
_ENV_RAW: str | None = None
_GUARD = threading.Lock()


def install(plan: FaultPlan | None) -> None:
    """Activate ``plan`` in this process (tests); ``None`` clears it."""
    global _INSTALLED
    with _GUARD:
        _INSTALLED = plan


def clear() -> None:
    """Drop both the installed plan and the cached env parse."""
    global _INSTALLED, _ENV_PLAN, _ENV_RAW
    with _GUARD:
        _INSTALLED = None
        _ENV_PLAN = None
        _ENV_RAW = None


def active_plan() -> FaultPlan | None:
    """The plan in force: an installed one wins over the environment.

    The env parse is cached against the raw variable value, so the
    common no-fault case is one ``os.environ`` lookup per call — cheap
    enough to sit on the per-request path — while changing the
    variable mid-process (tests) still takes effect.
    """
    global _ENV_PLAN, _ENV_RAW
    with _GUARD:
        if _INSTALLED is not None:
            return _INSTALLED
        raw = os.environ.get(FAULT_PLAN_ENV)
        if raw != _ENV_RAW:
            _ENV_RAW = raw
            _ENV_PLAN = FaultPlan.from_env()
        return _ENV_PLAN

"""Session lifecycle for the serving tier.

A :class:`SessionManager` owns many named
:class:`~repro.frontend.session.DBWipesSession` objects, giving the
single-user session abstraction the properties a server needs:

* **per-session locks** — two clients driving the same session name
  serialize, so the Figure-1 state machine never sees interleaved
  mutations;
* **LRU eviction** — at most ``max_sessions`` live sessions; opening
  one more silently drops the least recently used (a conference demo's
  attendees walk away without logging out);
* **TTL expiry** — sessions idle longer than ``ttl_seconds`` are
  reaped lazily on any manager access (no background thread needed);
* **shared read-only state** — every session gets the catalog's shared
  :class:`~repro.db.Database` and the manager-wide
  :class:`~repro.core.preprocessor.PreprocessCache`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator

from ..core.pipeline import PipelineConfig
from ..errors import ServiceError
from ..frontend.session import DBWipesSession
from ..obs.flags import enabled as obs_enabled
from ..obs.metrics import registry as obs_registry
from .cache import DatasetCatalog, PreprocessCache
from .journal import JournalStore, LoadedJournal


class ManagedSession:
    """One named session plus its lock and bookkeeping."""

    __slots__ = (
        "name",
        "dataset",
        "session",
        "lock",
        "created_at",
        "last_used",
        "requests",
        "busy",
        "journal",
    )

    def __init__(
        self, name: str, dataset: str, session: DBWipesSession, now: float
    ):
        self.name = name
        self.dataset = dataset
        self.session = session
        self.lock = threading.RLock()
        self.created_at = now
        self.last_used = now
        self.requests = 0
        #: The session's :class:`~repro.service.journal.SessionJournal`
        #: when the manager has a durable data dir, else None.
        self.journal = None
        #: In-flight ``borrow()`` count (manager-lock protected). Evicting
        #: a session while a request runs on it would orphan that request
        #: and surface as UnknownSession on the next one, so eviction
        #: (LRU and TTL alike) skips sessions with ``busy > 0``.
        self.busy = 0

    def info(self, now: float) -> dict:
        """A JSON-safe summary for the ``sessions`` command."""
        return {
            "name": self.name,
            "dataset": self.dataset,
            "state": self.session.state,
            "requests": self.requests,
            "idle_seconds": max(0.0, now - self.last_used),
            "age_seconds": max(0.0, now - self.created_at),
        }


def check_limits(max_sessions: int, ttl_seconds: float | None) -> None:
    """Refuse session limits that no manager can serve under.

    :class:`SessionManager` checks them when it is built, and so does
    :class:`~repro.service.workers.WorkerPool` before it spawns a worker
    whose manager would refuse them.
    """
    if max_sessions < 1:
        raise ServiceError("max_sessions must be >= 1")
    if ttl_seconds is not None and not ttl_seconds > 0:
        raise ServiceError("ttl_seconds must be positive (or None)")


class SessionManager:
    """Thread-safe registry of named sessions with LRU + TTL eviction."""

    def __init__(
        self,
        catalog: DatasetCatalog | None = None,
        config: PipelineConfig | None = None,
        max_sessions: int = 64,
        ttl_seconds: float | None = None,
        preprocess_cache: PreprocessCache | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        check_limits(max_sessions, ttl_seconds)
        # "is not None" coalescing: SessionManager and PreprocessCache
        # define __len__, so an empty-but-real instance is falsy.
        self.catalog = (
            catalog if catalog is not None else DatasetCatalog.with_demo_datasets()
        )
        self.config = config
        self.max_sessions = max_sessions
        self.ttl_seconds = ttl_seconds
        self.preprocess_cache = (
            preprocess_cache if preprocess_cache is not None else PreprocessCache()
        )
        # A durable data dir also enables session journaling: every
        # state-mutating command lands in a per-session journal, so a
        # crashed or drained worker's sessions can be replayed anywhere
        # (see service/journal.py). Memory-only managers keep the old
        # lose-on-crash semantics.
        self.journals = None
        if self.catalog.data_dir is not None:
            self.journals = JournalStore(self.catalog.data_dir / "journal")
        self._clock = clock
        self._lock = threading.Lock()
        #: name -> ManagedSession, in least-recently-used-first order.
        self._sessions: OrderedDict[str, ManagedSession] = OrderedDict()
        self._lru_evictions = 0
        self._ttl_evictions = 0
        # Shared-registry mirrors of the ad-hoc counters above. The open
        # gauge moves by deltas (not ``set(len)``) so several managers in
        # one process — tests, embedded servers — share it correctly.
        reg = obs_registry()
        self._m_open = reg.gauge(
            "dbwipes_sessions_open", help="Live sessions in this process."
        )
        self._m_requests = reg.counter(
            "dbwipes_session_requests_total",
            help="Session-scoped requests served (borrow count).",
        )
        self._m_lru = reg.counter(
            "dbwipes_session_lru_evictions_total",
            help="Sessions evicted by the LRU bound.",
        )
        self._m_ttl = reg.counter(
            "dbwipes_session_ttl_evictions_total",
            help="Sessions reaped by TTL expiry.",
        )
        self._m_recovered = reg.counter(
            "dbwipes_sessions_recovered_total",
            help="Sessions rebuilt by replaying their journal.",
        )
        # Slow requests are counted per command when the first one is
        # logged; this unlabeled series exposes the family at zero before
        # that, as CORE_METRICS requires.
        reg.counter(
            "dbwipes_slow_requests_total",
            help="Requests slower than the slow-request threshold.",
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def open(
        self, name: str, dataset: str, history: LoadedJournal | None = None
    ) -> ManagedSession:
        """Create (or return) the named session over a shared dataset.

        Reopening a live name on the same dataset is idempotent;
        reopening it on a *different* dataset is an error (close first).
        A live copy whose journal another worker has appended past is
        stale (see :meth:`live`): it is dropped, and the open starts a
        fresh history, as an open of a name that is not live does.
        ``history`` makes the new session adopt a loaded journal instead
        of starting one: :func:`~repro.service.handlers._recover` replays
        it, and nothing is written.
        """
        if not name:
            raise ServiceError("session name must be non-empty")
        db = self.catalog.get(dataset)  # outside the lock: may build
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            existing = self._live_locked(name)
            if existing is not None:
                if existing.dataset != dataset:
                    raise ServiceError(
                        f"session {name!r} is open on dataset "
                        f"{existing.dataset!r}; close it before reopening "
                        f"on {dataset!r}"
                    )
                self._touch_locked(existing, now)
                return existing
            session = DBWipesSession(
                db, config=self.config, preprocess_cache=self.preprocess_cache
            )
            managed = ManagedSession(name, dataset, session, now)
            if self.journals is not None:
                # An explicit open starts a fresh history (truncating any
                # stale journal left by an evicted predecessor).
                managed.journal = (
                    self.journals.create(name, dataset)
                    if history is None
                    else self.journals.adopt(history)
                )
            self._sessions[name] = managed
            self._mirror_open(+1)
            while len(self._sessions) > self.max_sessions:
                # Least-recently-used first, but never a session with an
                # in-flight borrow: evicting one would orphan the running
                # request (it finishes on a session the manager no longer
                # knows, and the client's next request gets
                # UnknownSession). Take the next-least-recent idle one;
                # if every other session is busy, temporarily exceed the
                # bound rather than break an in-flight request.
                victim = next(
                    (
                        candidate
                        for candidate in self._sessions.values()
                        if candidate.busy == 0 and candidate.name != name
                    ),
                    None,
                )
                if victim is None:
                    break
                self._drop_locked(victim.name)
                self._lru_evictions += 1
                if obs_enabled():
                    self._m_lru.inc()
            return managed

    def live(self, name: str) -> ManagedSession | None:
        """The live session ``name``, or ``None``.

        A live copy is current only while its journal file is a prefix
        of its records; a missing file counts as current. A copy that
        another worker has journaled past (after a failover moved the
        session away and back) is dropped here, its journal kept, so the
        caller replays the journal instead of serving stale state.
        """
        with self._lock:
            self._expire_locked(self._clock())
            return self._live_locked(name)

    def forget(self, name: str) -> None:
        """Drop a live session but keep its journal for a later replay."""
        with self._lock:
            if name in self._sessions:
                self._drop_locked(name)

    def get(self, name: str) -> ManagedSession:
        """Look up a live session; raises ServiceError when unknown."""
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            managed = self._sessions.get(name)
            if managed is None:
                raise ServiceError(
                    f"unknown session {name!r}; open it first",
                    kind="UnknownSession",
                )
            self._touch_locked(managed, now)
            return managed

    @contextmanager
    def borrow(self, name: str) -> Iterator[DBWipesSession]:
        """Exclusive access to a session for one request.

        Bumps LRU recency and the request counter, then yields the
        underlying :class:`DBWipesSession` under its per-session lock.
        While borrowed, the session is marked busy so no eviction path
        (LRU or TTL) can drop it out from under the running request.
        """
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            managed = self._sessions.get(name)
            if managed is None:
                raise ServiceError(
                    f"unknown session {name!r}; open it first",
                    kind="UnknownSession",
                )
            self._touch_locked(managed, now)
            managed.busy += 1
        try:
            with managed.lock:
                managed.requests += 1
                if obs_enabled():
                    self._m_requests.inc()
                yield managed.session
        finally:
            with self._lock:
                managed.busy -= 1

    def close(self, name: str) -> None:
        """Drop a session explicitly."""
        with self._lock:
            if name not in self._sessions:
                raise ServiceError(
                    f"unknown session {name!r}", kind="UnknownSession"
                )
            self._drop_locked(name)
        if self.journals is not None:
            # A deliberate close forgets the history too; only eviction
            # and crashes leave the journal behind for recovery.
            self.journals.discard(name)

    # ------------------------------------------------------------------
    # journaling & recovery
    # ------------------------------------------------------------------

    def record(self, name: str, cmd: str, args: dict) -> None:
        """Journal one successfully executed state-mutating command.

        Called by the dispatcher *after* the handler returns, so failed
        commands never pollute the replay history. Publication failures
        degrade (counted in the store) rather than failing the request.
        """
        with self._lock:
            managed = self._sessions.get(name)
            journal = managed.journal if managed is not None else None
        if journal is not None:
            journal.append(cmd, args)

    def journal_all(self) -> int:
        """Re-publish every current live session's journal from memory.

        The drain path calls this before handing sessions off: the
        in-memory record list is authoritative, so this also repairs a
        journal file that was corrupted or lost on disk. A stale copy
        (see :meth:`live`) is dropped instead: publishing it would
        overwrite the history its current owner has journaled.
        """
        if self.journals is None:
            return 0
        with self._lock:
            current = [
                managed
                for name in list(self._sessions)
                if (managed := self._live_locked(name)) is not None
                and managed.journal is not None
            ]
        for managed in current:
            managed.journal.publish()
        return len(current)

    def mark_recovered(self) -> None:
        """Count one journal-replay recovery (called by the dispatcher)."""
        if obs_enabled():
            self._m_recovered.inc()

    def evict_expired(self) -> int:
        """Reap TTL-expired sessions now; returns how many were dropped."""
        with self._lock:
            return self._expire_locked(self._clock())

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def list(self) -> list[dict]:
        """Summaries of every live session, least recently used first."""
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            return [managed.info(now) for managed in self._sessions.values()]

    def stats(self) -> dict:
        """Manager counters plus the shared preprocess-cache counters."""
        now = self._clock()
        with self._lock:
            self._expire_locked(now)
            return {
                "sessions": len(self._sessions),
                "max_sessions": self.max_sessions,
                "ttl_seconds": self.ttl_seconds,
                "lru_evictions": self._lru_evictions,
                "ttl_evictions": self._ttl_evictions,
                "datasets": list(self.catalog.names),
                "preprocess_cache": self.preprocess_cache.stats(),
                "journal": (
                    self.journals.stats() if self.journals is not None else None
                ),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._sessions

    # ------------------------------------------------------------------
    # internals (callers hold self._lock)
    # ------------------------------------------------------------------

    def _live_locked(self, name: str) -> ManagedSession | None:
        managed = self._sessions.get(name)
        if managed is None or managed.journal is None:
            return managed
        loaded = self.journals.load(name)
        if loaded is None or managed.journal.holds(loaded.entries):
            return managed
        self._drop_locked(name)
        return None

    def _drop_locked(self, name: str) -> None:
        del self._sessions[name]
        self._mirror_open(-1)

    def _touch_locked(self, managed: ManagedSession, now: float) -> None:
        managed.last_used = now
        self._sessions.move_to_end(managed.name)

    def _mirror_open(self, delta: int) -> None:
        """Move the shared open-sessions gauge, if telemetry is on.

        Every registry mirror in this class goes through an
        ``obs_enabled()`` gate — uniformly, so that toggling the kill
        switch mid-process cannot desync the gauge from the eviction
        counters (they all freeze and thaw together).
        """
        if not obs_enabled():
            return
        if delta >= 0:
            self._m_open.inc(delta)
        else:
            self._m_open.dec(-delta)

    def _expire_locked(self, now: float) -> int:
        if self.ttl_seconds is None:
            return 0
        expired = [
            name
            for name, managed in self._sessions.items()
            # A busy session is never reaped mid-request, even when its
            # TTL has lapsed; it becomes eligible again once released.
            if now - managed.last_used > self.ttl_seconds and managed.busy == 0
        ]
        for name in expired:
            self._drop_locked(name)
            self._ttl_evictions += 1
            if obs_enabled():
                self._m_ttl.inc()
        return len(expired)

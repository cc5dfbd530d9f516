"""``repro.service`` — the concurrent multi-session serving tier.

The paper demos DBWipes as a shared interactive system: many attendees
brushing, zooming, and debugging at once. This package is that serving
tier for the reproduction:

* :mod:`~repro.service.protocol` — a JSON-line wire protocol exposing
  every :class:`~repro.frontend.session.DBWipesSession` operation;
* :mod:`~repro.service.sessions` — :class:`SessionManager`: many named
  sessions, per-session locks, LRU + TTL eviction;
* :mod:`~repro.service.cache` — :class:`DatasetCatalog` and the shared
  :class:`~repro.core.preprocessor.PreprocessCache`, so N sessions over
  one dataset share one table and one preprocessing result;
* :mod:`~repro.service.workers` — :class:`WorkerPool`: N worker
  processes, each owning a catalog shard and its caches;
* :mod:`~repro.service.router` — :class:`RoutingDispatcher` +
  :func:`~repro.service.router.replica_set`: the scatter-gather front
  end that routes sessions to workers by a hash of the dataset id;
* :mod:`~repro.service.server` — :class:`DBWipesServer`, the
  dependency-free asyncio gateway over either dispatcher: one event
  loop, commands on a bounded executor, admission control (bounded
  in-flight + queue, ``ServerBusy`` shedding with ``retry_after``) with
  a cheap lane outside it, per-connection token-bucket rate limiting,
  and streamed partial ``debug`` frames;
* :mod:`~repro.service.client` — :class:`ServiceClient`, the blocking
  client used by tests, benchmarks, and ``python -m repro connect``;
* :mod:`~repro.service.journal` — :class:`JournalStore`: per-session
  command journals under the durable data dir, the substrate for crash
  recovery (``recover`` replays a journal to rebuild a session
  byte-identically on any worker);
* :mod:`~repro.service.faults` — :class:`FaultPlan`: the deterministic
  fault-injection harness (scripted worker kills, dropped replies,
  delays, journal corruption) driven by tests, the chaos benchmark,
  and the ``REPRO_FAULT_PLAN`` environment knob.

The routed tier self-heals: sessions journal every mutating command,
the router fails crashed requests over along each dataset's replica
set (per-worker circuit breakers, jittered bounded backoff), and
``drain`` rolls a worker out gracefully. The worker count is fixed for
the life of a server; ``recover`` heals sessions across a restart.

Every tier reports into :mod:`repro.obs`: requests are traced across
the router/worker hop, per-stage latencies land in the shared metrics
registry, and the ``metrics``/``trace`` wire commands scatter-gather
the per-process registries and span buffers into one cluster view.
"""

from .cache import DatasetCatalog, PreprocessCache
from .client import ServiceClient
from .faults import FaultPlan
from .handlers import LocalDispatcher
from .journal import JOURNALED_COMMANDS, JournalStore
from .protocol import PROTOCOL_VERSION
from .router import CircuitBreaker, RoutingDispatcher
from .server import DBWipesServer, TokenBucket
from .sessions import ManagedSession, SessionManager
from .workers import WorkerHandle, WorkerPool

__all__ = [
    "CircuitBreaker",
    "DBWipesServer",
    "TokenBucket",
    "DatasetCatalog",
    "FaultPlan",
    "JOURNALED_COMMANDS",
    "JournalStore",
    "LocalDispatcher",
    "ManagedSession",
    "PROTOCOL_VERSION",
    "PreprocessCache",
    "RoutingDispatcher",
    "ServiceClient",
    "SessionManager",
    "WorkerHandle",
    "WorkerPool",
]

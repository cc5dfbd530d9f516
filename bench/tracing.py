"""Layer spans recorded from outside the program.

:func:`install` replaces public callables of each layer with wrappers
that time every call. Spans stay in memory; a process started with a
``flush_dir`` (the traced server and its forked workers) appends its
spans to ``<flush_dir>/<pid>.jsonl`` each time a top-level span ends,
which is once per completed request. :func:`layer_totals` turns the
spans of a measured window into inclusive and self times per layer,
where a span's self time is its length minus the part of it that its
child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from pathlib import Path

_PARENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "bench_span", default=None
)


#: (module, owner class or None for a module function, attribute, span
#: name, what the span counts). Module functions are patched where the
#: caller looks them up, so ``dominant_cluster_mask`` and
#: ``mdl_entropy_edges`` are replaced in the modules that import them.
TARGETS = (
    ("repro.core.backend", "InProcessBackend", "debug", "core.backend.debug", None),
    ("repro.core.preprocessor", "Preprocessor", "run", "core.preprocessor.run", None),
    ("repro.core.enumerator", "DatasetEnumerator", "run", "core.enumerator.run", None),
    ("repro.core.enumerator", "DatasetEnumerator", "clean_dprime",
     "core.enumerator.clean", None),
    ("repro.core.enumerator", None, "dominant_cluster_mask", "learn.kmeans.mask", None),
    ("repro.learn.subgroup", "SubgroupDiscovery", "fit", "learn.subgroup.fit", None),
    ("repro.learn.subgroup", None, "mdl_entropy_edges", "learn.discretize.mdl",
     lambda args, kwargs, result: len(args[0] if args else kwargs["values"])),
    ("repro.core.predicates", "PredicateEnumerator", "run", "core.predicates.run",
     lambda args, kwargs, result: len(result)),
    ("repro.learn.tree", "DecisionTree", "fit", "learn.tree.fit", None),
    ("repro.learn.tree", "DecisionTree", "prune_reduced_error", "learn.tree.prune", None),
    ("repro.learn.tree", "DecisionTree", "cost_complexity_prune", "learn.tree.prune", None),
    ("repro.core.preprocessor", "PreprocessResult", "split_index",
     "learn.split_index.build", None),
    ("repro.core.preprocessor", "PreprocessResult", "mask_engine",
     "core.maskset.engine", None),
    ("repro.core.ranker", "PredicateRanker", "run", "core.ranker.run",
     lambda args, kwargs, result: len(result)),
    ("repro.db.catalog", "Database", "sql", "db.executor.sql", None),
    ("repro.service.router", "RoutingDispatcher", "handle_async",
     "service.router.handle", None),
    ("repro.service.workers", "WorkerPool", "call", "service.workers.call", None),
    ("repro.service.workers", "WorkerPool", "call_async", "service.workers.call", None),
    ("repro.service.handlers", None, "dispatch", "service.handlers.dispatch", None),
)

#: The pipeline stages called directly by ``core.backend.debug``; what
#: they do not cover is reported as ``core.backend.unattributed_s``.
STAGES = (
    "core.preprocessor.run",
    "core.enumerator.run",
    "core.predicates.run",
    "core.ranker.run",
)


class Recorder:
    """Finished spans of this process, as ``[name, start, end, id,
    parent, pid, count]`` lists. Times are ``time.perf_counter()``, the
    system-wide monotonic clock on Linux, so spans from the server
    processes line up with the load generator's measured window."""

    def __init__(self, flush_dir: str | os.PathLike | None = None):
        self.flush_dir = Path(flush_dir) if flush_dir is not None else None
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._file = None

    def _finish(self, record: list) -> None:
        with self._lock:
            if record[5] != self._pid:
                # A forked worker starts with its parent's buffer and file.
                self._pid = record[5]
                self.spans = []
                self._file = None
            self.spans.append(record)
            if self.flush_dir is None or record[4] is not None:
                return
            if self._file is None:
                # Open for the life of the process, flushed per write, so
                # a worker ending in os._exit loses nothing.
                self._file = open(self.flush_dir / f"{self._pid}.jsonl", "a")
            # One line per completed request: a JSON list of its spans.
            self._file.write(json.dumps(self.spans) + "\n")
            self._file.flush()
            self.spans = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` with every call recorded as a span named ``name``."""
        recorder = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                parent = _PARENT.get()
                span_id = next(recorder._ids)
                token = _PARENT.set(span_id)
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    _PARENT.reset(token)
                recorder._finish(
                    [name, start, end, span_id, parent, os.getpid(),
                     count(args, kwargs, result) if count else 1]
                )
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = _PARENT.get()
            span_id = next(recorder._ids)
            token = _PARENT.set(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _PARENT.reset(token)
            recorder._finish(
                [name, start, end, span_id, parent, os.getpid(),
                 count(args, kwargs, result) if count else 1]
            )
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every callable in :data:`TARGETS` (imports the program)."""
    for module_name, owner, attr, name, count in TARGETS:
        module = importlib.import_module(module_name)
        holder = getattr(module, owner) if owner else module
        setattr(holder, attr, recorder.wrap(name, getattr(holder, attr), count))


def read_flushed(flush_dir: str | os.PathLike) -> list[list]:
    """Every span the server processes appended under ``flush_dir``."""
    spans: list[list] = []
    for path in sorted(Path(flush_dir).glob("*.jsonl")):
        with path.open() as handle:
            for line in handle:
                if line.strip():
                    spans.extend(json.loads(line))
    return spans


def layer_totals(spans: list[list], start: float, end: float) -> dict:
    """Per span name: ``total`` (inclusive s), ``self`` (s), ``calls``
    and ``count`` (summed span counts), over spans inside the window."""
    inside = [s for s in spans if s[1] >= start and s[2] <= end]
    children: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for name, s0, s1, span_id, parent, pid, count in inside:
        if parent is not None:
            children.setdefault((pid, parent), []).append((s0, s1))
    totals: dict[str, dict] = {}
    for name, s0, s1, span_id, parent, pid, count in inside:
        entry = totals.setdefault(
            name, {"total": 0.0, "self": 0.0, "calls": 0, "count": 0}
        )
        duration = s1 - s0
        entry["total"] += duration
        entry["self"] += duration - _covered(children.get((pid, span_id), []))
        entry["calls"] += 1
        entry["count"] += count
    return totals


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    covered = 0.0
    reach = float("-inf")
    for s0, s1 in sorted(intervals):
        if s1 <= reach:
            continue
        covered += s1 - max(s0, reach)
        reach = s1
    return covered

"""The Preprocessor: from (Q results, S, ε) to (F, influence ranking).

Paper §2.2.2: *"First, the Preprocessor computes F, the set of input
tuples that generated S; F − D' is an approximate set of error-free
input tuples. It then uses leave-one-out analysis to rank each tuple in
F by how much it influences ε."*

The fine-grained provenance captured at execution time supplies the
group→tids map; the statement AST supplies the aggregate argument
expression so input values can be re-derived for any subset of tuples.

Preprocessing is the most *shareable* stage of the pipeline: its output
depends only on (base table, query text, S, ε, debugged aggregate) — not
on D' or any enumerator/ranker tunable. :class:`PreprocessCache` keys on
exactly that identity so N concurrent sessions debugging the same
selection of the same query share one :class:`PreprocessResult` (and
with it the segmented kernels, column discretizations, and the
tree-induction :class:`~repro.learn.split_index.SplitIndex` it caches).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Hashable, Sequence

import numpy as np

from ..db.aggregates import Aggregate, get_aggregate
from ..db.result import ResultSet
from ..db.segments import SegmentedValues
from ..db.sqlparse.ast_nodes import AggregateCall, Star
from ..db.table import Table
from ..errors import PipelineError
from ..obs.flags import enabled as obs_enabled
from ..obs.metrics import registry as obs_registry
from .error_metrics import ErrorMetric, metric_spec
from .influence import InfluenceResult, leave_one_out_influence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..learn.split_index import SplitIndex
    from .maskset import ClauseMaskCache


@dataclass(frozen=True)
class PreprocessResult:
    """Everything downstream stages need about the debugged selection."""

    #: Union of input tuples behind the selected rows (the paper's F).
    F: Table
    #: Leave-one-out influence ranking over F.
    influence: InfluenceResult
    #: The selected result-row indexes (the paper's S).
    selected_rows: tuple[int, ...]
    #: The error metric ε.
    metric: ErrorMetric
    #: Output column being debugged.
    agg_name: str
    #: Aggregate implementation for that column.
    aggregate: Aggregate
    #: Per selected group: input values of the aggregate argument.
    group_values: tuple[np.ndarray, ...]
    #: Per selected group: tids aligned with ``group_values``.
    group_tids: tuple[np.ndarray, ...]
    #: Memo of per-column artifacts shared across enumerator strategies
    #: (numeric casts of F's columns, discretization edges). Keyed by
    #: column name / (column, bins); populated lazily. Races are benign
    #: (recompute yields an identical value).
    _column_memo: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def epsilon(self) -> float:
        """ε of the current (uncleaned) selection."""
        return self.influence.epsilon

    @cached_property
    def segments(self) -> SegmentedValues:
        """All selected groups' aggregate inputs as one segmented array.

        This is the structure the grouped Δε kernels consume; it is
        built once per debugging request and shared by the Ranker and
        Merger across every candidate predicate.
        """
        return SegmentedValues.from_arrays(list(self.group_values))

    @cached_property
    def flat_tids(self) -> np.ndarray:
        """Tids aligned with ``segments.values`` (groups concatenated)."""
        if not self.group_tids:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(
            [np.asarray(t, dtype=np.int64) for t in self.group_tids]
        )

    # -- shared per-column artifacts ------------------------------------

    def numeric_values(self, column: str) -> np.ndarray:
        """``F[column]`` as float64, computed once and shared.

        The dataset enumerator's cleaning strategies (k-means, NB) and
        the rule learners all need numeric casts of the same columns of
        F; this memo makes the cast happen once per debugging request
        instead of once per strategy.
        """
        key = ("numeric", column)
        cached = self._column_memo.get(key)
        if cached is None:
            cached = np.asarray(self.F.column(column), dtype=np.float64)
            self._column_memo[key] = cached
        return cached

    def frequency_edges(self, column: str, bins: int) -> tuple[float, ...]:
        """Equal-frequency discretization edges of ``F[column]``, shared.

        CN2-SD subgroup discovery (and any other strategy that needs
        class-agnostic threshold candidates) re-derived these quantile
        cuts per invocation; they depend only on F's value distribution,
        so one computation serves every strategy and every candidate.
        """
        from ..learn.discretize import equal_frequency_edges

        key = ("freq_edges", column, int(bins))
        cached = self._column_memo.get(key)
        if cached is None:
            cached = tuple(equal_frequency_edges(self.numeric_values(column), bins))
            self._column_memo[key] = cached
        return cached

    def split_index(
        self,
        features: Sequence[str] | None = None,
        max_thresholds: int = 32,
    ) -> "SplitIndex":
        """Shared tree-induction index over F's columns, computed once.

        The Predicate Enumerator fits K candidate × S strategy decision
        trees per debug cycle, and every fit needs the same candidate
        thresholds, distinct values, and bin codes. Like
        :meth:`numeric_values` and :meth:`frequency_edges`, the index
        rides on this (cached) result, so in the service it is shared
        across sessions, not just across strategies. Reuses the
        :meth:`numeric_values` casts.
        """
        from ..learn.split_index import SplitIndex

        features = (
            tuple(features) if features is not None else tuple(self.F.schema.names)
        )
        key = ("split_index", features, int(max_thresholds))
        cached = self._column_memo.get(key)
        if cached is None:
            cached = SplitIndex.build(
                self.F,
                features,
                max_thresholds=max_thresholds,
                numeric_values=self.numeric_values,
            )
            self._column_memo[key] = cached
        return cached

    @cached_property
    def segment_positions(self) -> np.ndarray:
        """Row positions of F's tuples in segment order.

        Gathering any F-aligned per-row artifact (numeric casts,
        ``SplitIndex`` bin codes, predicate masks) through this
        permutation re-aligns it with :attr:`segments` without
        re-deriving it.
        """
        return self.F.positions_of(self.flat_tids)

    def mask_engine(self) -> "ClauseMaskCache":
        """Shared batched mask engine, computed once per cached result.

        The Ranker and Merger evaluate every candidate predicate against
        F through the engine (:class:`~repro.core.maskset.ClauseMaskCache`),
        which evaluates each *distinct clause* once, bit-packed. It reads
        F's all-column :meth:`split_index` and the :meth:`numeric_values`
        casts, which the tree fits have already built by ranking time.
        In the service one engine serves every session debugging the
        same selection. The engine holds F, the index and the casts, none
        of which refers back to this result, so no reference cycle forms.
        """
        from ..learn.split_index import NumericColumnIndex
        from .maskset import ClauseMaskCache

        key = ("mask_engine",)
        cached = self._column_memo.get(key)
        if cached is None:
            index = self.split_index()
            casts = {
                name: self.numeric_values(name)
                for name, column in index.columns.items()
                if isinstance(column, NumericColumnIndex)
            }
            cached = ClauseMaskCache(self.F, index, casts)
            self._column_memo[key] = cached
        return cached

    def stage_memo(self, key: Hashable):
        """The enumeration outputs remembered for ``key``, or ``None``.

        The dataset and predicate enumerators' outputs depend only on
        this result, D' and the two stages' tunables; the backend keys
        them on a D' digest plus a value key of those tunables and keeps
        them here, next to :meth:`split_index` and :meth:`mask_engine`,
        so a repeated debug — in the service, by any session with an
        equal config — skips both stages. One entry: the last answer,
        replaced by :meth:`remember_stages` on a different key.
        """
        entry = self._column_memo.get(("stages",))
        if entry is not None and entry[0] == key:
            return entry[1]
        return None

    def remember_stages(self, key: Hashable, outputs) -> None:
        """Make ``outputs`` the one :meth:`stage_memo` entry."""
        self._column_memo[("stages",)] = (key, outputs)


class PreprocessCache:
    """A thread-safe keyed LRU cache of :class:`PreprocessResult` values.

    Concurrent sessions debugging the same (table, query, S, ε, agg)
    share one computation: the first requester computes while later
    requesters for the same key block on an event and then reuse the
    value. Distinct keys never block each other. Hit/miss/eviction
    counters feed the service's ``stats`` endpoint and the throughput
    benchmark.
    """

    def __init__(self, max_entries: int = 64):
        if max_entries < 1:
            raise PipelineError("max_entries must be >= 1")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, PreprocessCache._Entry] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # Mirror the ad-hoc counters into the shared telemetry registry:
        # get-or-create means every cache instance in a process feeds the
        # same process-wide counters (the ``metrics`` command merges the
        # per-process values cluster-wide).
        reg = obs_registry()
        self._m_hits = reg.counter(
            "dbwipes_preprocess_cache_hits_total",
            help="Preprocess cache lookups served from cache.",
        )
        self._m_misses = reg.counter(
            "dbwipes_preprocess_cache_misses_total",
            help="Preprocess cache lookups that computed a fresh result.",
        )
        self._m_evictions = reg.counter(
            "dbwipes_preprocess_cache_evictions_total",
            help="Preprocess cache entries evicted by the LRU bound.",
        )

    class _Entry:
        __slots__ = ("ready", "value", "error")

        def __init__(self) -> None:
            self.ready = threading.Event()
            self.value: PreprocessResult | None = None
            self.error: BaseException | None = None

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], PreprocessResult]
    ) -> PreprocessResult:
        """Return the cached value for ``key``, computing it at most once."""
        owner = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                if obs_enabled():
                    self._m_hits.inc()
            else:
                entry = PreprocessCache._Entry()
                self._entries[key] = entry
                self._misses += 1
                if obs_enabled():
                    self._m_misses.inc()
                owner = True
                while len(self._entries) > self.max_entries:
                    old_key, old_entry = next(iter(self._entries.items()))
                    if old_entry is entry:
                        break
                    del self._entries[old_key]
                    self._evictions += 1
                    if obs_enabled():
                        self._m_evictions.inc()
        if owner:
            try:
                value = compute()
            except BaseException as error:
                # Failed computations are not cached; waiters see the error.
                entry.error = error
                entry.ready.set()
                with self._lock:
                    if self._entries.get(key) is entry:
                        del self._entries[key]
                raise
            entry.value = value
            entry.ready.set()
            return value
        entry.ready.wait()
        if entry.error is not None:
            raise entry.error
        assert entry.value is not None
        return entry.value

    def stats(self) -> dict:
        """Counters: hits, misses, evictions, current entries."""
        with self._lock:
            total = self._hits + self._misses
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "entries": len(self._entries),
                "hit_rate": (self._hits / total) if total else 0.0,
            }

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def preprocess_key(
    result: ResultSet,
    selected_rows: Sequence[int],
    metric: ErrorMetric,
    agg_name: str | None,
) -> Hashable:
    """The cache identity of a preprocessing request.

    The scanned source table is identified by object identity: sharing
    only happens between sessions served from one catalog (which hands
    every session the same :class:`~repro.db.table.Table` object), never
    between coincidentally equal tables. The statement text captures the
    WHERE clause, so the post-WHERE base needs no separate identity.
    Built-in metrics also contribute their exact parameters, because
    ``describe()`` rounds a threshold to six significant digits; any
    other metric contributes the object itself (identity-hashed), since
    its description need not capture its behaviour.
    """
    base = result.source
    spec = metric_spec(metric)
    # The table object itself (identity-hashed) anchors the key: holding
    # it in the cache prevents id() reuse after garbage collection.
    return (
        base,
        len(base),
        result.statement.to_sql(),
        tuple(int(r) for r in selected_rows),
        type(metric).__name__,
        metric.describe(),
        metric.combine,
        tuple(sorted(spec.items())) if spec is not None else metric,
        agg_name,
    )


class Preprocessor:
    """Computes F and the influence ranking for a debugging request.

    Every request goes through a :class:`PreprocessCache`: the shared
    one when given (the service's), else a private one-entry cache, so
    a standalone session re-debugging one selection reuses its result
    and everything memoized on it.
    """

    def __init__(self, cache: PreprocessCache | None = None):
        self.cache = cache if cache is not None else PreprocessCache(max_entries=1)

    def run(
        self,
        result: ResultSet,
        selected_rows: list[int] | tuple[int, ...] | np.ndarray,
        metric: ErrorMetric,
        agg_name: str | None = None,
    ) -> PreprocessResult:
        """Compute :class:`PreprocessResult` for the selection ``S``.

        ``agg_name`` picks which aggregate output column is being debugged;
        it defaults to the first aggregate in the SELECT list. Identical
        requests (same table object, query, S, ε, aggregate) reuse one
        cached result.
        """
        if agg_name is None and result.aggregate_names:
            # Normalize the default so explicit and implicit requests for
            # the first aggregate share one cache entry.
            agg_name = result.aggregate_names[0]
        key = preprocess_key(result, selected_rows, metric, agg_name)
        return self.cache.get_or_compute(
            key, lambda: self._compute(result, selected_rows, metric, agg_name)
        )

    def _compute(
        self,
        result: ResultSet,
        selected_rows: list[int] | tuple[int, ...] | np.ndarray,
        metric: ErrorMetric,
        agg_name: str | None = None,
    ) -> PreprocessResult:
        selected = tuple(int(r) for r in selected_rows)
        if not selected:
            raise PipelineError("S is empty: select at least one suspicious result")
        for row in selected:
            if row < 0 or row >= result.num_rows:
                raise PipelineError(f"selected row {row} out of range")
        if not result.aggregate_names:
            raise PipelineError("ranked provenance requires an aggregate query")
        if agg_name is None:
            agg_name = result.aggregate_names[0]
        if agg_name not in result.aggregate_names:
            raise PipelineError(
                f"{agg_name!r} is not an aggregate output "
                f"(have: {result.aggregate_names})"
            )
        call = self._find_call(result, agg_name)
        aggregate = get_aggregate(call.func)
        base = result.fine.base

        # Evaluate the aggregate argument once over the whole post-WHERE
        # base and gather per-group slices by position — no per-group
        # table materialization or expression re-evaluation.
        values_all = _agg_arg_values(call, base)
        group_values: list[np.ndarray] = []
        group_tids: list[np.ndarray] = []
        for row in selected:
            tids = result.fine.lineage(row)
            group_values.append(values_all[base.positions_of(tids)])
            group_tids.append(tids)

        influence = leave_one_out_influence(
            group_values,
            group_tids,
            list(selected),
            aggregate,
            metric,
        )
        F = result.fine.lineage_table_many(list(selected))
        return PreprocessResult(
            F=F,
            influence=influence,
            selected_rows=selected,
            metric=metric,
            agg_name=agg_name,
            aggregate=aggregate,
            group_values=tuple(group_values),
            group_tids=tuple(group_tids),
        )

    @staticmethod
    def _find_call(result: ResultSet, agg_name: str) -> AggregateCall:
        # Walk the SELECT items in output order, matching planner naming.
        from ..db.planner import plan_select

        plan = plan_select(result.statement, result.fine.base.schema)
        for spec in plan.aggs:
            if spec.output_name == agg_name:
                return spec.call
        raise PipelineError(f"could not resolve aggregate column {agg_name!r}")


def _agg_arg_values(call: AggregateCall, table: Table) -> np.ndarray:
    """The aggregate argument evaluated over a group's tuples."""
    if isinstance(call.arg, Star):
        return np.ones(len(table), dtype=np.float64)
    values = call.arg.eval(table)
    if values.dtype == object:
        if call.func == "count":
            return np.fromiter(
                (np.nan if v is None else 1.0 for v in values),
                dtype=np.float64,
                count=len(values),
            )
        raise PipelineError(f"{call.func}() argument is not numeric")
    return np.asarray(values, dtype=np.float64)

"""The execution backend: how one ``debug()`` request is run.

The pipeline's five stages (Preprocessor → Dataset Enumerator →
Predicate Enumerator → Ranker → optional Merger) are *what* to compute;
:class:`InProcessBackend` runs them, one after another, over the whole
selection in one process.

The backend memoizes the two enumeration stages on the
:class:`~repro.core.preprocessor.PreprocessResult`: their outputs are
pure functions of that result, D' and the stages' tunables, so a debug
that repeats those inputs skips k-means cleaning, CN2-SD and every tree
fit, and only ranks and merges again.

``RankedProvenance`` is a thin facade over the backend; the service
tier reads :meth:`InProcessBackend.stats` into ``snapshot()`` so
clients can see the debug and stage-memo counters behind their answers.
"""

from __future__ import annotations

import hashlib
import time
from typing import Callable, Sequence

import numpy as np

from ..db.result import ResultSet
from ..obs.flags import enabled as obs_enabled
from ..obs.metrics import registry as obs_registry
from ..obs.trace import span as obs_span
from .enumerator import DatasetEnumerator
from .error_metrics import ErrorMetric
from .merger import PredicateMerger
from .predicates import PredicateEnumerator
from .preprocessor import PreprocessCache, Preprocessor
from .ranker import PredicateRanker
from .report import DebugReport

_MEMO_HITS = "dbwipes_stage_memo_hits_total"
_MEMO_MISSES = "dbwipes_stage_memo_misses_total"


class InProcessBackend:
    """The single-process engine: one pass over the whole table."""

    def __init__(self, config, preprocess_cache: PreprocessCache | None = None):
        self.config = config
        self._debug_count = 0
        self._memo_hits = 0
        self._memo_misses = 0
        # Registered up front so both expose at zero before any debug.
        reg = obs_registry()
        reg.counter(
            _MEMO_HITS,
            help="Debugs whose enumeration stages were served from the memo.",
        )
        reg.counter(_MEMO_MISSES, help="Debugs that ran the enumeration stages.")
        self._preprocessor = Preprocessor(cache=preprocess_cache)
        self._enumerator = DatasetEnumerator(
            clean_strategy=config.clean_strategy,
            extend=config.extend_with_subgroups,
            influence_quantile=config.influence_quantile,
            subgroup=config.subgroup,
            feature_columns=config.feature_columns,
            max_candidates=config.max_candidates,
            seed=config.seed,
        )
        self._predicates = PredicateEnumerator(
            strategies=config.strategies,
            feature_columns=config.feature_columns,
            min_precision=config.min_precision,
            weight_by_influence=config.weight_by_influence,
            seed=config.seed,
        )
        self._ranker = PredicateRanker(
            weights=config.ranker_weights, max_terms=config.max_terms
        )
        self._merger = None
        if config.merge_predicates:
            self._merger = PredicateMerger(
                weights=config.ranker_weights, max_terms=config.max_terms
            )

    @property
    def preprocess_cache(self) -> PreprocessCache:
        """The preprocess cache: the shared one, or the private one-entry cache."""
        return self._preprocessor.cache

    def stats(self) -> dict:
        """Execution counters for ``snapshot()`` / observability."""
        return {
            "debug_count": self._debug_count,
            "stage_memo": {"hits": self._memo_hits, "misses": self._memo_misses},
        }

    def _count_memo(self, hit: bool) -> None:
        if hit:
            self._memo_hits += 1
        else:
            self._memo_misses += 1
        if obs_enabled():
            obs_registry().counter(_MEMO_HITS if hit else _MEMO_MISSES).inc()

    def debug(
        self,
        result: ResultSet,
        selected_rows: Sequence[int] | np.ndarray,
        metric: ErrorMetric,
        dprime_tids: Sequence[int] | np.ndarray = (),
        agg_name: str | None = None,
        on_partial: Callable[[str, list], None] | None = None,
    ) -> DebugReport:
        """Run the full pipeline and return the ranked predicate report.

        ``on_partial(stage, ranked)``, when given, is invoked with
        intermediate ranked lists as they become available — once after
        the rank stage and once per surviving merge round — so a
        streaming front end can push early answers. The hook observes
        snapshot copies only; the report is identical either way.
        """
        timings: dict[str, float] = {}

        with obs_span("pipeline.debug"):
            start = time.perf_counter()
            with obs_span("stage.preprocess"):
                pre = self._preprocessor.run(
                    result, selected_rows, metric, agg_name=agg_name
                )
            timings["preprocess"] = time.perf_counter() - start

            # Both enumeration stages are pure functions of (pre, D',
            # their tunables): a repeated debug reuses their outputs.
            memo_key = (
                _dprime_digest(dprime_tids),
                self._enumerator.memo_key(),
                self._predicates.memo_key(),
            )
            memo = pre.stage_memo(memo_key)
            self._count_memo(hit=memo is not None)
            source = "memo" if memo is not None else "computed"

            start = time.perf_counter()
            with obs_span("stage.enumerate_datasets", source=source):
                if memo is None:
                    candidates = tuple(self._enumerator.run(pre, dprime_tids))
                    for candidate in candidates:
                        _freeze_candidate(candidate)
                else:
                    candidates = memo[0]
            timings["enumerate_datasets"] = time.perf_counter() - start

            start = time.perf_counter()
            with obs_span("stage.enumerate_predicates", source=source):
                if memo is None:
                    candidate_rules = tuple(self._predicates.run(pre, candidates))
                    for candidate_rule in candidate_rules:
                        _freeze_rule(candidate_rule.rule)
                    pre.remember_stages(memo_key, (candidates, candidate_rules))
                else:
                    candidate_rules = memo[1]
            timings["enumerate_predicates"] = time.perf_counter() - start

            start = time.perf_counter()
            with obs_span("stage.rank"):
                ranked = self._ranker.run(pre, candidates, candidate_rules)
            timings["rank"] = time.perf_counter() - start
            if on_partial is not None:
                on_partial("rank", list(ranked))

            if self._merger is not None:
                start = time.perf_counter()
                with obs_span("stage.merge"):
                    ranked = self._merger.run(
                        pre,
                        candidates,
                        ranked,
                        on_round=(
                            None
                            if on_partial is None
                            else lambda rs: on_partial("merge", rs)
                        ),
                    )
                timings["merge"] = time.perf_counter() - start

        self._debug_count += 1
        if obs_enabled():
            reg = obs_registry()
            reg.counter(
                "dbwipes_debugs_total", help="Pipeline debug() executions."
            ).inc()
            for stage, seconds in timings.items():
                reg.histogram(
                    "dbwipes_stage_seconds",
                    labels={"stage": stage},
                    help="Wall seconds per pipeline stage.",
                ).observe(seconds)
        return DebugReport(
            predicates=tuple(ranked),
            epsilon=pre.epsilon,
            metric_description=metric.describe(),
            selected_rows=pre.selected_rows,
            n_inputs=len(pre.F),
            n_dprime=len(np.asarray(list(dprime_tids), dtype=np.int64)),
            n_candidates=len(candidates),
            timings=timings,
        )


def _dprime_digest(dprime_tids: Sequence[int] | np.ndarray) -> str:
    """Content digest of D' as a set (the enumerator dedupes it)."""
    tids = np.unique(np.asarray(dprime_tids, dtype=np.int64).ravel())
    return hashlib.blake2b(tids.tobytes(), digest_size=16).hexdigest()


def _freeze_array(value) -> None:
    if isinstance(value, np.ndarray):
        value.setflags(write=False)


def _freeze_rule(rule) -> None:
    """Make a memoized rule's arrays reject in-place writes."""
    for value in rule.extra.values():
        _freeze_array(value)


def _freeze_candidate(candidate) -> None:
    """Make a memoized candidate set's arrays reject in-place writes."""
    _freeze_array(candidate.tids)
    for value in candidate.extra.values():
        _freeze_array(value)
    for rule in candidate.rules:
        _freeze_rule(rule)

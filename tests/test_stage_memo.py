"""The enumeration-stage memo: invalidation, key completeness, sharing.

A repeated ``debug()`` answers its candidate sets and rules from the
memo on the cached :class:`PreprocessResult`. Every test here compares
a memoized session's report byte-for-byte with a fresh pipeline's
(its own private cache, so it computes every stage) after one step of
the Figure-1 loop, so a stale memo entry fails loudly.
"""

from __future__ import annotations

import gc
import inspect
import weakref

import numpy as np
import pytest

from repro.core import PipelineConfig, RankedProvenance
from repro.core.enumerator import DatasetEnumerator
from repro.core.predicates import DEFAULT_STRATEGIES, PredicateEnumerator
from repro.core.preprocessor import PreprocessCache, Preprocessor
from repro.data import FECConfig, generate_fec, walkthrough_query
from repro.db import Database
from repro.db.predicate import CategoricalClause, NumericClause, Predicate
from repro.frontend import Brush, DBWipesSession
from repro.learn.subgroup import SubgroupDiscovery
from repro.obs import registry

FEC_CONFIG = FECConfig(
    n_days=150,
    base_rate=10,
    events=((40, 3.0), (90, 4.0)),
    anomaly_day=100,
)


@pytest.fixture(scope="module")
def db() -> Database:
    table, __ = generate_fec(FEC_CONFIG)
    database = Database()
    database.register(table)
    return database


def _lines(report) -> list[str]:
    header = "|".join(
        (
            repr(report.epsilon),
            report.metric_description,
            repr(report.selected_rows),
            str(report.n_inputs),
            str(report.n_dprime),
            str(report.n_candidates),
        )
    )
    return [header] + [
        "|".join(
            (
                ranked.predicate.describe(),
                ranked.predicate.to_sql(),
                repr(ranked.score),
                repr(ranked.epsilon_before),
                repr(ranked.epsilon_after),
                repr(ranked.accuracy),
                str(ranked.n_matched),
                ranked.candidate_origin,
                ranked.source,
            )
        )
        for ranked in report
    ]


def _lowest_rows(session: DBWipesSession, k: int) -> list[int]:
    totals = np.asarray(session.result.column("total"), dtype=np.float64)
    return sorted(int(row) for row in np.argsort(totals, kind="stable")[:k])


def _brush(session: DBWipesSession, k: int = 6, below: float = 0.0, threshold=None):
    """Select the ``k`` lowest days, zoom, brush D' and set the metric."""
    session.select_results(_lowest_rows(session, k))
    session.zoom()
    session.select_inputs(Brush.below(below))
    if threshold is None:
        totals = np.asarray(session.result.column("total"), dtype=np.float64)
        threshold = float(np.median(totals))
    return session.set_metric("too_low", threshold=threshold)


def _memo_stats(session: DBWipesSession) -> dict:
    return dict(session.snapshot()["backend"]["stage_memo"])


def _debug_matches_fresh(session, metric, config=None) -> list[str]:
    """Debug ``session`` and assert a fresh pipeline's report is identical."""
    lines = _lines(session.debug())
    fresh = RankedProvenance(config).debug(
        session.result,
        list(session.selected_rows),
        metric,
        dprime_tids=session.dprime,
    )
    assert lines == _lines(fresh)
    assert len(lines) > 1, "the cycle must rank something"
    return lines


def _session(db, shared: bool) -> DBWipesSession:
    cache = PreprocessCache() if shared else None
    session = DBWipesSession(db, preprocess_cache=cache)
    session.execute(walkthrough_query("MCCAIN"))
    return session


def _pre_of(session: DBWipesSession):
    """The session's most recently used PreprocessResult."""
    entries = session.pipeline.preprocess_cache._entries
    return next(reversed(entries.values())).value


# Standalone sessions keep a private one-entry preprocess cache; service
# sessions share a multi-entry one. Both must never serve a stale memo.
BOTH = pytest.mark.parametrize("shared", [False, True], ids=["private", "shared"])


class TestInvalidation:
    @BOTH
    def test_repeat_hits_and_matches(self, db, shared):
        session = _session(db, shared)
        metric = _brush(session)
        first = _debug_matches_fresh(session, metric)
        second = _debug_matches_fresh(session, metric)
        assert first == second
        assert _memo_stats(session) == {"hits": 1, "misses": 1}

    @BOTH
    def test_changed_dprime(self, db, shared):
        session = _session(db, shared)
        metric = _brush(session)
        _debug_matches_fresh(session, metric)
        session.select_inputs(Brush.below(-1000.0))
        _debug_matches_fresh(session, metric)
        assert _memo_stats(session) == {"hits": 0, "misses": 2}

    @BOTH
    def test_changed_selection(self, db, shared):
        session = _session(db, shared)
        metric = _brush(session, k=6)
        _debug_matches_fresh(session, metric)
        metric = _brush(session, k=9)
        _debug_matches_fresh(session, metric)
        assert _memo_stats(session) == {"hits": 0, "misses": 2}

    @BOTH
    def test_changed_threshold(self, db, shared):
        session = _session(db, shared)
        metric = _brush(session, threshold=250.0)
        _debug_matches_fresh(session, metric)
        # describe() rounds to six significant digits: the key must not.
        nudged = session.set_metric("too_low", threshold=250.0001)
        assert nudged.describe() == metric.describe()
        _debug_matches_fresh(session, nudged)
        _debug_matches_fresh(session, session.set_metric("too_low", threshold=0.0))
        assert _memo_stats(session) == {"hits": 0, "misses": 3}

    @BOTH
    def test_apply_undo_redo(self, db, shared):
        session = _session(db, shared)
        metric = _brush(session)
        original = _debug_matches_fresh(session, metric)

        session.apply_predicate(0)
        metric = _brush(session)
        cleaned = _debug_matches_fresh(session, metric)
        assert cleaned != original

        session.undo_cleaning()
        metric = _brush(session)
        assert _debug_matches_fresh(session, metric) == original

        session.redo_cleaning()
        metric = _brush(session)
        assert _debug_matches_fresh(session, metric) == cleaned

        stats = _memo_stats(session)
        if shared:
            # The multi-entry cache still holds both queries' results,
            # so undo and redo each answer from a memo.
            assert stats == {"hits": 2, "misses": 2}
        else:
            assert stats == {"hits": 0, "misses": 4}

    @pytest.mark.parametrize(
        "change",
        [
            {"clean_strategy": "nb"},
            {"extend_with_subgroups": False},
            {"influence_quantile": 0.5},
            {"strategies": DEFAULT_STRATEGIES[:2]},
            {"min_precision": 0.8},
            {"weight_by_influence": True},
            {"max_candidates": 3},
            {"subgroup": SubgroupDiscovery(beam_width=3)},
            {"feature_columns": ("amount", "state", "occupation")},
            {"seed": 7},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_changed_config_field(self, db, change):
        # Two service sessions share one PreprocessResult; the second's
        # config differs in one field, so it must not see the first's memo.
        cache = PreprocessCache()
        base = DBWipesSession(db, preprocess_cache=cache)
        base.execute(walkthrough_query("MCCAIN"))
        _debug_matches_fresh(base, _brush(base))

        config = PipelineConfig(**change)
        changed = DBWipesSession(db, config, preprocess_cache=cache)
        changed.execute(walkthrough_query("MCCAIN"))
        _debug_matches_fresh(changed, _brush(changed), config)
        assert _memo_stats(changed) == {"hits": 0, "misses": 1}
        assert cache.stats()["misses"] == 1


class TestSharing:
    def test_equal_configs_share_one_answer(self, db):
        cache = PreprocessCache()
        sessions = [DBWipesSession(db, preprocess_cache=cache) for __ in range(2)]
        answers = []
        for session in sessions:
            session.execute(walkthrough_query("MCCAIN"))
            answers.append(_debug_matches_fresh(session, _brush(session)))
        assert answers[0] == answers[1]
        assert _memo_stats(sessions[0]) == {"hits": 0, "misses": 1}
        assert _memo_stats(sessions[1]) == {"hits": 1, "misses": 0}

    def test_sessions_with_different_dprime_get_their_own_answers(self, db):
        cache = PreprocessCache()
        first = DBWipesSession(db, preprocess_cache=cache)
        second = DBWipesSession(db, preprocess_cache=cache)
        for session in (first, second):
            session.execute(walkthrough_query("MCCAIN"))
        metric_a = _brush(first, below=0.0)
        metric_b = _brush(second, below=-1000.0)
        a1 = _debug_matches_fresh(first, metric_a)
        b1 = _debug_matches_fresh(second, metric_b)
        a2 = _debug_matches_fresh(first, metric_a)
        b2 = _debug_matches_fresh(second, metric_b)
        assert a1 == a2 and b1 == b2 and a1 != b1
        # One PreprocessResult (and its one memo entry) served all four
        # debugs; each session's turn replaced the other's answer.
        assert cache.stats()["misses"] == 1
        assert _memo_stats(first) == {"hits": 0, "misses": 2}
        assert _memo_stats(second) == {"hits": 0, "misses": 2}

    def test_one_entry_per_preprocess_result(self, db):
        session = _session(db, shared=True)
        metric = _brush(session)
        for below in (0.0, -1000.0, -1500.0, 0.0):
            session.select_inputs(Brush.below(below))
            _debug_matches_fresh(session, metric)
        memo = _pre_of(session)._column_memo
        assert [key for key in memo if key[0] == "stages"] == [("stages",)]
        # Each D' replaced the last, so the return to D' = below 0 missed.
        assert _memo_stats(session) == {"hits": 0, "misses": 4}


class TestReadOnly:
    def test_memoized_arrays_reject_in_place_writes(self, db):
        session = _session(db, shared=False)
        _debug_matches_fresh(session, _brush(session))
        __, (candidates, rules) = _pre_of(session)._column_memo[("stages",)]
        arrays = []
        for candidate in candidates:
            arrays.append(candidate.tids)
            arrays.extend(v for v in candidate.extra.values() if isinstance(v, np.ndarray))
        for candidate_rule in rules:
            arrays.extend(
                v for v in candidate_rule.rule.extra.values() if isinstance(v, np.ndarray)
            )
        assert arrays
        for array in arrays:
            assert not array.flags.writeable
            if array.size:
                with pytest.raises(ValueError):
                    array[0] = array[0]


#: A value unequal to each constructor parameter's default. A new
#: parameter must be added here, which forces a look at its memo key.
ALTERNATES = {
    DatasetEnumerator: {
        "clean_strategy": "nb",
        "extend": False,
        "influence_quantile": 0.5,
        "fallback_quantiles": (0.9,),
        "subgroup": SubgroupDiscovery(beam_width=3),
        "feature_columns": ("amount",),
        "max_candidates": 3,
        "min_keep_fraction": 0.5,
        "seed": 7,
    },
    SubgroupDiscovery: {
        "beam_width": 3,
        "max_conditions": 2,
        "n_rules": 4,
        "gamma": 0.25,
        "min_coverage": 3,
        "numeric_bins": 4,
        "max_values": 8,
    },
    PredicateEnumerator: {
        "strategies": DEFAULT_STRATEGIES[:1],
        "feature_columns": ("amount",),
        "min_precision": 0.8,
        "weight_by_influence": True,
        "validation_fraction": 0.5,
        "max_thresholds": 16,
        "max_categories": 8,
        "seed": 7,
    },
}


class TestKeyCompleteness:
    @pytest.mark.parametrize("cls", list(ALTERNATES), ids=lambda cls: cls.__name__)
    def test_every_constructor_parameter_is_keyed(self, cls):
        params = [
            name for name in inspect.signature(cls.__init__).parameters if name != "self"
        ]
        assert sorted(ALTERNATES[cls]) == sorted(params)
        assert [name for name, __ in cls().memo_key()] == params
        default_key = cls().memo_key()
        for name in params:
            assert cls(**{name: ALTERNATES[cls][name]}).memo_key() != default_key, name


class TestCounters:
    def test_registry_counts_hits_and_misses(self, db):
        reg = registry()
        session = _session(db, shared=False)
        hits = reg.counter("dbwipes_stage_memo_hits_total").value
        misses = reg.counter("dbwipes_stage_memo_misses_total").value
        metric = _brush(session)
        for __ in range(3):
            _debug_matches_fresh(session, metric)
        # The fresh reference pipelines each count one miss too.
        assert reg.counter("dbwipes_stage_memo_hits_total").value == hits + 2
        assert reg.counter("dbwipes_stage_memo_misses_total").value == misses + 4


class TestLifetime:
    """A selection's state is freed by refcount, not by the cyclic GC.

    The memo, the mask engine and the split index ride on the
    ``PreprocessResult``; none of them may point back at it strongly,
    or every debugged selection waits for a full collection.
    """

    def test_result_is_freed_without_the_cyclic_collector(self, db):
        gc.collect()
        gc.disable()
        try:
            session = _session(db, shared=False)
            _brush(session)
            session.debug()
            pre = _pre_of(session)
            touched = {key[0] for key in pre._column_memo}
            assert {"mask_engine", "split_index", "stages"} <= touched
            # F and the engine's caches must go with the result.
            held = [weakref.ref(obj) for obj in (pre, pre.F, pre.mask_engine())]
            del pre, session
            assert [ref() for ref in held] == [None, None, None]
        finally:
            gc.enable()

    def test_engine_outliving_its_result_still_answers(self, db):
        """The engine owns F, the split index and the casts, so it
        answers equal to ``Predicate.mask`` after its result is freed."""
        session = _session(db, shared=False)
        metric = _brush(session)
        preprocessor = Preprocessor()
        pre = preprocessor.run(session.result, session.selected_rows, metric)
        F, engine = pre.F, pre.mask_engine()
        held = weakref.ref(pre)
        predicates = [
            Predicate([NumericClause("amount", 0.0, None)]),
            Predicate(
                [CategoricalClause("memo", frozenset(["REATTRIBUTION TO SPOUSE"]))]
            ),
        ]
        del pre, preprocessor
        gc.collect()
        assert held() is None
        masks = engine.mask_set(predicates).bools()
        for row, predicate in enumerate(predicates):
            np.testing.assert_array_equal(masks[row], predicate.mask(F))
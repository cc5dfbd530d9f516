"""Tests for the Predicate Enumerator and Predicate Ranker stages."""

from unittest import mock

import numpy as np
import pytest

from reference.scoring import PerRuleRanker
from repro.core import (
    DatasetEnumerator,
    PipelineConfig,
    PredicateEnumerator,
    PredicateRanker,
    Preprocessor,
    RankedProvenance,
    RankerWeights,
    TooHigh,
    TreeStrategy,
)
from repro.db import Database, Table
from repro.errors import PipelineError
from repro.learn import DecisionTree, SplitIndex


@pytest.fixture
def stage_setup():
    rng = np.random.default_rng(21)
    n = 200
    sensor = np.concatenate([rng.integers(1, 6, 170), np.full(30, 9)])
    temp = np.concatenate([rng.uniform(18, 24, 170), rng.uniform(100, 120, 30)])
    db = Database()
    db.create_table(
        "r",
        {"sensorid": sensor, "temp": temp, "g": np.zeros(n, dtype=np.int64)},
        types={"sensorid": "int", "temp": "float", "g": "int"},
    )
    result = db.sql("SELECT g, avg(temp) AS m FROM r GROUP BY g")
    pre = Preprocessor().run(result, [0], TooHigh(30.0))
    candidates = DatasetEnumerator().run(pre, np.arange(170, 200))
    return pre, candidates


class TestPredicateEnumerator:
    def test_produces_rules_per_candidate(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        assert rules
        assert {r.candidate_index for r in rules} <= set(range(len(candidates)))

    def test_strategy_sources_recorded(self, stage_setup):
        pre, candidates = stage_setup
        strategies = (
            TreeStrategy(criterion="gini"),
            TreeStrategy(criterion="entropy"),
        )
        rules = PredicateEnumerator(strategies=strategies).run(pre, candidates)
        sources = {r.rule.source for r in rules}
        assert any(s.startswith("tree:gini") for s in sources)

    def test_rep_pruning_strategy_runs(self, stage_setup):
        pre, candidates = stage_setup
        strategies = (TreeStrategy(criterion="gini", prune="rep"),)
        rules = PredicateEnumerator(strategies=strategies, seed=3).run(pre, candidates)
        assert rules

    def test_feature_restriction(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator(feature_columns=("sensorid",)).run(pre, candidates)
        for candidate_rule in rules:
            if candidate_rule.rule.source.startswith("tree"):
                assert candidate_rule.rule.predicate.columns() <= {"sensorid"}

    def test_weight_by_influence(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator(weight_by_influence=True).run(pre, candidates)
        assert rules

    def test_requires_strategies(self):
        with pytest.raises(PipelineError):
            PredicateEnumerator(strategies=())

    def test_validation_fraction_bounds(self):
        with pytest.raises(PipelineError):
            PredicateEnumerator(validation_fraction=0.0)

    def test_gini_and_ccp_share_one_fit_pruned_on_a_copy(self):
        """Ordered ccp-first, the shared gini tree is fitted once and
        pruned on a copy: the rules equal two independent fits'."""
        rng = np.random.default_rng(5)
        n = 400
        x, y = rng.random(n), rng.random(n)
        labels = (x > 0.5) ^ (rng.random(n) < 0.2)
        F = Table.from_columns({"x": x, "y": y})
        features = ["x", "y"]
        index = SplitIndex.build(F)
        ccp = TreeStrategy(criterion="gini", prune="ccp", ccp_alpha=3.0)
        gini = TreeStrategy(criterion="gini")

        def rules(*strategies):
            enumerator = PredicateEnumerator(strategies=strategies)
            return [
                (r.predicate.clauses, repr(r.n_covered), repr(r.quality), r.source)
                for r in enumerator._tree_rules(F, labels, None, features, index)
            ]

        alone = rules(ccp), rules(gini)
        assert [c for c, *__ in alone[0]] != [c for c, *__ in alone[1]]
        with mock.patch.object(
            DecisionTree, "fit", autospec=True, side_effect=DecisionTree.fit
        ) as fit:
            shared = rules(ccp, gini)
        assert fit.call_count == 1
        assert shared == alone[0] + alone[1]

    @pytest.mark.parametrize("prune", ["REP", "cost_complexity", ""])
    def test_unknown_prune_mode_rejected(self, prune):
        # Its trees would be fitted unpruned yet labelled with the mode.
        with pytest.raises(PipelineError):
            TreeStrategy(prune=prune)


class TestPredicateRanker:
    def test_rank_order_is_descending_score(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        ranked = PredicateRanker().run(pre, candidates, rules)
        scores = [r.score for r in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_top_predicate_fixes_error(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        ranked = PredicateRanker().run(pre, candidates, rules)
        best = ranked[0]
        assert best.epsilon_after < best.epsilon_before
        assert best.relative_error_reduction > 0.9

    def test_components_populated(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        ranked = PredicateRanker().run(pre, candidates, rules)
        for entry in ranked:
            assert entry.n_matched > 0
            assert 0 <= entry.accuracy <= 1
            assert entry.complexity >= 1
            assert entry.candidate_origin
            assert entry.source

    def test_complexity_penalty_breaks_ties(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        heavy_penalty = PredicateRanker(
            weights=RankerWeights(error=1.0, accuracy=0.0, complexity=10.0)
        ).run(pre, candidates, rules)
        # With a crushing complexity weight, the top predicate must be
        # among the simplest available.
        min_complexity = min(r.complexity for r in heavy_penalty)
        assert heavy_penalty[0].complexity == min_complexity

    def test_nonpositive_error_reduction_dropped(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        ranked = PredicateRanker(drop_nonpositive_error=True).run(
            pre, candidates, rules
        )
        for entry in ranked:
            assert entry.error_reduction > 0

    def test_duplicate_predicates_deduped(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        ranked = PredicateRanker().run(pre, candidates, rules)
        predicates = [r.predicate for r in ranked]
        assert len(predicates) == len(set(predicates))

    def test_negative_weights_rejected(self):
        with pytest.raises(PipelineError):
            RankerWeights(error=-1.0)

    @pytest.mark.parametrize("max_terms", [0, -1])
    def test_max_terms_below_one_rejected(self, max_terms):
        # The complexity penalty divides by max_terms.
        with pytest.raises(PipelineError):
            PredicateRanker(max_terms=max_terms)
        with pytest.raises(PipelineError):
            RankedProvenance(PipelineConfig(max_terms=max_terms))


class TestBatchReferenceParity:
    """The batched scorer must match the per-rule reference exactly."""

    @staticmethod
    def _lines(ranked):
        return [
            "|".join(
                (
                    entry.predicate.describe(),
                    repr(entry.score),
                    repr(entry.epsilon_after),
                    repr(entry.accuracy),
                    repr(entry.precision),
                    repr(entry.recall),
                    str(entry.n_matched),
                    entry.candidate_origin,
                    entry.source,
                )
            )
            for entry in ranked
        ]

    def test_batch_is_byte_identical_to_per_rule(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        batch = PredicateRanker().run(pre, candidates, rules)
        reference = PerRuleRanker().run(pre, candidates, rules)
        assert self._lines(batch) == self._lines(reference)
        assert batch  # the comparison is not vacuous

    def test_batch_parity_without_nonpositive_drop(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        batch = PredicateRanker(drop_nonpositive_error=False).run(
            pre, candidates, rules
        )
        reference = PerRuleRanker(drop_nonpositive_error=False).run(
            pre, candidates, rules
        )
        assert self._lines(batch) == self._lines(reference)

    def test_mask_engine_memoized_on_preprocess_result(self, stage_setup):
        pre, candidates = stage_setup
        rules = PredicateEnumerator().run(pre, candidates)
        PredicateRanker().run(pre, candidates, rules)
        keys = [k for k in pre._column_memo if k[0] == "mask_engine"]
        assert len(keys) == 1
        engine = pre.mask_engine()
        stats = engine.stats()
        assert stats["predicates"] > 0
        # A re-rank reuses the cached clause/predicate masks.
        PredicateRanker().run(pre, candidates, rules)
        assert engine.stats() == stats

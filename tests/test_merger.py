"""Tests for Scorpion-style predicate hull merging."""

import numpy as np
import pytest

from reference.scoring import per_rule_scoring
from repro.core import PipelineConfig, RankedProvenance, TooHigh, hull
from repro.core.merger import PredicateMerger
from repro.core.ranker import RankerWeights
from repro.db import Database, Predicate
from repro.db.predicate import CategoricalClause, NumericClause
from repro.errors import PipelineError


class TestHull:
    def test_interval_union(self):
        a = Predicate([NumericClause("x", 10.0, 20.0)])
        b = Predicate([NumericClause("x", 20.0, 31.0)])
        merged = hull(a, b)
        clause = merged.clauses[0]
        assert clause.lo == 10.0 and clause.hi == 31.0

    def test_one_sided_spans(self):
        a = Predicate([NumericClause("x", 5.0, None)])
        b = Predicate([NumericClause("x", 2.0, 9.0)])
        merged = hull(a, b)
        clause = merged.clauses[0]
        assert clause.lo == 2.0 and clause.hi is None

    def test_categorical_union(self):
        a = Predicate([CategoricalClause("k", frozenset(["a"]))])
        b = Predicate([CategoricalClause("k", frozenset(["b", "c"]))])
        merged = hull(a, b)
        assert merged.clauses[0].values == frozenset(["a", "b", "c"])

    def test_multi_column_hull(self):
        a = Predicate([
            CategoricalClause("k", frozenset(["a"])),
            NumericClause("x", 0.0, 10.0),
        ])
        b = Predicate([
            CategoricalClause("k", frozenset(["a"])),
            NumericClause("x", 8.0, 15.0),
        ])
        merged = hull(a, b)
        assert merged is not None
        assert merged.columns() == {"k", "x"}

    def test_different_columns_rejected(self):
        a = Predicate([NumericClause("x", 0.0, 1.0)])
        b = Predicate([NumericClause("y", 0.0, 1.0)])
        assert hull(a, b) is None

    def test_negated_categorical_rejected(self):
        a = Predicate([CategoricalClause("k", frozenset(["a"]), negated=True)])
        b = Predicate([CategoricalClause("k", frozenset(["b"]))])
        assert hull(a, b) is None

    def test_mixed_clause_types_rejected(self):
        a = Predicate([NumericClause("x", 0.0, 1.0)])
        b = Predicate([CategoricalClause("x", frozenset(["a"]))])
        assert hull(a, b) is None

    def test_inclusive_flags_widen(self):
        a = Predicate([NumericClause("x", 1.0, 5.0, True, False)])
        b = Predicate([NumericClause("x", 1.0, 5.0, False, True)])
        merged = hull(a, b)
        clause = merged.clauses[0]
        assert clause.lo_inclusive and clause.hi_inclusive


class TestMergerEndToEnd:
    @pytest.fixture
    def fragmented_workload(self):
        """Anomaly spanning x in [20, 60]: greedy trees fragment it."""
        rng = np.random.default_rng(31)
        n = 2000
        x = rng.uniform(0, 100, n)
        v = rng.normal(50, 5, n)
        bad = (x > 20) & (x < 60) & (rng.random(n) < 0.4)
        v = v + np.where(bad, 60.0, 0.0)
        db = Database()
        db.create_table(
            "t",
            {"x": x, "v": v, "g": np.zeros(n, dtype=np.int64)},
            types={"x": "float", "v": "float", "g": "int"},
        )
        result = db.sql("SELECT g, avg(v) AS m FROM t GROUP BY g")
        tids = np.arange(n)[bad]
        return result, tids

    def test_merging_never_reduces_top_score(self, fragmented_workload):
        result, bad_tids = fragmented_workload
        plain = RankedProvenance(
            PipelineConfig(feature_columns=("x",))
        ).debug(result, [0], TooHigh(52.0), dprime_tids=bad_tids)
        merged = RankedProvenance(
            PipelineConfig(feature_columns=("x",), merge_predicates=True)
        ).debug(result, [0], TooHigh(52.0), dprime_tids=bad_tids)
        assert merged.best.score >= plain.best.score - 1e-9

    def test_merged_source_tagged(self, fragmented_workload):
        result, bad_tids = fragmented_workload
        report = RankedProvenance(
            PipelineConfig(feature_columns=("x",), merge_predicates=True)
        ).debug(result, [0], TooHigh(52.0), dprime_tids=bad_tids)
        # If any merge won, it is traceable; either way the report is valid.
        assert len(report) > 0
        for entry in report:
            if entry.source.startswith("merge("):
                assert entry.error_reduction > 0

    def test_top_n_validation(self):
        with pytest.raises(PipelineError):
            PredicateMerger(weights=RankerWeights(), top_n=1)

    @pytest.mark.parametrize("max_terms", [0, -1])
    def test_max_terms_below_one_rejected(self, max_terms):
        with pytest.raises(PipelineError):
            PredicateMerger(weights=RankerWeights(), max_terms=max_terms)

    def test_batch_is_byte_identical_to_reference(self, fragmented_workload):
        """The batched greedy pass (pair cache, grouped pairs, batched
        Δε) must reproduce the rescan-everything reference exactly."""
        result, bad_tids = fragmented_workload

        def lines():
            report = RankedProvenance(
                PipelineConfig(feature_columns=("x",), merge_predicates=True)
            ).debug(result, [0], TooHigh(52.0), dprime_tids=bad_tids)
            return [
                "|".join(
                    (
                        entry.predicate.describe(),
                        repr(entry.score),
                        repr(entry.epsilon_after),
                        repr(entry.accuracy),
                        entry.source,
                    )
                )
                for entry in report
            ]

        batch = lines()
        with per_rule_scoring():
            reference = lines()
        assert batch == reference
        # The workload fragments, so the parity covers accepted merges.
        assert any("merge(" in line for line in batch)

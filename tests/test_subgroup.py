"""Tests for CN2-SD subgroup discovery."""

import numpy as np
import pytest

from repro.db import Table
from repro.errors import LearnError
from repro.learn import SubgroupDiscovery


@pytest.fixture
def planted():
    """Positives concentrated in (k='bad' AND x in the middle band)."""
    rng = np.random.default_rng(7)
    n = 800
    k = np.array(
        ["bad" if v < 0.3 else "ok" for v in rng.random(n)], dtype=object
    )
    x = rng.uniform(0, 100, n)
    labels = (k == "bad") & (x > 40) & (x < 60)
    # Add label noise outside the subgroup.
    labels = labels | (rng.random(n) < 0.02)
    table = Table.from_columns({"k": list(k), "x": x}, types={"k": "str", "x": "float"})
    return table, labels


class TestDiscovery:
    def test_finds_planted_subgroup(self, planted):
        table, labels = planted
        # The planted description needs 3 conditions: k='bad' plus both
        # bounds of the x band.
        rules = SubgroupDiscovery(n_rules=4, max_conditions=3).fit(table, labels)
        assert rules
        best = rules[0]
        described = best.describe()
        assert "bad" in described or "x" in described
        assert best.precision > 0.5

    def test_interval_on_one_numeric_column(self, planted):
        table, labels = planted
        rules = SubgroupDiscovery(n_rules=2, max_conditions=3).fit(
            table, labels, features=["x"]
        )
        assert rules
        # With only x available, the best description must be the band,
        # which requires both a lower and an upper bound on x.
        clause = rules[0].predicate.clauses[0]
        assert clause.lo is not None and clause.hi is not None

    def test_rules_have_positive_wracc(self, planted):
        table, labels = planted
        rules = SubgroupDiscovery(n_rules=4).fit(table, labels)
        for rule in rules:
            assert rule.quality > 0

    def test_weighted_covering_diversifies(self, planted):
        table, labels = planted
        rules = SubgroupDiscovery(n_rules=5, gamma=0.3, max_conditions=1).fit(
            table, labels
        )
        predicates = {rule.predicate for rule in rules}
        assert len(predicates) == len(rules)  # no duplicates
        assert len(rules) >= 2  # covering found more than one description

    def test_no_positives_returns_empty(self, planted):
        table, __ = planted
        rules = SubgroupDiscovery().fit(table, np.zeros(len(table), dtype=bool))
        assert rules == []

    def test_empty_table_returns_empty(self):
        table = Table.from_columns({"x": []}, types={"x": "float"})
        assert SubgroupDiscovery().fit(table, np.array([], dtype=bool)) == []

    def test_min_coverage_respected(self, planted):
        table, labels = planted
        rules = SubgroupDiscovery(min_coverage=50, n_rules=3).fit(table, labels)
        for rule in rules:
            assert rule.n_covered >= 50

    def test_max_conditions_respected(self, planted):
        table, labels = planted
        rules = SubgroupDiscovery(max_conditions=1, n_rules=3).fit(table, labels)
        for rule in rules:
            assert len(rule.predicate.clauses) == 1

    def test_feature_restriction(self, planted):
        table, labels = planted
        rules = SubgroupDiscovery(n_rules=3).fit(table, labels, features=["x"])
        for rule in rules:
            assert rule.predicate.columns() == {"x"}

    def test_labels_length_checked(self, planted):
        table, __ = planted
        with pytest.raises(LearnError):
            SubgroupDiscovery().fit(table, np.array([True]))

    def test_parameter_validation(self):
        with pytest.raises(LearnError):
            SubgroupDiscovery(gamma=1.5)
        with pytest.raises(LearnError):
            SubgroupDiscovery(beam_width=0)
        with pytest.raises(LearnError):
            SubgroupDiscovery(max_conditions=0)

    def test_frequency_fallback_when_mdl_keeps_no_cut(self):
        # Labels unrelated to x: MDL keeps no cut, so x's conditions come
        # from the equal-frequency edges (shared ones when supplied).
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 100, 400)
        labels = rng.random(400) < 0.5
        table = Table.from_columns({"x": x}, types={"x": "float"})
        shared = {"x": (25.0, 50.0, 75.0)}
        rules = SubgroupDiscovery(n_rules=3).fit(table, labels, shared_edges=shared)
        bounds = {
            bound
            for rule in rules
            for clause in rule.predicate.clauses
            for bound in (clause.lo, clause.hi)
            if bound is not None
        }
        assert rules and bounds <= set(shared["x"])

    @pytest.mark.parametrize("bins", [0, -1])
    def test_numeric_bins_below_one_rejected(self, bins):
        # Accepting it would fail every later fit that falls back to
        # equal-frequency edges ("bins must be >= 1").
        with pytest.raises(LearnError, match="numeric_bins"):
            SubgroupDiscovery(numeric_bins=bins)

    @pytest.mark.parametrize("n_rules", [0, -2])
    def test_n_rules_below_one_rejected(self, n_rules):
        # Zero rules would silently turn discovery off; the enumerator's
        # ``extend=False`` is the switch for that.
        with pytest.raises(LearnError, match="n_rules"):
            SubgroupDiscovery(n_rules=n_rules)

    def test_negative_max_values_rejected(self):
        # ``top[:-1]`` would silently drop the least frequent value.
        with pytest.raises(LearnError, match="max_values"):
            SubgroupDiscovery(max_values=-1)

    def test_zero_max_values_drops_categorical_conditions(self, planted):
        table, labels = planted
        rules = SubgroupDiscovery(max_values=0, n_rules=3).fit(table, labels)
        assert rules
        assert all(rule.predicate.columns() == {"x"} for rule in rules)

    def test_rules_sql_renderable(self, planted):
        table, labels = planted
        for rule in SubgroupDiscovery(n_rules=3).fit(table, labels):
            assert rule.predicate.to_sql()

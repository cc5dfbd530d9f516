"""Tests for the decision tree learner."""

import numpy as np
import pytest

from reference.tree import ColumnHistogramTree, ExactDecisionTree
from repro.db import Table
from repro.errors import LearnError, NotFittedError
from repro.learn import CRITERIA, DecisionTree, SplitIndex
from repro.learn.tree import CategoricalSplit, NumericSplit

#: The production tree and its per-column and per-threshold oracles.
TREES = {
    "hist": DecisionTree,
    "column": ColumnHistogramTree,
    "exact": ExactDecisionTree,
}


@pytest.fixture
def xor_table():
    """Numeric XOR-ish data: positive iff exactly one of x, y is high."""
    rng = np.random.default_rng(3)
    n = 400
    x = rng.random(n)
    y = rng.random(n)
    labels = (x > 0.5) ^ (y > 0.5)
    table = Table.from_columns({"x": x, "y": y})
    return table, labels


class TestFitBasics:
    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_separable_data_perfect_fit(self, separable_table, criterion):
        table, labels = separable_table
        tree = DecisionTree(criterion=criterion, max_depth=4).fit(table, labels)
        assert (tree.predict(table) == labels).all()

    def test_xor_needs_depth_two(self, xor_table):
        table, labels = xor_table
        shallow = DecisionTree(max_depth=1).fit(table, labels)
        deep = DecisionTree(max_depth=3).fit(table, labels)
        acc_shallow = (shallow.predict(table) == labels).mean()
        acc_deep = (deep.predict(table) == labels).mean()
        assert acc_deep > 0.95
        assert acc_deep > acc_shallow

    def test_categorical_split(self):
        table = Table.from_columns(
            {"k": ["a", "a", "b", "b", "c", "c"], "z": [1.0] * 6},
            types={"k": "str", "z": "float"},
        )
        labels = np.array([1, 1, 0, 0, 0, 0], dtype=bool)
        tree = DecisionTree(max_depth=2).fit(table, labels)
        assert (tree.predict(table) == labels).all()

    def test_pure_node_is_leaf(self):
        table = Table.from_columns({"x": [1.0, 2.0, 3.0]})
        labels = np.ones(3, dtype=bool)
        tree = DecisionTree().fit(table, labels)
        assert tree.n_leaves == 1
        assert tree.depth == 0

    def test_max_depth_respected(self, xor_table):
        table, labels = xor_table
        tree = DecisionTree(max_depth=2).fit(table, labels)
        assert tree.depth <= 2

    def test_min_samples_leaf_respected(self, separable_table):
        table, labels = separable_table
        tree = DecisionTree(min_samples_leaf=30).fit(table, labels)

        def check(node):
            if node.is_leaf:
                assert node.n_samples >= 30 or node.depth == 0
            else:
                check(node.left)
                check(node.right)

        check(tree._root)

    def test_sample_weights_decide_leaf_majority(self):
        # Identical features, conflicting labels: the weights decide the
        # leaf prediction.
        table = Table.from_columns({"x": [1.0, 1.0]})
        labels = np.array([1, 0], dtype=bool)
        heavy_pos = DecisionTree().fit(
            table, labels, sample_weight=np.array([3.0, 1.0])
        )
        heavy_neg = DecisionTree().fit(
            table, labels, sample_weight=np.array([1.0, 3.0])
        )
        assert heavy_pos.predict(table).all()
        assert not heavy_neg.predict(table).any()

    def test_nan_routes_right(self):
        table = Table.from_columns(
            {"x": [1.0, 2.0, 10.0, 11.0, float("nan")]},
            types={"x": "float"},
        )
        labels = np.array([1, 1, 0, 0, 0], dtype=bool)
        tree = DecisionTree(max_depth=1, min_samples_leaf=1).fit(table, labels)
        predictions = tree.predict(table)
        assert not predictions[4]  # NaN followed the negative majority right

    def test_errors(self):
        table = Table.from_columns({"x": [1.0]})
        with pytest.raises(LearnError):
            DecisionTree(criterion="nope")
        with pytest.raises(LearnError):
            DecisionTree().fit(table, np.array([True, False]))
        with pytest.raises(NotFittedError):
            DecisionTree().predict(table)
        with pytest.raises(LearnError):
            DecisionTree().fit(table, np.array([True]), sample_weight=np.array([-1.0]))


class TestPruning:
    def test_reduced_error_pruning_shrinks_overfit_tree(self):
        rng = np.random.default_rng(5)
        n = 600
        x = rng.random(n)
        noise_labels = (x > 0.5) ^ (rng.random(n) < 0.25)
        table = Table.from_columns({"x": x})
        half = n // 2
        train, val = (
            table.take(np.arange(half)),
            table.take(np.arange(half, n)),
        )
        tree = DecisionTree(max_depth=8, min_samples_leaf=1).fit(
            train, noise_labels[:half]
        )
        leaves_before = tree.n_leaves
        tree.prune_reduced_error(val, noise_labels[half:])
        assert tree.n_leaves < leaves_before
        # Accuracy on the validation set must not degrade.
        acc = (tree.predict(val) == noise_labels[half:]).mean()
        assert acc >= 0.70

    def test_ccp_alpha_zero_keeps_useful_splits(self, separable_table):
        table, labels = separable_table
        tree = DecisionTree(max_depth=4).fit(table, labels)
        tree.cost_complexity_prune(0.0)
        assert (tree.predict(table) == labels).all()

    def test_ccp_huge_alpha_collapses_to_stump_or_leaf(self, separable_table):
        table, labels = separable_table
        tree = DecisionTree(max_depth=5).fit(table, labels)
        tree.cost_complexity_prune(1e9)
        assert tree.n_leaves <= 2


class TestRules:
    def test_positive_rules_cover_predictions(self, separable_table):
        table, labels = separable_table
        tree = DecisionTree(max_depth=4).fit(table, labels)
        rules = tree.positive_rules()
        assert rules
        union = np.zeros(len(table), dtype=bool)
        for rule in rules:
            union |= rule.mask(table)
        predictions = tree.predict(table)
        # Rule union must equal positive predictions (modulo NaN routing,
        # absent in this data).
        assert (union == predictions).all()

    def test_rules_render_to_sql(self, separable_table):
        table, labels = separable_table
        tree = DecisionTree(max_depth=3).fit(table, labels)
        for rule in tree.positive_rules():
            sql = rule.predicate.to_sql()
            assert sql and "(" in sql

    def test_min_precision_filters_rules(self, xor_table):
        table, labels = xor_table
        tree = DecisionTree(max_depth=2).fit(table, labels)
        strict = tree.positive_rules(min_precision=0.99)
        loose = tree.positive_rules(min_precision=0.0)
        assert len(strict) <= len(loose)

    def test_rule_stats_populated(self, separable_table):
        table, labels = separable_table
        tree = DecisionTree(criterion="entropy", max_depth=3).fit(table, labels)
        rule = tree.positive_rules()[0]
        assert rule.n_covered > 0
        assert rule.source == "tree:entropy"
        assert 0 < rule.quality <= 1.0

    def test_to_text_structure(self, separable_table):
        table, labels = separable_table
        tree = DecisionTree(max_depth=2).fit(table, labels)
        text = tree.to_text()
        assert "if " in text and "leaf" in text


class TestTieBreaking:
    """Equal-gain splits must resolve deterministically: lowest column
    name, then lowest threshold / lowest categorical value — never by
    feature order or dict insertion order.

    The cross-column and categorical cases are crafted ties that failed
    before the deterministic selection: the old code kept the first
    feature in schema order (here ``z_col``) and the first-inserted
    categorical value (here ``"b"``).
    """

    @pytest.mark.parametrize("algorithm", TREES)
    def test_cross_column_tie_picks_lowest_column_name(self, algorithm):
        values = [1.0, 2.0, 10.0, 11.0]
        table = Table.from_columns(
            # Schema order deliberately puts "z_col" first: identical
            # columns tie exactly, and the tie must go to "a_col".
            {"z_col": values, "a_col": values},
            types={"z_col": "float", "a_col": "float"},
        )
        labels = np.array([1, 1, 0, 0], dtype=bool)
        tree = TREES[algorithm](max_depth=1).fit(table, labels)
        assert tree._root.split.attr == "a_col"

    @pytest.mark.parametrize("algorithm", TREES)
    def test_categorical_tie_picks_lowest_value(self, algorithm):
        # "b" is inserted first and ties "a" exactly (symmetric labels,
        # equal weight): selection must still be "a".
        table = Table.from_columns(
            {"k": ["b", "b", "a", "a"]}, types={"k": "str"}
        )
        labels = np.array([1, 1, 0, 0], dtype=bool)
        tree = TREES[algorithm](max_depth=1).fit(table, labels)
        assert tree._root.split.value == "a"

    @pytest.mark.parametrize("algorithm", TREES)
    def test_numeric_threshold_tie_picks_lowest_threshold(self, algorithm):
        # Symmetric gains at t=1.5 and t=2.5: must choose 1.5.
        table = Table.from_columns({"x": [1.0, 2.0, 3.0]})
        labels = np.array([1, 0, 1], dtype=bool)
        tree = TREES[algorithm](max_depth=1, min_samples_leaf=1).fit(table, labels)
        assert tree._root.split.threshold == 1.5

    def test_both_algorithms_agree_on_crafted_ties(self):
        values = [1.0, 2.0, 10.0, 11.0]
        table = Table.from_columns(
            {"z_col": values, "a_col": values, "k": ["b", "b", "a", "a"]},
            types={"z_col": "float", "a_col": "float", "k": "str"},
        )
        labels = np.array([1, 1, 0, 0], dtype=bool)
        texts = {
            algorithm: tree(max_depth=2).fit(table, labels).to_text()
            for algorithm, tree in TREES.items()
        }
        assert texts["hist"] == texts["column"] == texts["exact"]


def _noisy_split_data(seed: int = 5, n: int = 600):
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    labels = (x > 0.5) ^ (rng.random(n) < 0.25)
    table = Table.from_columns({"x": x})
    half = n // 2
    train = table.take(np.arange(half))
    val = table.take(np.arange(half, n))
    return train, labels[:half], val, labels[half:]


class TestPruningOnHistogramTrees:
    """Pruning exercised on trees built by the histogram path (the
    pipeline default), including n_leaves / depth invariants."""

    def test_reduced_error_pruning_invariants(self):
        train, train_labels, val, val_labels = _noisy_split_data()
        tree = DecisionTree(max_depth=8, min_samples_leaf=1).fit(
            train, train_labels
        )
        leaves_before = tree.n_leaves
        depth_before = tree.depth
        tree.prune_reduced_error(val, val_labels)
        assert 1 <= tree.n_leaves < leaves_before
        assert tree.depth <= depth_before
        acc = (tree.predict(val) == val_labels).mean()
        assert acc >= 0.70

    def test_reduced_error_pruning_matches_exact_path(self):
        train, train_labels, val, val_labels = _noisy_split_data()
        index = SplitIndex.build(train)
        texts = []
        for tree_class in TREES.values():
            tree = tree_class(max_depth=8, min_samples_leaf=1).fit(
                train, train_labels, split_index=index
            )
            tree.prune_reduced_error(val, val_labels)
            texts.append(tree.to_text())
        assert texts[0] == texts[1] == texts[2]

    def test_ccp_alpha_ladder_is_monotone(self):
        train, train_labels, __, __ = _noisy_split_data(seed=9)
        leaves = []
        depths = []
        for alpha in (0.0, 0.5, 2.0, 8.0, 1e9):
            tree = DecisionTree(max_depth=8, min_samples_leaf=1).fit(
                train, train_labels
            )
            tree.cost_complexity_prune(alpha)
            leaves.append(tree.n_leaves)
            depths.append(tree.depth)
        assert leaves == sorted(leaves, reverse=True)
        assert depths == sorted(depths, reverse=True)
        assert leaves[-1] == 1 and depths[-1] == 0

    def test_ccp_matches_exact_path(self):
        train, train_labels, __, __ = _noisy_split_data(seed=11)
        index = SplitIndex.build(train)
        texts = []
        for tree_class in TREES.values():
            tree = tree_class(max_depth=7, min_samples_leaf=2).fit(
                train, train_labels, split_index=index
            )
            tree.cost_complexity_prune(0.8)
            texts.append(tree.to_text())
        assert texts[0] == texts[1] == texts[2]

    def test_pruned_hist_tree_still_extracts_rules(self, separable_table):
        table, labels = separable_table
        tree = DecisionTree(max_depth=5).fit(table, labels)
        tree.cost_complexity_prune(0.01)
        rules = tree.positive_rules()
        assert rules
        union = np.zeros(len(table), dtype=bool)
        for rule in rules:
            union |= rule.mask(table)
        assert (union == tree.predict(table)).all()


class TestSplitIndexSharing:
    def test_shared_index_equals_per_fit_index(self, separable_table):
        table, labels = separable_table
        index = SplitIndex.build(table)
        shared = DecisionTree(max_depth=4).fit(table, labels, split_index=index)
        fresh = DecisionTree(max_depth=4).fit(table, labels)
        assert shared.to_text() == fresh.to_text()

    def test_take_subsets_align(self, separable_table):
        table, labels = separable_table
        index = SplitIndex.build(table)
        rows = np.arange(0, len(table), 2, dtype=np.int64)
        sub = DecisionTree(max_depth=3).fit(
            table.take(rows), labels[rows], split_index=index.take(rows)
        )
        # Same thresholds as the full index; structure is a valid tree.
        assert sub.n_leaves >= 1
        assert (sub.predict(table.take(rows)) == labels[rows]).all()

    def test_row_count_mismatch_rejected(self, separable_table):
        table, labels = separable_table
        index = SplitIndex.build(table)
        with pytest.raises(LearnError):
            DecisionTree().fit(
                table.take(np.arange(10)), labels[:10], split_index=index
            )

    def test_missing_column_rejected(self, separable_table):
        table, labels = separable_table
        index = SplitIndex.build(table, features=["temp"])
        with pytest.raises(LearnError):
            DecisionTree().fit(table, labels, split_index=index)

    def test_threshold_cap_mismatch_rejected(self, separable_table):
        table, labels = separable_table
        index = SplitIndex.build(table, max_thresholds=64)
        with pytest.raises(LearnError):
            DecisionTree(max_thresholds=8).fit(table, labels, split_index=index)


class TestSplits:
    def test_numeric_split_clauses(self):
        split = NumericSplit("x", 5.0)
        left = split.left_clause()
        right = split.right_clause()
        assert left.hi == 5.0 and left.hi_inclusive
        assert right.lo == 5.0 and not right.lo_inclusive

    def test_categorical_split_mask_none_goes_right(self):
        split = CategoricalSplit("k", "a")
        values = np.array(["a", "b", None], dtype=object)
        assert split.go_left(values).tolist() == [True, False, False]

    def test_numeric_split_nan_goes_right(self):
        split = NumericSplit("x", 5.0)
        values = np.array([1.0, np.nan, 9.0])
        assert split.go_left(values).tolist() == [True, False, False]

"""Parity harness: production split finding against the two oracles in
``reference.tree``.

A seeded randomized property sweep (≥200 generated tables mixing
numeric / categorical / NULL columns, class skews, and sample weights)
asserts that, over the same shared :class:`SplitIndex`,

* against the per-threshold ``ExactDecisionTree``, ``_best_split``
  picks the identical split with identical impurity gain (up to
  float-associativity noise far below the tie tolerance), and the full
  fitted trees are structurally identical under the deterministic
  tie-breaking (lowest column name, then lowest threshold / value);
* against the per-column ``ColumnHistogramTree``, the trees and every
  node's ``(split, gain)`` are identical to the bit.

Every case is reproducible from its printed seed.
"""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import pytest

from reference.tree import (
    ColumnHistogramTree,
    ExactDecisionTree,
    column_histogram_trees,
)
from repro.cli import SCRIPTS, Shell, loopback_client
from repro.core import predicates
from repro.db import Table
from repro.learn import CRITERIA, DecisionTree, SplitIndex, split_info
from repro.learn.split_index import NumericColumnIndex
from repro.learn.tree import _Node, _split_info_vec

N_CASES = 220
GAIN_RTOL = 1e-9
GAIN_ATOL = 1e-12


def _random_case(rng: np.random.Generator):
    """One random (table, labels, weights, tree params) scenario."""
    n = int(rng.integers(25, 140))
    columns: dict = {}
    types: dict = {}
    for j in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            values = rng.normal(0.0, 1.0, n)
        elif kind == 1:
            # Few distinct values: forces threshold ties and shared bins.
            values = rng.integers(0, 6, n).astype(np.float64)
        else:
            values = np.round(rng.random(n) * 4.0, 1)
        if rng.random() < 0.5:
            values = values.copy()
            values[rng.random(n) < 0.15] = np.nan
        columns[f"n{j}"] = values
        types[f"n{j}"] = "float"
    for j in range(int(rng.integers(0, 3))):
        k = int(rng.integers(2, 6))
        values = np.array(
            [f"v{int(i)}" for i in rng.integers(0, k, n)], dtype=object
        )
        if rng.random() < 0.5:
            values[rng.random(n) < 0.2] = None
        columns[f"c{j}"] = list(values)
        types[f"c{j}"] = "str"
    table = Table.from_columns(columns, types=types)

    skew = rng.uniform(0.1, 0.9)
    labels = rng.random(n) < skew
    if not labels.any():
        labels[0] = True
    if labels.all():
        labels[0] = False

    weight_kind = int(rng.integers(0, 3))
    if weight_kind == 0:
        weights = None
    elif weight_kind == 1:
        weights = rng.integers(1, 5, n).astype(np.float64)
    else:
        weights = rng.uniform(0.1, 3.0, n)

    params = dict(
        criterion=CRITERIA[int(rng.integers(0, len(CRITERIA)))],
        max_depth=int(rng.integers(2, 6)),
        min_samples_leaf=int(rng.integers(1, 4)),
        max_thresholds=int(rng.integers(4, 40)),
    )
    return table, labels, weights, params


def _signature(node: _Node):
    """Structural fingerprint: splits (exact floats/values) + leaf stats."""
    if node.is_leaf:
        return ("leaf", node.n_samples, node.weight, node.pos_weight)
    split = node.split
    key = getattr(split, "threshold", None)
    if key is None:
        key = getattr(split, "value")
    return (
        (split.attr, repr(key)),
        _signature(node.left),
        _signature(node.right),
    )


def _fit_pair(table, labels, weights, params):
    """Fit (hist, exact) trees over one shared SplitIndex."""
    index = SplitIndex.build(table, max_thresholds=params.get("max_thresholds", 32))
    hist = DecisionTree(**params).fit(
        table, labels, sample_weight=weights, split_index=index
    )
    exact = ExactDecisionTree(**params).fit(
        table, labels, sample_weight=weights, split_index=index
    )
    return hist, exact, index


class TestRandomizedParity:
    def test_property_sweep_trees_and_gains_identical(self):
        mismatches = []
        for case in range(N_CASES):
            rng = np.random.default_rng(1000 + case)
            table, labels, weights, params = _random_case(rng)
            hist, exact, index = _fit_pair(table, labels, weights, params)

            # Root split parity: same split object, same gain.
            ctx_h, n = hist._fit_context(
                table, labels, weights, split_index=index
            )
            ctx_e, __ = exact._fit_context(
                table, labels, weights, split_index=index
            )
            all_rows = np.arange(n, dtype=np.int64)
            best_h = hist._best_split(ctx_h, all_rows)
            best_e = exact._best_split(ctx_e, all_rows)
            if (best_h is None) != (best_e is None):
                mismatches.append((case, "root split presence", best_h, best_e))
                continue
            if best_h is not None:
                split_h, gain_h = best_h
                split_e, gain_e = best_e
                if split_h != split_e:
                    mismatches.append((case, "root split", split_h, split_e))
                    continue
                if not np.isclose(gain_h, gain_e, rtol=GAIN_RTOL, atol=GAIN_ATOL):
                    mismatches.append((case, "root gain", gain_h, gain_e))
                    continue

            # Whole-tree parity (splits, thresholds, leaf stats, shape).
            if _signature(hist._root) != _signature(exact._root):
                mismatches.append(
                    (case, "tree", hist.to_text(), exact.to_text())
                )
                continue
            assert hist.n_leaves == exact.n_leaves
            assert hist.depth == exact.depth
        assert not mismatches, (
            f"{len(mismatches)}/{N_CASES} parity failures; first: "
            f"{mismatches[0]}"
        )

    def test_case_count_is_at_least_200(self):
        assert N_CASES >= 200


class TestTargetedParity:
    """Hand-built corners the random sweep might visit only rarely."""

    def test_all_nan_column_is_never_split(self):
        table = Table.from_columns(
            {"x": [np.nan] * 6, "y": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
            types={"x": "float", "y": "float"},
        )
        labels = np.array([1, 1, 1, 0, 0, 0], dtype=bool)
        hist, exact, __ = _fit_pair(table, labels, None, dict(max_thresholds=8))
        assert _signature(hist._root) == _signature(exact._root)
        assert hist._root.split.attr == "y"

    def test_constant_column_and_single_category(self):
        table = Table.from_columns(
            {"x": [5.0] * 5, "c": ["only"] * 5, "z": [1.0, 2.0, 3.0, 4.0, 5.0]},
            types={"x": "float", "c": "str", "z": "float"},
        )
        labels = np.array([1, 1, 0, 0, 0], dtype=bool)
        hist, exact, __ = _fit_pair(table, labels, None, dict(max_thresholds=8))
        assert _signature(hist._root) == _signature(exact._root)
        assert hist._root.split.attr == "z"

    def test_nulls_route_right_in_both_paths(self):
        table = Table.from_columns(
            {"c": ["a", "a", None, None, "b", "b"]}, types={"c": "str"}
        )
        labels = np.array([1, 1, 0, 0, 0, 0], dtype=bool)
        hist, exact, __ = _fit_pair(
            table, labels, None, dict(max_depth=2, min_samples_leaf=1)
        )
        assert _signature(hist._root) == _signature(exact._root)
        assert (hist.predict(table) == exact.predict(table)).all()
        assert not hist.predict(table)[2]  # NULL followed the negatives

    def test_zero_weight_rows(self):
        table = Table.from_columns({"x": [1.0, 2.0, 3.0, 4.0]})
        labels = np.array([1, 1, 0, 0], dtype=bool)
        weights = np.array([1.0, 0.0, 0.0, 1.0])
        hist, exact, __ = _fit_pair(table, labels, weights, dict(max_thresholds=8))
        assert _signature(hist._root) == _signature(exact._root)

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_extreme_skew_every_criterion(self, criterion):
        rng = np.random.default_rng(7)
        n = 120
        x = rng.normal(0, 1, n)
        labels = np.zeros(n, dtype=bool)
        labels[:3] = True  # 2.5% positives
        x[:3] += 10.0
        table = Table.from_columns({"x": x})
        hist, exact, __ = _fit_pair(
            table, labels, None, dict(criterion=criterion, max_depth=3)
        )
        assert _signature(hist._root) == _signature(exact._root)


def _recording(tree):
    """Record every ``(split, gain)`` the tree's per-node hook returns,
    with the gain as exact bytes (``float.hex``)."""
    calls = []
    best_split = tree._best_split

    def record(ctx, indices, hist=None):
        best = best_split(ctx, indices, hist)
        calls.append(None if best is None else (best[0], best[1].hex()))
        return best

    tree._best_split = record
    return calls


class TestBitwiseOracleParity:
    """Production against ``ColumnHistogramTree``: the per-column
    kernels the offset-coded node kernel replaced, equal to the bit."""

    @staticmethod
    def _mismatch(table, labels, weights, params):
        """``None`` if production and the oracle fit the same tree with
        the same node gains, else what differs; and the node count."""
        trees = DecisionTree(**params), ColumnHistogramTree(**params)
        gains = [_recording(tree) for tree in trees]
        for tree in trees:
            tree.fit(table, labels, sample_weight=weights)
        production, oracle = trees
        if gains[0] != gains[1]:
            return ("node gains", gains[0], gains[1]), len(gains[0])
        if _signature(production._root) != _signature(oracle._root):
            return ("tree", production.to_text(), oracle.to_text()), len(gains[0])
        return None, len(gains[0])

    def test_property_sweep_trees_and_node_gains_identical(self):
        mismatches = []
        nodes = 0
        for case in range(N_CASES):
            rng = np.random.default_rng(1000 + case)
            mismatch, n_nodes = self._mismatch(*_random_case(rng))
            nodes += n_nodes
            if mismatch is not None:
                mismatches.append((case, *mismatch))
        assert not mismatches, (
            f"{len(mismatches)}/{N_CASES} bitwise parity failures; first: "
            f"{mismatches[0]}"
        )
        assert nodes > 5 * N_CASES

    @pytest.mark.parametrize("criterion", CRITERIA)
    def test_max_categories_keeps_the_heaviest_values(self, criterion):
        """More distinct values than ``max_categories``: only the
        heaviest are candidates, ties to the lowest code."""
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = 150
            table = Table.from_columns(
                {
                    "c": [f"v{int(i)}" for i in rng.integers(0, 12, n)],
                    "d": [f"w{int(i)}" for i in rng.integers(0, 6, n)],
                    "x": rng.normal(size=n),
                },
                types={"c": "str", "d": "str", "x": "float"},
            )
            labels = rng.random(n) < 0.4
            weights = None if seed % 2 else rng.integers(1, 4, n).astype(np.float64)
            params = dict(criterion=criterion, max_depth=4, max_categories=3)
            mismatch, __ = self._mismatch(table, labels, weights, params)
            assert mismatch is None, (seed, mismatch)

    def test_every_child_histogram_equals_its_direct_build(self):
        """Unweighted fits hand the larger child the parent's histogram
        minus the smaller's; weighted fits hand children none."""
        received = {"unweighted": 0, "weighted": 0}
        for case in range(N_CASES):
            rng = np.random.default_rng(1000 + case)
            table, labels, weights, params = _random_case(rng)
            tree = DecisionTree(**params)
            grow = tree._grow

            def checked_grow(ctx, node, indices, hist, grow=grow, tree=tree):
                if hist is not None:
                    direct = tree._node_histogram(ctx, indices)
                    assert hist.dtype == direct.dtype == np.int64
                    assert np.array_equal(hist, direct)
                    received["weighted" if ctx.weighted else "unweighted"] += 1
                grow(ctx, node, indices, hist)

            tree._grow = checked_grow
            tree.fit(table, labels, sample_weight=weights)
        assert received["weighted"] == 0
        assert received["unweighted"] > N_CASES // 3

    def test_gain_ratio_node_score_matches_scalar_split_info_bytes(self):
        """Two rows, pure children: the gain ratio is entropy / split
        information of the same partition, exactly 1.0 when both use
        ``math.log2``. Weights are chosen where ``np.log2`` differs."""
        rng = np.random.default_rng(0)
        for __ in range(200_000):
            weights = rng.uniform(0.1, 3.0, 2)
            left_w = weights[0]
            right_w = float(weights.sum()) - left_w
            vector = _split_info_vec(np.array([left_w]), np.array([right_w]))[0]
            if vector != split_info(left_w, right_w):
                break
        else:
            pytest.skip("np.log2 and math.log2 agree on every probe here")
        table = Table.from_columns({"x": [0.0, 1.0]})
        labels = np.array([True, False])
        scores = []
        for tree_class in (DecisionTree, ColumnHistogramTree):
            tree = tree_class(criterion="gain_ratio", max_depth=1)
            ctx, n = tree._fit_context(table, labels, weights)
            split, score = tree._best_split(ctx, np.arange(n))
            scores.append(score.hex())
        assert scores == [(1.0).hex()] * 2

    def test_exact_oracle_runs_its_own_per_threshold_kernels(self):
        """The per-threshold oracle must not fall through to production
        split finding, or its parity would compare production with itself."""
        rng = np.random.default_rng(3)
        table = Table.from_columns(
            {"x": rng.normal(size=60), "c": [f"v{i % 3}" for i in range(60)]},
            types={"x": "float", "c": "str"},
        )
        labels = rng.random(60) < 0.4
        kernels = {}
        with mock.patch.object(
            ExactDecisionTree, "_best_numeric_split", autospec=True,
            side_effect=ExactDecisionTree._best_numeric_split,
        ) as kernels["numeric"], mock.patch.object(
            ExactDecisionTree, "_best_categorical_split", autospec=True,
            side_effect=ExactDecisionTree._best_categorical_split,
        ) as kernels["categorical"]:
            ExactDecisionTree(max_depth=2).fit(table, labels)
        assert kernels["numeric"].called and kernels["categorical"].called


def _rule_lines(candidate_rules) -> list[tuple]:
    return [
        (
            cr.candidate_index,
            cr.rule.predicate.clauses,
            repr(cr.rule.n_covered),
            repr(cr.rule.n_pos_covered),
            repr(cr.rule.quality),
            cr.rule.source,
        )
        for cr in candidate_rules
    ]


@pytest.fixture(scope="module")
def fec_stage():
    """``(pre, candidates)`` of the scripted FEC debug's predicate stage."""
    captured = []
    run = predicates.PredicateEnumerator.run

    def recording_run(self, pre, candidates):
        captured.append((pre, list(candidates)))
        return run(self, pre, candidates)

    script = SCRIPTS["fec"]
    with (
        mock.patch.object(predicates.PredicateEnumerator, "run", recording_run),
        loopback_client() as client,
    ):
        shell = Shell(client, out=io.StringIO())
        shell.run_line(f"sql {client.open('fec')['bootstrap']}")
        for line in script[: script.index("debug") + 1]:
            shell.run_line(line)
    (stage,) = captured
    return stage


class TestStageParity:
    def test_fec_stage_rules_are_byte_identical(self, fec_stage):
        pre, candidates = fec_stage
        kinds = [
            isinstance(column, NumericColumnIndex)
            for column in pre.split_index().columns.values()
        ]
        assert (kinds.count(True), kinds.count(False)) == (2, 5)
        production = _rule_lines(predicates.PredicateEnumerator().run(pre, candidates))
        with column_histogram_trees():
            oracle = _rule_lines(
                predicates.PredicateEnumerator().run(pre, candidates)
            )
        assert production and production == oracle

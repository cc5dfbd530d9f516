"""Parity harness: the histogram split path is answer-identical to the
exact per-threshold reference (``reference.tree.ExactDecisionTree``).

A seeded randomized property sweep (≥200 generated tables mixing
numeric / categorical / NULL columns, class skews, and sample weights)
asserts that, over the same shared :class:`SplitIndex`,

* ``_best_split`` picks the identical split with identical impurity
  gain (up to float-associativity noise far below the tie tolerance);
* the full fitted trees are structurally identical under the
  deterministic tie-breaking (lowest column name, then lowest
  threshold / value).

Every case is reproducible from its printed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference.tree import ExactDecisionTree
from repro.db import Table
from repro.learn import CRITERIA, DecisionTree, SplitIndex
from repro.learn.tree import _Node

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

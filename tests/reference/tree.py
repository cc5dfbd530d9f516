"""The per-threshold split oracle for :class:`repro.learn.DecisionTree`.

:class:`ExactDecisionTree` scores the same candidate thresholds and
values as the production histogram kernels, but the way they were
scored before those kernels existed: one boolean mask and one weight
reduction per candidate, with rows routed to children by their raw
column values instead of bin codes. Everything else (tie-breaking,
stopping rules, pruning, rule extraction) is inherited, so any
difference in the fitted trees comes from split finding alone.

:func:`exact_trees` makes the Predicate Enumerator fit its trees with
:class:`ExactDecisionTree`, for stage-level parity and the ablation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any
from unittest import mock

import numpy as np

from repro.core import predicates
from repro.learn.split_index import CategoricalColumnIndex, NumericColumnIndex
from repro.learn.tree import (
    CategoricalSplit,
    DecisionTree,
    NumericSplit,
    _tie_cutoff,
)


@contextmanager
def exact_trees():
    """Inside the block, the Predicate Enumerator fits exact trees."""
    with mock.patch.object(predicates, "DecisionTree", ExactDecisionTree):
        yield


class ExactDecisionTree(DecisionTree):
    """A :class:`DecisionTree` whose splits come from per-threshold masks."""

    def _fit_context(self, table, labels, sample_weight=None, features=None,
                     split_index=None):
        ctx, n = super()._fit_context(
            table, labels, sample_weight, features, split_index
        )
        # Raw column arrays: the masks below test values, not bin codes.
        self._arrays = {name: table.column(name) for name in self._features}
        return ctx, n

    def _left_mask(self, ctx, split, indices):
        return split.go_left(self._arrays[split.attr][indices])

    def _split_score(self, total_w, total_pos, weights, pos_weights, left):
        left_w = float(weights[left].sum())
        left_p = float(pos_weights[left].sum())
        return float(
            self._score_children(
                total_w,
                total_pos,
                np.array([left_w]),
                np.array([left_p]),
                np.array([total_w - left_w]),
                np.array([total_pos - left_p]),
            )[0]
        )

    def _best_numeric_split(
        self,
        column: NumericColumnIndex,
        indices: np.ndarray,
        weights: np.ndarray,
        pos_weights: np.ndarray,
        total_w: float,
        total_pos: float,
    ) -> tuple[NumericSplit, float, float] | None:
        """One mask + reduction per candidate threshold."""
        if len(column.thresholds) == 0:
            return None
        values = np.asarray(self._arrays[column.attr][indices], dtype=np.float64)
        n_node = len(values)
        scored: list[tuple[float, float]] = []  # (score, threshold)
        for threshold in column.thresholds:
            with np.errstate(invalid="ignore"):
                left = values <= threshold  # NaN compares False: routes right
            left_count = int(left.sum())
            if (
                left_count < self.min_samples_leaf
                or (n_node - left_count) < self.min_samples_leaf
            ):
                continue
            score = self._split_score(total_w, total_pos, weights, pos_weights, left)
            scored.append((score, float(threshold)))
        if not scored:
            return None
        cutoff = _tie_cutoff(max(score for score, __ in scored))
        score, threshold = min(
            (entry for entry in scored if entry[0] >= cutoff),
            key=lambda entry: entry[1],
        )
        return NumericSplit(column.attr, threshold), score, threshold

    def _best_categorical_split(
        self,
        column: CategoricalColumnIndex,
        indices: np.ndarray,
        weights: np.ndarray,
        pos_weights: np.ndarray,
        total_w: float,
        total_pos: float,
    ) -> tuple[CategoricalSplit, float, int] | None:
        """One equality mask + reduction per candidate value."""
        values = self._arrays[column.attr][indices]
        # Per-value weight accumulation in row order, the same float-sum
        # order as the histogram path's weighted bincount.
        weight_by_value: dict[Any, float] = {}
        count_by_value: dict[Any, int] = {}
        for i in range(len(values)):
            value = values[i]
            if value is None:
                continue
            weight_by_value[value] = weight_by_value.get(value, 0.0) + weights[i]
            count_by_value[value] = count_by_value.get(value, 0) + 1
        if len(weight_by_value) < 2:
            return None
        candidates = sorted(
            weight_by_value, key=lambda value: (-weight_by_value[value], value)
        )[: self.max_categories]
        n_node = len(values)
        scored: list[tuple[float, int]] = []  # (score, value code)
        for value in candidates:
            left_count = count_by_value[value]
            if (
                left_count < self.min_samples_leaf
                or (n_node - left_count) < self.min_samples_leaf
            ):
                continue
            left = np.fromiter(
                (v is not None and v == value for v in values),
                dtype=bool,
                count=n_node,
            )
            score = self._split_score(total_w, total_pos, weights, pos_weights, left)
            scored.append((score, column.code_of(value)))
        if not scored:
            return None
        cutoff = _tie_cutoff(max(score for score, __ in scored))
        score, code = min(
            (entry for entry in scored if entry[0] >= cutoff),
            key=lambda entry: entry[1],
        )
        return CategoricalSplit(column.attr, column.values[code]), score, code

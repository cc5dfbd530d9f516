"""Split-finding oracles for :class:`repro.learn.DecisionTree`.

Production scores a node from one offset-coded histogram over all its
features (see :mod:`repro.learn.tree`). Two oracles score the same
candidate thresholds and values the ways it was done before:

* :class:`ColumnHistogramTree` — the per-column histogram kernels the
  node kernel replaced: for each column, one ``np.bincount`` per
  statistic and a ``cumsum``, with ``gain_ratio``'s split information
  from the scalar ``split_info`` in a Python list. It is the
  **bit-for-bit** oracle: same trees, and node gains equal by ``==``.
* :class:`ExactDecisionTree` — the per-threshold masking path before
  the histograms: one boolean mask and one weight reduction per
  candidate, with rows routed to children by their raw column values
  instead of bin codes. It sums in another order, so it agrees up to
  ``TIE_REL_TOL``.

Both override the per-node hook ``_best_split`` (``ExactDecisionTree``
through :class:`ColumnHistogramTree`, replacing its per-column kernels)
and build no node histogram. Everything else (stopping rules,
tie-breaking, pruning, rule extraction) is inherited, so any difference
in the fitted trees comes from split finding alone.

:func:`column_histogram_trees` and :func:`exact_trees` make the
Predicate Enumerator fit its trees with an oracle, for stage-level
parity and the ablation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any
from unittest import mock

import numpy as np

from repro.core import predicates
from repro.learn.metrics import entropy, gini_impurity, split_info
from repro.learn.split_index import CategoricalColumnIndex, NumericColumnIndex
from repro.learn.tree import (
    CategoricalSplit,
    DecisionTree,
    NumericSplit,
    _entropy_vec,
    _gini_vec,
    _tie_cutoff,
)


@contextmanager
def column_histogram_trees():
    """Inside the block, the Predicate Enumerator fits per-column
    histogram trees."""
    with mock.patch.object(predicates, "DecisionTree", ColumnHistogramTree):
        yield


@contextmanager
def exact_trees():
    """Inside the block, the Predicate Enumerator fits exact trees."""
    with mock.patch.object(predicates, "DecisionTree", ExactDecisionTree):
        yield


class ColumnHistogramTree(DecisionTree):
    """A :class:`DecisionTree` that scores each column from its own
    histograms."""

    def _node_histogram(self, ctx, indices):
        return None  # the per-column kernels below build their own

    def _best_split(self, ctx, indices, hist=None):
        node_labels = ctx.labels[indices]
        node_weights = ctx.weights[indices]
        total_w = float(node_weights.sum())
        total_pos = float(node_weights[node_labels].sum())
        pos_weights = np.where(node_labels, node_weights, 0.0)
        #: (split, score, intra-column tie key) per feature.
        found: list[tuple[Any, float, Any]] = []
        for attr in self._features:
            column = ctx.index.column(attr)
            if isinstance(column, NumericColumnIndex):
                candidate = self._best_numeric_split(
                    column, indices, node_weights, pos_weights, total_w, total_pos
                )
            else:
                candidate = self._best_categorical_split(
                    column, indices, node_weights, pos_weights, total_w, total_pos
                )
            if candidate is not None:
                found.append(candidate)
        if not found:
            return None
        # Scores within TIE_REL_TOL of the best are tied; ties resolve to
        # the lowest column name.
        best_score = max(score for __, score, __ in found)
        cutoff = _tie_cutoff(best_score)
        tied = [entry for entry in found if entry[1] >= cutoff]
        split, score, __ = min(tied, key=lambda entry: (entry[0].attr, entry[2]))
        return split, score

    def _best_numeric_split(
        self,
        column: NumericColumnIndex,
        indices: np.ndarray,
        weights: np.ndarray,
        pos_weights: np.ndarray,
        total_w: float,
        total_pos: float,
    ) -> tuple[NumericSplit, float, float] | None:
        """Score all thresholds in one binned cumulative-sum pass."""
        n_thresholds = len(column.thresholds)
        if n_thresholds == 0:
            return None
        codes, hist_n, hist_w, hist_p = _node_histograms(
            column, indices, weights, pos_weights
        )
        left_n = np.cumsum(hist_n)[:n_thresholds]
        left_w = np.cumsum(hist_w)[:n_thresholds]
        left_p = np.cumsum(hist_p)[:n_thresholds]
        n_node = len(codes)
        valid = (left_n >= self.min_samples_leaf) & (
            (n_node - left_n) >= self.min_samples_leaf
        )
        if not valid.any():
            return None
        thresholds = column.thresholds[valid]
        left_w = left_w[valid]
        left_p = left_p[valid]
        scores = self._score_children(
            total_w, total_pos, left_w, left_p, total_w - left_w, total_pos - left_p
        )
        best = _lowest_tied(scores)
        threshold = float(thresholds[best])
        return NumericSplit(column.attr, threshold), float(scores[best]), threshold

    def _best_categorical_split(
        self,
        column: CategoricalColumnIndex,
        indices: np.ndarray,
        weights: np.ndarray,
        pos_weights: np.ndarray,
        total_w: float,
        total_pos: float,
    ) -> tuple[CategoricalSplit, float, int] | None:
        """Score all candidate values from per-value histograms at once."""
        n_values = len(column.values)
        if n_values < 2:
            return None
        codes, hist_n, hist_w, hist_p = _node_histograms(
            column, indices, weights, pos_weights
        )
        present = np.flatnonzero(hist_n[:n_values] > 0)
        if len(present) < 2:
            return None
        if len(present) > self.max_categories:
            # Heaviest values first; equal weights resolve to lowest code.
            order = np.lexsort((present, -hist_w[present]))
            present = np.sort(present[order[: self.max_categories]])
        left_n = hist_n[present]
        n_node = len(codes)
        valid = (left_n >= self.min_samples_leaf) & (
            (n_node - left_n) >= self.min_samples_leaf
        )
        if not valid.any():
            return None
        candidates = present[valid]
        left_w = hist_w[candidates]
        left_p = hist_p[candidates]
        scores = self._score_children(
            total_w, total_pos, left_w, left_p, total_w - left_w, total_pos - left_p
        )
        best = _lowest_tied(scores)
        code = int(candidates[best])
        split = CategoricalSplit(column.attr, column.values[code])
        return split, float(scores[best]), code

    def _score_children(
        self,
        total_w: float,
        total_pos: float,
        left_w: np.ndarray,
        left_p: np.ndarray,
        right_w: np.ndarray,
        right_p: np.ndarray,
    ) -> np.ndarray:
        """Vectorized split score; higher is better."""
        if self.criterion == "gini":
            parent = gini_impurity(total_pos, total_w - total_pos)
            child = (
                left_w * _gini_vec(left_p, left_w)
                + right_w * _gini_vec(right_p, right_w)
            ) / total_w
            return parent - child
        parent = entropy(total_pos, total_w - total_pos)
        child = (
            left_w * _entropy_vec(left_p, left_w)
            + right_w * _entropy_vec(right_p, right_w)
        ) / total_w
        gain = parent - child
        if self.criterion == "entropy":
            return gain
        info = np.array(
            [split_info(lw, rw) for lw, rw in zip(left_w, right_w)], dtype=np.float64
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(info > 0, gain / info, 0.0)
        return ratio


def _node_histograms(
    column: NumericColumnIndex | CategoricalColumnIndex,
    indices: np.ndarray,
    weights: np.ndarray,
    pos_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-bin (count, weight, positive-weight) histograms of one node.

    Returns ``(codes, hist_n, hist_w, hist_p)``; NaN/NULL rows land in
    the rightmost bin by construction of the column's codes.
    """
    codes = column.codes[indices]
    n_bins = column.n_bins
    hist_n = np.bincount(codes, minlength=n_bins)
    # bincount accumulates weights sequentially in row order — the same
    # float-sum order as ExactDecisionTree's dict accumulation, which
    # the tie-break parity relies on.
    hist_w = np.bincount(codes, weights=weights, minlength=n_bins)
    hist_p = np.bincount(codes, weights=pos_weights, minlength=n_bins)
    return codes, hist_n, hist_w, hist_p


def _lowest_tied(scores: np.ndarray) -> int:
    """Index of the first (lowest threshold/code) score tied with the max."""
    cutoff = _tie_cutoff(float(scores.max()))
    return int(np.flatnonzero(scores >= cutoff)[0])


class ExactDecisionTree(ColumnHistogramTree):
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
        # order as the histogram paths' weighted bincount.
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

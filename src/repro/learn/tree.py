"""CART-style decision trees over :class:`~repro.db.table.Table` features.

The Predicate Enumerator (paper §2.2.2) builds *several* trees per
candidate dataset using "m standard splitting and pruning strategies
(e.g., gini, gain ratio)". This implementation provides:

* splitting criteria: ``gini``, ``entropy``, ``gain_ratio``;
* binary splits on numeric columns (``attr <= t``) and categorical
  columns (``attr == v`` vs rest);
* weighted samples (so the Preprocessor's influence scores can bias the
  tree toward high-influence tuples);
* reduced-error pruning against a held-out set and cost-complexity
  pruning;
* extraction of positive root-to-leaf paths as
  :class:`~repro.learn.rules.Rule` objects whose predicates render to SQL.

Split finding runs over a shared
:class:`~repro.learn.split_index.SplitIndex` of candidate thresholds and
bin codes, one node at a time:

* **One histogram per node.** A fit offsets column ``k``'s codes by
  ``k·W`` (W is the widest column's bin count), so every (column, bin)
  pair has its own slot. A node gathers its rows of that matrix and
  runs one ``np.bincount`` over them: one histogram holds every
  column's per-bin counts, and in a weighted fit two more weighted
  bincounts hold per-bin weight and positive weight. Left-branch stats
  of every numeric threshold are one ``cumsum`` along the bins;
  categorical values read their own bins. Every candidate of the node
  is scored at once, and rows are routed to children by bin code.
* **Sibling subtraction.** In an unweighted fit the histograms are
  integer counts: a node's histogram is its children's sum, exactly.
  So only the smaller child is histogrammed from its rows and the
  larger one is the parent's minus the smaller's (the histogram trick
  of LightGBM). A weighted fit histograms every node from its own rows,
  because float subtraction would change the sums' bits. Only children
  that can split get a histogram.
* **Exactness.** Each bin sums its rows in row order, in either kind
  of fit, and the scores are the same elementwise float expressions as
  the per-column kernels they replaced, so splits, gains and
  tie-breaks are bit-identical to them. ``gain_ratio``'s split
  information is vectorized with ``np.log2``, which can differ from
  ``math.log2`` in the last bit, so each column's near-best candidates
  are rescored with the scalar :func:`~repro.learn.metrics.split_info`.

The per-column kernels are the bit-for-bit oracle
``ColumnHistogramTree`` in ``tests/reference/tree.py``; the
per-threshold masking path before them, ``ExactDecisionTree``, scores
the identical candidate set, so ``tests/test_tree_parity.py`` asserts
all three pick the same splits with the same gains.

Ties (equal-gain splits) are broken deterministically: lowest column
name first, then lowest threshold / lowest categorical value — never by
feature order or dict insertion order.

NaN feature values route to the right (no-match) branch; ``None``
categorical values never equal a split value, so they also route right.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..db.predicate import CategoricalClause, Clause, NumericClause, Predicate
from ..db.table import Table
from ..errors import LearnError, NotFittedError
from .metrics import entropy, gini_impurity, split_info
from .rules import Rule
from .split_index import NumericColumnIndex, SplitIndex

CRITERIA = ("gini", "entropy", "gain_ratio")

#: Scores within this (relative) distance of a column's / node's best are
#: treated as tied and resolved by the deterministic tie-break. The
#: tolerance absorbs float-associativity noise between the histogram
#: kernels and the per-threshold reference in ``tests/reference/tree.py``
#: (bin-cumsum vs per-mask reductions), so both pick the same split.
TIE_REL_TOL = 1e-9

#: ``gain_ratio`` candidates within this (relative) distance of their
#: column's best vectorized score are rescored with the scalar
#: ``split_info``. It only has to exceed the last-bit difference between
#: ``np.log2`` and ``math.log2`` plus ``TIE_REL_TOL``, by a wide margin.
RESCORE_REL_TOL = 1e-6

#: A node with fewer rows is a leaf.
MIN_SAMPLES_SPLIT = 2

#: A split scoring below this is not taken.
MIN_SPLIT_SCORE = 1e-9


def _tie_cutoff(best_score, rel_tol: float = TIE_REL_TOL):
    """Scores at or above this value are considered tied with
    ``best_score`` (elementwise for an array of bests)."""
    return best_score - rel_tol * np.maximum(1.0, np.abs(best_score))


@dataclass(frozen=True)
class NumericSplit:
    """``attr <= threshold`` goes left; NaN and larger values go right."""

    attr: str
    threshold: float

    def go_left(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask: rows routed to the left child."""
        with np.errstate(invalid="ignore"):
            mask = np.asarray(values <= self.threshold, dtype=bool)
        mask[np.isnan(np.asarray(values, dtype=np.float64))] = False
        return mask

    def left_clause(self) -> Clause:
        """The clause describing the left branch."""
        return NumericClause(self.attr, None, self.threshold, hi_inclusive=True)

    def right_clause(self) -> Clause:
        """The clause describing the right branch."""
        return NumericClause(self.attr, self.threshold, None, lo_inclusive=False)

    def describe(self) -> str:
        """Human-readable split text."""
        return f"{self.attr} <= {self.threshold:.6g}"


@dataclass(frozen=True)
class CategoricalSplit:
    """``attr == value`` goes left; everything else (incl. NULL) goes right."""

    attr: str
    value: Any

    def go_left(self, values: np.ndarray) -> np.ndarray:
        """Boolean mask: rows routed to the left child."""
        if values.dtype == object:
            return np.fromiter(
                (v is not None and v == self.value for v in values),
                dtype=bool,
                count=len(values),
            )
        return np.asarray(values == self.value, dtype=bool)

    def left_clause(self) -> Clause:
        """The clause describing the left branch."""
        return CategoricalClause(self.attr, frozenset([self.value]))

    def right_clause(self) -> Clause:
        """The clause describing the right branch."""
        return CategoricalClause(self.attr, frozenset([self.value]), negated=True)

    def describe(self) -> str:
        """Human-readable split text."""
        return f"{self.attr} == {self.value!r}"


Split = NumericSplit | CategoricalSplit


class _Node:
    """A tree node; ``split is None`` means leaf."""

    __slots__ = (
        "split", "left", "right", "n_samples", "weight", "pos_weight", "depth",
    )

    def __init__(
        self,
        n_samples: int,
        weight: float,
        pos_weight: float,
        depth: int,
    ):
        self.split: Split | None = None
        self.left: "_Node | None" = None
        self.right: "_Node | None" = None
        self.n_samples = n_samples
        self.weight = weight
        self.pos_weight = pos_weight
        self.depth = depth

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def prob_positive(self) -> float:
        return self.pos_weight / self.weight if self.weight > 0 else 0.0

    @property
    def prediction(self) -> bool:
        return self.prob_positive >= 0.5

    def make_leaf(self) -> None:
        self.split = None
        self.left = None
        self.right = None


class _FitContext:
    """Everything one ``fit`` needs, bundled so the node recursion and
    the parity tests can drive split finding without re-deriving state.

    ``codes`` is the fit's offset-coded bin matrix: row ``i`` holds, for
    each feature ``k``, the row's bin code plus ``k·width``, so one
    ``np.bincount`` over a node's rows histograms every feature at once.
    In an unweighted fit a positive row's codes are further shifted by
    ``len(features)·width``, so that one bincount counts rows and
    positives together.
    """

    __slots__ = (
        "labels", "weights", "index", "weighted", "columns", "numeric",
        "width", "candidates", "any_categorical", "codes",
    )

    def __init__(
        self,
        labels: np.ndarray,
        weights: np.ndarray,
        index: SplitIndex,
        features: tuple[str, ...],
        weighted: bool,
    ):
        self.labels = labels
        self.weights = weights
        self.index = index
        self.weighted = weighted
        self.columns = [index.column(name) for name in features]
        n_bins = np.array([column.n_bins for column in self.columns], dtype=np.int64)
        self.width = width = int(n_bins.max(initial=1))
        #: ``(C, 1)``: which features are numeric (thresholds take cumsums).
        self.numeric = np.array(
            [isinstance(column, NumericColumnIndex) for column in self.columns],
            dtype=bool,
        ).reshape(-1, 1)
        #: ``(C, width)``: the bins that are split candidates — every
        #: threshold, every non-NULL value; not the NaN/NULL bin or padding.
        self.candidates = np.arange(width) < (n_bins - 1)[:, None]
        self.any_categorical = bool((~self.numeric).any())
        positions = [index.features.index(name) for name in features]
        codes = index.codes
        if positions != list(range(codes.shape[1])):
            codes = codes[:, positions]
        codes = codes + np.arange(len(positions), dtype=np.int64) * width
        if not weighted:
            codes += (labels * (len(positions) * width))[:, None]
        self.codes = codes


class DecisionTree:
    """A binary-classification CART tree with pluggable split criteria."""

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int = 6,
        min_samples_leaf: int = 1,
        max_thresholds: int = 32,
        max_categories: int = 32,
    ):
        if criterion not in CRITERIA:
            raise LearnError(f"unknown criterion {criterion!r}; choose from {CRITERIA}")
        if max_depth < 1:
            raise LearnError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise LearnError("min_samples_leaf must be >= 1")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_thresholds = max_thresholds
        self.max_categories = max_categories
        self._root: _Node | None = None
        self._features: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------

    def fit(
        self,
        table: Table,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
        features: Sequence[str] | None = None,
        split_index: SplitIndex | None = None,
    ) -> "DecisionTree":
        """Fit the tree on ``table`` with boolean ``labels``.

        ``features`` defaults to every column; ``sample_weight`` defaults
        to uniform. ``split_index`` supplies ready-made candidate
        thresholds and bin codes (row-aligned with ``table``); when
        omitted, one is built from ``table`` — passing a shared index is
        what lets K candidate × S strategy fits skip re-deriving it.
        """
        ctx, n = self._fit_context(table, labels, sample_weight, features, split_index)
        indices = np.arange(n, dtype=np.int64)
        self._root = self._node(ctx, indices, depth=0)
        if self._can_split(self._root):
            self._grow(ctx, self._root, indices, None)
        return self

    def copy(self) -> "DecisionTree":
        """A copy of the fitted tree with its own nodes, so pruning the
        copy leaves this tree as it was (splits are immutable and shared)."""
        clone = copy.copy(self)
        clone._root = _copy_subtree(self._require_fitted())
        return clone

    def _fit_context(
        self,
        table: Table,
        labels: np.ndarray,
        sample_weight: np.ndarray | None = None,
        features: Sequence[str] | None = None,
        split_index: SplitIndex | None = None,
    ) -> tuple[_FitContext, int]:
        """Validate inputs and bundle fit state (also used by parity tests)."""
        labels = np.asarray(labels, dtype=bool)
        if len(labels) != len(table):
            raise LearnError("labels length must match table length")
        if len(table) == 0:
            raise LearnError("cannot fit a tree on an empty table")
        if sample_weight is None:
            weights = np.ones(len(table), dtype=np.float64)
        else:
            weights = np.asarray(sample_weight, dtype=np.float64)
            if len(weights) != len(table):
                raise LearnError("sample_weight length must match table length")
            if np.any(weights < 0):
                raise LearnError("sample_weight must be non-negative")
        if features is None:
            features = table.schema.names
        self._features = tuple(features)
        if split_index is None:
            split_index = SplitIndex.build(
                table, self._features, max_thresholds=self.max_thresholds
            )
        else:
            if split_index.n_rows != len(table):
                raise LearnError(
                    f"split index covers {split_index.n_rows} rows, "
                    f"table has {len(table)}"
                )
            if split_index.max_thresholds != self.max_thresholds:
                raise LearnError(
                    f"split index was built with max_thresholds="
                    f"{split_index.max_thresholds}, tree wants "
                    f"{self.max_thresholds}"
                )
            missing = [f for f in self._features if f not in split_index.columns]
            if missing:
                raise LearnError(f"split index is missing columns {missing}")
        ctx = _FitContext(
            labels, weights, split_index, self._features, sample_weight is not None
        )
        return ctx, len(table)

    def _node(self, ctx: _FitContext, indices: np.ndarray, depth: int) -> _Node:
        node_weights = ctx.weights[indices]
        weight = float(node_weights.sum())
        pos_weight = float(node_weights[ctx.labels[indices]].sum())
        return _Node(len(indices), weight, pos_weight, depth)

    def _can_split(self, node: _Node) -> bool:
        return not (
            node.depth >= self.max_depth
            or node.n_samples < MIN_SAMPLES_SPLIT
            or node.pos_weight <= 0
            or node.pos_weight >= node.weight
        )

    def _grow(
        self,
        ctx: _FitContext,
        node: _Node,
        indices: np.ndarray,
        hist: np.ndarray | None,
    ) -> None:
        """Split ``node`` (rows ``indices``) and grow its children, left
        subtree first. ``hist`` is the node's histogram if known; it stays
        ``None`` for a tree whose ``_node_histogram`` builds none (the
        per-column oracle), and then no child is subtracted."""
        if hist is None:
            hist = self._node_histogram(ctx, indices)
        best = self._best_split(ctx, indices, hist)
        if best is None:
            return
        split, score = best
        if score < MIN_SPLIT_SCORE:
            return
        left_mask = self._left_mask(ctx, split, indices)
        left_indices = indices[left_mask]
        right_indices = indices[~left_mask]
        if (
            len(left_indices) < self.min_samples_leaf
            or len(right_indices) < self.min_samples_leaf
        ):
            return
        node.split = split
        node.left = self._node(ctx, left_indices, node.depth + 1)
        node.right = self._node(ctx, right_indices, node.depth + 1)
        grow_left = self._can_split(node.left)
        grow_right = self._can_split(node.right)
        left_hist = right_hist = None
        if hist is not None and not ctx.weighted and (grow_left or grow_right):
            # Integer counts: histogram the smaller child, subtract for
            # the larger one (only if it will split).
            if len(left_indices) <= len(right_indices):
                left_hist = self._node_histogram(ctx, left_indices)
                if grow_right:
                    right_hist = hist - left_hist
            else:
                right_hist = self._node_histogram(ctx, right_indices)
                if grow_left:
                    left_hist = hist - right_hist
        if grow_left:
            self._grow(ctx, node.left, left_indices, left_hist)
        if grow_right:
            self._grow(ctx, node.right, right_indices, right_hist)

    def _left_mask(
        self, ctx: _FitContext, split: Split, indices: np.ndarray
    ) -> np.ndarray:
        """Rows of the node routed left, via the columns' bin codes."""
        column = ctx.index.column(split.attr)
        codes = column.codes[indices]
        if isinstance(split, NumericSplit):
            return codes <= column.code_of(split.threshold)
        return codes == column.code_of(split.value)

    # -- the node kernel -------------------------------------------------

    def _node_histogram(self, ctx: _FitContext, indices: np.ndarray) -> np.ndarray:
        """The node's histogram over every (feature, bin) slot.

        Unweighted fits: int64 ``(2, C, width)`` of row counts and
        positive counts. Weighted fits: float64 ``(3, C, width)`` of row
        counts, weights and positive weights. ``bincount`` adds each
        bin's rows in row order, as a per-column bincount does.
        """
        n_columns = len(ctx.columns)
        shape = (n_columns, ctx.width)
        size = n_columns * ctx.width
        flat = np.take(ctx.codes, indices, axis=0).ravel()
        if not ctx.weighted:
            hist = np.bincount(flat, minlength=2 * size).reshape(2, *shape)
            hist[0] += hist[1]  # [negative rows, positive rows] -> [rows, positives]
            return hist
        weights = ctx.weights[indices]
        pos_weights = np.where(ctx.labels[indices], weights, 0.0)
        return np.stack(
            [np.bincount(flat, minlength=size)]
            + [
                np.bincount(flat, weights=np.repeat(w, n_columns), minlength=size)
                for w in (weights, pos_weights)
            ]
        ).reshape(3, *shape)

    def _best_split(
        self, ctx: _FitContext, indices: np.ndarray, hist: np.ndarray | None = None
    ) -> tuple[Split, float] | None:
        """The node's best ``(split, score)``, or ``None``: the per-node
        hook the parity oracles override. ``hist`` is the node's
        :meth:`_node_histogram` when the caller already has it."""
        if not ctx.columns:
            return None
        if hist is None:
            hist = self._node_histogram(ctx, indices)
        node_weights = ctx.weights[indices]
        total_w = float(node_weights.sum())
        total_pos = float(node_weights[ctx.labels[indices]].sum())
        n_node = len(indices)
        # Left stats of threshold b are the cumulative sums of bins 0..b
        # (NaN rows live in the rightmost bin, so they never count left);
        # a categorical value's left stats are its own bin.
        left = np.where(ctx.numeric, np.cumsum(hist, axis=-1), hist)
        if ctx.weighted:
            left_n, left_w, left_p = left
        else:
            left_n = left[0]
            left_w = left_n.astype(np.float64)
            left_p = left[1].astype(np.float64)
        valid = (
            ctx.candidates
            & (left_n >= self.min_samples_leaf)
            & ((n_node - left_n) >= self.min_samples_leaf)
        )
        if ctx.any_categorical:
            valid &= ctx.numeric | self._categorical_candidates(ctx, left_n, left_w)
        left_w = left_w[valid]
        right_w = total_w - left_w
        left_p = left_p[valid]
        gain = self._impurity_gain(
            total_w, total_pos, left_w, left_p, right_w, total_pos - left_p
        )
        scores = np.full(valid.shape, -np.inf)
        if self.criterion == "gain_ratio":
            _fill_gain_ratios(scores, valid, gain, left_w, right_w)
        else:
            scores[valid] = gain
        # Per column: the first (lowest threshold / code) candidate tied
        # with the column's best; -inf marks a column without candidates.
        first = np.argmax(scores >= _tie_cutoff(scores.max(axis=1))[:, None], axis=1)
        column_best = scores[np.arange(len(first)), first]
        top = float(column_best.max())
        if top == -np.inf:
            return None
        # Deterministic cross-column selection: scores within TIE_REL_TOL
        # of the best are tied; ties resolve to the lowest column name.
        k = min(
            np.flatnonzero(column_best >= _tie_cutoff(top)),
            key=lambda k: ctx.columns[k].attr,
        )
        column = ctx.columns[k]
        position = int(first[k])
        if isinstance(column, NumericColumnIndex):
            split: Split = NumericSplit(column.attr, float(column.thresholds[position]))
        else:
            split = CategoricalSplit(column.attr, column.values[position])
        return split, float(column_best[k])

    def _categorical_candidates(
        self, ctx: _FitContext, left_n: np.ndarray, left_w: np.ndarray
    ) -> np.ndarray:
        """``(C, width)``: the values of each categorical feature that may
        split the node — present in it, at least two of them, and the
        ``max_categories`` heaviest when there are more."""
        present = ctx.candidates & ~ctx.numeric & (left_n > 0)
        n_present = present.sum(axis=1)
        present &= (n_present >= 2)[:, None]
        for k in np.flatnonzero(n_present > self.max_categories):
            codes = np.flatnonzero(present[k])
            # Heaviest values first; equal weights resolve to lowest code.
            order = np.lexsort((codes, -left_w[k, codes]))
            present[k] = False
            present[k, codes[order[: self.max_categories]]] = True
        return present

    def _impurity_gain(
        self,
        total_w: float,
        total_pos: float,
        left_w: np.ndarray,
        left_p: np.ndarray,
        right_w: np.ndarray,
        right_p: np.ndarray,
    ) -> np.ndarray:
        """Vectorized impurity decrease (gini, or entropy for the two
        information criteria)."""
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
        return parent - child

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------

    def _require_fitted(self) -> _Node:
        if self._root is None:
            raise NotFittedError("DecisionTree.fit has not been called")
        return self._root

    def predict_proba(self, table: Table) -> np.ndarray:
        """Probability of the positive class for every row."""
        root = self._require_fitted()
        arrays = {name: table.column(name) for name in self._features}
        out = np.empty(len(table), dtype=np.float64)
        indices = np.arange(len(table), dtype=np.int64)
        self._predict_into(root, arrays, indices, out)
        return out

    def predict(self, table: Table) -> np.ndarray:
        """Boolean positive-class prediction for every row."""
        return self.predict_proba(table) >= 0.5

    def _predict_into(
        self,
        node: _Node,
        arrays: dict[str, np.ndarray],
        indices: np.ndarray,
        out: np.ndarray,
    ) -> None:
        if node.is_leaf or len(indices) == 0:
            out[indices] = node.prob_positive
            return
        assert node.split is not None and node.left is not None and node.right is not None
        values = arrays[node.split.attr][indices]
        left_mask = node.split.go_left(values)
        self._predict_into(node.left, arrays, indices[left_mask], out)
        self._predict_into(node.right, arrays, indices[~left_mask], out)

    # ------------------------------------------------------------------
    # pruning
    # ------------------------------------------------------------------

    def prune_reduced_error(self, table: Table, labels: np.ndarray) -> "DecisionTree":
        """Reduced-error pruning against a validation set (bottom-up).

        Collapses any internal node whose leaf-ified validation error would
        not exceed its subtree's validation error.
        """
        root = self._require_fitted()
        labels = np.asarray(labels, dtype=bool)
        arrays = {name: table.column(name) for name in self._features}
        indices = np.arange(len(table), dtype=np.int64)
        self._rep_prune(root, arrays, labels, indices)
        return self

    def _rep_prune(
        self,
        node: _Node,
        arrays: dict[str, np.ndarray],
        labels: np.ndarray,
        indices: np.ndarray,
    ) -> float:
        """Returns the subtree's validation error count; prunes bottom-up."""
        node_labels = labels[indices]
        leaf_error = float(
            (node_labels != node.prediction).sum()
        )
        if node.is_leaf:
            return leaf_error
        assert node.split is not None and node.left is not None and node.right is not None
        values = arrays[node.split.attr][indices]
        left_mask = node.split.go_left(values)
        subtree_error = self._rep_prune(
            node.left, arrays, labels, indices[left_mask]
        ) + self._rep_prune(node.right, arrays, labels, indices[~left_mask])
        if leaf_error <= subtree_error:
            node.make_leaf()
            return leaf_error
        return subtree_error

    def cost_complexity_prune(self, alpha: float) -> "DecisionTree":
        """Weakest-link pruning: collapse internal nodes whose effective
        alpha is at most ``alpha`` (computed on training weights)."""
        root = self._require_fitted()
        while True:
            weakest = self._weakest_link(root)
            if weakest is None:
                break
            node, effective_alpha = weakest
            if effective_alpha > alpha:
                break
            node.make_leaf()
        return self

    def _weakest_link(self, root: _Node) -> tuple[_Node, float] | None:
        best: tuple[_Node, float] | None = None
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                continue
            assert node.left is not None and node.right is not None
            leaf_cost = min(node.pos_weight, node.weight - node.pos_weight)
            subtree_cost, n_leaves = _subtree_cost(node)
            if n_leaves <= 1:
                continue
            effective_alpha = (leaf_cost - subtree_cost) / (n_leaves - 1)
            if best is None or effective_alpha < best[1]:
                best = (node, effective_alpha)
            stack.append(node.left)
            stack.append(node.right)
        return best

    # ------------------------------------------------------------------
    # structure and rule extraction
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Maximum leaf depth."""
        root = self._require_fitted()
        return _max_depth(root)

    @property
    def n_leaves(self) -> int:
        """Number of leaves."""
        root = self._require_fitted()
        __, n_leaves = _subtree_cost(root)
        return n_leaves

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        root = self._require_fitted()
        count = 0
        stack = [root]
        while stack:
            node = stack.pop()
            count += 1
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                stack.append(node.left)
                stack.append(node.right)
        return count

    def positive_rules(self, min_precision: float = 0.0) -> list[Rule]:
        """Rules for every positive-predicting leaf (root-to-leaf paths).

        Each path's clauses are conjoined and simplified; unsatisfiable
        paths (impossible with consistent splits) are skipped defensively.
        """
        root = self._require_fitted()
        rules: list[Rule] = []
        path: list[Clause] = []

        def walk(node: _Node) -> None:
            if node.is_leaf:
                if node.prediction and node.prob_positive >= min_precision:
                    predicate = Predicate(list(path)).simplify()
                    if predicate is None or predicate.is_true:
                        return
                    rules.append(
                        Rule(
                            predicate=predicate,
                            n_covered=node.weight,
                            n_pos_covered=node.pos_weight,
                            quality=node.prob_positive,
                            source=f"tree:{self.criterion}",
                            extra={"depth": node.depth},
                        )
                    )
                return
            assert node.split is not None and node.left is not None and node.right is not None
            path.append(node.split.left_clause())
            walk(node.left)
            path.pop()
            path.append(node.split.right_clause())
            walk(node.right)
            path.pop()

        walk(root)
        return rules

    def to_text(self) -> str:
        """An indented text rendering of the tree."""
        root = self._require_fitted()
        lines: list[str] = []

        def walk(node: _Node, prefix: str) -> None:
            if node.is_leaf:
                lines.append(
                    f"{prefix}leaf p={node.prob_positive:.3f} "
                    f"(n={node.n_samples}, w={node.weight:.1f})"
                )
                return
            assert node.split is not None and node.left is not None and node.right is not None
            lines.append(f"{prefix}if {node.split.describe()}:")
            walk(node.left, prefix + "  ")
            lines.append(f"{prefix}else:")
            walk(node.right, prefix + "  ")

        walk(root, "")
        return "\n".join(lines)


def _fill_gain_ratios(
    scores: np.ndarray,
    valid: np.ndarray,
    gain: np.ndarray,
    left_w: np.ndarray,
    right_w: np.ndarray,
) -> None:
    """Write ``gain / split_info`` of each candidate into ``scores[valid]``.

    The split information is vectorized with ``np.log2``, which can
    differ from ``math.log2`` in the last bit. Each column's candidates
    within ``RESCORE_REL_TOL`` of its best are then recomputed with the
    scalar :func:`~repro.learn.metrics.split_info`, so the column's pick
    and its score are the scalar kernel's to the last bit.
    """
    info = _split_info_vec(left_w, right_w)
    with np.errstate(divide="ignore", invalid="ignore"):
        scores[valid] = np.where(info > 0, gain / info, 0.0)
    near = valid & (
        scores >= _tie_cutoff(scores.max(axis=1), RESCORE_REL_TOL)[:, None]
    )
    rescored = []
    for i in np.flatnonzero(near[valid]):
        exact = split_info(left_w[i], right_w[i])
        rescored.append(gain[i] / exact if exact > 0 else 0.0)
    scores[near] = rescored


def _gini_vec(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, pos / total, 0.0)
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _entropy_vec(pos: np.ndarray, total: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(total > 0, pos / total, 0.0)
    out = np.zeros_like(p)
    for q in (p, 1.0 - p):
        positive = q > 0
        out[positive] -= q[positive] * np.log2(q[positive])
    return out


def _split_info_vec(left_w: np.ndarray, right_w: np.ndarray) -> np.ndarray:
    """:func:`~repro.learn.metrics.split_info` elementwise, with ``np.log2``."""
    total = left_w + right_w
    out = np.zeros_like(total)
    with np.errstate(divide="ignore", invalid="ignore"):
        for weight in (left_w, right_w):
            p = weight / total
            out -= np.where(weight > 0, p * np.log2(p), 0.0)
    return np.where(total > 0, out, 0.0)


def _copy_subtree(node: _Node) -> _Node:
    clone = _Node(node.n_samples, node.weight, node.pos_weight, node.depth)
    if not node.is_leaf:
        assert node.left is not None and node.right is not None
        clone.split = node.split
        clone.left = _copy_subtree(node.left)
        clone.right = _copy_subtree(node.right)
    return clone


def _subtree_cost(node: _Node) -> tuple[float, int]:
    """(weighted misclassification cost, leaf count) of a subtree."""
    if node.is_leaf:
        return min(node.pos_weight, node.weight - node.pos_weight), 1
    assert node.left is not None and node.right is not None
    left_cost, left_leaves = _subtree_cost(node.left)
    right_cost, right_leaves = _subtree_cost(node.right)
    return left_cost + right_cost, left_leaves + right_leaves


def _max_depth(node: _Node) -> int:
    if node.is_leaf:
        return 0
    assert node.left is not None and node.right is not None
    return 1 + max(_max_depth(node.left), _max_depth(node.right))

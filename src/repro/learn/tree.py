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
:class:`~repro.learn.split_index.SplitIndex` of candidate thresholds:
per node, it accumulates per-bin weight / positive-weight / count
histograms (weighted ``np.bincount``) and scores **every** threshold of
a column in one ``cumsum`` pass, and rows are routed to children by bin
code. The per-threshold masking path it replaced (one boolean mask and
one weight reduction per candidate threshold, routing by raw values)
is ``tests/reference/tree.py``; it scores the identical candidate set,
so ``tests/test_tree_parity.py`` asserts both pick the same splits with
the same gains.

Ties (equal-gain splits) are broken deterministically: lowest column
name first, then lowest threshold / lowest categorical value — never by
feature order or dict insertion order.

NaN feature values route to the right (no-match) branch; ``None``
categorical values never equal a split value, so they also route right.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..db.predicate import CategoricalClause, Clause, NumericClause, Predicate
from ..db.table import Table
from ..errors import LearnError, NotFittedError
from .metrics import entropy, gini_impurity, split_info
from .rules import Rule
from .split_index import CategoricalColumnIndex, NumericColumnIndex, SplitIndex

CRITERIA = ("gini", "entropy", "gain_ratio")

#: Scores within this (relative) distance of a column's / node's best are
#: treated as tied and resolved by the deterministic tie-break. The
#: tolerance absorbs float-associativity noise between the histogram
#: kernels and the per-threshold reference in ``tests/reference/tree.py``
#: (bin-cumsum vs per-mask reductions), so both pick the same split.
TIE_REL_TOL = 1e-9


def _tie_cutoff(best_score: float) -> float:
    """Scores at or above this value are considered tied with ``best_score``."""
    return best_score - TIE_REL_TOL * max(1.0, abs(best_score))


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
    """Everything one ``fit`` needs, bundled so ``_build`` recursion and
    the parity tests can drive split finding without re-deriving state."""

    __slots__ = ("labels", "weights", "index")

    def __init__(self, labels: np.ndarray, weights: np.ndarray, index: SplitIndex):
        self.labels = labels
        self.weights = weights
        self.index = index


class DecisionTree:
    """A binary-classification CART tree with pluggable split criteria."""

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int = 6,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_score: float = 1e-9,
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
        self.min_samples_split = max(min_samples_split, 2)
        self.min_samples_leaf = min_samples_leaf
        self.min_score = min_score
        self.max_thresholds = max_thresholds
        self.max_categories = max_categories
        self._root: _Node | None = None
        self._features: tuple[str, ...] = ()
        self._numeric: dict[str, bool] = {}

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
        self._root = self._build(ctx, indices, depth=0)
        return self

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
        self._numeric = {
            name: table.schema.type_of(name).is_numeric for name in self._features
        }
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
        return _FitContext(labels, weights, split_index), len(table)

    def _build(self, ctx: _FitContext, indices: np.ndarray, depth: int) -> _Node:
        node_weights = ctx.weights[indices]
        node_labels = ctx.labels[indices]
        weight = float(node_weights.sum())
        pos_weight = float(node_weights[node_labels].sum())
        node = _Node(len(indices), weight, pos_weight, depth)
        if (
            depth >= self.max_depth
            or len(indices) < self.min_samples_split
            or pos_weight <= 0
            or pos_weight >= weight
        ):
            return node
        best = self._best_split(ctx, indices)
        if best is None:
            return node
        split, score = best
        if score < self.min_score:
            return node
        left_mask = self._left_mask(ctx, split, indices)
        left_indices = indices[left_mask]
        right_indices = indices[~left_mask]
        if (
            len(left_indices) < self.min_samples_leaf
            or len(right_indices) < self.min_samples_leaf
        ):
            return node
        node.split = split
        node.left = self._build(ctx, left_indices, depth + 1)
        node.right = self._build(ctx, right_indices, depth + 1)
        return node

    def _left_mask(
        self, ctx: _FitContext, split: Split, indices: np.ndarray
    ) -> np.ndarray:
        """Rows of the node routed left, via the columns' bin codes."""
        column = ctx.index.column(split.attr)
        codes = column.codes[indices]
        if isinstance(split, NumericSplit):
            return codes <= column.code_of(split.threshold)
        return codes == column.code_of(split.value)

    def _best_split(
        self, ctx: _FitContext, indices: np.ndarray
    ) -> tuple[Split, float] | None:
        node_labels = ctx.labels[indices]
        node_weights = ctx.weights[indices]
        total_w = float(node_weights.sum())
        total_pos = float(node_weights[node_labels].sum())
        pos_weights = np.where(node_labels, node_weights, 0.0)
        #: (split, score, intra-column tie key) per feature.
        found: list[tuple[Split, float, Any]] = []
        for attr in self._features:
            column = ctx.index.column(attr)
            if self._numeric[attr]:
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
        # Deterministic cross-column selection: scores within TIE_REL_TOL
        # of the best are tied; ties resolve to the lowest column name
        # (the intra-column key never compares across columns).
        best_score = max(score for __, score, __ in found)
        cutoff = _tie_cutoff(best_score)
        tied = [entry for entry in found if entry[1] >= cutoff]
        split, score, __ = min(tied, key=lambda entry: (entry[0].attr, entry[2]))
        return split, score

    # -- histogram kernels ---------------------------------------------

    def _best_numeric_split(
        self,
        column: NumericColumnIndex,
        indices: np.ndarray,
        weights: np.ndarray,
        pos_weights: np.ndarray,
        total_w: float,
        total_pos: float,
    ) -> tuple[Split, float, float] | None:
        """Score all thresholds in one binned cumulative-sum pass."""
        n_thresholds = len(column.thresholds)
        if n_thresholds == 0:
            return None
        codes, hist_n, hist_w, hist_p = _node_histograms(
            column, indices, weights, pos_weights
        )
        # Left stats of threshold b are the cumulative sums of bins 0..b
        # (NaN rows live in the rightmost bin, so they never count left).
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
    ) -> tuple[Split, float, int] | None:
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
    # float-sum order as the per-threshold reference's dict accumulation,
    # which the tie-break parity relies on.
    hist_w = np.bincount(codes, weights=weights, minlength=n_bins)
    hist_p = np.bincount(codes, weights=pos_weights, minlength=n_bins)
    return codes, hist_n, hist_w, hist_p


def _lowest_tied(scores: np.ndarray) -> int:
    """Index of the first (lowest threshold/code) score tied with the max."""
    cutoff = _tie_cutoff(float(scores.max()))
    return int(np.flatnonzero(scores >= cutoff)[0])


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

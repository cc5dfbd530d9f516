"""The Predicate Enumerator: decision trees over each candidate set.

Paper §2.2.2: *"The Predicate Enumerator then builds a decision tree on
each candidate dataset D^c_i by labeling D^c_i as the positive class and
F − D^c_i as negative. We currently use m standard splitting and pruning
strategies (e.g., gini, gain ratio) to construct several trees from each
dataset."*

Each positive root-to-leaf path of each tree becomes a predicate; the
subgroup rule that generated a candidate (when present) is included
directly. Sample weights can optionally be biased by influence so that
high-influence tuples dominate the split choices.

All K candidate × S strategy fits consume one shared
:class:`~repro.learn.split_index.SplitIndex` (memoized on the
:class:`~repro.core.preprocessor.PreprocessResult`), so per-column
candidate thresholds, distinct values, and bin codes are derived once
per debug cycle — and, in the service, once per *cached preprocessing*,
shared across sessions. Strategies that grow the same tree before
pruning (``gini`` and ``gini/ccp`` by default) share one fit per
candidate; each pruning works on its own copy of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..db.table import Table
from ..errors import PipelineError
from ..learn.rules import Rule, dedupe_rules
from ..learn.split_index import SplitIndex
from ..learn.tree import DecisionTree
from .enumerator import CandidateSet
from .preprocessor import PreprocessResult


@dataclass(frozen=True)
class TreeStrategy:
    """One splitting/pruning configuration (one of the paper's *m* strategies)."""

    criterion: str = "gini"
    max_depth: int = 5
    prune: str = "none"  # "none" | "rep" | "ccp"
    ccp_alpha: float = 0.0
    min_samples_leaf: int = 2

    def __post_init__(self) -> None:
        if self.prune not in ("none", "rep", "ccp"):
            raise PipelineError(
                f"prune must be 'none', 'rep' or 'ccp', got {self.prune!r}"
            )

    def describe(self) -> str:
        """Short label, e.g. ``gini/rep``."""
        suffix = f"/{self.prune}" if self.prune != "none" else ""
        return f"{self.criterion}{suffix}"


#: The default m = 5 strategies: three criteria, two pruning modes.
DEFAULT_STRATEGIES: tuple[TreeStrategy, ...] = (
    TreeStrategy(criterion="gini"),
    TreeStrategy(criterion="entropy"),
    TreeStrategy(criterion="gain_ratio"),
    TreeStrategy(criterion="gini", prune="rep"),
    TreeStrategy(criterion="gini", prune="ccp", ccp_alpha=0.01),
)


@dataclass(frozen=True)
class CandidateRule:
    """A rule together with the candidate set it describes."""

    candidate_index: int
    rule: Rule


class PredicateEnumerator:
    """Builds trees per (candidate × strategy) and extracts predicates."""

    def __init__(
        self,
        strategies: Sequence[TreeStrategy] = DEFAULT_STRATEGIES,
        feature_columns: Sequence[str] | None = None,
        min_precision: float = 0.5,
        weight_by_influence: bool = False,
        validation_fraction: float = 0.3,
        max_thresholds: int = 32,
        max_categories: int = 32,
        seed: int = 0,
    ):
        if not strategies:
            raise PipelineError("at least one tree strategy is required")
        if not 0.0 < validation_fraction < 1.0:
            raise PipelineError("validation_fraction must be in (0, 1)")
        self.strategies = tuple(strategies)
        self.feature_columns = tuple(feature_columns) if feature_columns else None
        self.min_precision = min_precision
        self.weight_by_influence = weight_by_influence
        self.validation_fraction = validation_fraction
        self.max_thresholds = max_thresholds
        self.max_categories = max_categories
        self.seed = seed

    def memo_key(self) -> tuple:
        """``(name, value)`` of every constructor tunable, for memo keys."""
        return (
            ("strategies", self.strategies),
            ("feature_columns", self.feature_columns),
            ("min_precision", self.min_precision),
            ("weight_by_influence", self.weight_by_influence),
            ("validation_fraction", self.validation_fraction),
            ("max_thresholds", self.max_thresholds),
            ("max_categories", self.max_categories),
            ("seed", self.seed),
        )

    def run(
        self, pre: PreprocessResult, candidates: Sequence[CandidateSet]
    ) -> list[CandidateRule]:
        """Enumerate predicates for every candidate set."""
        F = pre.F
        features = self._features(F)
        weights = self._weights(pre)
        # One shared index serves every (candidate × strategy) fit; the
        # memo on `pre` also shares it across service sessions.
        split_index = pre.split_index(
            features=features, max_thresholds=self.max_thresholds
        )
        out: list[CandidateRule] = []
        for index, candidate in enumerate(candidates):
            labels = candidate.label_mask(F)
            if not labels.any() or labels.all():
                continue
            rules = list(candidate.rules)
            rules.extend(
                self._tree_rules(F, labels, weights, features, split_index)
            )
            for rule in dedupe_rules(rules):
                out.append(CandidateRule(candidate_index=index, rule=rule))
        return out

    # ------------------------------------------------------------------

    def _tree_rules(
        self,
        F: Table,
        labels: np.ndarray,
        weights: np.ndarray | None,
        features: list[str],
        split_index: SplitIndex,
    ) -> list[Rule]:
        """Every strategy's tree rules for one candidate, in strategy
        order. Each distinct ``(criterion, max_depth, min_samples_leaf,
        rows)`` tree is fitted once; pruning works on a copy."""
        holdout = None
        if any(strategy.prune == "rep" for strategy in self.strategies):
            train_idx, val_idx = self._split_indices(len(F), labels)
            if len(val_idx) and labels[train_idx].any():
                holdout = (train_idx, val_idx)
        fitted: dict[tuple, DecisionTree] = {}
        rules: list[Rule] = []
        for strategy in self.strategies:
            # Reduced-error pruning fits on the train split when there is
            # a usable one, and on all rows (unpruned) otherwise.
            on_train = strategy.prune == "rep" and holdout is not None
            key = (
                strategy.criterion,
                strategy.max_depth,
                strategy.min_samples_leaf,
                on_train,
            )
            tree = fitted.get(key)
            if tree is None:
                tree = fitted[key] = self._fit(
                    strategy, F, labels, weights, features, split_index,
                    holdout[0] if on_train else None,
                )
            if on_train:
                __, val = holdout
                tree = tree.copy().prune_reduced_error(F.take(val), labels[val])
            elif strategy.prune == "ccp":
                tree = tree.copy().cost_complexity_prune(strategy.ccp_alpha)
            rules.extend(
                Rule(
                    predicate=rule.predicate,
                    n_covered=rule.n_covered,
                    n_pos_covered=rule.n_pos_covered,
                    quality=rule.quality,
                    source=f"tree:{strategy.describe()}",
                    extra=rule.extra,
                )
                for rule in tree.positive_rules(min_precision=self.min_precision)
            )
        return rules

    def _fit(
        self,
        strategy: TreeStrategy,
        F: Table,
        labels: np.ndarray,
        weights: np.ndarray | None,
        features: list[str],
        split_index: SplitIndex,
        rows: np.ndarray | None,
    ) -> DecisionTree:
        """One unpruned tree, on ``rows`` of F (all rows when None)."""
        tree = DecisionTree(
            criterion=strategy.criterion,
            max_depth=strategy.max_depth,
            min_samples_leaf=strategy.min_samples_leaf,
            max_thresholds=self.max_thresholds,
            max_categories=self.max_categories,
        )
        if rows is not None:
            F, labels, split_index = F.take(rows), labels[rows], split_index.take(rows)
            weights = weights[rows] if weights is not None else None
        return tree.fit(
            F, labels, sample_weight=weights, features=features, split_index=split_index
        )

    def _split_indices(
        self, n: int, labels: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Stratified train/validation split for reduced-error pruning."""
        rng = np.random.default_rng(self.seed)
        indices = np.arange(n, dtype=np.int64)
        train_parts = []
        val_parts = []
        for cls in (True, False):
            cls_indices = indices[labels == cls]
            rng.shuffle(cls_indices)
            n_val = int(round(len(cls_indices) * self.validation_fraction))
            val_parts.append(cls_indices[:n_val])
            train_parts.append(cls_indices[n_val:])
        train = np.sort(np.concatenate(train_parts))
        val = np.sort(np.concatenate(val_parts))
        if len(train) == 0:
            return indices, np.empty(0, dtype=np.int64)
        return train, val

    def _features(self, F: Table) -> list[str]:
        if self.feature_columns:
            return [name for name in self.feature_columns if name in F.schema]
        return list(F.schema.names)

    def _weights(self, pre: PreprocessResult) -> np.ndarray | None:
        if not self.weight_by_influence:
            return None
        scores = pre.influence.score_of(np.asarray(pre.F.tids))
        positive = np.maximum(scores, 0.0)
        peak = positive.max()
        if peak <= 0:
            return None
        return 1.0 + positive / peak

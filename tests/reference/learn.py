"""Scalar oracles for the Dataset Enumerator's learners.

* :func:`scalar_mdl_entropy_edges` scans every value boundary in
  Python, one :func:`~repro.learn.metrics.entropy` call per side, where
  :func:`repro.learn.discretize.mdl_entropy_edges` computes all gains
  at once and rescans only a shortlist.
* :class:`LoopSubgroupDiscovery` runs the CN2-SD beam one child at a
  time: a full-length boolean mask and one ``quality_of`` call per
  (beam entry, condition), with weighted covering on a float weight per
  row. Its covered weights use the production formula, Σ_k w_k·count_k
  over the distinct weights (negatives first, then the positives from
  the largest weight down), so parity is exact at every γ.
  :class:`FloatSumSubgroupDiscovery` sums the row weights instead, as
  the beam did before it was batched; at γ = 0.5 the two agree bit for
  bit.
* :func:`refitting_dominant_cluster_mask` picks k by
  :func:`loop_silhouette`, throwing the fits away, and fits k-means
  again for that k, where the production cleaner keeps the winning fit.
  :func:`loop_silhouette` rebuilds the whole distance matrix per call
  and scores one point at a time, where
  :func:`repro.learn.kmeans.silhouette` shares one blocked matrix
  across the contest and scores every point at once.

:func:`loop_learners` makes every Dataset Enumerator built inside it
use all three, for stage-level parity and the learner ablation;
:func:`rule_lines` and :func:`candidate_lines` render answers as the
exact text parity is checked on.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping, Sequence
from unittest import mock

import numpy as np

from repro.core import enumerator
from repro.db.predicate import CategoricalClause, Clause, NumericClause, Predicate
from repro.db.table import Table
from repro.errors import LearnError
from repro.learn.discretize import equal_frequency_edges
from repro.learn.kmeans import kmeans, standardize
from repro.learn.metrics import entropy, wracc
from repro.learn.rules import Rule, dedupe_rules
from repro.learn.subgroup import SubgroupDiscovery


@contextmanager
def loop_learners():
    """Inside the block, new Dataset Enumerators run the scalar oracles."""
    with mock.patch.object(enumerator, "SubgroupDiscovery", LoopSubgroupDiscovery), \
            mock.patch.object(
                enumerator, "dominant_cluster_mask", refitting_dominant_cluster_mask
            ):
        yield


def rule_lines(rules) -> list[str]:
    """Each rule's predicate, ``repr(quality)``, coverage and source."""
    return [
        f"{rule.predicate.describe()}|{rule.predicate.to_sql()}|{rule.quality!r}|"
        f"{rule.n_covered!r}|{rule.n_pos_covered!r}|{rule.source}"
        for rule in rules
    ]


def candidate_lines(candidates) -> list[str]:
    """Each candidate set's origin, tids and :func:`rule_lines`."""
    return [
        f"{candidate.origin}|{np.asarray(candidate.tids).tolist()}|"
        f"{rule_lines(candidate.rules)}"
        for candidate in candidates
    ]


# ----------------------------------------------------------------------
# MDL discretization
# ----------------------------------------------------------------------


def scalar_mdl_entropy_edges(
    values: np.ndarray, labels: np.ndarray, max_depth: int = 4
) -> list[float]:
    """Fayyad–Irani cut points, every boundary scored by scalar calls."""
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if values.shape != labels.shape:
        raise LearnError("values and labels must have the same shape")
    keep = ~np.isnan(values)
    values = values[keep]
    labels = labels[keep]
    if len(values) == 0:
        return []
    order = np.argsort(values, kind="stable")
    values = values[order]
    labels = labels[order]
    edges: list[float] = []
    _scalar_mdl_recurse(values, labels, edges, max_depth)
    return sorted(edges)


def _scalar_mdl_recurse(
    values: np.ndarray, labels: np.ndarray, edges: list[float], depth: int
) -> None:
    if depth <= 0 or len(values) < 4:
        return
    n = len(values)
    pos_total = float(labels.sum())
    neg_total = float(n - pos_total)
    parent_entropy = entropy(pos_total, neg_total)
    if parent_entropy == 0.0:
        return
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    if len(change) == 0:
        return
    pos_cum = np.cumsum(labels.astype(np.float64))
    best_gain = -1.0
    best_split = -1
    best_stats: tuple[float, float, float, float] | None = None
    for split in change:
        left_pos = pos_cum[split - 1]
        left_neg = split - left_pos
        right_pos = pos_total - left_pos
        right_neg = neg_total - left_neg
        left_entropy = entropy(left_pos, left_neg)
        right_entropy = entropy(right_pos, right_neg)
        weighted = (split / n) * left_entropy + ((n - split) / n) * right_entropy
        gain = parent_entropy - weighted
        if gain > best_gain:
            best_gain = gain
            best_split = split
            best_stats = (left_pos, left_neg, right_pos, right_neg)
    if best_split < 0 or best_stats is None:
        return
    left_pos, left_neg, right_pos, right_neg = best_stats
    k = 2 if 0 < pos_total < n else 1
    k_left = int(left_pos > 0) + int(left_neg > 0)
    k_right = int(right_pos > 0) + int(right_neg > 0)
    left_entropy = entropy(left_pos, left_neg)
    right_entropy = entropy(right_pos, right_neg)
    delta = (
        math.log2(3**k - 2)
        - (k * parent_entropy - k_left * left_entropy - k_right * right_entropy)
    )
    threshold = (math.log2(n - 1) + delta) / n
    if best_gain <= threshold:
        return
    cut = float((values[best_split - 1] + values[best_split]) / 2.0)
    edges.append(cut)
    _scalar_mdl_recurse(values[:best_split], labels[:best_split], edges, depth - 1)
    _scalar_mdl_recurse(values[best_split:], labels[best_split:], edges, depth - 1)


# ----------------------------------------------------------------------
# CN2-SD
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Condition:
    clause: Clause
    mask: np.ndarray
    column: str
    direction: str

    @property
    def slot(self) -> tuple[str, str]:
        return (self.column, self.direction)


@dataclass
class _BeamEntry:
    clauses: tuple[Clause, ...]
    mask: np.ndarray
    quality: float
    slots: frozenset


class LoopSubgroupDiscovery(SubgroupDiscovery):
    """CN2-SD with one boolean mask and one quality call per child."""

    def fit(
        self,
        table: Table,
        labels: np.ndarray,
        features: Sequence[str] | None = None,
        shared_edges: Mapping[str, Sequence[float]] | None = None,
    ) -> list[Rule]:
        labels = np.asarray(labels, dtype=bool)
        if len(labels) != len(table):
            raise LearnError("labels length must match table length")
        if len(table) == 0 or not labels.any():
            return []
        if features is None:
            features = table.schema.names
        conditions = self._loop_conditions(table, labels, features, shared_edges)
        if not conditions:
            return []
        weights = np.ones(len(table), dtype=np.float64)
        rules: list[Rule] = []
        emitted: set[Predicate] = set()
        for _ in range(self.n_rules):
            best = self._loop_beam_search(conditions, labels, weights, emitted)
            if best is None or best.quality <= 0:
                break
            covered = best.mask
            predicate = Predicate(best.clauses).simplify()
            if predicate is None:
                break
            emitted.add(predicate)
            rules.append(
                Rule(
                    predicate=predicate,
                    n_covered=float(int(covered.sum())),
                    n_pos_covered=float(int((covered & labels).sum())),
                    quality=best.quality,
                    source="cn2sd",
                )
            )
            weights[covered & labels] *= self.gamma
            if self._totals(weights, labels)[1] < 1e-9:
                break
        return dedupe_rules(rules)

    # -- weights -----------------------------------------------------------

    def _totals(self, weights: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
        """``(total weight, positive weight)`` of all rows."""
        return self._covered(weights, labels, np.ones(len(labels), dtype=bool))

    def _covered(
        self, weights: np.ndarray, labels: np.ndarray, mask: np.ndarray
    ) -> tuple[float, float]:
        """``(weight, positive weight)`` of the rows in ``mask``:
        Σ_k w_k·count_k, the negatives first, then each distinct positive
        weight from the largest down."""
        covered_pos = 0.0
        for weight in sorted(set(weights[labels].tolist()), reverse=True):
            count = int((mask & labels & (weights == weight)).sum())
            covered_pos += weight * count
        return int((mask & ~labels).sum()) + covered_pos, covered_pos

    # -- the parent fit's helpers ------------------------------------------

    def _loop_conditions(
        self,
        table: Table,
        labels: np.ndarray,
        features: Sequence[str],
        shared_edges: Mapping[str, Sequence[float]] | None,
    ) -> list[_Condition]:
        conditions: list[_Condition] = []
        for name in features:
            values = table.column(name)
            if table.schema.type_of(name).is_numeric:
                precomputed = (
                    shared_edges.get(name) if shared_edges is not None else None
                )
                for edge in self._loop_edges(values, labels, precomputed):
                    low = NumericClause(name, None, float(edge), hi_inclusive=True)
                    high = NumericClause(name, float(edge), None, lo_inclusive=False)
                    conditions.append(_Condition(low, low.mask(table), name, "le"))
                    conditions.append(_Condition(high, high.mask(table), name, "gt"))
            else:
                counts: dict = {}
                for value in values:
                    if value is None:
                        continue
                    counts[value] = counts.get(value, 0) + 1
                top = sorted(counts, key=lambda v: -counts[v])[: self.max_values]
                for value in top:
                    clause = CategoricalClause(name, frozenset([value]))
                    conditions.append(
                        _Condition(clause, clause.mask(table), name, "eq")
                    )
        return [
            condition
            for condition in conditions
            if 0 < int(condition.mask.sum()) < len(table)
        ]

    def _loop_edges(
        self,
        values: np.ndarray,
        labels: np.ndarray,
        precomputed: Sequence[float] | None,
    ) -> list[float]:
        values = np.asarray(values, dtype=np.float64)
        edges = scalar_mdl_entropy_edges(values, labels)
        if edges:
            return edges
        if precomputed is not None:
            return list(precomputed)
        return equal_frequency_edges(values, self.numeric_bins)

    def _loop_beam_search(
        self,
        conditions: list[_Condition],
        labels: np.ndarray,
        weights: np.ndarray,
        emitted: set[Predicate],
    ) -> _BeamEntry | None:
        total_w, pos_w = self._totals(weights, labels)
        if pos_w <= 0:
            return None

        def quality_of(mask: np.ndarray) -> float:
            covered_w, covered_pos_w = self._covered(weights, labels, mask)
            return wracc(total_w, pos_w, covered_w, covered_pos_w)

        def is_new(entry: _BeamEntry) -> bool:
            predicate = Predicate(entry.clauses).simplify()
            return predicate is not None and predicate not in emitted

        beam: list[_BeamEntry] = []
        best: _BeamEntry | None = None
        for condition in conditions:
            mask = condition.mask
            if int(mask.sum()) < self.min_coverage or not (mask & labels).any():
                continue
            beam.append(
                _BeamEntry(
                    clauses=(condition.clause,),
                    mask=mask,
                    quality=quality_of(mask),
                    slots=frozenset([condition.slot]),
                )
            )
        beam.sort(key=lambda e: -e.quality)
        beam = beam[: self.beam_width]
        for entry in beam:
            if is_new(entry):
                best = entry
                break
        for _ in range(1, self.max_conditions):
            children: list[_BeamEntry] = []
            seen: set[frozenset] = set()
            for entry in beam:
                for condition in conditions:
                    if condition.slot in entry.slots:
                        continue
                    if (condition.column, "eq") in entry.slots:
                        continue
                    mask = entry.mask & condition.mask
                    count = int(mask.sum())
                    if count < self.min_coverage or not (mask & labels).any():
                        continue
                    if count == int(entry.mask.sum()):
                        continue
                    clauses = entry.clauses + (condition.clause,)
                    key = frozenset(clauses)
                    if key in seen:
                        continue
                    seen.add(key)
                    children.append(
                        _BeamEntry(
                            clauses=clauses,
                            mask=mask,
                            quality=quality_of(mask),
                            slots=entry.slots | {condition.slot},
                        )
                    )
            if not children:
                break
            children.sort(key=lambda e: -e.quality)
            beam = children[: self.beam_width]
            for entry in beam:
                if is_new(entry) and (best is None or entry.quality > best.quality):
                    best = entry
                    break
        return best


class FloatSumSubgroupDiscovery(LoopSubgroupDiscovery):
    """The loop beam with covered weights as float sums over the rows."""

    def _covered(
        self, weights: np.ndarray, labels: np.ndarray, mask: np.ndarray
    ) -> tuple[float, float]:
        return float(weights[mask].sum()), float(weights[mask & labels].sum())


# ----------------------------------------------------------------------
# k-means cleaning
# ----------------------------------------------------------------------


def refitting_dominant_cluster_mask(X: np.ndarray, seed: int = 0) -> np.ndarray:
    """The largest cluster of a fresh fit of the k the silhouette picks."""
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        return np.zeros(0, dtype=bool)
    Z, __, __ = standardize(X)
    Z = np.nan_to_num(Z, nan=0.0)
    k = _silhouette_k(Z, seed)
    if k <= 1:
        return np.ones(len(X), dtype=bool)
    result = kmeans(Z, k, seed=seed)
    sizes = result.cluster_sizes()
    dominant = int(np.argmax(sizes))
    return result.labels == dominant


def _silhouette_k(X: np.ndarray, seed: int) -> int:
    """``choose_k`` with its defaults, fits discarded."""
    best_k = 1
    best_score = 0.5
    for k in (2, 3, 4):
        if len(X) < max(k * 2, 3):
            continue
        score = loop_silhouette(X, kmeans(X, k, seed=seed).labels, seed=seed)
        if score > best_score:
            best_score = score
            best_k = k
    return best_k


def loop_silhouette(X: np.ndarray, labels: np.ndarray, max_points: int = 512,
                    seed: int = 0) -> float:
    """Mean silhouette coefficient (subsampled beyond ``max_points``).

    Returns 0.0 when there are fewer than 2 clusters or 3 points, where
    the coefficient is undefined.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    unique = np.unique(labels)
    if len(unique) < 2 or len(X) < 3:
        return 0.0
    if len(X) > max_points:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(X), size=max_points, replace=False)
        X = X[picks]
        labels = labels[picks]
        unique = np.unique(labels)
        if len(unique) < 2:
            return 0.0
    diffs = X[:, None, :] - X[None, :, :]
    distances = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
    scores = np.zeros(len(X))
    for i in range(len(X)):
        own = labels[i]
        own_mask = labels == own
        n_own = own_mask.sum()
        if n_own <= 1:
            scores[i] = 0.0
            continue
        a = distances[i][own_mask].sum() / (n_own - 1)
        b = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = labels == other
            b = min(b, distances[i][other_mask].mean())
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0 else (b - a) / denom
    return float(scores.mean())

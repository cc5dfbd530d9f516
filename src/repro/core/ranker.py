"""The Predicate Ranker.

Paper §2.2.2: *"the Predicate Ranker computes a score for each tree
that increases with improvement in the error metric, and the accuracy of
the tree at differentiating D^c_i from F − D^c_i, and decreases by the
complexity (number of terms in) the predicate."*

Concretely, for predicate p over candidate c::

    score(p) = w_err  · (ε(S) − ε(S without p's tuples)) / ε(S)
             + w_acc  · F1(p matches F, c labels F)
             − w_cmpl · min(terms(p) / max_terms, 1)

Δε is evaluated with removable-aggregate subset removal
(:func:`repro.core.influence.subset_epsilon`) — no query re-execution.

Two scoring paths produce byte-identical ranked lists:

* ``algorithm="batch"`` (default) — the whole rule set is scored as one
  vectorized batch through the shared
  :class:`~repro.core.maskset.ClauseMaskCache`: each distinct clause is
  evaluated once per table, conjunctions are bitwise ANDs of packed
  bits, Δε for all rules is one grouped
  :func:`~repro.core.influence.subset_epsilon_for_mask_set` pass, and
  the confusion statistics come from popcounts of packed-mask
  intersections. Dedupe reuses the already-computed packed masks, keyed
  on a ``blake2b`` digest of (packed bits, column set).
* ``algorithm="per_rule"`` — the original one-rule-at-a-time loop, kept
  as the reference implementation for parity tests and the A3 ablation
  (like ``tree_algorithm="exact"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import PipelineError
from ..learn.metrics import confusion
from .enumerator import CandidateSet
from .influence import subset_epsilon_for_mask_set, subset_epsilon_grouped
from .predicates import CandidateRule
from .preprocessor import PreprocessResult
from .report import RankedPredicate

#: Scoring implementations: vectorized batch vs per-rule reference.
SCORE_ALGORITHMS = ("batch", "per_rule")


@dataclass(frozen=True)
class RankerWeights:
    """The score components' weights.

    ``error``, ``accuracy`` and ``complexity`` are the paper's three
    criteria. ``parsimony`` is the data-cleaning corollary of the ideal
    formulation (minimize ε by deleting D*): among predicates with equal
    error reduction, the one deleting fewer tuples destroys less good
    data and should rank higher.
    """

    error: float = 1.0
    accuracy: float = 0.5
    complexity: float = 0.25
    parsimony: float = 0.3

    def __post_init__(self) -> None:
        if min(self.error, self.accuracy, self.complexity, self.parsimony) < 0:
            raise PipelineError("ranker weights must be non-negative")


def confusion_scores(
    tp: int, n_matched: int, n_pos: int
) -> tuple[float, float, float]:
    """``(f1, precision, recall)`` from integer confusion counts.

    Mirrors :class:`~repro.learn.metrics.Confusion` exactly: the counts
    there are float sums of unit weights (exact integers), so dividing
    the same integer-valued floats here yields bit-identical statistics
    — which keeps the batched popcount-based confusion byte-identical
    to the per-rule reference.
    """
    tp_f = float(tp)
    precision = tp_f / float(n_matched) if n_matched else 0.0
    recall = tp_f / float(n_pos) if n_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return f1, precision, recall


class PredicateRanker:
    """Scores and orders candidate predicates."""

    def __init__(
        self,
        weights: RankerWeights = RankerWeights(),
        max_terms: int = 8,
        drop_nonpositive_error: bool = True,
        algorithm: str = "batch",
    ):
        if algorithm not in SCORE_ALGORITHMS:
            raise PipelineError(
                f"algorithm must be one of {SCORE_ALGORITHMS}, got {algorithm!r}"
            )
        self.weights = weights
        self.max_terms = max_terms
        self.drop_nonpositive_error = drop_nonpositive_error
        self.algorithm = algorithm

    def run(
        self,
        pre: PreprocessResult,
        candidates: Sequence[CandidateSet],
        candidate_rules: Sequence[CandidateRule],
    ) -> list[RankedPredicate]:
        """Rank every enumerated predicate; best first."""
        if self.algorithm == "per_rule":
            ranked = self._run_per_rule(pre, candidates, candidate_rules)
        else:
            ranked = self._run_batch(pre, candidates, candidate_rules)
        ranked.sort(key=lambda r: (-r.score, r.complexity, r.predicate.describe()))
        return ranked

    # ------------------------------------------------------------------
    # batched scoring (default)
    # ------------------------------------------------------------------

    def _run_batch(
        self,
        pre: PreprocessResult,
        candidates: Sequence[CandidateSet],
        candidate_rules: Sequence[CandidateRule],
    ) -> list[RankedPredicate]:
        epsilon = pre.epsilon
        engine = pre.mask_engine()
        candidate_rules = list(candidate_rules)
        predicates = [cr.rule.predicate for cr in candidate_rules]

        # One batched mask evaluation over F: distinct clauses once,
        # conjunctions as packed-bit ANDs, match counts via popcount.
        f_masks = engine.mask_set(pre.F, predicates)
        kept = np.flatnonzero(f_masks.counts > 0)

        # One grouped Δε pass for every surviving rule at once. The
        # segment table is F re-ordered, so the remove-masks are gathers
        # of the F masks (no second evaluation); distinct masks are
        # scored once and broadcast by digest.
        epsilons_after = subset_epsilon_for_mask_set(
            pre.segments,
            f_masks.subset(kept),
            pre.aggregate,
            pre.metric,
            positions=pre.segment_positions,
        )

        # Confusion batch: per candidate, all true-positive counts are
        # one popcount of (rule bits & label bits).
        label_packed: dict[int, tuple[np.ndarray, int]] = {}
        tp_by_candidate: dict[int, np.ndarray] = {}
        for index in kept:
            c_index = candidate_rules[index].candidate_index
            if c_index not in label_packed:
                labels = candidates[c_index].label_mask(pre.F)
                label_packed[c_index] = (
                    engine.pack_labels(labels),
                    int(np.count_nonzero(labels)),
                )
                tp_by_candidate[c_index] = f_masks.intersection_counts(
                    label_packed[c_index][0]
                )

        digests = f_masks.digests()
        scored: list[tuple[RankedPredicate, tuple]] = []
        for pos, index in enumerate(kept):
            candidate_rule = candidate_rules[index]
            rule = candidate_rule.rule
            epsilon_after = float(epsilons_after[pos])
            relative_reduction = (
                (epsilon - epsilon_after) / epsilon if epsilon > 0 else 0.0
            )
            if self.drop_nonpositive_error and relative_reduction <= 0:
                continue
            c_index = candidate_rule.candidate_index
            n_matched = int(f_masks.counts[index])
            tp = int(tp_by_candidate[c_index][index])
            f1, precision, recall = confusion_scores(
                tp, n_matched, label_packed[c_index][1]
            )
            penalty = min(rule.predicate.complexity / self.max_terms, 1.0)
            matched_fraction = n_matched / max(len(pre.F), 1)
            score = (
                self.weights.error * relative_reduction
                + self.weights.accuracy * f1
                - self.weights.complexity * penalty
                - self.weights.parsimony * matched_fraction
            )
            entry = RankedPredicate(
                predicate=rule.predicate,
                score=score,
                epsilon_before=epsilon,
                epsilon_after=epsilon_after,
                accuracy=f1,
                precision=precision,
                recall=recall,
                complexity=rule.predicate.complexity,
                n_matched=n_matched,
                candidate_origin=candidates[c_index].origin,
                source=rule.source,
            )
            dedupe_key = (
                digests[index],
                frozenset(rule.predicate.columns()),
            )
            scored.append((entry, dedupe_key))
        return self._dedupe_digests(scored)

    @staticmethod
    def _dedupe_digests(
        scored: list[tuple[RankedPredicate, tuple]]
    ) -> list[RankedPredicate]:
        """:meth:`_dedupe` keyed on packed-mask digests.

        Same equivalence classes and same keep-the-best rule as the
        per-rule reference, but the keys are 16-byte digests of the
        packed bits already computed by the engine — no second mask
        evaluation, no full ``tobytes()`` buffers held in the dict.
        """
        best: dict[tuple, RankedPredicate] = {}
        for entry, key in scored:
            existing = best.get(key)
            if (
                existing is None
                or entry.score > existing.score
                or (entry.score == existing.score
                    and entry.complexity < existing.complexity)
            ):
                best[key] = entry
        return list(best.values())

    # ------------------------------------------------------------------
    # per-rule reference path
    # ------------------------------------------------------------------

    def _run_per_rule(
        self,
        pre: PreprocessResult,
        candidates: Sequence[CandidateSet],
        candidate_rules: Sequence[CandidateRule],
    ) -> list[RankedPredicate]:
        """The original one-rule-at-a-time scorer (parity reference)."""
        epsilon = pre.epsilon
        ranked: list[RankedPredicate] = []
        for candidate_rule in candidate_rules:
            candidate = candidates[candidate_rule.candidate_index]
            rule = candidate_rule.rule
            mask_f = rule.predicate.mask(pre.F)
            n_matched = int(mask_f.sum())
            if n_matched == 0:
                continue
            # Δε via grouped removable aggregates: mask evaluation over
            # the segment table plus the grouped compute_without pass.
            epsilon_after = subset_epsilon_grouped(
                pre.segments,
                rule.predicate.mask(pre.segment_table),
                pre.aggregate,
                pre.metric,
            )
            relative_reduction = (
                (epsilon - epsilon_after) / epsilon if epsilon > 0 else 0.0
            )
            if self.drop_nonpositive_error and relative_reduction <= 0:
                continue
            labels = candidate.label_mask(pre.F)
            stats = confusion(labels, mask_f)
            penalty = min(rule.predicate.complexity / self.max_terms, 1.0)
            matched_fraction = n_matched / max(len(pre.F), 1)
            score = (
                self.weights.error * relative_reduction
                + self.weights.accuracy * stats.f1
                - self.weights.complexity * penalty
                - self.weights.parsimony * matched_fraction
            )
            ranked.append(
                RankedPredicate(
                    predicate=rule.predicate,
                    score=score,
                    epsilon_before=epsilon,
                    epsilon_after=epsilon_after,
                    accuracy=stats.f1,
                    precision=stats.precision,
                    recall=stats.recall,
                    complexity=rule.predicate.complexity,
                    n_matched=n_matched,
                    candidate_origin=candidate.origin,
                    source=rule.source,
                )
            )
        return self._dedupe(ranked, pre)

    @staticmethod
    def _dedupe(
        ranked: list[RankedPredicate], pre: PreprocessResult
    ) -> list[RankedPredicate]:
        """Keep one entry per (matched tuple set, columns used).

        Different trees often emit near-identical thresholds (e.g.
        ``measure > 58.43`` vs ``measure > 58.44``) that select exactly the
        same tuples of F; showing them all would clutter the Figure-6
        panel without adding information. Descriptions over *different
        columns* are kept even when they denote the same tuples (e.g.
        ``memo = 'REATTRIBUTION TO SPOUSE'`` vs ``amount <= -249``) —
        alternative framings of the anomaly are exactly what the user
        wants to compare.
        """
        best: dict[tuple, RankedPredicate] = {}
        for entry in ranked:
            key = (
                entry.predicate.mask(pre.F).tobytes(),
                frozenset(entry.predicate.columns()),
            )
            existing = best.get(key)
            if (
                existing is None
                or entry.score > existing.score
                or (entry.score == existing.score
                    and entry.complexity < existing.complexity)
            ):
                best[key] = entry
        return list(best.values())

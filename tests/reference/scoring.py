"""One-rule-at-a-time oracles for the Predicate Ranker and Merger.

:class:`PerRuleRanker` and :class:`PerRuleMerger` score every predicate
on its own: one ``Predicate.mask`` evaluation per table, one one-row
``compute_without_grouped`` pass per predicate for Δε, boolean-mask
confusion statistics, a dedupe keyed on the full mask bytes, and a
merger that rescans and re-scores every head pair each round. They keep
the score formula inline, so the parity tests check the production
:func:`repro.core.ranker.score_predicate` as well as the batched mask,
Δε and popcount machinery.

:func:`per_rule_scoring` builds every pipeline backend created inside
it with these classes, so a whole ``debug()`` can be compared
byte-for-byte against the production path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Sequence
from unittest import mock

from repro.core import backend
from repro.core.enumerator import CandidateSet
from repro.core.merger import MAX_MERGE_ROUNDS, PredicateMerger, hull
from repro.core.predicates import CandidateRule
from repro.core.preprocessor import PreprocessResult
from repro.core.ranker import PredicateRanker
from repro.core.report import RankedPredicate
from repro.db.predicate import Predicate
from repro.db.table import Table
from repro.learn.metrics import confusion

from .influence import subset_epsilon_grouped


@contextmanager
def per_rule_scoring():
    """Inside the block, new backends rank and merge with the oracles."""
    with mock.patch.object(backend, "PredicateRanker", PerRuleRanker), \
            mock.patch.object(backend, "PredicateMerger", PerRuleMerger):
        yield


def segment_table(pre: PreprocessResult) -> Table:
    """Rows of F in segment order, aligned with ``pre.segments``.

    Built once per result (kept in its per-column memo), so repeated
    scoring of one selection pays for the gather once.
    """
    key = ("reference_segment_table",)
    table = pre._column_memo.get(key)
    if table is None:
        table = pre.F.take_tids(pre.flat_tids)
        pre._column_memo[key] = table
    return table


def _sort(ranked: list[RankedPredicate]) -> list[RankedPredicate]:
    ranked.sort(key=lambda r: (-r.score, r.complexity, r.predicate.describe()))
    return ranked


class PerRuleRanker(PredicateRanker):
    """:class:`PredicateRanker` scoring one rule at a time."""

    def run(
        self,
        pre: PreprocessResult,
        candidates: Sequence[CandidateSet],
        candidate_rules: Sequence[CandidateRule],
    ) -> list[RankedPredicate]:
        epsilon = pre.epsilon
        seg_table = segment_table(pre)
        ranked: list[RankedPredicate] = []
        for candidate_rule in candidate_rules:
            candidate = candidates[candidate_rule.candidate_index]
            rule = candidate_rule.rule
            mask_f = rule.predicate.mask(pre.F)
            n_matched = int(mask_f.sum())
            if n_matched == 0:
                continue
            epsilon_after = subset_epsilon_grouped(
                pre.segments,
                rule.predicate.mask(seg_table),
                pre.aggregate,
                pre.metric,
            )
            relative_reduction = (
                (epsilon - epsilon_after) / epsilon if epsilon > 0 else 0.0
            )
            if self.drop_nonpositive_error and relative_reduction <= 0:
                continue
            stats = confusion(candidate.label_mask(pre.F), mask_f)
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
        return _sort(self._dedupe_by_mask(ranked, pre))

    @staticmethod
    def _dedupe_by_mask(
        ranked: list[RankedPredicate], pre: PreprocessResult
    ) -> list[RankedPredicate]:
        """Keep the best entry per (mask bytes over F, columns used)."""
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


class PerRuleMerger(PredicateMerger):
    """:class:`PredicateMerger` rescanning and re-scoring every head pair
    each round."""

    def run(
        self,
        pre: PreprocessResult,
        candidates: Sequence[CandidateSet],
        ranked: list[RankedPredicate],
    ) -> list[RankedPredicate]:
        ranked = list(ranked)
        candidate_by_origin = {c.origin: c for c in candidates}
        for _ in range(MAX_MERGE_ROUNDS):
            best_merge: RankedPredicate | None = None
            merged_from: tuple[int, int] | None = None
            head = sorted(ranked, key=lambda r: -r.score)[: self.top_n]
            for i in range(len(head)):
                for j in range(i + 1, len(head)):
                    if head[i].predicate == head[j].predicate:
                        continue
                    merged = hull(head[i].predicate, head[j].predicate)
                    if merged is None:
                        continue
                    entry = self._score_hull(
                        pre, candidate_by_origin.get(head[i].candidate_origin),
                        merged, head[i], head[j],
                    )
                    if entry is None:
                        continue
                    if entry.score <= max(head[i].score, head[j].score):
                        continue
                    if best_merge is None or entry.score > best_merge.score:
                        best_merge = entry
                        merged_from = (i, j)
            if best_merge is None or merged_from is None:
                break
            drop = {head[merged_from[0]].predicate, head[merged_from[1]].predicate}
            ranked = [r for r in ranked if r.predicate not in drop]
            ranked.append(best_merge)
        return _sort(ranked)

    def _score_hull(
        self,
        pre: PreprocessResult,
        candidate: CandidateSet | None,
        predicate: Predicate,
        parent_a: RankedPredicate,
        parent_b: RankedPredicate,
    ) -> RankedPredicate | None:
        mask_f = predicate.mask(pre.F)
        n_matched = int(mask_f.sum())
        if n_matched == 0:
            return None
        epsilon = pre.epsilon
        epsilon_after = subset_epsilon_grouped(
            pre.segments,
            predicate.mask(segment_table(pre)),
            pre.aggregate,
            pre.metric,
        )
        relative = (epsilon - epsilon_after) / epsilon if epsilon > 0 else 0.0
        if relative <= 0:
            return None
        if candidate is not None:
            stats = confusion(candidate.label_mask(pre.F), mask_f)
            f1 = stats.f1
            precision = stats.precision
            recall = stats.recall
        else:
            f1 = max(parent_a.accuracy, parent_b.accuracy)
            precision = max(parent_a.precision, parent_b.precision)
            recall = max(parent_a.recall, parent_b.recall)
        penalty = min(predicate.complexity / self.max_terms, 1.0)
        matched_fraction = n_matched / max(len(pre.F), 1)
        score = (
            self.weights.error * relative
            + self.weights.accuracy * f1
            - self.weights.complexity * penalty
            - self.weights.parsimony * matched_fraction
        )
        return RankedPredicate(
            predicate=predicate,
            score=score,
            epsilon_before=epsilon,
            epsilon_after=epsilon_after,
            accuracy=f1,
            precision=precision,
            recall=recall,
            complexity=predicate.complexity,
            n_matched=n_matched,
            candidate_origin=parent_a.candidate_origin,
            source=f"merge({parent_a.source}+{parent_b.source})",
        )

"""Predicate merging: combine fragmented descriptions of one anomaly.

Decision trees partition greedily, so a single anomalous region often
comes back as several adjacent rules (``10 < x <= 20 and a = 'v'`` plus
``20 < x <= 31 and a = 'v'``). The follow-up system to DBWipes (Scorpion)
merges such neighbors; this module implements the same idea as a ranker
post-pass:

* two predicates over the *same column set* are merged into their
  **hull**: per-column interval spans are unioned ([min lo, max hi]) and
  categorical value sets are unioned;
* the hull over-approximates the logical OR, so it is re-scored from
  scratch (Δε, accuracy, complexity, parsimony) and kept **only when it
  outscores both parents** — a bad merge never survives.

The pass runs greedily over the top of the ranked list until no merge
improves. Candidate pairs are grouped by ``frozenset(columns())`` up
front (cross-column pairs can never hull), every round's un-scored hulls
are evaluated as **one** batched mask-and-Δε pass through the shared
:class:`~repro.core.maskset.ClauseMaskCache`, and scored pairs are
cached across rounds — after an accepted merge only pairs involving the
newly inserted hull (or entries newly promoted into the head window) are
scored, instead of rescanning all O(n²) pairs. The rescan-everything
greedy loop it replaced is the byte-identity oracle in
``tests/reference/scoring.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..db.predicate import CategoricalClause, NumericClause, Predicate
from ..errors import PipelineError
from ..learn.bitmask import pack_mask
from .enumerator import CandidateSet
from .influence import subset_epsilon_for_mask_set
from .preprocessor import PreprocessResult
from .ranker import confusion_scores, score_predicate
from .report import RankedPredicate

#: At most this many merges are accepted per run.
MAX_MERGE_ROUNDS = 4


def hull(first: Predicate, second: Predicate) -> Predicate | None:
    """The per-column hull of two conjunctions, or ``None`` if their
    column sets differ or any column pair is incompatible."""
    if first.columns() != second.columns():
        return None
    by_column_first = {clause.column: clause for clause in first.clauses}
    by_column_second = {clause.column: clause for clause in second.clauses}
    if len(by_column_first) != len(first.clauses):
        # Same column twice (shouldn't happen after simplify); bail out.
        return None
    merged = []
    for column, clause_a in by_column_first.items():
        clause_b = by_column_second[column]
        if isinstance(clause_a, NumericClause) and isinstance(
            clause_b, NumericClause
        ):
            lo_pair = _lower_hull(clause_a, clause_b)
            hi_pair = _upper_hull(clause_a, clause_b)
            if lo_pair[0] is None and hi_pair[0] is None:
                # Opposite unbounded sides: the hull is the whole domain,
                # i.e. no constraint at all — not a useful merge.
                return None
            merged.append(
                NumericClause(
                    column,
                    lo_pair[0],
                    hi_pair[0],
                    lo_inclusive=lo_pair[1],
                    hi_inclusive=hi_pair[1],
                )
            )
        elif isinstance(clause_a, CategoricalClause) and isinstance(
            clause_b, CategoricalClause
        ):
            if clause_a.negated or clause_b.negated:
                return None
            merged.append(
                CategoricalClause(column, clause_a.values | clause_b.values)
            )
        else:
            return None
    return Predicate(merged)


def _lower_hull(a: NumericClause, b: NumericClause) -> tuple[float | None, bool]:
    if a.lo is None or b.lo is None:
        return None, True
    if a.lo < b.lo:
        return a.lo, a.lo_inclusive
    if b.lo < a.lo:
        return b.lo, b.lo_inclusive
    return a.lo, a.lo_inclusive or b.lo_inclusive


def _upper_hull(a: NumericClause, b: NumericClause) -> tuple[float | None, bool]:
    if a.hi is None or b.hi is None:
        return None, True
    if a.hi > b.hi:
        return a.hi, a.hi_inclusive
    if b.hi > a.hi:
        return b.hi, b.hi_inclusive
    return a.hi, a.hi_inclusive or b.hi_inclusive


class PredicateMerger:
    """Greedy hull-merging over the top of a ranked predicate list."""

    def __init__(self, weights, max_terms: int = 8, top_n: int = 12):
        if top_n < 2:
            raise PipelineError("top_n must be >= 2")
        if max_terms < 1:
            raise PipelineError(f"max_terms must be >= 1, got {max_terms}")
        self.weights = weights
        self.max_terms = max_terms
        self.top_n = top_n

    def run(
        self,
        pre: PreprocessResult,
        candidates: Sequence[CandidateSet],
        ranked: list[RankedPredicate],
    ) -> list[RankedPredicate]:
        """Insert winning merges into ``ranked`` (returned re-sorted)."""
        ranked = list(ranked)
        candidate_by_origin = {c.origin: c for c in candidates}
        engine = pre.mask_engine()
        # Scored hulls persist across rounds keyed on the parent entries:
        # after an accepted merge, only pairs involving entries that are
        # new to the head window miss the cache and get scored.
        pair_scores: dict[tuple, RankedPredicate | None] = {}
        label_cache: dict[str, tuple[np.ndarray, int]] = {}
        for _ in range(MAX_MERGE_ROUNDS):
            head = sorted(ranked, key=lambda r: -r.score)[: self.top_n]
            # Candidate pairs grouped by column set up front: a hull only
            # exists within one frozenset(columns()) group, so cross-set
            # pairs are dropped before any hull/mask work. Ties go to the
            # first pair in i<j order.
            column_sets = [frozenset(r.predicate.columns()) for r in head]
            pairs = [
                (i, j)
                for i in range(len(head))
                for j in range(i + 1, len(head))
                if column_sets[i] == column_sets[j]
                and head[i].predicate != head[j].predicate
            ]
            to_score = []
            for i, j in pairs:
                key = (head[i], head[j])
                if key in pair_scores:
                    continue
                merged = hull(head[i].predicate, head[j].predicate)
                if merged is None:
                    pair_scores[key] = None
                else:
                    to_score.append((key, merged, head[i], head[j]))
            if to_score:
                self._score_pairs_batch(
                    pre, engine, candidate_by_origin, label_cache,
                    to_score, pair_scores,
                )
            best_merge: RankedPredicate | None = None
            merged_from: tuple[int, int] | None = None
            for i, j in pairs:
                entry = pair_scores[(head[i], head[j])]
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
        ranked.sort(key=lambda r: (-r.score, r.complexity, r.predicate.describe()))
        return ranked

    def _score_pairs_batch(
        self,
        pre: PreprocessResult,
        engine,
        candidate_by_origin: dict[str, CandidateSet],
        label_cache: dict[str, tuple[np.ndarray, int]],
        to_score: list[tuple],
        pair_scores: dict[tuple, RankedPredicate | None],
    ) -> None:
        """Score a round's un-cached hulls as one mask-and-Δε batch."""
        predicates = [item[1] for item in to_score]
        f_masks = engine.mask_set(predicates)
        live = [pos for pos in range(len(to_score)) if f_masks.counts[pos] > 0]
        for pos in range(len(to_score)):
            if f_masks.counts[pos] == 0:
                pair_scores[to_score[pos][0]] = None
        epsilons_after = subset_epsilon_for_mask_set(
            pre.segments,
            f_masks.subset(live),
            pre.aggregate,
            pre.metric,
            positions=pre.segment_positions,
        )
        epsilon = pre.epsilon
        tp_by_origin: dict[str, np.ndarray] = {}
        for batch_pos, pos in enumerate(live):
            key, predicate, parent_a, parent_b = to_score[pos]
            epsilon_after = float(epsilons_after[batch_pos])
            relative = (epsilon - epsilon_after) / epsilon if epsilon > 0 else 0.0
            if relative <= 0:
                pair_scores[key] = None
                continue
            n_matched = int(f_masks.counts[pos])
            candidate = candidate_by_origin.get(parent_a.candidate_origin)
            if candidate is not None:
                origin = parent_a.candidate_origin
                if origin not in label_cache:
                    labels = candidate.label_mask(pre.F)
                    label_cache[origin] = (
                        pack_mask(labels),
                        int(np.count_nonzero(labels)),
                    )
                if origin not in tp_by_origin:
                    tp_by_origin[origin] = f_masks.intersection_counts(
                        label_cache[origin][0]
                    )
                tp = int(tp_by_origin[origin][pos])
                stats = confusion_scores(tp, n_matched, label_cache[origin][1])
            else:
                stats = (
                    max(parent_a.accuracy, parent_b.accuracy),
                    max(parent_a.precision, parent_b.precision),
                    max(parent_a.recall, parent_b.recall),
                )
            pair_scores[key] = score_predicate(
                pre,
                self.weights,
                self.max_terms,
                predicate,
                epsilon_after,
                relative,
                stats,
                n_matched,
                parent_a.candidate_origin,
                f"merge({parent_a.source}+{parent_b.source})",
            )

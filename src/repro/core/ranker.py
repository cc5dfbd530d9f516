"""The Predicate Ranker.

Paper §2.2.2: *"the Predicate Ranker computes a score for each tree
that increases with improvement in the error metric, and the accuracy of
the tree at differentiating D^c_i from F − D^c_i, and decreases by the
complexity (number of terms in) the predicate."*

Concretely, for predicate p over candidate c::

    score(p) = w_err  · (ε(S) − ε(S without p's tuples)) / ε(S)
             + w_acc  · F1(p matches F, c labels F)
             − w_cmpl · min(terms(p) / max_terms, 1)

Δε is evaluated with removable-aggregate subset removal — no query
re-execution. The whole rule set is scored as one vectorized batch
through the shared :class:`~repro.core.maskset.ClauseMaskCache`: each
distinct clause is evaluated once over F, conjunctions are bitwise
ANDs of packed bits, Δε for all rules is one grouped
:func:`~repro.core.influence.subset_epsilon_for_mask_set` pass, and the
confusion statistics come from popcounts of packed-mask intersections.
Dedupe reuses the already-computed packed masks, keyed on a ``blake2b``
digest of (packed bits, column set). The one-rule-at-a-time scorer it
replaced is the byte-identity oracle in ``tests/reference/scoring.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..db.predicate import Predicate
from ..errors import PipelineError
from ..learn.bitmask import pack_mask
from .enumerator import CandidateSet
from .influence import subset_epsilon_for_mask_set
from .predicates import CandidateRule
from .preprocessor import PreprocessResult
from .report import RankedPredicate


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
    — which keeps the popcount-based confusion byte-identical to
    :func:`~repro.learn.metrics.confusion` over boolean masks.
    """
    tp_f = float(tp)
    precision = tp_f / float(n_matched) if n_matched else 0.0
    recall = tp_f / float(n_pos) if n_pos else 0.0
    f1 = 2 * precision * recall / (precision + recall) if (precision + recall) else 0.0
    return f1, precision, recall


def score_predicate(
    pre: PreprocessResult,
    weights: RankerWeights,
    max_terms: int,
    predicate: Predicate,
    epsilon_after: float,
    relative_reduction: float,
    stats: tuple[float, float, float],
    n_matched: int,
    candidate_origin: str,
    source: str,
) -> RankedPredicate:
    """The scored :class:`RankedPredicate` for one predicate over F.

    ``stats`` is ``(f1, precision, recall)``. The Ranker and the Merger
    both score through here, so a merged hull and the rules it replaces
    are ranked by one formula.
    """
    f1, precision, recall = stats
    penalty = min(predicate.complexity / max_terms, 1.0)
    matched_fraction = n_matched / max(len(pre.F), 1)
    score = (
        weights.error * relative_reduction
        + weights.accuracy * f1
        - weights.complexity * penalty
        - weights.parsimony * matched_fraction
    )
    return RankedPredicate(
        predicate=predicate,
        score=score,
        epsilon_before=pre.epsilon,
        epsilon_after=epsilon_after,
        accuracy=f1,
        precision=precision,
        recall=recall,
        complexity=predicate.complexity,
        n_matched=n_matched,
        candidate_origin=candidate_origin,
        source=source,
    )


class PredicateRanker:
    """Scores and orders candidate predicates."""

    def __init__(
        self,
        weights: RankerWeights = RankerWeights(),
        max_terms: int = 8,
        drop_nonpositive_error: bool = True,
    ):
        if max_terms < 1:
            raise PipelineError(f"max_terms must be >= 1, got {max_terms}")
        self.weights = weights
        self.max_terms = max_terms
        self.drop_nonpositive_error = drop_nonpositive_error

    def run(
        self,
        pre: PreprocessResult,
        candidates: Sequence[CandidateSet],
        candidate_rules: Sequence[CandidateRule],
    ) -> list[RankedPredicate]:
        """Rank every enumerated predicate; best first."""
        epsilon = pre.epsilon
        engine = pre.mask_engine()
        candidate_rules = list(candidate_rules)
        predicates = [cr.rule.predicate for cr in candidate_rules]

        # One batched mask evaluation over F: distinct clauses once,
        # conjunctions as packed-bit ANDs, match counts via popcount.
        f_masks = engine.mask_set(predicates)
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
                    pack_mask(labels),
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
            entry = score_predicate(
                pre,
                self.weights,
                self.max_terms,
                rule.predicate,
                epsilon_after,
                relative_reduction,
                confusion_scores(tp, n_matched, label_packed[c_index][1]),
                n_matched,
                candidates[c_index].origin,
                rule.source,
            )
            dedupe_key = (
                digests[index],
                frozenset(rule.predicate.columns()),
            )
            scored.append((entry, dedupe_key))
        ranked = self._dedupe(scored)
        ranked.sort(key=lambda r: (-r.score, r.complexity, r.predicate.describe()))
        return ranked

    @staticmethod
    def _dedupe(
        scored: list[tuple[RankedPredicate, tuple]]
    ) -> list[RankedPredicate]:
        """Keep one entry per (matched tuple set, columns used).

        Different trees often emit near-identical thresholds (e.g.
        ``measure > 58.43`` vs ``measure > 58.44``) that select exactly the
        same tuples of F; showing them all would clutter the Figure-6
        panel without adding information. Descriptions over *different
        columns* are kept even when they denote the same tuples (e.g.
        ``memo = 'REATTRIBUTION TO SPOUSE'`` vs ``amount <= -249``) —
        alternative framings of the anomaly are exactly what the user
        wants to compare. The tuple set is keyed by the 16-byte digest
        of the packed mask the engine already computed.
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

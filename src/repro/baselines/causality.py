"""Responsibility-style ranking inspired by causality in databases.

The related-work section cites Meliou et al.: an input X is a cause if
some contingency set Γ exists such that altering {X} ∪ Γ fixes the
output, and X's *responsibility* is ``1 / (1 + min_Γ |Γ|)``.

Meliou et al. answer this for boolean expressions with a SAT solver; for
numeric aggregates the minimal contingency set is approximated greedily
here, which is exact for monotone per-group metrics (too-high / too-low)
with avg/sum and a good heuristic otherwise:

for each tuple t in group g, remove tuples from g most-influential
first; the responsibility of t is ``1 / k`` where k is the size of the
smallest influence-greedy prefix *containing t* that drives the group's
error contribution to zero (∞ prefix → responsibility 0... encoded as
``1/(1+n)``). Each prefix's group value comes from the Ranker's masked
kernel, ``Aggregate.compute_without_grouped``, over the group as one
segment with the prefix as one remove-mask row.
"""

from __future__ import annotations

import numpy as np

from ..core.preprocessor import PreprocessResult
from ..db.segments import SegmentedValues
from .fine_grained import TupleExplanation


def responsibility_explanation(
    pre: PreprocessResult, tolerance: float = 1e-9
) -> TupleExplanation:
    """Rank F's tuples by approximate causal responsibility."""
    all_tids: list[np.ndarray] = []
    all_scores: list[np.ndarray] = []
    for group in pre.influence.groups:
        scores = _group_responsibility(
            group.values, group.influence, pre, tolerance
        )
        all_tids.append(group.tids)
        all_scores.append(scores)
    tids = np.concatenate(all_tids) if all_tids else np.empty(0, dtype=np.int64)
    scores = np.concatenate(all_scores) if all_scores else np.empty(0)
    return TupleExplanation(tids=tids, label="causal responsibility", scores=scores)


def _group_responsibility(
    values: np.ndarray,
    influence: np.ndarray,
    pre: PreprocessResult,
    tolerance: float,
) -> np.ndarray:
    n = len(values)
    scores = np.zeros(n, dtype=np.float64)
    if n == 0:
        return scores
    # Tuples with non-positive influence cannot be part of a minimal fix.
    order = np.argsort(-influence, kind="stable")
    # Find the smallest greedy prefix that fixes this group.
    fix_size = None
    group = SegmentedValues(values, np.array([0, n]))
    remove_mask = np.zeros((1, n), dtype=bool)
    for k, position in enumerate(order, start=1):
        if influence[position] <= 0:
            break
        remove_mask[0, position] = True
        new_value = pre.aggregate.compute_without_grouped(group, remove_mask)[0]
        phi = pre.metric.per_value_error(new_value)[0]
        if phi <= tolerance:
            fix_size = k
            break
    if fix_size is None:
        # The group cannot be fixed by deletions alone: everyone gets the
        # floor responsibility 1/(1+n).
        scores[:] = 1.0 / (1.0 + n)
        return scores
    prefix = order[:fix_size]
    # Tuples inside the minimal prefix: contingency is the rest of the
    # prefix, |Γ| = fix_size − 1. Outside: swapping them in needs the whole
    # prefix as contingency, |Γ| = fix_size (only if they help at all).
    scores[prefix] = 1.0 / fix_size
    outside = np.setdiff1d(np.arange(n), prefix)
    helps = influence[outside] > 0
    scores[outside[helps]] = 1.0 / (1.0 + fix_size)
    scores[outside[~helps]] = 1.0 / (1.0 + n)
    return scores

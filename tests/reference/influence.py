"""Oracles for leave-one-out influence and the Δε preview.

:func:`naive_leave_one_out_influence` recomputes each group's aggregate
from scratch per removed tuple (O(|F|²) within a group) where
:func:`repro.core.influence.leave_one_out_influence` uses one grouped
closed-form pass. :func:`subset_epsilon` scores one per-group remove
mask as a one-row call of the masked kernel, where the Ranker and
Merger score a whole mask set at once through
:func:`repro.core.influence.subset_epsilon_for_mask_set`.
"""

from __future__ import annotations

import numpy as np

from repro.core.influence import GroupInfluence, InfluenceResult
from repro.db.aggregates import Aggregate
from repro.db.segments import SegmentedValues, as_segments
from repro.errors import PipelineError

from .aggregates import compute, leave_one_out_naive


def naive_leave_one_out_influence(
    group_values: list[np.ndarray],
    group_tids: list[np.ndarray],
    rows: list[int],
    aggregate: Aggregate,
    metric,
) -> InfluenceResult:
    """:func:`~repro.core.influence.leave_one_out_influence` with one
    :func:`~reference.aggregates.compute` per group and naive
    recomputation per removal."""
    if len(group_values) != len(group_tids) or len(group_values) != len(rows):
        raise PipelineError("group_values, group_tids, and rows must align")
    current = np.array(
        [compute(aggregate, values) for values in group_values], dtype=np.float64
    )
    epsilon = metric(current)
    phi = metric.per_value_error(current)
    groups = []
    for g, values in enumerate(group_values):
        loo = leave_one_out_naive(aggregate, values)
        groups.append(
            GroupInfluence(
                row=rows[g],
                tids=np.asarray(group_tids[g], dtype=np.int64),
                values=np.asarray(values, dtype=np.float64),
                loo_values=loo,
                influence=phi[g] - metric.per_value_error(loo),
                group_value=float(current[g]),
            )
        )
    if groups:
        tids = np.concatenate([group.tids for group in groups])
        scores = np.concatenate([group.influence for group in groups])
    else:
        tids = np.empty(0, dtype=np.int64)
        scores = np.empty(0, dtype=np.float64)
    return InfluenceResult(
        tids=tids, scores=scores, epsilon=epsilon, groups=tuple(groups)
    )


def subset_epsilon(
    group_values: list[np.ndarray],
    group_remove_masks: list[np.ndarray],
    aggregate: Aggregate,
    metric,
) -> float:
    """ε(S) after removing a per-group masked subset of input tuples."""
    if len(group_values) != len(group_remove_masks):
        raise PipelineError("group_values and masks must align")
    remove_mask = (
        np.concatenate([np.asarray(m, dtype=bool) for m in group_remove_masks])
        if len(group_remove_masks)
        else np.empty(0, dtype=bool)
    )
    return subset_epsilon_grouped(
        as_segments(group_values), remove_mask, aggregate, metric
    )


def subset_epsilon_grouped(
    seg: SegmentedValues,
    remove_mask: np.ndarray,
    aggregate: Aggregate,
    metric,
) -> float:
    """:func:`subset_epsilon` for one flat mask over segmented groups."""
    remove_mask = np.asarray(remove_mask, dtype=bool)
    return metric(aggregate.compute_without_grouped(seg, remove_mask[None, :])[0])

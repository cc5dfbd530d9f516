"""Recomputation oracles for the aggregate kernels.

:func:`compute` is the SQL aggregate written as plain numpy reductions
over the non-NaN values. Every other oracle recomputes from it, one
group (or one removed element, or one mask row and group) at a time:
the plain Python-iteration shape that the vectorized
:class:`~repro.db.aggregates.Aggregate` kernels replaced. The parity
tests compare the production kernels against these, and the
grouped-kernel ablation times them.
"""

from __future__ import annotations

import numpy as np

from repro.db.aggregates import Aggregate
from repro.db.segments import SegmentedValues

_REDUCTIONS = {"sum": np.sum, "avg": np.mean, "min": np.min, "max": np.max}


def compute(agg: Aggregate, values: np.ndarray) -> float:
    """``agg`` over the non-NaN ``values`` by one numpy reduction."""
    values = np.asarray(values, dtype=np.float64)
    valid = values[~np.isnan(values)]
    if agg.name == "count":
        return float(len(valid))
    if agg.name in ("var", "stddev"):
        if len(valid) < 2:
            return float("nan")
        var = float(valid.var(ddof=1))
        return var if agg.name == "var" else float(np.sqrt(var))
    if len(valid) == 0:
        return float("nan")
    return float(_REDUCTIONS[agg.name](valid))


def leave_one_out_naive(agg: Aggregate, values: np.ndarray) -> np.ndarray:
    """``out[i]`` = :func:`compute` over ``values`` without element ``i``,
    recomputed from scratch per removal: O(n²)."""
    values = np.asarray(values, dtype=np.float64)
    return np.array(
        [compute(agg, np.delete(values, i)) for i in range(len(values))],
        dtype=np.float64,
    )


def compute_grouped_loop(agg: Aggregate, seg: SegmentedValues) -> np.ndarray:
    """:meth:`~repro.db.aggregates.Aggregate.compute_grouped`, one
    :func:`compute` per segment."""
    return np.array(
        [compute(agg, seg.segment(g)) for g in range(seg.n_segments)],
        dtype=np.float64,
    )


def leave_one_out_grouped_loop(agg: Aggregate, seg: SegmentedValues) -> np.ndarray:
    """:meth:`~repro.db.aggregates.Aggregate.leave_one_out_grouped`,
    :func:`leave_one_out_naive` per segment."""
    if seg.n_segments == 0:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(
        [leave_one_out_naive(agg, seg.segment(g)) for g in range(seg.n_segments)]
    )


def compute_without_grouped_loop(
    agg: Aggregate, seg: SegmentedValues, remove_masks: np.ndarray
) -> np.ndarray:
    """:meth:`~repro.db.aggregates.Aggregate.compute_without_grouped`,
    one :func:`compute` over the kept values per (mask row, segment)."""
    remove_masks = np.asarray(remove_masks, dtype=bool)
    out = np.empty((len(remove_masks), seg.n_segments), dtype=np.float64)
    for r, mask in enumerate(remove_masks):
        for g in range(seg.n_segments):
            lo, hi = seg.offsets[g], seg.offsets[g + 1]
            out[r, g] = compute(agg, seg.values[lo:hi][~mask[lo:hi]])
    return out

"""Per-group loop and naive O(n²) oracles for the aggregate kernels.

Each function is the plain Python-iteration shape that the vectorized
:class:`~repro.db.aggregates.Aggregate` kernels replaced: one
per-group (or per-row, or per-removal) Aggregate call at a time. The
parity tests compare the production kernels against these, and the
grouped-kernel ablation times them.
"""

from __future__ import annotations

import numpy as np

from repro.db.aggregates import Aggregate, _as_flat_mask, _as_float, _as_mask_matrix
from repro.db.segments import SegmentedValues, SegmentPairs


def leave_one_out_naive(agg: Aggregate, values: np.ndarray) -> np.ndarray:
    """``out[i]`` = ``agg.compute`` over ``values`` without element ``i``,
    recomputed from scratch per removal: O(n²)."""
    values = _as_float(values)
    out = np.empty(len(values), dtype=np.float64)
    for i in range(len(values)):
        out[i] = agg.compute(np.delete(values, i))
    return out


def compute_grouped_loop(agg: Aggregate, seg: SegmentedValues) -> np.ndarray:
    """:meth:`~repro.db.aggregates.Aggregate.compute_grouped`, one
    ``compute`` call per segment."""
    return np.array(
        [agg.compute(seg.segment(g)) for g in range(seg.n_segments)],
        dtype=np.float64,
    )


def leave_one_out_grouped_loop(agg: Aggregate, seg: SegmentedValues) -> np.ndarray:
    """:meth:`~repro.db.aggregates.Aggregate.leave_one_out_grouped`, one
    ``leave_one_out`` call per segment."""
    if seg.n_segments == 0:
        return np.empty(0, dtype=np.float64)
    return np.concatenate(
        [agg.leave_one_out(seg.segment(g)) for g in range(seg.n_segments)]
    )


def compute_without_grouped_loop(
    agg: Aggregate, seg: SegmentedValues, remove_mask: np.ndarray
) -> np.ndarray:
    """:meth:`~repro.db.aggregates.Aggregate.compute_without_grouped`, one
    ``compute_without`` call per segment."""
    remove_mask = _as_flat_mask(seg, remove_mask)
    mask_parts = seg.split_flat(remove_mask)
    return np.array(
        [
            agg.compute_without(seg.segment(g), mask_parts[g])
            for g in range(seg.n_segments)
        ],
        dtype=np.float64,
    )


def compute_without_grouped_batch_loop(
    agg: Aggregate, seg: SegmentedValues, remove_masks: np.ndarray
) -> np.ndarray:
    """:meth:`~repro.db.aggregates.Aggregate.compute_without_grouped_batch`,
    one 1-D ``compute_without_grouped`` pass per mask row."""
    remove_masks = _as_mask_matrix(seg, remove_masks)
    if remove_masks.shape[0] == 0:
        return np.empty((0, seg.n_segments), dtype=np.float64)
    return np.stack([agg.compute_without_grouped(seg, row) for row in remove_masks])


def compute_without_pairs_loop(
    agg: Aggregate, pairs: SegmentPairs, remove_mask: np.ndarray
) -> np.ndarray:
    """:meth:`~repro.db.aggregates.Aggregate.compute_without_pairs`: the
    pairs rebuilt as a standalone segmented array through the 1-D
    grouped kernel, with no statistics reused from the parent."""
    mini = SegmentedValues(pairs.values, pairs.offsets)
    return agg.compute_without_grouped(mini, remove_mask)

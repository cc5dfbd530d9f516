"""Removable aggregate functions.

DBWipes needs to answer two questions much faster than naive recomputation:

1. *Leave-one-out influence* (Preprocessor): for every input tuple of a
   selected group, what would the group's aggregate be if exactly that
   tuple were removed? :meth:`Aggregate.leave_one_out_grouped` answers
   this for every selected group in one vectorized pass — O(n) total
   for the algebraic aggregates instead of the naive O(n²).

2. *Predicate application* (Ranker / clean-as-you-query preview): what
   is each group's aggregate after removing an arbitrary subset?
   :meth:`Aggregate.compute_without_grouped` answers this for a whole
   matrix of remove-masks (one candidate predicate per row) from
   sufficient statistics for algebraic aggregates
   (sum/count/avg/var/stddev) and by masked recomputation for min/max.

The executor aggregates every group of a GROUP BY with
:meth:`Aggregate.compute_grouped`. All three kernels take a whole
:class:`~repro.db.segments.SegmentedValues` and run single vectorized
passes (``np.add.reduceat`` closed forms for count/sum/avg/var/stddev,
masked segmented reductions for min/max) with no Python per-group loop.
The per-group recomputation they replaced lives in
``tests/reference/aggregates.py`` as the parity oracle.

NULL handling follows SQL: NaN values (the FLOAT NULL encoding) are
ignored by every aggregate; an aggregate over zero non-null values is NaN
(except ``count``, which is 0).
"""

from __future__ import annotations

import numpy as np

from ..errors import AggregateError
from .segments import (
    SegmentedValues,
    segment_count,
    segment_count_batch,
    segment_max,
    segment_max_batch,
    segment_min,
    segment_min_batch,
    segment_stats,
    segment_stats_batch,
    segment_sum,
    segment_sum_batch,
)

#: Aggregate names accepted by the SQL parser, matching the paper's list.
AGGREGATE_NAMES = ("avg", "sum", "count", "min", "max", "stddev", "var")


class Aggregate:
    """Base class for aggregate functions over segmented float values."""

    #: SQL name of the aggregate.
    name: str = ""

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        """``out[g]`` = the aggregate over segment ``g``, in one pass."""
        raise NotImplementedError

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        """Flat leave-one-out values: ``out[i]`` = aggregate of the
        segment owning flat position ``i`` with that element removed.
        """
        raise NotImplementedError

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        """``out[r, g]`` = aggregate over segment ``g`` with row ``r``'s
        masked flat positions removed — R Δε previews in one grouped pass.

        ``remove_masks`` is a ``(R, len(seg))`` boolean matrix (one
        candidate predicate per row). Every override folds each (row,
        segment) pair on its own, so row ``r`` of the result is
        bit-identical to a call with that row alone, and a segment
        copied whole into another ``SegmentedValues`` gives the same
        bits there — the Δε memo, the sparse Δε branch and the
        Ranker/Merger scoring depend on that.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<aggregate {self.name}>"


def _as_mask_matrix(seg: SegmentedValues, remove_masks: np.ndarray) -> np.ndarray:
    remove_masks = np.asarray(remove_masks, dtype=bool)
    if remove_masks.ndim != 2 or remove_masks.shape[1] != len(seg.values):
        raise AggregateError("remove mask matrix shape does not match values")
    return remove_masks


class Count(Aggregate):
    """``count(x)`` — number of non-null values."""

    name = "count"

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return segment_count(seg.valid, seg.offsets)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        n_valid = segment_count(seg.valid, seg.offsets)
        return n_valid[seg.segment_ids] - seg.valid

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        remove_masks = _as_mask_matrix(seg, remove_masks)
        return segment_count_batch(seg.valid[None, :] & ~remove_masks, seg.offsets)


class Sum(Aggregate):
    """``sum(x)`` — NaN over zero non-null values (SQL NULL)."""

    name = "sum"

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        n_valid, total = segment_stats(seg)
        return np.where(n_valid > 0, total, np.nan)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        n_valid, total = segment_stats(seg)
        ids = seg.segment_ids
        out = total[ids] - np.where(seg.valid, seg.values, 0.0)
        out[seg.valid & (n_valid[ids] == 1.0)] = np.nan
        out[n_valid[ids] == 0.0] = np.nan
        return out

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        remove_masks = _as_mask_matrix(seg, remove_masks)
        n_kept, kept_total = segment_stats_batch(seg, ~remove_masks)
        return np.where(n_kept > 0, kept_total, np.nan)


class Avg(Aggregate):
    """``avg(x)``."""

    name = "avg"

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        n_valid, total = segment_stats(seg)
        with np.errstate(invalid="ignore"):
            mean = total / np.maximum(n_valid, 1.0)
        return np.where(n_valid > 0, mean, np.nan)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        n_valid, total = segment_stats(seg)
        ids = seg.segment_ids
        with np.errstate(invalid="ignore", divide="ignore"):
            full = np.where(n_valid > 0, total / np.maximum(n_valid, 1.0), np.nan)
            out = (total[ids] - np.where(seg.valid, seg.values, 0.0)) / (
                n_valid[ids] - 1.0
            )
        out = np.where(seg.valid, out, full[ids])
        out[seg.valid & (n_valid[ids] == 1.0)] = np.nan
        return out

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        remove_masks = _as_mask_matrix(seg, remove_masks)
        n_kept, kept_total = segment_stats_batch(seg, ~remove_masks)
        with np.errstate(invalid="ignore"):
            mean = kept_total / np.maximum(n_kept, 1.0)
        return np.where(n_kept > 0, mean, np.nan)


class Var(Aggregate):
    """``var(x)`` — sample variance (n−1 denominator, PostgreSQL semantics)."""

    name = "var"

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        n_valid, tc, tc2, _ = _segment_central_moments(seg)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (tc2 - tc * tc / np.maximum(n_valid, 1.0)) / (n_valid - 1.0)
        var = np.maximum(var, 0.0)
        return np.where(n_valid >= 2, var, np.nan)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        # Moments are centered on each group's full-data mean before
        # subtraction: the deviations stay bounded by the data spread,
        # avoiding the catastrophic cancellation of the raw
        # sum/sum-of-squares form when the mean is large relative to
        # the variance.
        n_valid, tc, tc2, centered = _segment_central_moments(seg)
        ids = seg.segment_ids
        with np.errstate(invalid="ignore", divide="ignore"):
            full = (tc2 - tc * tc / np.maximum(n_valid, 1.0)) / (n_valid - 1.0)
            full = np.where(n_valid >= 2, np.maximum(full, 0.0), np.nan)
            n_after = n_valid[ids] - 1.0
            sum_after = tc[ids] - centered
            sumsq_after = tc2[ids] - centered * centered
            var_after = (sumsq_after - sum_after * sum_after / n_after) / (
                n_after - 1.0
            )
        out = np.maximum(var_after, 0.0)
        out = np.where(seg.valid, out, full[ids])
        out[seg.valid & (n_valid[ids] < 3.0)] = np.nan
        return out

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        # Centering stays on the *full* per-group mean. The
        # mask-independent statistics (per-group valid counts, full
        # means, centered values) are computed once for the whole
        # matrix; only the kept-subset moments are per-row work.
        remove_masks = _as_mask_matrix(seg, remove_masks)
        n_valid, total = segment_stats(seg)
        keep = seg.valid[None, :] & ~remove_masks
        n_kept = segment_count_batch(keep, seg.offsets)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = total / np.maximum(n_valid, 1.0)
            centered = seg.values - mean[seg.segment_ids]
            kept_c = np.where(keep, centered[None, :], 0.0)
            tc = segment_sum_batch(kept_c, seg.offsets)
            tc2 = segment_sum_batch(kept_c * kept_c, seg.offsets)
            var = (tc2 - tc * tc / np.maximum(n_kept, 1.0)) / (n_kept - 1.0)
        var = np.maximum(var, 0.0)
        return np.where(n_kept >= 2, var, np.nan)


def _segment_central_moments(
    seg: SegmentedValues,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment ``(n_valid, Σc, Σc², c)`` with ``c`` centered on the
    segment's own valid mean (0 at NULL positions)."""
    n_valid, total = segment_stats(seg)
    with np.errstate(invalid="ignore"):
        mean = total / np.maximum(n_valid, 1.0)
    centered = np.where(seg.valid, seg.values - mean[seg.segment_ids], 0.0)
    tc = segment_sum(centered, seg.offsets)
    tc2 = segment_sum(centered * centered, seg.offsets)
    return n_valid, tc, tc2, centered


class Stddev(Aggregate):
    """``stddev(x)`` — sample standard deviation."""

    name = "stddev"

    def __init__(self) -> None:
        self._var = Var()

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._var.compute_grouped(seg))

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._var.leave_one_out_grouped(seg))

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._var.compute_without_grouped(seg, remove_masks))


class Min(Aggregate):
    """``min(x)``."""

    name = "min"

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return _segment_extreme(seg, smallest=True)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return _segment_extreme_leave_one_out(seg, smallest=True)

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        return _segment_extreme_without(seg, remove_masks, smallest=True)


class Max(Aggregate):
    """``max(x)``."""

    name = "max"

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return _segment_extreme(seg, smallest=False)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return _segment_extreme_leave_one_out(seg, smallest=False)

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        return _segment_extreme_without(seg, remove_masks, smallest=False)


def _segment_extreme(seg: SegmentedValues, smallest: bool) -> np.ndarray:
    """Per-segment min/max over valid values; all-NULL segments are NaN."""
    sentinel = np.inf if smallest else -np.inf
    reducer = segment_min if smallest else segment_max
    masked = np.where(seg.valid, seg.values, sentinel)
    ext = reducer(masked, seg.offsets, empty_fill=sentinel)
    n_valid = segment_count(seg.valid, seg.offsets)
    return np.where(n_valid > 0, ext, np.nan)


def _segment_extreme_leave_one_out(
    seg: SegmentedValues, smallest: bool
) -> np.ndarray:
    """Grouped min/max leave-one-out via extreme + runner-up reductions.

    Two masked segmented reductions suffice: the extreme itself, and the
    extreme with all extreme-valued positions masked out (the runner-up).
    Only a *uniquely* extreme element changes its group's value when
    removed — it falls back to the runner-up; everything else (including
    NULLs) sees the unchanged extreme.
    """
    sentinel = np.inf if smallest else -np.inf
    reducer = segment_min if smallest else segment_max
    n_valid = segment_count(seg.valid, seg.offsets)
    masked = np.where(seg.valid, seg.values, sentinel)
    ext = reducer(masked, seg.offsets, empty_fill=sentinel)
    ids = seg.segment_ids
    is_ext = seg.valid & (seg.values == ext[ids])
    mult = segment_count(is_ext, seg.offsets)
    runner = reducer(
        np.where(is_ext, sentinel, masked), seg.offsets, empty_fill=sentinel
    )
    out = ext[ids].copy()
    unique_ext = is_ext & (mult[ids] == 1.0)
    out[unique_ext] = runner[ids][unique_ext]
    out[seg.valid & (n_valid[ids] == 1.0)] = np.nan
    out[n_valid[ids] == 0.0] = np.nan
    return out


def _segment_extreme_without(
    seg: SegmentedValues, remove_masks: np.ndarray, smallest: bool
) -> np.ndarray:
    """Per-(row, segment) min/max after removing each row's masked positions."""
    remove_masks = _as_mask_matrix(seg, remove_masks)
    sentinel = np.inf if smallest else -np.inf
    reducer = segment_min_batch if smallest else segment_max_batch
    keep = seg.valid[None, :] & ~remove_masks
    ext = reducer(
        np.where(keep, seg.values[None, :], sentinel),
        seg.offsets,
        empty_fill=sentinel,
    )
    n_kept = segment_count_batch(keep, seg.offsets)
    return np.where(n_kept > 0, ext, np.nan)


_REGISTRY: dict[str, Aggregate] = {
    agg.name: agg
    for agg in (Count(), Sum(), Avg(), Var(), Stddev(), Min(), Max())
}


def get_aggregate(name: str) -> Aggregate:
    """Look up an aggregate implementation by SQL name (case-insensitive)."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise AggregateError(
            f"unknown aggregate {name!r}; supported: {', '.join(sorted(_REGISTRY))}"
        ) from None


def is_aggregate_name(name: str) -> bool:
    """Whether ``name`` is a recognized aggregate function name."""
    return name.lower() in _REGISTRY

"""Removable aggregate functions.

DBWipes needs to answer two questions much faster than naive recomputation:

1. *Leave-one-out influence* (Preprocessor): for every input tuple of a
   selected group, what would the aggregate value be if exactly that tuple
   were removed? :meth:`Aggregate.leave_one_out` answers this for a whole
   group in one vectorized pass — O(n) total for the algebraic aggregates
   instead of the naive O(n²).

2. *Predicate application* (Ranker / clean-as-you-query preview): what is
   the aggregate value of a group after removing an arbitrary subset?
   :meth:`Aggregate.compute_without` answers this from sufficient
   statistics for algebraic aggregates (sum/count/avg/var/stddev) and by
   reduced recomputation for min/max.

Both questions also arise *per group*: the executor aggregates every
group of a GROUP BY, the Preprocessor runs leave-one-out over every
selected group, and the Ranker previews subset removal over all groups
at once. The ``*_grouped`` methods answer them for a whole
:class:`~repro.db.segments.SegmentedValues` in single vectorized passes
(``np.add.reduceat`` closed forms for count/sum/avg/var/stddev, two
masked segmented reductions for min/max) with no Python per-group loop.
The per-group loops and the naive O(n²) leave-one-out they replaced
live in ``tests/reference/aggregates.py`` as the parity oracles.

NULL handling follows SQL: NaN values (the FLOAT NULL encoding) are
ignored by every aggregate; an aggregate over zero non-null values is NaN
(except ``count``, which is 0).
"""

from __future__ import annotations

import numpy as np

from ..errors import AggregateError
from .segments import (
    SegmentedValues,
    SegmentPairs,
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
    """Base class for aggregate functions over a 1-D float array."""

    #: SQL name of the aggregate.
    name: str = ""

    def compute(self, values: np.ndarray) -> float:
        """The aggregate over all non-null values."""
        raise NotImplementedError

    def leave_one_out(self, values: np.ndarray) -> np.ndarray:
        """``out[i]`` = aggregate over ``values`` with element ``i`` removed,
        in one O(n) pass."""
        raise NotImplementedError

    def compute_without(self, values: np.ndarray, remove_mask: np.ndarray) -> float:
        """The aggregate over ``values`` with masked elements removed.

        The default recomputes from scratch; algebraic subclasses subtract
        the removed subset's sufficient statistics instead.
        """
        values = _as_float(values)
        remove_mask = _as_mask(values, remove_mask)
        return self.compute(values[~remove_mask])

    # ------------------------------------------------------------------
    # grouped (segmented) kernels
    # ------------------------------------------------------------------

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        """``out[g]`` = the aggregate over segment ``g``, in one pass."""
        raise NotImplementedError

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        """Flat leave-one-out values: ``out[i]`` = aggregate of the
        segment owning flat position ``i`` with that element removed.
        """
        raise NotImplementedError

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_mask: np.ndarray
    ) -> np.ndarray:
        """``out[g]`` = aggregate over segment ``g`` with masked flat
        positions removed (the grouped Δε-preview kernel)."""
        raise NotImplementedError

    def compute_without_grouped_batch(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        """``out[r, g]`` = aggregate over segment ``g`` with row ``r``'s
        masked flat positions removed — R Δε previews in one grouped pass.

        ``remove_masks`` is a ``(R, len(seg))`` boolean matrix (one
        candidate predicate per row). Every override is a 2-D kernel
        whose per-segment accumulation order matches the 1-D
        :meth:`compute_without_grouped` exactly, so row ``r`` of the
        result is bit-identical to the one-mask call — the Δε memo and
        the Ranker/Merger scoring depend on that.
        """
        raise NotImplementedError

    def compute_without_pairs(
        self, pairs: SegmentPairs, remove_mask: np.ndarray
    ) -> np.ndarray:
        """``out[p]`` = aggregate over pair ``p``'s segment copy with its
        masked positions removed — the sparse Δε kernel.

        ``remove_mask`` is flat over ``pairs`` (aligned with
        ``pairs.values``). Overrides reuse segment-only statistics
        computed once on the *parent* ``SegmentedValues`` (gathered
        through ``pairs.flat``), so the per-pair work is only the
        mask-dependent folds; every override is bit-identical to
        :meth:`compute_without_grouped` over the same segment because
        segments are copied wholesale.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<aggregate {self.name}>"


def _as_float(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.dtype == object:
        raise AggregateError("aggregates require numeric input")
    return np.asarray(values, dtype=np.float64)


def _as_mask(values: np.ndarray, remove_mask: np.ndarray) -> np.ndarray:
    remove_mask = np.asarray(remove_mask, dtype=bool)
    if len(remove_mask) != len(values):
        raise AggregateError("remove mask length does not match values")
    return remove_mask


def _as_flat_mask(seg: SegmentedValues, remove_mask: np.ndarray) -> np.ndarray:
    remove_mask = np.asarray(remove_mask, dtype=bool)
    if len(remove_mask) != len(seg.values):
        raise AggregateError("remove mask length does not match values")
    return remove_mask


def _as_mask_matrix(seg: SegmentedValues, remove_masks: np.ndarray) -> np.ndarray:
    remove_masks = np.asarray(remove_masks, dtype=bool)
    if remove_masks.ndim != 2 or remove_masks.shape[1] != len(seg.values):
        raise AggregateError("remove mask matrix shape does not match values")
    return remove_masks


def _valid(values: np.ndarray) -> np.ndarray:
    return values[~np.isnan(values)]


class Count(Aggregate):
    """``count(x)`` — number of non-null values."""

    name = "count"

    def compute(self, values: np.ndarray) -> float:
        return float(len(_valid(_as_float(values))))

    def leave_one_out(self, values: np.ndarray) -> np.ndarray:
        values = _as_float(values)
        nulls = np.isnan(values)
        total = float(len(values) - nulls.sum())
        out = np.full(len(values), total - 1.0)
        out[nulls] = total
        return out

    def compute_without(self, values: np.ndarray, remove_mask: np.ndarray) -> float:
        values = _as_float(values)
        remove_mask = _as_mask(values, remove_mask)
        valid = ~np.isnan(values)
        return float((valid & ~remove_mask).sum())

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return segment_count(seg.valid, seg.offsets)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        n_valid = segment_count(seg.valid, seg.offsets)
        return n_valid[seg.segment_ids] - seg.valid

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_mask: np.ndarray
    ) -> np.ndarray:
        remove_mask = _as_flat_mask(seg, remove_mask)
        return segment_count(seg.valid & ~remove_mask, seg.offsets)

    def compute_without_grouped_batch(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        remove_masks = _as_mask_matrix(seg, remove_masks)
        return segment_count_batch(seg.valid[None, :] & ~remove_masks, seg.offsets)

    def compute_without_pairs(
        self, pairs: SegmentPairs, remove_mask: np.ndarray
    ) -> np.ndarray:
        keep = pairs.valid & ~remove_mask
        return segment_count(keep, pairs.offsets)


class Sum(Aggregate):
    """``sum(x)`` — NaN over zero non-null values (SQL NULL)."""

    name = "sum"

    def compute(self, values: np.ndarray) -> float:
        valid = _valid(_as_float(values))
        if len(valid) == 0:
            return float("nan")
        return float(valid.sum())

    def leave_one_out(self, values: np.ndarray) -> np.ndarray:
        values = _as_float(values)
        nulls = np.isnan(values)
        n_valid = len(values) - nulls.sum()
        if n_valid == 0:
            return np.full(len(values), np.nan)
        total = np.nansum(values)
        out = total - np.where(nulls, 0.0, values)
        if n_valid == 1:
            out[~nulls] = np.nan
        return out

    def compute_without(self, values: np.ndarray, remove_mask: np.ndarray) -> float:
        values = _as_float(values)
        remove_mask = _as_mask(values, remove_mask)
        keep = values[~remove_mask]
        keep = keep[~np.isnan(keep)]
        if len(keep) == 0:
            return float("nan")
        total = np.nansum(values)
        removed = values[remove_mask]
        return float(total - np.nansum(removed))

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
        self, seg: SegmentedValues, remove_mask: np.ndarray
    ) -> np.ndarray:
        remove_mask = _as_flat_mask(seg, remove_mask)
        n_kept, kept_total = segment_stats(seg, where=~remove_mask)
        return np.where(n_kept > 0, kept_total, np.nan)

    def compute_without_grouped_batch(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        remove_masks = _as_mask_matrix(seg, remove_masks)
        n_kept, kept_total = segment_stats_batch(seg, ~remove_masks)
        return np.where(n_kept > 0, kept_total, np.nan)

    def compute_without_pairs(
        self, pairs: SegmentPairs, remove_mask: np.ndarray
    ) -> np.ndarray:
        n_kept, kept_total = _pair_stats(pairs, remove_mask)
        return np.where(n_kept > 0, kept_total, np.nan)


class Avg(Aggregate):
    """``avg(x)``."""

    name = "avg"

    def compute(self, values: np.ndarray) -> float:
        valid = _valid(_as_float(values))
        if len(valid) == 0:
            return float("nan")
        return float(valid.mean())

    def leave_one_out(self, values: np.ndarray) -> np.ndarray:
        values = _as_float(values)
        nulls = np.isnan(values)
        n_valid = len(values) - int(nulls.sum())
        out = np.empty(len(values), dtype=np.float64)
        if n_valid == 0:
            out[:] = np.nan
            return out
        total = np.nansum(values)
        full = total / n_valid
        if n_valid == 1:
            out[:] = np.nan
            out[nulls] = full
            return out
        with np.errstate(invalid="ignore"):
            out = (total - np.where(nulls, 0.0, values)) / (n_valid - 1)
        out[nulls] = full
        return out

    def compute_without(self, values: np.ndarray, remove_mask: np.ndarray) -> float:
        values = _as_float(values)
        remove_mask = _as_mask(values, remove_mask)
        valid = ~np.isnan(values)
        kept = valid & ~remove_mask
        n = int(kept.sum())
        if n == 0:
            return float("nan")
        total = np.nansum(values) - np.nansum(values[remove_mask])
        return float(total / n)

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
        self, seg: SegmentedValues, remove_mask: np.ndarray
    ) -> np.ndarray:
        remove_mask = _as_flat_mask(seg, remove_mask)
        n_kept, kept_total = segment_stats(seg, where=~remove_mask)
        with np.errstate(invalid="ignore"):
            mean = kept_total / np.maximum(n_kept, 1.0)
        return np.where(n_kept > 0, mean, np.nan)

    def compute_without_grouped_batch(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        remove_masks = _as_mask_matrix(seg, remove_masks)
        n_kept, kept_total = segment_stats_batch(seg, ~remove_masks)
        with np.errstate(invalid="ignore"):
            mean = kept_total / np.maximum(n_kept, 1.0)
        return np.where(n_kept > 0, mean, np.nan)

    def compute_without_pairs(
        self, pairs: SegmentPairs, remove_mask: np.ndarray
    ) -> np.ndarray:
        n_kept, kept_total = _pair_stats(pairs, remove_mask)
        with np.errstate(invalid="ignore"):
            mean = kept_total / np.maximum(n_kept, 1.0)
        return np.where(n_kept > 0, mean, np.nan)


class Var(Aggregate):
    """``var(x)`` — sample variance (n−1 denominator, PostgreSQL semantics)."""

    name = "var"

    def compute(self, values: np.ndarray) -> float:
        valid = _valid(_as_float(values))
        if len(valid) < 2:
            return float("nan")
        return float(valid.var(ddof=1))

    def leave_one_out(self, values: np.ndarray) -> np.ndarray:
        # Moments are centered on the full-data mean before subtraction:
        # deviations are bounded by the data spread, which avoids the
        # catastrophic cancellation the raw sum/sum-of-squares form
        # suffers when the mean is large relative to the variance.
        values = _as_float(values)
        nulls = np.isnan(values)
        n_valid = len(values) - int(nulls.sum())
        out = np.empty(len(values), dtype=np.float64)
        full = self.compute(values)
        if n_valid < 3:
            out[:] = np.nan
            out[nulls] = full
            return out
        mean = np.nansum(values) / n_valid
        centered = np.where(nulls, 0.0, values - mean)
        total_c = centered.sum()
        total_c2 = (centered * centered).sum()
        n_after = n_valid - 1
        sum_after = total_c - centered
        sumsq_after = total_c2 - centered * centered
        with np.errstate(invalid="ignore"):
            var_after = (sumsq_after - sum_after * sum_after / n_after) / (n_after - 1)
        var_after = np.maximum(var_after, 0.0)
        out = var_after
        out[nulls] = full
        return out

    def compute_without(self, values: np.ndarray, remove_mask: np.ndarray) -> float:
        values = _as_float(values)
        remove_mask = _as_mask(values, remove_mask)
        valid = ~np.isnan(values)
        kept = valid & ~remove_mask
        n = int(kept.sum())
        if n < 2:
            return float("nan")
        mean = np.nansum(values) / max(int(valid.sum()), 1)
        centered = np.where(valid, values - mean, 0.0)
        kept_c = np.where(kept, centered, 0.0)
        total_c = kept_c.sum()
        total_c2 = (kept_c * kept_c).sum()
        var = (total_c2 - total_c * total_c / n) / (n - 1)
        return float(max(var, 0.0))

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        n_valid, tc, tc2, _ = _segment_central_moments(seg)
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (tc2 - tc * tc / np.maximum(n_valid, 1.0)) / (n_valid - 1.0)
        var = np.maximum(var, 0.0)
        return np.where(n_valid >= 2, var, np.nan)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        # Same full-data-mean centering as the per-group closed form: the
        # deviations stay bounded by the data spread, avoiding the
        # cancellation of the raw sum/sum-of-squares formulation.
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
        self, seg: SegmentedValues, remove_mask: np.ndarray
    ) -> np.ndarray:
        # Centering stays on the *full* per-group mean, matching the
        # per-group compute_without sufficient-statistics form.
        remove_mask = _as_flat_mask(seg, remove_mask)
        n_valid, total = segment_stats(seg)
        keep = seg.valid & ~remove_mask
        n_kept = segment_count(keep, seg.offsets)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = total / np.maximum(n_valid, 1.0)
            kept_c = np.where(keep, seg.values - mean[seg.segment_ids], 0.0)
            tc = segment_sum(kept_c, seg.offsets)
            tc2 = segment_sum(kept_c * kept_c, seg.offsets)
            var = (tc2 - tc * tc / np.maximum(n_kept, 1.0)) / (n_kept - 1.0)
        var = np.maximum(var, 0.0)
        return np.where(n_kept >= 2, var, np.nan)

    def compute_without_grouped_batch(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        # The mask-independent statistics (per-group valid counts, full
        # means, centered values) are computed once for the whole batch;
        # only the kept-subset moments are per-row work.
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

    @staticmethod
    def _centered_on_full_mean(seg: SegmentedValues) -> np.ndarray:
        """``values − full-group-mean`` per flat position, memoized on
        the segments: the only mask-independent part of the
        sufficient-statistics form, shared by every pair call."""
        centered = seg.memo.get("var_centered_full_mean")
        if centered is None:
            n_valid, total = segment_stats(seg)
            with np.errstate(invalid="ignore", divide="ignore"):
                mean = total / np.maximum(n_valid, 1.0)
                centered = seg.values - mean[seg.segment_ids]
            seg.memo["var_centered_full_mean"] = centered
        return centered

    def compute_without_pairs(
        self, pairs: SegmentPairs, remove_mask: np.ndarray
    ) -> np.ndarray:
        centered = self._centered_on_full_mean(pairs.seg)[pairs.flat]
        keep = pairs.valid & ~remove_mask
        n_kept = segment_count(keep, pairs.offsets)
        with np.errstate(invalid="ignore", divide="ignore"):
            kept_c = np.where(keep, centered, 0.0)
            tc = segment_sum(kept_c, pairs.offsets)
            tc2 = segment_sum(kept_c * kept_c, pairs.offsets)
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

    def compute(self, values: np.ndarray) -> float:
        var = self._var.compute(values)
        return float(np.sqrt(var)) if not np.isnan(var) else float("nan")

    def leave_one_out(self, values: np.ndarray) -> np.ndarray:
        var = self._var.leave_one_out(values)
        with np.errstate(invalid="ignore"):
            return np.sqrt(var)

    def compute_without(self, values: np.ndarray, remove_mask: np.ndarray) -> float:
        var = self._var.compute_without(values, remove_mask)
        return float(np.sqrt(var)) if not np.isnan(var) else float("nan")

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._var.compute_grouped(seg))

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._var.leave_one_out_grouped(seg))

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_mask: np.ndarray
    ) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._var.compute_without_grouped(seg, remove_mask))

    def compute_without_grouped_batch(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._var.compute_without_grouped_batch(seg, remove_masks))

    def compute_without_pairs(
        self, pairs: SegmentPairs, remove_mask: np.ndarray
    ) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.sqrt(self._var.compute_without_pairs(pairs, remove_mask))


class Min(Aggregate):
    """``min(x)``."""

    name = "min"

    def compute(self, values: np.ndarray) -> float:
        valid = _valid(_as_float(values))
        if len(valid) == 0:
            return float("nan")
        return float(valid.min())

    def leave_one_out(self, values: np.ndarray) -> np.ndarray:
        return _extreme_leave_one_out(values, smallest=True)

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return _segment_extreme(seg, smallest=True)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return _segment_extreme_leave_one_out(seg, smallest=True)

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_mask: np.ndarray
    ) -> np.ndarray:
        return _segment_extreme_without(seg, remove_mask, smallest=True)

    def compute_without_grouped_batch(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        return _segment_extreme_without_batch(seg, remove_masks, smallest=True)

    def compute_without_pairs(
        self, pairs: SegmentPairs, remove_mask: np.ndarray
    ) -> np.ndarray:
        return _segment_extreme_without_pairs(pairs, remove_mask, smallest=True)


class Max(Aggregate):
    """``max(x)``."""

    name = "max"

    def compute(self, values: np.ndarray) -> float:
        valid = _valid(_as_float(values))
        if len(valid) == 0:
            return float("nan")
        return float(valid.max())

    def leave_one_out(self, values: np.ndarray) -> np.ndarray:
        return _extreme_leave_one_out(values, smallest=False)

    def compute_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return _segment_extreme(seg, smallest=False)

    def leave_one_out_grouped(self, seg: SegmentedValues) -> np.ndarray:
        return _segment_extreme_leave_one_out(seg, smallest=False)

    def compute_without_grouped(
        self, seg: SegmentedValues, remove_mask: np.ndarray
    ) -> np.ndarray:
        return _segment_extreme_without(seg, remove_mask, smallest=False)

    def compute_without_grouped_batch(
        self, seg: SegmentedValues, remove_masks: np.ndarray
    ) -> np.ndarray:
        return _segment_extreme_without_batch(seg, remove_masks, smallest=False)

    def compute_without_pairs(
        self, pairs: SegmentPairs, remove_mask: np.ndarray
    ) -> np.ndarray:
        return _segment_extreme_without_pairs(pairs, remove_mask, smallest=False)


def _pair_stats(
    pairs: SegmentPairs, remove_mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(n_kept, kept_total)`` per pair — :func:`segment_stats` of the
    pair copies restricted to the un-removed positions."""
    keep = pairs.valid & ~remove_mask
    n_kept = segment_count(keep, pairs.offsets)
    kept_total = segment_sum(np.where(keep, pairs.values, 0.0), pairs.offsets)
    return n_kept, kept_total


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
    seg: SegmentedValues, remove_mask: np.ndarray, smallest: bool
) -> np.ndarray:
    """Per-segment min/max after removing masked positions."""
    remove_mask = _as_flat_mask(seg, remove_mask)
    sentinel = np.inf if smallest else -np.inf
    reducer = segment_min if smallest else segment_max
    keep = seg.valid & ~remove_mask
    ext = reducer(
        np.where(keep, seg.values, sentinel), seg.offsets, empty_fill=sentinel
    )
    n_kept = segment_count(keep, seg.offsets)
    return np.where(n_kept > 0, ext, np.nan)


def _segment_extreme_without_pairs(
    pairs: SegmentPairs, remove_mask: np.ndarray, smallest: bool
) -> np.ndarray:
    """Per-pair min/max after removing each pair's masked positions."""
    sentinel = np.inf if smallest else -np.inf
    reducer = segment_min if smallest else segment_max
    keep = pairs.valid & ~remove_mask
    ext = reducer(
        np.where(keep, pairs.values, sentinel), pairs.offsets, empty_fill=sentinel
    )
    n_kept = segment_count(keep, pairs.offsets)
    return np.where(n_kept > 0, ext, np.nan)


def _segment_extreme_without_batch(
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


def _extreme_leave_one_out(values: np.ndarray, smallest: bool) -> np.ndarray:
    """Vectorized leave-one-out for min/max via the two extreme values."""
    values = _as_float(values)
    nulls = np.isnan(values)
    valid = values[~nulls]
    n_valid = len(valid)
    out = np.empty(len(values), dtype=np.float64)
    if n_valid == 0:
        out[:] = np.nan
        return out
    extreme = valid.min() if smallest else valid.max()
    if n_valid == 1:
        out[:] = np.nan
        out[nulls] = extreme
        return out
    multiplicity = int((valid == extreme).sum())
    if multiplicity > 1:
        runner_up = extreme
    else:
        others = valid[valid != extreme]
        runner_up = others.min() if smallest else others.max()
    out[:] = extreme
    is_extreme = (values == extreme) & ~nulls
    if multiplicity == 1:
        out[is_extreme] = runner_up
    return out


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

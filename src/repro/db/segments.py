"""Segmented-array execution layer: one flat array, many groups.

The pipeline's hot paths — grouped aggregation in the executor,
leave-one-out influence in the Preprocessor, and the ranker's Δε
previews — all operate on *the same shape of data*: the values of one
numeric expression partitioned into per-group segments. Iterating over
those segments in Python (one aggregate call per group) is the dominant
cost at scale; this module replaces the iteration with a single
:class:`SegmentedValues` structure plus vectorized kernels.

A ``SegmentedValues`` holds a flat float64 ``values`` array in which the
elements of segment ``g`` occupy ``values[offsets[g]:offsets[g + 1]]``
(the classic CSR/ragged-array layout). Kernels are built on
``np.ufunc.reduceat`` over the non-empty segment starts, which makes
every per-segment reduction one C-level pass regardless of the number
of segments:

* :func:`segment_sum` / :func:`segment_min` / :func:`segment_max` —
  per-segment reductions with explicit empty-segment fills (``reduceat``
  alone mishandles zero-length segments, so empties are masked out and
  filled separately);
* :meth:`SegmentedValues.segment_ids` — the inverse map from flat
  element position to segment index, used to broadcast per-segment
  statistics back onto elements (the "sorted-segment trick" behind the
  closed-form grouped leave-one-out kernels in
  :mod:`repro.db.aggregates`).

NULL semantics match :mod:`repro.db.aggregates`: NaN is the FLOAT NULL
encoding and every kernel that claims "valid" arithmetic excludes NaN
positions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import AggregateError


class SegmentedValues:
    """A flat float64 array partitioned into contiguous segments.

    Parameters
    ----------
    values:
        Flat array of per-tuple values, segment by segment.
    offsets:
        int64 array of length ``n_segments + 1`` with ``offsets[0] == 0``,
        ``offsets[-1] == len(values)``, monotonically non-decreasing.
        Segment ``g`` is ``values[offsets[g]:offsets[g + 1]]``; empty
        segments are allowed.
    """

    __slots__ = ("values", "offsets", "_segment_ids", "_valid", "memo")

    def __init__(self, values: np.ndarray, offsets: np.ndarray):
        values = np.asarray(values)
        if values.dtype == object:
            raise AggregateError("segmented kernels require numeric input")
        self.values = np.asarray(values, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(self.values):
            raise AggregateError(
                "offsets must start at 0 and end at len(values)"
            )
        if np.any(np.diff(offsets) < 0):
            raise AggregateError("offsets must be non-decreasing")
        self.offsets = offsets
        self._segment_ids: np.ndarray | None = None
        self._valid: np.ndarray | None = None
        #: Caches of segment-only derivations (the sparse Δε branch's
        #: no-removal baseline and the Δε memo). Keyed by their users;
        #: races are benign (recomputation yields identical values).
        self.memo: dict = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]) -> "SegmentedValues":
        """Build from one array per segment (concatenating them)."""
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        lengths = np.array([len(a) for a in arrays], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        if arrays:
            values = np.concatenate(arrays)
        else:
            values = np.empty(0, dtype=np.float64)
        return cls(values, offsets)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------

    @property
    def n_segments(self) -> int:
        """Number of segments (groups)."""
        return len(self.offsets) - 1

    def __len__(self) -> int:
        return len(self.values)

    @property
    def lengths(self) -> np.ndarray:
        """Per-segment element counts (NaNs included)."""
        return np.diff(self.offsets)

    @property
    def segment_ids(self) -> np.ndarray:
        """``out[i]`` = segment index owning flat position ``i`` (cached)."""
        if self._segment_ids is None:
            self._segment_ids = np.repeat(
                np.arange(self.n_segments, dtype=np.int64), self.lengths
            )
        return self._segment_ids

    @property
    def valid(self) -> np.ndarray:
        """Boolean mask of non-NaN (non-NULL) flat positions (cached)."""
        if self._valid is None:
            self._valid = ~np.isnan(self.values)
        return self._valid

    def segment(self, index: int) -> np.ndarray:
        """Segment ``index`` as a view into the flat array."""
        return self.values[self.offsets[index]: self.offsets[index + 1]]

    def split_flat(self, flat: np.ndarray) -> list[np.ndarray]:
        """Partition a parallel flat array into per-segment views."""
        flat = np.asarray(flat)
        if len(flat) != len(self.values):
            raise AggregateError("flat array length does not match segments")
        if self.n_segments == 0:
            return []
        return np.split(flat, self.offsets[1:-1])

    def __repr__(self) -> str:
        return (
            f"SegmentedValues({len(self.values)} values, "
            f"{self.n_segments} segments)"
        )


# ----------------------------------------------------------------------
# reduceat kernels
# ----------------------------------------------------------------------


def _reduceat(
    ufunc: np.ufunc,
    values: np.ndarray,
    offsets: np.ndarray,
    empty_fill: float,
) -> np.ndarray:
    """``ufunc``-reduce each segment, filling empty segments explicitly.

    ``np.ufunc.reduceat`` returns ``values[start]`` (not the identity)
    for zero-length slices and cannot take a start index equal to
    ``len(values)``, so empty segments are dropped from the index list
    and written as ``empty_fill`` instead. Dropping them is sound
    because offsets are monotone: the surviving starts still delimit
    exactly the non-empty segments.
    """
    n = len(offsets) - 1
    out = np.full(n, empty_fill, dtype=np.float64)
    if n == 0 or len(values) == 0:
        return out
    starts = offsets[:-1]
    nonempty = starts < offsets[1:]
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(values, starts[nonempty])
    return out


def _reduceat_batch(
    ufunc: np.ufunc,
    values: np.ndarray,
    offsets: np.ndarray,
    empty_fill: float,
) -> np.ndarray:
    """:func:`_reduceat` over a ``(rows, n)`` matrix, one pass per call.

    ``out[r, g]`` reduces ``values[r, offsets[g]:offsets[g + 1]]``. The
    per-segment accumulation order is identical to the 1-D kernel (a
    sequential left fold), so batching R rows produces bit-identical
    results to R separate 1-D calls — the property that makes a Δε
    row independent of the other rows scored with it.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise AggregateError("batched reduceat requires a 2-D value matrix")
    rows = values.shape[0]
    n = len(offsets) - 1
    out = np.full((rows, n), empty_fill, dtype=np.float64)
    if n == 0 or values.shape[1] == 0 or rows == 0:
        return out
    starts = offsets[:-1]
    nonempty = starts < offsets[1:]
    if nonempty.any():
        out[:, nonempty] = ufunc.reduceat(values, starts[nonempty], axis=1)
    return out


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sum; empty segments sum to 0."""
    return _reduceat(np.add, np.asarray(values, dtype=np.float64), offsets, 0.0)


def segment_sum_batch(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row-wise :func:`segment_sum` of a ``(rows, n)`` matrix."""
    return _reduceat_batch(np.add, values, offsets, 0.0)


def segment_min_batch(
    values: np.ndarray, offsets: np.ndarray, empty_fill: float = np.inf
) -> np.ndarray:
    """Row-wise :func:`segment_min` of a ``(rows, n)`` matrix."""
    return _reduceat_batch(np.minimum, values, offsets, empty_fill)


def segment_max_batch(
    values: np.ndarray, offsets: np.ndarray, empty_fill: float = -np.inf
) -> np.ndarray:
    """Row-wise :func:`segment_max` of a ``(rows, n)`` matrix."""
    return _reduceat_batch(np.maximum, values, offsets, empty_fill)


def segment_count_batch(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Row-wise :func:`segment_count` of a ``(rows, n)`` boolean matrix.

    Boolean input is accumulated as int64 (no ``(rows, n)`` float64
    temporary); the result is converted to float64 afterwards, which is
    exact for counts and therefore bit-identical to the float-sum form.
    """
    mask = np.asarray(mask)
    if mask.dtype == np.bool_:
        return _count_reduceat_batch(mask, offsets).astype(np.float64)
    return segment_sum_batch(np.asarray(mask, dtype=np.float64), offsets)


def _count_reduceat_batch(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-(row, segment) True counts of a boolean matrix, as int64."""
    return _mask_reduceat_batch(np.add, mask.view(np.uint8), offsets, np.int64)


def _any_reduceat_batch(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-(row, segment) whether a boolean matrix has any True.

    Equals ``_count_reduceat_batch(mask, offsets) > 0`` without counting.
    """
    return _mask_reduceat_batch(np.logical_or, mask, offsets, np.bool_)


def _mask_reduceat_batch(
    ufunc: np.ufunc, mask: np.ndarray, offsets: np.ndarray, dtype
) -> np.ndarray:
    """``ufunc`` reduced over each (row, segment) of a mask matrix.

    Only non-empty segments are reduced: consecutive non-empty starts
    bound exactly one segment each. An empty segment is ``dtype``'s zero.
    """
    if mask.ndim != 2:
        raise AggregateError("batched reduceat requires a 2-D value matrix")
    rows = mask.shape[0]
    n = len(offsets) - 1
    out = np.zeros((rows, n), dtype=dtype)
    if n == 0 or mask.shape[1] == 0 or rows == 0:
        return out
    starts = offsets[:-1]
    nonempty = starts < offsets[1:]
    if nonempty.any():
        out[:, nonempty] = ufunc.reduceat(
            mask, starts[nonempty], axis=1, dtype=dtype
        )
    return out


def segment_min(
    values: np.ndarray, offsets: np.ndarray, empty_fill: float = np.inf
) -> np.ndarray:
    """Per-segment min; empty segments yield ``empty_fill`` (+inf)."""
    return _reduceat(np.minimum, values, offsets, empty_fill)


def segment_max(
    values: np.ndarray, offsets: np.ndarray, empty_fill: float = -np.inf
) -> np.ndarray:
    """Per-segment max; empty segments yield ``empty_fill`` (-inf)."""
    return _reduceat(np.maximum, values, offsets, empty_fill)


def segment_count(mask: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment count of True positions in a boolean mask.

    Boolean input is accumulated as int64 and converted — exact for
    counts, so bit-identical to the float-sum form, without the float64
    temporary.
    """
    mask = np.asarray(mask)
    if mask.dtype == np.bool_:
        return _count_reduceat_batch(mask[None, :], offsets)[0].astype(np.float64)
    return segment_sum(np.asarray(mask, dtype=np.float64), offsets)


def segment_stats(seg: SegmentedValues) -> tuple[np.ndarray, np.ndarray]:
    """``(n_valid, total)`` per segment over non-NaN positions."""
    n_valid = segment_count(seg.valid, seg.offsets)
    total = segment_sum(np.where(seg.valid, seg.values, 0.0), seg.offsets)
    return n_valid, total


def segment_stats_batch(
    seg: SegmentedValues, where: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`segment_stats` for a ``(rows, n)`` restriction matrix.

    Returns ``(n_valid, total)`` of shape ``(rows, n_segments)`` over
    the non-NaN positions that row ``r`` of ``where`` keeps. Each row is
    folded on its own, so a row's result does not depend on the others.
    """
    where = np.asarray(where, dtype=bool)
    if where.ndim != 2 or where.shape[1] != len(seg.values):
        raise AggregateError("restriction matrix shape does not match segments")
    keep = seg.valid[None, :] & where
    n_valid = segment_count_batch(keep, seg.offsets)
    total = segment_sum_batch(
        np.where(keep, seg.values[None, :], 0.0), seg.offsets
    )
    return n_valid, total


def as_segments(
    values: "SegmentedValues | Iterable[np.ndarray]",
) -> SegmentedValues:
    """Coerce a list of per-group arrays (or a SegmentedValues) to segments."""
    if isinstance(values, SegmentedValues):
        return values
    return SegmentedValues.from_arrays(list(values))

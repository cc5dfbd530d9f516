"""Batched mask evaluation over F: each distinct clause once, bit-packed.

The Ranker and Merger both need, for every candidate predicate, a
boolean mask over F (accuracy, dedupe, and, gathered through
``PreprocessResult.segment_positions``, the Δε remove-masks). The
candidate predicates of one debug cycle share clauses heavily, because
all K × S tree fits draw their thresholds from one shared
:class:`~repro.learn.split_index.SplitIndex` grid. The engine exploits
that:

* **Distinct clauses are evaluated exactly once**, over F's
  all-column ``SplitIndex``, the one coder of F's columns. Numeric
  clauses whose bounds sit on its threshold grid (all tree rules do)
  are integer comparisons of its bin codes; off-grid bounds (CN2-SD
  quantile edges, equality intervals) compare the float64 casts, as
  the reference does. Categorical clauses on object columns look up
  the index's value codes. Anything else (e.g. a categorical clause on
  a numeric column) goes through the reference ``clause.mask``.
* **Masks are stored bit-packed** (``np.packbits``): a conjunction is a
  bitwise AND of uint8 rows (n/8 bytes per predicate), match counts are
  popcounts, and dedupe keys are ``blake2b`` digests of the packed bits
  instead of full ``tobytes()`` buffers. The pack, unpack and popcount
  helpers live in :mod:`repro.learn.bitmask`, which the CN2-SD beam
  uses too (``learn/`` imports nothing from ``core/``).

A :class:`ClauseMaskCache` is memoized on
:class:`~repro.core.preprocessor.PreprocessResult` (see
:meth:`~repro.core.preprocessor.PreprocessResult.mask_engine`), so in
the service tier one engine serves every session debugging the same
selection — exactly like the segmented aggregates and the SplitIndex.
Concurrent use is safe the same way the other ``PreprocessResult``
memos are: races are benign because recomputation yields an identical
value and dict assignment is atomic. The engine holds F, the index and
the casts, none of which refers back to the result, so no reference
cycle forms.
"""

from __future__ import annotations

import hashlib
from typing import Mapping

import numpy as np

from ..db.predicate import CategoricalClause, Clause, NumericClause, Predicate
from ..db.table import Table
from ..learn.bitmask import pack_mask, popcount, unpack_masks
from ..learn.split_index import (
    CategoricalColumnIndex,
    NumericColumnIndex,
    SplitIndex,
)

__all__ = ["ClauseMaskCache", "MaskSet", "pack_mask", "unpack_masks"]


class _NumericColumn:
    """One numeric column's threshold grid, bin codes and float64 values.

    Clause bounds that sit exactly on the grid are range tests over the
    int64 bin codes: no per-row float work. Tree rules always take this
    path: their thresholds come from the grid, a left branch is
    ``value <= t`` (``codes <= k``) and a right branch ``value > t``
    (``codes > k``). Because every grid threshold is a midpoint of two
    consecutive distinct data values, ``codes <= k`` is exact for the
    inclusive upper bound and ``codes > k`` for the exclusive lower one
    even if a data value collides with a rounded midpoint. Bounds off
    the grid — CN2-SD quantile edges, equality intervals, user
    predicates — compare the float64 values, as the reference evaluator
    does.
    """

    __slots__ = ("thresholds", "codes", "values", "valid")

    def __init__(self, index: NumericColumnIndex, values: np.ndarray):
        self.thresholds = index.thresholds
        self.codes = index.codes
        self.values = values
        #: Non-NaN rows (a NaN never satisfies a numeric clause).
        self.valid = ~np.isnan(values)

    def _grid_position(self, bound: float) -> int | None:
        """The index of ``bound`` on the threshold grid, if exactly there."""
        position = int(np.searchsorted(self.thresholds, bound, side="left"))
        if position < len(self.thresholds) and self.thresholds[position] == bound:
            return position
        return None

    def clause_mask(self, clause: NumericClause) -> np.ndarray:
        """The clause's boolean mask, matching ``NumericClause.mask``."""
        lo, hi = clause.lo, clause.hi
        if (lo is not None and np.isnan(lo)) or (hi is not None and np.isnan(hi)):
            # A NaN bound satisfies no comparison in the reference path.
            return np.zeros(len(self.codes), dtype=bool)
        result: np.ndarray | None = None
        with np.errstate(invalid="ignore"):
            if lo is not None:
                position = None if clause.lo_inclusive else self._grid_position(lo)
                if position is not None:
                    # value > thresholds[k]  ⇔  code > k; NaN codes sit
                    # one past the last bin and must be masked out.
                    result = (self.codes > position) & self.valid
                elif clause.lo_inclusive:
                    result = self.values >= lo
                else:
                    result = self.values > lo
            if hi is not None:
                position = self._grid_position(hi) if clause.hi_inclusive else None
                if position is not None:
                    # value <= thresholds[k]  ⇔  code <= k (NaN excluded
                    # automatically: its code is past every bin).
                    hi_mask = self.codes <= position
                elif clause.hi_inclusive:
                    hi_mask = self.values <= hi
                else:
                    hi_mask = self.values < hi
                result = hi_mask if result is None else (result & hi_mask)
        assert result is not None  # a clause bounds at least one side
        return result


def _categorical_mask(
    column: CategoricalColumnIndex, clause: CategoricalClause
) -> np.ndarray:
    """The clause's boolean mask, matching ``CategoricalClause.mask``.

    NULL rows hold the index's one-past-the-end code, which no clause
    value selects, and a clause value the column lacks has no code.
    """
    lookup = np.zeros(column.n_bins, dtype=bool)
    for value in clause.values:
        code = column.code_by_value.get(value)
        if code is not None:
            lookup[code] = True
    mask = lookup[column.codes]
    return ~mask if clause.negated else mask


class MaskSet:
    """The evaluated masks of an ordered predicate list over one table.

    ``packed`` is a ``(R, ceil(n/8))`` uint8 matrix — predicate ``r``'s
    boolean mask bit-packed, padding bits zero. Everything downstream
    (match counts, Δε remove-masks, confusion counts, dedupe digests)
    derives from this matrix without re-touching the table.
    """

    __slots__ = ("n_rows", "packed", "counts", "_digests")

    def __init__(self, n_rows: int, packed: np.ndarray, counts: np.ndarray):
        self.n_rows = n_rows
        self.packed = packed
        #: Match count (popcount) per predicate.
        self.counts = counts
        self._digests: list[bytes] | None = None

    def __len__(self) -> int:
        return self.packed.shape[0]

    def bools(self, rows: np.ndarray | None = None) -> np.ndarray:
        """Unpacked boolean matrix (optionally only the given rows)."""
        packed = self.packed if rows is None else self.packed[rows]
        return unpack_masks(packed, self.n_rows)

    def subset(self, rows: np.ndarray) -> "MaskSet":
        """A view-like MaskSet holding only the given rows (in order)."""
        rows = np.asarray(rows, dtype=np.int64)
        picked = MaskSet(self.n_rows, self.packed[rows], self.counts[rows])
        if self._digests is not None:
            picked._digests = [self._digests[row] for row in rows]
        return picked

    def digests(self) -> list[bytes]:
        """A short ``blake2b`` digest of each packed row.

        Two predicates over the same table share a digest iff they match
        the same row set, so ``(digest, column set)`` is the ranker's
        dedupe key — no full-mask buffers held as dict keys.
        """
        if self._digests is None:
            self._digests = [
                hashlib.blake2b(row.tobytes(), digest_size=16).digest()
                for row in self.packed
            ]
        return self._digests

    def intersection_counts(self, packed_row: np.ndarray) -> np.ndarray:
        """``out[r]`` = ``popcount(masks[r] & packed_row)`` for every row.

        With ``packed_row`` holding a candidate's labels this yields all
        true-positive counts of a confusion batch in one matrix op.
        """
        if self.packed.shape[0] == 0:
            return np.zeros(0, dtype=np.int64)
        return popcount(self.packed & packed_row[None, :])


class ClauseMaskCache:
    """The batched mask engine over one table: packed clause and
    predicate masks, each computed at most once.

    ``index`` is a row-aligned :class:`~repro.learn.split_index.SplitIndex`
    over ``table`` and ``numeric_values`` the float64 cast of each of the
    index's numeric columns. In the pipeline they are F, F's all-column
    index and the ``PreprocessResult.numeric_values`` casts. A clause on
    a column the index lacks goes through the reference evaluator.
    """

    def __init__(
        self,
        table: Table,
        index: SplitIndex,
        numeric_values: Mapping[str, np.ndarray],
    ) -> None:
        self.table = table
        self.index = index
        self.numeric_values = numeric_values
        self.n_rows = len(table)
        self._numeric: dict[str, _NumericColumn] = {}
        self._clauses: dict[Clause, np.ndarray] = {}
        self._predicates: dict[Predicate, tuple[np.ndarray, int]] = {}
        self._true_packed: np.ndarray | None = None

    def _clause_packed(self, clause: Clause) -> np.ndarray:
        """The packed mask of one clause, computed at most once."""
        packed = self._clauses.get(clause)
        if packed is None:
            packed = pack_mask(self._evaluate_clause(clause))
            self._clauses[clause] = packed
        return packed

    def _evaluate_clause(self, clause: Clause) -> np.ndarray:
        column = self.index.columns.get(clause.column)
        if isinstance(clause, NumericClause) and isinstance(column, NumericColumnIndex):
            numeric = self._numeric.get(clause.column)
            if numeric is None:
                numeric = _NumericColumn(column, self.numeric_values[clause.column])
                self._numeric[clause.column] = numeric
            return numeric.clause_mask(clause)
        if (
            isinstance(clause, CategoricalClause)
            and isinstance(column, CategoricalColumnIndex)
            and self.table.column(clause.column).dtype == object
        ):
            return _categorical_mask(column, clause)
        # Off the fast paths (e.g. a categorical clause over a numeric
        # column): the reference evaluator, still cached per clause.
        return clause.mask(self.table)

    def _predicate_packed(self, predicate: Predicate) -> tuple[np.ndarray, int]:
        """``(packed bits, match count)`` of a conjunction, cached."""
        cached = self._predicates.get(predicate)
        if cached is not None:
            return cached
        if predicate.is_true:
            if self._true_packed is None:
                self._true_packed = pack_mask(np.ones(self.n_rows, dtype=bool))
            packed = self._true_packed
        else:
            packed = None
            for clause in predicate.clauses:
                clause_bits = self._clause_packed(clause)
                packed = (
                    clause_bits.copy() if packed is None else (packed & clause_bits)
                )
        count = int(popcount(packed)[0])
        entry = (packed, count)
        self._predicates[predicate] = entry
        return entry

    def mask_set(self, predicates) -> MaskSet:
        """Evaluate an ordered predicate list against the table.

        Distinct clauses are computed once (cached across calls — a
        later Merger batch reuses the Ranker's clause masks), and the
        per-predicate conjunctions are cached too, so re-ranking the
        same rules (e.g. a repeated debug of a cached selection) costs
        only dictionary lookups.
        """
        predicates = list(predicates)
        n_bytes = (self.n_rows + 7) // 8
        packed = np.empty((len(predicates), n_bytes), dtype=np.uint8)
        counts = np.empty(len(predicates), dtype=np.int64)
        for row, predicate in enumerate(predicates):
            packed[row], counts[row] = self._predicate_packed(predicate)
        return MaskSet(self.n_rows, packed, counts)

    def stats(self) -> dict:
        """Cache-size counters (for observability and tests)."""
        return {"clauses": len(self._clauses), "predicates": len(self._predicates)}

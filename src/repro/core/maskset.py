"""Batched mask evaluation: each distinct clause once, bit-packed.

The Ranker and Merger both need, for every candidate predicate, a
boolean mask over F (accuracy, dedupe) and over the segment table (Δε).
Evaluated naively that is one :meth:`~repro.db.predicate.Predicate.mask`
call per (predicate, table) — and the candidate predicates of one debug
cycle share clauses heavily, because all K × S tree fits draw their
thresholds from one shared :class:`~repro.learn.split_index.SplitIndex`
grid. This module exploits both redundancies:

* **Distinct clauses are evaluated exactly once per table.** Numeric
  clauses whose bounds sit on the shared ``SplitIndex`` threshold grid
  (all tree rules do — their thresholds come from that grid) become
  range tests over the memoized int64 bin codes: one scalar
  ``np.searchsorted`` to locate the bound, then an integer code
  comparison — no per-row float work. Off-grid bounds (CN2-SD quantile
  edges, equality intervals) fall back to direct comparisons over the
  cached float64 cast, exactly the reference semantics. Categorical
  clauses become lookups into a cached per-column code table, so set
  membership is one fancy-index over int codes. Anything outside the
  fast paths (e.g. a categorical clause on a numeric column) falls back
  to the reference ``clause.mask`` — still cached, still evaluated
  once.
* **Masks are stored bit-packed** (``np.packbits``): a conjunction is a
  bitwise AND of uint8 rows (n/8 bytes per predicate), match counts are
  popcounts, and dedupe keys are ``blake2b`` digests of the packed bits
  instead of full ``tobytes()`` buffers. The pack, unpack and popcount
  helpers live in :mod:`repro.learn.bitmask`, which the CN2-SD beam
  uses too (``learn/`` imports nothing from ``core/``).

A :class:`ClauseMaskCache` is memoized on
:class:`~repro.core.preprocessor.PreprocessResult` (see
:meth:`~repro.core.preprocessor.PreprocessResult.mask_engine`), so in
the service tier one cache serves every session debugging the same
selection — exactly like the segmented aggregates and the SplitIndex.
Concurrent use is safe the same way the other ``PreprocessResult``
memos are: races are benign because recomputation yields an identical
value and dict assignment is atomic. The result owns its engine; the
engine's column providers reach the result only weakly, and no cached
column captures the engine, so neither forms a reference cycle.
"""

from __future__ import annotations

import hashlib
from functools import partial

import numpy as np

from ..db.predicate import CategoricalClause, Clause, NumericClause, Predicate
from ..db.table import Table
from ..learn.bitmask import pack_mask, popcount, unpack_masks

__all__ = ["ClauseMaskCache", "MaskSet", "pack_mask", "unpack_masks"]


class _NumericColumn:
    """One numeric column's mask artifacts over a fixed table.

    When the table carries a
    :class:`~repro.learn.split_index.NumericColumnIndex` for the column
    (the tree-induction grid memoized on ``PreprocessResult``), clause
    bounds that sit exactly on that threshold grid are range tests over
    the int64 bin codes — no per-row float work. Tree rules always take
    this path: their thresholds come from the grid, a left branch is
    ``value <= t`` (``codes <= k``) and a right branch ``value > t``
    (``codes > k``). Because every grid threshold is a midpoint of two
    consecutive distinct data values, ``codes <= k`` is exact for the
    inclusive upper bound and ``codes > k`` for the exclusive lower one
    even if a data value collides with a rounded midpoint. Bounds off
    the grid — CN2-SD quantile edges, equality intervals, user
    predicates — fall back to direct comparisons over the (lazily cast)
    float64 values, which the reference evaluator uses too; either way
    the clause is evaluated once and cached packed.
    """

    __slots__ = ("_values_provider", "thresholds", "codes", "_values", "_valid")

    def __init__(self, values_provider, thresholds=None, codes=None):
        self._values_provider = values_provider
        #: Grid thresholds + per-row bin codes (None without a SplitIndex).
        self.thresholds = thresholds
        self.codes = codes
        self._values: np.ndarray | None = None
        self._valid: np.ndarray | None = None

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self._values_provider()
        return self._values

    @property
    def valid(self) -> np.ndarray:
        """Non-NaN rows (a NaN never satisfies a numeric clause)."""
        if self._valid is None:
            self._valid = ~np.isnan(self.values)
        return self._valid

    def _grid_position(self, bound: float) -> int | None:
        """The index of ``bound`` on the threshold grid, if exactly there."""
        if self.codes is None or self.thresholds is None or not len(self.thresholds):
            return None
        position = int(np.searchsorted(self.thresholds, bound, side="left"))
        if position < len(self.thresholds) and self.thresholds[position] == bound:
            return position
        return None

    def clause_mask(self, clause: NumericClause) -> np.ndarray:
        """The clause's boolean mask, matching ``NumericClause.mask``."""
        lo, hi = clause.lo, clause.hi
        if (lo is not None and np.isnan(lo)) or (hi is not None and np.isnan(hi)):
            # A NaN bound satisfies no comparison in the reference path.
            n = len(self.codes) if self.codes is not None else len(self.values)
            return np.zeros(n, dtype=bool)
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


class _CategoricalCodes:
    """Value codes of one object (categorical) column over a fixed table.

    NULL (``None``) and unseen values share the one-past-the-end code,
    which no clause value can select — matching the reference's
    ``v is not None and v in values`` semantics.
    """

    __slots__ = ("code_by_value", "codes", "n_distinct")

    def __init__(self, values: np.ndarray):
        code_by_value: dict = {}
        for value in values:
            if value is not None and value not in code_by_value:
                code_by_value[value] = len(code_by_value)
        self.code_by_value = code_by_value
        self.n_distinct = len(code_by_value)
        null_code = self.n_distinct
        self.codes = np.fromiter(
            (
                null_code if value is None else code_by_value.get(value, null_code)
                for value in values
            ),
            dtype=np.int64,
            count=len(values),
        )

    def clause_mask(self, clause: CategoricalClause) -> np.ndarray:
        """The clause's boolean mask, matching ``CategoricalClause.mask``."""
        lookup = np.zeros(self.n_distinct + 1, dtype=bool)
        for value in clause.values:
            code = self.code_by_value.get(value)
            if code is not None:
                lookup[code] = True
        mask = lookup[self.codes]
        return ~mask if clause.negated else mask


def _float_column(table: Table, column: str) -> np.ndarray:
    return np.asarray(table.column(column), dtype=np.float64)


class _TableMasks:
    """All cached mask artifacts of one table: column codes, packed
    clause masks, packed predicate conjunctions."""

    __slots__ = (
        "table",
        "n_rows",
        "numeric_values",
        "column_index",
        "_numeric",
        "_categorical",
        "_clauses",
        "_predicates",
        "_true_packed",
    )

    def __init__(self, table: Table, numeric_values=None, column_index=None):
        self.table = table
        self.n_rows = len(table)
        #: Optional provider of pre-cast float64 columns
        #: (e.g. ``PreprocessResult.numeric_values`` for F).
        self.numeric_values = numeric_values
        #: Optional provider of a row-aligned
        #: :class:`~repro.learn.split_index.NumericColumnIndex` per
        #: column (``None`` when the column has no shared grid).
        self.column_index = column_index
        self._numeric: dict[str, _NumericColumn] = {}
        self._categorical: dict[str, _CategoricalCodes] = {}
        self._clauses: dict[Clause, np.ndarray] = {}
        self._predicates: dict[Predicate, tuple[np.ndarray, int]] = {}
        self._true_packed: np.ndarray | None = None

    # -- column code tables -------------------------------------------

    def _numeric_column(self, column: str) -> _NumericColumn:
        cached = self._numeric.get(column)
        if cached is None:
            # The provider must not capture ``self``: the column lives in
            # ``self._numeric``, and a cycle would outlast every holder.
            if self.numeric_values is not None:
                values_provider = partial(self.numeric_values, column)
            else:
                values_provider = partial(_float_column, self.table, column)
            index = self.column_index(column) if self.column_index else None
            thresholds = index.thresholds if index is not None else None
            codes = index.codes if index is not None else None
            cached = _NumericColumn(values_provider, thresholds, codes)
            self._numeric[column] = cached
        return cached

    def _categorical_codes(self, column: str) -> _CategoricalCodes:
        codes = self._categorical.get(column)
        if codes is None:
            codes = _CategoricalCodes(self.table.column(column))
            self._categorical[column] = codes
        return codes

    # -- clause and predicate masks -----------------------------------

    def clause_packed(self, clause: Clause) -> np.ndarray:
        """The packed mask of one clause, computed at most once."""
        packed = self._clauses.get(clause)
        if packed is None:
            packed = pack_mask(self._evaluate_clause(clause))
            self._clauses[clause] = packed
        return packed

    def _evaluate_clause(self, clause: Clause) -> np.ndarray:
        column_type = self.table.schema.type_of(clause.column)
        if isinstance(clause, NumericClause) and column_type.is_numeric:
            return self._numeric_column(clause.column).clause_mask(clause)
        if (
            isinstance(clause, CategoricalClause)
            and self.table.column(clause.column).dtype == object
        ):
            return self._categorical_codes(clause.column).clause_mask(clause)
        # Off the fast paths (e.g. a categorical clause over a numeric
        # column): the reference evaluator, still cached per clause.
        return clause.mask(self.table)

    def predicate_packed(self, predicate: Predicate) -> tuple[np.ndarray, int]:
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
                clause_bits = self.clause_packed(clause)
                packed = (
                    clause_bits.copy() if packed is None else (packed & clause_bits)
                )
        count = int(popcount(packed)[0])
        entry = (packed, count)
        self._predicates[predicate] = entry
        return entry


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
    """The batched mask engine: per-table clause/predicate mask caches.

    Tables are keyed by object identity (the engine holds a strong
    reference, so ids cannot be recycled); in the pipeline the one
    registered table is ``pre.F``, which lives as long as its
    ``PreprocessResult``.
    """

    def __init__(self) -> None:
        self._tables: dict[int, _TableMasks] = {}

    def register(self, table: Table, numeric_values=None, column_index=None) -> None:
        """Pre-register a table, optionally with a float64-cast provider
        and a per-column :class:`NumericColumnIndex` provider (both
        lazily invoked)."""
        if id(table) not in self._tables:
            self._tables[id(table)] = _TableMasks(table, numeric_values, column_index)

    def _cache_for(self, table: Table) -> _TableMasks:
        cache = self._tables.get(id(table))
        if cache is None:
            cache = _TableMasks(table)
            self._tables[id(table)] = cache
        return cache

    def predicate_mask(self, table: Table, predicate: Predicate) -> np.ndarray:
        """One predicate's boolean mask (engine-evaluated, cached)."""
        cache = self._cache_for(table)
        packed, __ = cache.predicate_packed(predicate)
        return unpack_masks(packed, cache.n_rows)[0]

    def mask_set(self, table: Table, predicates) -> MaskSet:
        """Evaluate an ordered predicate list against ``table``.

        Distinct clauses are computed once (cached across calls — a
        later Merger batch reuses the Ranker's clause masks), and the
        per-predicate conjunctions are cached too, so re-ranking the
        same rules (e.g. a repeated debug of a cached selection) costs
        only dictionary lookups.
        """
        cache = self._cache_for(table)
        predicates = list(predicates)
        n_bytes = (cache.n_rows + 7) // 8
        packed = np.empty((len(predicates), n_bytes), dtype=np.uint8)
        counts = np.empty(len(predicates), dtype=np.int64)
        for row, predicate in enumerate(predicates):
            bits, count = cache.predicate_packed(predicate)
            packed[row] = bits
            counts[row] = count
        return MaskSet(cache.n_rows, packed, counts)

    def pack_labels(self, labels: np.ndarray) -> np.ndarray:
        """Bit-pack an externally computed boolean vector (e.g. candidate
        labels) so it can enter :meth:`MaskSet.intersection_counts`."""
        return pack_mask(labels)

    def stats(self) -> dict:
        """Cache-size counters (for observability and tests)."""
        return {
            "tables": len(self._tables),
            "clauses": sum(len(c._clauses) for c in self._tables.values()),
            "predicates": sum(len(c._predicates) for c in self._tables.values()),
        }

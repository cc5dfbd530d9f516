"""F's column coder: split candidates and per-row codes, built once.

The tree fits, CN2-SD and the Ranker's mask engine
(:class:`~repro.core.maskset.ClauseMaskCache`) all read F's columns
through this module, so each column of F is coded once per selection:

* numeric columns: candidate thresholds (midpoints of consecutive
  distinct values, capped at ``max_thresholds``) and an int64 *bin
  code* per row such that ``code <= b`` iff ``value <= thresholds[b]``
  (NaN gets the one-past-the-end code, so it never routes left —
  matching :class:`~repro.learn.tree.NumericSplit` semantics);
* categorical columns (:meth:`CategoricalColumnIndex.build`): the
  sorted distinct non-NULL values and an int64 *value code* per row
  (NULL gets the one-past-the-end code, so it never equals a value).

The codes of all columns live in one row-major ``(n_rows, n_columns)``
int64 matrix, :attr:`SplitIndex.codes`; each column's ``codes`` is a
view of its column of that matrix. A tree node gathers its rows of the
matrix once and histograms every column in one ``np.bincount`` (see
:mod:`repro.learn.tree`), then scores **all** thresholds and values
from that histogram — no per-node sort, no per-threshold masking.

Candidate thresholds are **global** — derived once from the whole
column, not re-derived per node as the pre-histogram code did. A deep
node therefore only sees the global candidates that fall inside its
value range, which can make trees on very-high-cardinality numeric
columns slightly coarser near the leaves. That is the standard
histogram-tree tradeoff (LightGBM-style binning), accepted in exchange
for O(n + bins) node scoring and sharing the derivation across all
fits; raise ``max_thresholds`` to recover resolution where it matters.

The index is row-aligned with the table it was built from;
:meth:`SplitIndex.take` re-aligns it with a row subset (e.g. the train
split of reduced-error pruning) by one row gather of the matrix. In the
pipeline the index is memoized on
:class:`~repro.core.preprocessor.PreprocessResult`, so the service tier
shares one index across sessions exactly like the segmented aggregates
and frequency edges.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..db.table import Table
from ..errors import LearnError

__all__ = [
    "CategoricalColumnIndex",
    "NumericColumnIndex",
    "SplitIndex",
]


class NumericColumnIndex:
    """Candidate thresholds and per-row bin codes of one numeric column."""

    __slots__ = ("attr", "thresholds", "codes")

    def __init__(self, attr: str, thresholds: np.ndarray, codes: np.ndarray):
        self.attr = attr
        #: Sorted candidate split points (midpoints of consecutive
        #: distinct values; subsampled when there are too many).
        self.thresholds = thresholds
        #: ``codes[i] <= b``  iff  ``value[i] <= thresholds[b]``; NaN rows
        #: hold ``len(thresholds)`` (one past the last threshold bin).
        self.codes = codes

    @property
    def n_bins(self) -> int:
        """Number of histogram bins (thresholds + the rightmost bin)."""
        return len(self.thresholds) + 1

    def code_of(self, threshold: float) -> int:
        """The bin code whose left partition is ``value <= threshold``."""
        return int(np.searchsorted(self.thresholds, threshold, side="left"))

    def with_codes(self, codes: np.ndarray) -> "NumericColumnIndex":
        """The same thresholds over another row set's codes."""
        return NumericColumnIndex(self.attr, self.thresholds, codes)


class CategoricalColumnIndex:
    """Distinct values and per-row value codes of one categorical column."""

    __slots__ = ("attr", "values", "codes", "code_by_value")

    def __init__(self, attr: str, values: tuple, codes: np.ndarray):
        self.attr = attr
        #: Distinct non-NULL values in ascending order (code == position).
        self.values = values
        #: Value code per row; NULL rows hold ``len(values)``.
        self.codes = codes
        #: Each distinct value's code. A value the column lacks has none,
        #: so look it up with ``get`` when it may come from elsewhere.
        self.code_by_value = {value: code for code, value in enumerate(values)}

    @classmethod
    def build(cls, attr: str, values: np.ndarray) -> "CategoricalColumnIndex":
        """Code one column: sorted distinct non-NULL values, a code per row.

        Rows match values by dict lookup, as ``CategoricalClause.mask``
        matches them by set membership (or ``==`` on a bool column).
        """
        distinct = sorted({value for value in values if value is not None})
        null_code = len(distinct)
        code_by_value = {value: code for code, value in enumerate(distinct)}
        codes = np.fromiter(
            (code_by_value.get(value, null_code) for value in values),
            dtype=np.int64,
            count=len(values),
        )
        return cls(attr, tuple(distinct), codes)

    @property
    def n_bins(self) -> int:
        """Number of histogram bins (distinct values + the NULL bin)."""
        return len(self.values) + 1

    def code_of(self, value: Any) -> int:
        """The code of a distinct value."""
        return self.code_by_value[value]

    def with_codes(self, codes: np.ndarray) -> "CategoricalColumnIndex":
        """The same values over another row set's codes."""
        return CategoricalColumnIndex(self.attr, self.values, codes)


ColumnIndex = NumericColumnIndex | CategoricalColumnIndex


class SplitIndex:
    """Per-column split candidates + bin codes, shared across tree fits."""

    __slots__ = ("features", "max_thresholds", "codes", "columns")

    def __init__(
        self,
        features: tuple[str, ...],
        max_thresholds: int,
        columns: Sequence[ColumnIndex],
        codes: np.ndarray,
    ):
        self.features = features
        self.max_thresholds = max_thresholds
        #: Row-major ``(n_rows, len(features))`` int64 bin codes; column
        #: ``k`` holds the codes of ``features[k]``.
        self.codes = codes
        #: Per-column index by name; each one's ``codes`` is a view of
        #: its column of :attr:`codes`, so no code is stored twice.
        self.columns = {
            column.attr: column.with_codes(codes[:, k])
            for k, column in enumerate(columns)
        }

    @property
    def n_rows(self) -> int:
        """Number of rows the index is aligned with."""
        return self.codes.shape[0]

    @classmethod
    def build(
        cls,
        table: Table,
        features: Sequence[str] | None = None,
        max_thresholds: int = 32,
        numeric_values: Callable[[str], np.ndarray] | None = None,
    ) -> "SplitIndex":
        """Build the index over ``table``.

        ``numeric_values`` optionally supplies pre-cast float64 column
        arrays (e.g. ``PreprocessResult.numeric_values``) so the cast is
        not repeated here.
        """
        if max_thresholds < 1:
            raise LearnError("max_thresholds must be >= 1")
        names = tuple(features) if features is not None else tuple(table.schema.names)
        codes = np.empty((len(table), len(names)), dtype=np.int64)
        columns: list[ColumnIndex] = []
        for k, name in enumerate(names):
            if table.schema.type_of(name).is_numeric:
                if numeric_values is not None:
                    values = numeric_values(name)
                else:
                    values = np.asarray(table.column(name), dtype=np.float64)
                column = _build_numeric(name, values, max_thresholds)
            else:
                column = CategoricalColumnIndex.build(name, table.column(name))
            codes[:, k] = column.codes
            columns.append(column)
        return cls(names, max_thresholds, columns, codes)

    def column(self, attr: str) -> ColumnIndex:
        """The per-column index for ``attr``."""
        try:
            return self.columns[attr]
        except KeyError:
            raise LearnError(f"column {attr!r} is not in the split index") from None

    def take(self, indices: np.ndarray) -> "SplitIndex":
        """The index re-aligned with a row subset (shared thresholds)."""
        indices = np.asarray(indices, dtype=np.int64)
        return SplitIndex(
            self.features,
            self.max_thresholds,
            [self.columns[name] for name in self.features],
            self.codes[indices],
        )


def _build_numeric(
    attr: str, values: np.ndarray, max_thresholds: int
) -> NumericColumnIndex:
    nan_mask = np.isnan(values)
    distinct = np.unique(values[~nan_mask])
    if len(distinct) < 2:
        thresholds = np.empty(0, dtype=np.float64)
    else:
        thresholds = (distinct[:-1] + distinct[1:]) / 2.0
        if len(thresholds) > max_thresholds:
            picks = np.linspace(0, len(thresholds) - 1, max_thresholds).astype(int)
            thresholds = thresholds[np.unique(picks)]
        # Defensive: midpoints of adjacent representable floats can
        # collide after rounding; codes need strictly sorted thresholds.
        thresholds = np.unique(thresholds)
    codes = np.searchsorted(thresholds, values, side="left")
    codes[nan_mask] = len(thresholds)
    return NumericColumnIndex(attr, thresholds, np.asarray(codes, dtype=np.int64))


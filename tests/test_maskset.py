"""Property harness: the batched mask engine ≡ ``Predicate.mask``.

The batched Ranker/Merger path is only byte-identical to the per-rule
oracle in ``reference.scoring`` if every engine-evaluated mask equals
the reference mask bit-for-bit. This harness drives :class:`repro.core.ClauseMaskCache`
over seeded random tables mixing numeric (int and float-with-NaN) and
categorical (string-with-NULL) columns, with random predicates covering
inclusive/exclusive/unbounded interval ends, equality intervals, and
plain/negated categorical membership, and bounds on the index's
threshold grid — plus the masked Δε kernel
against its recomputation oracle, row by row, and the group-sparse Δε
branch against the dense one.
"""

from __future__ import annotations

import numpy as np
import pytest

from reference.aggregates import compute_without_grouped_loop
from reference.influence import subset_epsilon_grouped
from repro.core import ClauseMaskCache, influence, subset_epsilon_grouped_batch
from repro.core.influence import subset_epsilon_for_mask_set
from repro.core.maskset import MaskSet, pack_mask, popcount, unpack_masks
from repro.db import Table, get_aggregate
from repro.db.aggregates import AGGREGATE_NAMES
from repro.db.predicate import CategoricalClause, NumericClause, Predicate
from repro.db.segments import (
    SegmentedValues,
    _any_reduceat_batch,
    _count_reduceat_batch,
)
from repro.learn.split_index import NumericColumnIndex, SplitIndex
from repro.core.error_metrics import TooHigh

CATEGORIES = ("a", "bb", "ccc", "dd", "e")


def _random_table(rng: np.random.Generator, n: int) -> Table:
    """A table mixing int, float-with-NaN, and string-with-NULL columns."""
    ints = rng.integers(-5, 6, n)
    floats = np.round(rng.normal(0.0, 10.0, n), 1)
    floats[rng.random(n) < 0.15] = np.nan
    cats = [
        None if rng.random() < 0.2 else str(rng.choice(CATEGORIES))
        for __ in range(n)
    ]
    return Table.from_columns(
        {"i": ints, "f": floats, "c": cats},
        types={"i": "int", "f": "float", "c": "str"},
    )


def _engine(table: Table) -> ClauseMaskCache:
    """The engine the pipeline builds for F: the table's all-column
    split index plus float64 casts of its numeric columns."""
    index = SplitIndex.build(table)
    casts = {
        name: np.asarray(table.column(name), dtype=np.float64)
        for name, column in index.columns.items()
        if isinstance(column, NumericColumnIndex)
    }
    return ClauseMaskCache(table, index, casts)


def _random_numeric_clause(
    rng: np.random.Generator, column: str, grid: np.ndarray
) -> NumericClause:
    kind = rng.integers(0, 6)
    if kind >= 4 and len(grid):
        # A tree rule's bound: exactly on the threshold grid.
        threshold = float(rng.choice(grid))
        if kind == 4:
            return NumericClause(column, None, threshold, hi_inclusive=True)
        return NumericClause(column, threshold, None, lo_inclusive=False)
    # Bounds drawn from the same value range as the data, sometimes
    # exactly on data points (rounded grid), sometimes off-grid.
    lo = float(np.round(rng.normal(0.0, 8.0), rng.integers(0, 3)))
    hi = lo + abs(float(np.round(rng.normal(0.0, 8.0), rng.integers(0, 3))))
    lo_inc = bool(rng.random() < 0.5)
    hi_inc = bool(rng.random() < 0.5)
    if kind == 0:
        return NumericClause(column, lo, None, lo_inclusive=lo_inc)
    if kind == 1:
        return NumericClause(column, None, hi, hi_inclusive=hi_inc)
    if kind == 2:
        return NumericClause(column, lo, hi, lo_inc, hi_inc)
    return NumericClause(column, lo, lo, True, True)  # equality interval


def _random_categorical_clause(
    rng: np.random.Generator, column: str
) -> CategoricalClause:
    k = int(rng.integers(1, 4))
    values = frozenset(
        str(v) for v in rng.choice(CATEGORIES, size=k, replace=False)
    )
    return CategoricalClause(column, values, negated=bool(rng.random() < 0.4))


def _random_predicate(rng: np.random.Generator, index: SplitIndex) -> Predicate:
    clauses = []
    picks = rng.random(3)
    f_grid = index.column("f").thresholds
    if picks[0] < 0.6:
        clauses.append(_random_numeric_clause(rng, "f", f_grid))
    if picks[1] < 0.6:
        clauses.append(_random_numeric_clause(rng, "i", index.column("i").thresholds))
    if picks[2] < 0.6:
        clauses.append(_random_categorical_clause(rng, "c"))
    if not clauses:
        clauses.append(_random_numeric_clause(rng, "f", f_grid))
    return Predicate(clauses)


class TestMaskParityProperty:
    def test_engine_masks_equal_reference_over_random_tables(self):
        rng = np.random.default_rng(1234)
        for round_index in range(30):
            table = _random_table(rng, int(rng.integers(1, 200)))
            engine = _engine(table)
            predicates = [_random_predicate(rng, engine.index) for __ in range(25)]
            mask_set = engine.mask_set(predicates)
            bools = mask_set.bools()
            for row, predicate in enumerate(predicates):
                expected = predicate.mask(table)
                np.testing.assert_array_equal(
                    bools[row],
                    expected,
                    err_msg=f"round {round_index}: {predicate.describe()}",
                )
                assert mask_set.counts[row] == int(expected.sum())

    def test_true_predicate_and_empty_table(self):
        table = _random_table(np.random.default_rng(7), 13)
        mask_set = _engine(table).mask_set([Predicate.true()])
        assert mask_set.counts[0] == 13
        assert mask_set.bools()[0].all()

        empty = table.filter(np.zeros(13, dtype=bool))
        empty_set = _engine(empty).mask_set([Predicate.true()])
        assert empty_set.counts[0] == 0

    def test_distinct_clauses_evaluated_once(self):
        table = _random_table(np.random.default_rng(3), 50)
        engine = _engine(table)
        shared = NumericClause("f", 0.0, None)
        predicates = [
            Predicate([shared]),
            Predicate([shared, CategoricalClause("c", frozenset(["a"]))]),
            Predicate([shared, NumericClause("i", None, 2.0)]),
        ]
        engine.mask_set(predicates)
        stats = engine.stats()
        assert stats["clauses"] == 3  # shared clause cached once
        assert stats["predicates"] == 3

        # A repeated evaluation is pure cache hits: no new entries.
        engine.mask_set(predicates)
        assert engine.stats() == stats

    def test_fallback_covers_off_fast_path_clauses(self):
        # A categorical clause over a numeric column has no code table;
        # the engine must fall back to the reference evaluator.
        table = _random_table(np.random.default_rng(11), 60)
        predicate = Predicate([CategoricalClause("i", frozenset([2, 3]))])
        np.testing.assert_array_equal(
            _engine(table).mask_set([predicate]).bools()[0], predicate.mask(table)
        )

    def test_digests_identify_equal_masks(self):
        table = _random_table(np.random.default_rng(5), 80)
        engine = _engine(table)
        same_a = Predicate([NumericClause("f", 0.0, None)])
        # A redundant second clause: different predicate, identical mask.
        same_b = Predicate(
            [NumericClause("f", 0.0, None), NumericClause("f", -1e9, None)]
        )
        different = Predicate([NumericClause("f", None, 0.0)])
        mask_set = engine.mask_set([same_a, same_b, different])
        digests = mask_set.digests()
        assert digests[0] == digests[1]
        assert digests[0] != digests[2]


class TestPackedHelpers:
    def test_pack_unpack_roundtrip_and_popcount(self):
        rng = np.random.default_rng(9)
        for n in (0, 1, 7, 8, 9, 64, 130):
            mask = rng.random(n) < 0.4
            packed = pack_mask(mask)
            np.testing.assert_array_equal(unpack_masks(packed, n)[0], mask)
            assert popcount(packed)[0] == int(mask.sum())


def _ragged_segments(rng: np.random.Generator) -> SegmentedValues:
    """300 values with NaNs in ragged segments, an empty and a singleton
    one among them."""
    values = rng.normal(10.0, 4.0, 300)
    values[rng.random(300) < 0.1] = np.nan
    offsets = np.array([0, 0, 1, 40, 40, 120, 300], dtype=np.int64)
    return SegmentedValues(values, offsets)


class _RecordingMetric:
    """A sum-combined ``TooHigh`` that keeps every value vector it scores."""

    def __init__(self, threshold: float):
        self.metric = TooHigh(threshold, combine="sum")
        self.seen: list[np.ndarray] = []

    def __call__(self, values: np.ndarray) -> float:
        self.seen.append(np.array(values, dtype=np.float64))
        return self.metric(values)


class TestBatchDeltaEpsilonKernels:
    @pytest.mark.parametrize("agg_name", AGGREGATE_NAMES)
    def test_compute_without_grouped_batch_matches_loop(self, agg_name):
        """The masked kernel over a batch of 17 mask rows ≡ recomputing
        every (row, segment) from its kept values."""
        rng = np.random.default_rng(42)
        aggregate = get_aggregate(agg_name)
        seg = _ragged_segments(rng)
        masks = rng.random((17, 300)) < 0.3
        np.testing.assert_allclose(
            aggregate.compute_without_grouped(seg, masks),
            compute_without_grouped_loop(aggregate, seg, masks),
            rtol=1e-9,
            atol=1e-9,
        )

    @pytest.mark.parametrize("agg_name", AGGREGATE_NAMES)
    def test_masked_kernel_rows_are_independent(self, agg_name):
        """Row ``r`` of the masked kernel over R rows is, bit for bit,
        the kernel over row ``r`` alone: the per-rule oracle and the Δε
        memo score one row at a time."""
        rng = np.random.default_rng(42)
        aggregate = get_aggregate(agg_name)
        seg = _ragged_segments(rng)
        masks = rng.random((17, 300)) < 0.3
        masks[5] = False
        masks[11] = True
        batch = aggregate.compute_without_grouped(seg, masks)
        for row in range(len(masks)):
            alone = aggregate.compute_without_grouped(seg, masks[row : row + 1])
            assert batch[row].tobytes() == alone[0].tobytes(), row

    @pytest.mark.parametrize("agg_name", AGGREGATE_NAMES)
    def test_sparse_branch_matches_dense_batch(self, agg_name, monkeypatch):
        """The group-sparse Δε branch, which re-aggregates a compacted
        copy of the touched groups, ≡ the dense batch bit for bit."""
        rng = np.random.default_rng(77)
        aggregate = get_aggregate(agg_name)
        values = rng.normal(3.0, 2.0, 240)
        values[rng.random(240) < 0.12] = np.nan
        values[60:62] = np.nan
        # Group 1 is empty, group 2 a singleton, group 4 all NULL.
        offsets = np.array([0, 10, 10, 11, 60, 62, 120, 200, 240], dtype=np.int64)
        seg = SegmentedValues(values, offsets)
        masks = np.zeros((6, 240), dtype=bool)
        masks[0, [2, 5, 30, 31, 44]] = True  # groups 0 and 3
        masks[1, 10] = True                  # the singleton
        masks[2, [60, 61, 210]] = True       # the all-NULL group and group 7
        masks[3, 120:200] = True             # all of group 6
        masks[4, 62:120:3] = True            # a third of group 5
        # Row 5 removes nothing.
        dense_metric = _RecordingMetric(2.0)
        dense = subset_epsilon_grouped_batch(seg, masks, aggregate, dense_metric)

        def dense_branch(*args):
            raise AssertionError("these masks must take the sparse branch")

        monkeypatch.setattr(influence, "subset_epsilon_grouped_batch", dense_branch)
        sparse_metric = _RecordingMetric(2.0)
        sparse = influence._epsilons_group_sparse(seg, masks, aggregate, sparse_metric)
        assert sparse.tobytes() == dense.tobytes()
        assert len(sparse_metric.seen) == len(masks)
        for row, (got, want) in enumerate(zip(sparse_metric.seen, dense_metric.seen)):
            assert got.tobytes() == want.tobytes(), row

    @pytest.mark.parametrize("seed", range(8))
    def test_touched_set_equals_positive_counts(self, seed):
        """The sparse branch's any-reduce marks exactly the (row, group)
        pairs with a positive removed count; empty groups (leading,
        inner and trailing) are never touched."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, 6, 40) * (rng.random(40) < 0.7)
        lengths[[0, -1]] = 0
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        masks = rng.random((9, int(offsets[-1]))) < rng.uniform(0.02, 0.6)
        masks[0] = False
        masks[1] = True
        touched = _any_reduceat_batch(masks, offsets)
        assert touched.dtype == np.bool_
        assert np.array_equal(touched, _count_reduceat_batch(masks, offsets) > 0)
        assert not touched[:, lengths == 0].any()
        for empty in (np.zeros(1, dtype=np.int64), np.zeros(4, dtype=np.int64)):
            no_values = np.zeros((3, 0), dtype=bool)
            assert np.array_equal(
                _any_reduceat_batch(no_values, empty),
                _count_reduceat_batch(no_values, empty) > 0,
            )

    def test_subset_epsilon_grouped_batch_matches_scalar(self):
        rng = np.random.default_rng(8)
        aggregate = get_aggregate("stddev")
        metric = TooHigh(2.0)
        seg = SegmentedValues.from_arrays(
            [rng.normal(5, 2, 50), rng.normal(5, 6, 80), rng.normal(5, 1, 10)]
        )
        masks = rng.random((9, len(seg.values))) < 0.25
        batch = subset_epsilon_grouped_batch(seg, masks, aggregate, metric)
        for row in range(9):
            assert batch[row] == subset_epsilon_grouped(
                seg, masks[row], aggregate, metric
            )

    def test_mask_set_epsilons_match_scalar_and_memoize(self):
        rng = np.random.default_rng(23)
        aggregate = get_aggregate("stddev")
        metric = TooHigh(1.0)
        seg = SegmentedValues.from_arrays(
            [rng.normal(0, s, 40) for s in (1.0, 3.0, 0.5, 2.0)]
        )
        n = len(seg.values)
        masks = rng.random((12, n)) < 0.2
        masks[3] = masks[0]  # duplicate masks share one scoring
        masks[7] = False     # untouched everywhere -> pure baseline
        packed = np.stack([pack_mask(row) for row in masks])
        mask_set = MaskSet(n, packed, masks.sum(axis=1))
        batched = subset_epsilon_for_mask_set(seg, mask_set, aggregate, metric)
        for row in range(12):
            assert batched[row] == subset_epsilon_grouped(
                seg, masks[row], aggregate, metric
            )
        # Second call: every digest hits the ε memo on the segments.
        cache_keys = [k for k in seg.memo if k[0] == "subset_epsilon"]
        assert len(cache_keys) == 1
        again = subset_epsilon_for_mask_set(seg, mask_set, aggregate, metric)
        np.testing.assert_array_equal(batched, again)

    def test_mask_set_epsilons_with_position_gather(self):
        """Masks over F re-ordered into segment order ≡ direct masks."""
        rng = np.random.default_rng(31)
        aggregate = get_aggregate("avg")
        metric = TooHigh(0.5)
        seg = SegmentedValues.from_arrays(
            [rng.normal(0, 1, 30), rng.normal(1, 1, 50)]
        )
        n = len(seg.values)
        positions = rng.permutation(n)  # segment order -> "F order" map
        f_order_masks = rng.random((5, n)) < 0.3
        packed = np.stack([pack_mask(row) for row in f_order_masks])
        mask_set = MaskSet(n, packed, f_order_masks.sum(axis=1))
        batched = subset_epsilon_for_mask_set(
            seg, mask_set, aggregate, metric, positions=positions
        )
        for row in range(5):
            assert batched[row] == subset_epsilon_grouped(
                seg, f_order_masks[row][positions], aggregate, metric
            )

    def test_batch_chunks_are_seamless(self, monkeypatch):
        rng = np.random.default_rng(15)
        aggregate = get_aggregate("avg")
        metric = TooHigh(0.0)
        seg = SegmentedValues.from_arrays([rng.normal(1, 1, 64), rng.normal(2, 1, 64)])
        masks = rng.random((11, 128)) < 0.5
        full = subset_epsilon_grouped_batch(seg, masks, aggregate, metric)
        monkeypatch.setattr(influence, "BATCH_MAX_ELEMENTS", 130)
        chunked = subset_epsilon_grouped_batch(seg, masks, aggregate, metric)
        np.testing.assert_array_equal(full, chunked)

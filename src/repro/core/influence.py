"""Leave-one-out influence of input tuples on the error metric.

For each tuple t feeding a selected group g, the influence is the
reduction in that group's error contribution when t is removed::

    inf(t) = φ(O(D_g)) − φ(O(D_g − {t}))

where φ is the metric's per-value error. A positive influence means
removing the tuple *reduces* the error — the tuple is part of the
problem. The Preprocessor ranks all of F by this score (paper §2.2.2:
"uses leave-one-out analysis to rank each tuple in F by how much it
influences ε").

Influence is deliberately *local to the group*: under a max-combined
metric, the global ε only moves when the worst group improves, which
would zero out the ranking for every other selected group — useless for
finding suspicious tuples across all of S. For sum-combined metrics the
local and global deltas coincide. The *global* ε and the ranker's Δε do
use the metric's combine (see :func:`subset_epsilon_for_mask_set`).

Influence is one grouped pass over a
:class:`~repro.db.segments.SegmentedValues` holding every selected
group (:meth:`~repro.db.aggregates.Aggregate.leave_one_out_grouped`)
plus the max/sum decomposition of the metric: O(|F|) total with no
Python per-group loop. The naive O(|F|²) recomputation it replaced is
the parity oracle in ``tests/reference/influence.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..db.aggregates import Aggregate
from ..db.segments import SegmentedValues, as_segments
from ..errors import PipelineError


@dataclass(frozen=True)
class GroupInfluence:
    """Influence details for one selected result row (group)."""

    row: int
    tids: np.ndarray
    values: np.ndarray
    loo_values: np.ndarray
    influence: np.ndarray
    group_value: float


@dataclass(frozen=True)
class InfluenceResult:
    """Ranked leave-one-out influence over all tuples of F."""

    tids: np.ndarray
    scores: np.ndarray
    epsilon: float
    groups: tuple[GroupInfluence, ...] = field(default_factory=tuple)

    def ranked_tids(self) -> np.ndarray:
        """Tids sorted by descending influence."""
        order = np.argsort(-self.scores, kind="stable")
        return self.tids[order]

    def top_tids(self, quantile: float) -> np.ndarray:
        """Tids whose influence is at or above the given score quantile.

        Only tuples with strictly positive influence are eligible: a tuple
        whose removal does not reduce ε is never "suspicious".
        """
        if len(self.scores) == 0:
            return self.tids
        positive = self.scores > 0
        if not positive.any():
            return np.empty(0, dtype=np.int64)
        cutoff = float(np.quantile(self.scores[positive], quantile))
        return self.tids[positive & (self.scores >= cutoff)]

    @cached_property
    def _tid_index(self) -> tuple[np.ndarray, np.ndarray]:
        """``(sorted_tids, matching_scores)`` for binary-search lookups.

        Built once per result (``cached_property`` writes straight to
        ``__dict__``, so it coexists with the frozen dataclass): callers
        like the enumerator and ranker probe scores once per candidate
        predicate, and rebuilding a dict each probe made scoring
        O(|F|·|predicates|).
        """
        order = np.argsort(self.tids, kind="stable")
        return self.tids[order], self.scores[order]

    def score_of(self, tids: np.ndarray) -> np.ndarray:
        """Influence scores for specific tids (0 for unknown tids)."""
        tids = np.asarray(tids, dtype=np.int64)
        sorted_tids, sorted_scores = self._tid_index
        if len(sorted_tids) == 0:
            return np.zeros(len(tids), dtype=np.float64)
        pos = np.searchsorted(sorted_tids, tids)
        pos = np.minimum(pos, len(sorted_tids) - 1)
        found = sorted_tids[pos] == tids
        return np.where(found, sorted_scores[pos], 0.0)


def leave_one_out_influence(
    group_values: list[np.ndarray],
    group_tids: list[np.ndarray],
    rows: list[int],
    aggregate: Aggregate,
    metric,
) -> InfluenceResult:
    """Compute influence for every tuple of the selected groups.

    Parameters
    ----------
    group_values:
        Per selected group, the aggregate's input values for its tuples.
    group_tids:
        Per selected group, the tids matching ``group_values``.
    rows:
        The selected result-row index for each group (for reporting).
    aggregate:
        The aggregate implementation of the debugged output column.
    metric:
        The user's :class:`~repro.core.error_metrics.ErrorMetric`.
    """
    if len(group_values) != len(group_tids) or len(group_values) != len(rows):
        raise PipelineError("group_values, group_tids, and rows must align")
    seg = as_segments(group_values)
    # One grouped pass over every selected group at once: current
    # values, leave-one-out values, and per-value errors are all flat
    # vectorized computations with no Python per-group loop.
    current = aggregate.compute_grouped(seg)
    loo_flat = aggregate.leave_one_out_grouped(seg)
    epsilon = metric(current)
    phi = metric.per_value_error(current)
    phi_new_flat = metric.per_value_error(loo_flat)
    scores = phi[seg.segment_ids] - phi_new_flat

    tids = (
        np.concatenate([np.asarray(t, dtype=np.int64) for t in group_tids])
        if len(group_tids)
        else np.empty(0, dtype=np.int64)
    )
    loo_parts = seg.split_flat(loo_flat)
    score_parts = seg.split_flat(scores)
    groups = tuple(
        GroupInfluence(
            row=rows[g],
            tids=np.asarray(group_tids[g], dtype=np.int64),
            values=seg.segment(g),
            loo_values=loo_parts[g],
            influence=score_parts[g],
            group_value=float(current[g]),
        )
        for g in range(seg.n_segments)
    )
    return InfluenceResult(
        tids=tids, scores=scores, epsilon=epsilon, groups=groups
    )


#: Soft cap on the elements of one batched Δε slab (rows × flat values).
#: Above this the mask matrix is split into row chunks so the float64
#: temporaries of the 2-D kernels stay within a few hundred MB even on
#: the 50× ablation workloads.
BATCH_MAX_ELEMENTS = 8_000_000


def subset_epsilon_grouped_batch(
    seg: SegmentedValues,
    remove_masks: np.ndarray,
    aggregate: Aggregate,
    metric,
) -> np.ndarray:
    """ε(S) after removing each of R remove-masks, in one grouped pass.

    ``remove_masks`` is an ``(R, len(seg))`` boolean matrix — one
    candidate predicate's flat remove-mask per row. The whole batch is
    scored with one
    :meth:`~repro.db.aggregates.Aggregate.compute_without_grouped` pass
    per row-chunk instead of R separate grouped passes; row ``r`` of the
    result is bit-identical to scoring ``remove_masks[r : r + 1]``
    alone, which keeps the batched Ranker byte-identical to scoring one
    rule at a time. Rows are chunked by :data:`BATCH_MAX_ELEMENTS` so
    the 2-D kernel temporaries stay bounded; the chunking cannot perturb
    values because each chunk is an independent set of mask rows.
    """
    remove_masks = np.asarray(remove_masks, dtype=bool)
    if remove_masks.ndim != 2 or remove_masks.shape[1] != len(seg.values):
        raise PipelineError("remove mask matrix shape does not match segments")
    n_rows = remove_masks.shape[0]
    new_values = np.empty((n_rows, seg.n_segments), dtype=np.float64)
    chunk = max(1, BATCH_MAX_ELEMENTS // max(len(seg.values), 1))
    for start in range(0, n_rows, chunk):
        block = remove_masks[start: start + chunk]
        new_values[start: start + block.shape[0]] = (
            aggregate.compute_without_grouped(seg, block)
        )
    return _metric_rows(new_values, metric)


def _metric_rows(new_values: np.ndarray, metric) -> np.ndarray:
    """The metric applied to each row of an after-removal value matrix."""
    out = np.empty(new_values.shape[0], dtype=np.float64)
    for row in range(new_values.shape[0]):
        out[row] = metric(new_values[row])
    return out


#: Above this fraction of the dense (rows × n) work, the group-sparse
#: Δε path stops paying for its gathers and the dense kernels run
#: instead. Both paths are bit-identical, so the cutover is pure policy.
SPARSE_DENSITY_CUTOFF = 0.5


def subset_epsilon_for_mask_set(
    seg: SegmentedValues,
    mask_set,
    aggregate: Aggregate,
    metric,
    positions: np.ndarray | None = None,
) -> np.ndarray:
    """Batched Δε over a :class:`~repro.core.maskset.MaskSet`.

    Three structural savings on top of the batch kernels, all provably
    bit-identical to scoring each rule alone:

    * ``positions`` maps mask bits onto the segment flat order (the
      segment table is F's rows re-ordered, so a predicate's segment
      mask is a gather of its F mask — no second mask evaluation);
    * candidate predicates frequently denote the *same* tuple set (that
      is what the ranker's dedupe exploits), so the packed-mask digests
      score each distinct remove-mask once and broadcast the result;
    * a rule leaves most groups untouched, and an untouched group's
      aggregate-after-removal is, fold-for-fold, the no-removal value —
      so only the touched (rule, group) pairs are re-aggregated, over a
      compacted copy of exactly those groups.
    """
    digests = mask_set.digests()
    # ε per distinct mask is memoized on the segments: a repeated debug
    # of a cached selection — N service sessions, or the next cycle of
    # one session — pays only dictionary lookups for every predicate
    # whose tuple set has been previewed before. Cached values are the
    # very floats a fresh scoring would produce, so the memo cannot
    # perturb byte-identity.
    cache_key = (
        "subset_epsilon",
        aggregate.name,
        type(metric).__name__,
        metric.describe(),
        getattr(metric, "combine", None),
    )
    cache = seg.memo.get(cache_key)
    if cache is None:
        cache = {}
        seg.memo[cache_key] = cache
    first_row: dict[bytes, int] = {}
    unique_rows: list[int] = []
    for row, digest in enumerate(digests):
        if digest not in first_row and digest not in cache:
            first_row[digest] = len(unique_rows)
            unique_rows.append(row)
    if unique_rows:
        bools = mask_set.bools(np.asarray(unique_rows, dtype=np.int64))
        if positions is not None:
            bools = bools[:, positions]
        unique = _epsilons_group_sparse(seg, bools, aggregate, metric)
        for digest, index in first_row.items():
            cache[digest] = float(unique[index])
    return np.fromiter(
        (cache[digest] for digest in digests),
        dtype=np.float64,
        count=len(digests),
    )


def _epsilons_group_sparse(
    seg: SegmentedValues,
    remove_masks: np.ndarray,
    aggregate: Aggregate,
    metric,
) -> np.ndarray:
    """ε per mask row, re-aggregating only the touched (row, group) pairs.

    A group none of whose flat positions are removed contributes its
    no-removal aggregate — computed once by the *same* masked kernel
    (``compute_without_grouped`` over one all-False row), so the fold
    order matches the dense path exactly. The touched pairs are copied
    group-wholesale into one compacted :class:`SegmentedValues`, one
    segment per pair, and pushed through the masked kernel as a single
    mask row; since the kernel folds each segment on its own, the
    compacted results are bit-identical to the dense ones. Falls back to
    :func:`subset_epsilon_grouped_batch` when the touched volume
    approaches the dense volume.
    """
    from ..db.segments import _any_reduceat_batch

    n_rows = remove_masks.shape[0]
    n_flat = len(seg.values)
    if n_rows == 0:
        return np.empty(0, dtype=np.float64)
    row_idx, group_idx = np.nonzero(_any_reduceat_batch(remove_masks, seg.offsets))
    lengths = seg.lengths[group_idx]
    touched_volume = int(lengths.sum())
    if touched_volume >= SPARSE_DENSITY_CUTOFF * n_rows * n_flat:
        return subset_epsilon_grouped_batch(seg, remove_masks, aggregate, metric)

    # The no-removal baseline, through the same masked kernel so the
    # accumulation of untouched groups matches the dense path; memoized
    # on the segments (shared by the Ranker, Merger, and later debugs).
    baseline_key = ("cwg_baseline", aggregate.name)
    baseline = seg.memo.get(baseline_key)
    if baseline is None:
        baseline = aggregate.compute_without_grouped(
            seg, np.zeros((1, n_flat), dtype=bool)
        )[0]
        seg.memo[baseline_key] = baseline
    new_values = np.tile(baseline, (n_rows, 1))
    if touched_volume:
        # Ragged gather: for each touched (row, group) pair, the group's
        # whole flat range, concatenated.
        mini_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(lengths)]
        )
        starts = seg.offsets[:-1][group_idx]
        flat = (
            np.arange(touched_volume, dtype=np.int64)
            - np.repeat(mini_offsets[:-1], lengths)
            + np.repeat(starts, lengths)
        )
        touched = SegmentedValues(seg.values[flat], mini_offsets)
        mini_masks = remove_masks[np.repeat(row_idx, lengths), flat]
        new_values[row_idx, group_idx] = aggregate.compute_without_grouped(
            touched, mini_masks[None, :]
        )[0]
    return _metric_rows(new_values, metric)

"""Numeric attribute discretization for rule learners.

Subgroup discovery needs threshold candidates on numeric columns; two
strategies are provided:

* :func:`mdl_entropy_edges` — Fayyad–Irani recursive entropy
  partitioning with the MDL stopping criterion (class-aware);
* :func:`equal_frequency_edges` — cut points at quantiles, CN2-SD's
  fallback when MDL keeps no cut.

Both return *interior* cut points sorted ascending; NaNs are ignored.

MDL is an array program: each recursion step computes every value
boundary's information gain at once from the cumulative positive
counts. ``np.log2`` is not bit-equal to ``math.log2`` (they differ in
the last bit on a small share of inputs), so the vector gains only
shortlist the boundaries within 1e-9 of the best one; a scalar scan of
that shortlist, in index order and with :func:`~.metrics.entropy`,
makes the choice and the MDL stopping test on exactly the floats a full
scalar scan would. The cut points are therefore bit-identical to the
scalar recursion (kept as a parity oracle in ``tests/reference``).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import LearnError
from .metrics import entropy


def equal_frequency_edges(values: np.ndarray, bins: int) -> list[float]:
    """Interior cut points at the ``i/bins`` quantiles (deduplicated)."""
    if bins < 1:
        raise LearnError("bins must be >= 1")
    values = _clean(values)
    if len(values) == 0:
        return []
    quantiles = np.linspace(0, 1, bins + 1)[1:-1]
    edges = np.quantile(values, quantiles)
    out: list[float] = []
    for edge in edges:
        edge = float(edge)
        if not out or edge > out[-1]:
            out.append(edge)
    lo = float(values.min())
    hi = float(values.max())
    return [edge for edge in out if lo < edge < hi]


def mdl_entropy_edges(
    values: np.ndarray, labels: np.ndarray, max_depth: int = 4
) -> list[float]:
    """Fayyad–Irani entropy-based cut points with the MDL stopping rule.

    Recursively picks the boundary minimizing class entropy; a cut is kept
    only when its information gain beats the MDL cost. Produces few, highly
    class-relevant cut points — ideal for anomaly thresholds like
    ``temp > 100``.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    if values.shape != labels.shape:
        raise LearnError("values and labels must have the same shape")
    keep = ~np.isnan(values)
    values = values[keep]
    labels = labels[keep]
    if len(values) == 0:
        return []
    order = np.argsort(values, kind="stable")
    values = values[order]
    labels = labels[order]
    edges: list[float] = []
    _mdl_recurse(values, labels, edges, max_depth)
    return sorted(edges)


def _mdl_recurse(
    values: np.ndarray, labels: np.ndarray, edges: list[float], depth: int
) -> None:
    if depth <= 0 or len(values) < 4:
        return
    n = len(values)
    pos_total = float(labels.sum())
    neg_total = float(n - pos_total)
    parent_entropy = entropy(pos_total, neg_total)
    if parent_entropy == 0.0:
        return
    # Candidate boundaries: positions where the value changes.
    change = np.flatnonzero(values[1:] != values[:-1]) + 1
    if len(change) == 0:
        return
    pos_cum = np.cumsum(labels.astype(np.float64))
    # Every boundary's gain at once. These only shortlist: np.log2 is not
    # bit-equal to math.log2, so the scalar scan below decides.
    left_pos = pos_cum[change - 1]
    left_neg = change - left_pos
    weighted = (change / n) * _entropies(left_pos, left_neg) + (
        (n - change) / n
    ) * _entropies(pos_total - left_pos, neg_total - left_neg)
    gains = parent_entropy - weighted
    shortlist = change[gains >= gains.max() - _SHORTLIST_TOL]
    best_gain = -1.0
    best_split = -1
    best_stats: tuple[float, float, float, float] | None = None
    for split in shortlist:
        left_pos = pos_cum[split - 1]
        left_neg = split - left_pos
        right_pos = pos_total - left_pos
        right_neg = neg_total - left_neg
        left_entropy = entropy(left_pos, left_neg)
        right_entropy = entropy(right_pos, right_neg)
        weighted = (split / n) * left_entropy + ((n - split) / n) * right_entropy
        gain = parent_entropy - weighted
        if gain > best_gain:
            best_gain = gain
            best_split = split
            best_stats = (left_pos, left_neg, right_pos, right_neg)
    if best_split < 0 or best_stats is None:
        return
    left_pos, left_neg, right_pos, right_neg = best_stats
    # MDL criterion (Fayyad & Irani 1993). Classes present in each part:
    k = 2 if 0 < pos_total < n else 1
    k_left = int(left_pos > 0) + int(left_neg > 0)
    k_right = int(right_pos > 0) + int(right_neg > 0)
    left_entropy = entropy(left_pos, left_neg)
    right_entropy = entropy(right_pos, right_neg)
    delta = (
        math.log2(3**k - 2)
        - (k * parent_entropy - k_left * left_entropy - k_right * right_entropy)
    )
    threshold = (math.log2(n - 1) + delta) / n
    if best_gain <= threshold:
        return
    cut = float((values[best_split - 1] + values[best_split]) / 2.0)
    edges.append(cut)
    _mdl_recurse(values[:best_split], labels[:best_split], edges, depth - 1)
    _mdl_recurse(values[best_split:], labels[best_split:], edges, depth - 1)


#: How far below the largest vector gain a boundary may be and still be
#: rescanned. Vector and scalar gains differ by a few ulps (~1e-16), so
#: the boundary the scalar scan picks is always on the shortlist.
_SHORTLIST_TOL = 1e-9


def _entropies(pos: np.ndarray, neg: np.ndarray) -> np.ndarray:
    """:func:`~repro.learn.metrics.entropy` of many nodes (ulp-close)."""
    total = pos + neg
    out = np.zeros(len(total))
    for weight in (pos, neg):
        p = np.where(weight > 0, weight / total, 1.0)
        out -= p * np.log2(p)
    return out


def bin_index(values: np.ndarray, edges: list[float]) -> np.ndarray:
    """Assign each value the index of its bin given interior ``edges``.

    With ``k`` edges there are ``k + 1`` bins; NaNs map to bin ``-1``.
    """
    values = np.asarray(values, dtype=np.float64)
    out = np.searchsorted(np.asarray(edges, dtype=np.float64), values, side="right")
    out = out.astype(np.int64)
    out[np.isnan(values)] = -1
    return out


def _clean(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return values[~np.isnan(values)]

"""K-means clustering (k-means++ initialization + Lloyd's algorithm).

The Dataset Enumerator's first job is to *clean* the user's example set
``D'`` by "identifying a self-consistent subset" (paper §2.2.2); one of
the two techniques the authors name is clustering. This module provides
the primitives: standardization, k-means, silhouette scoring for model
selection, and the dominant-cluster mask used by the cleaner.

The cleaner fits each candidate k once: :func:`dominant_cluster_mask`
keeps the largest cluster of the fit that won the silhouette contest,
rather than fitting the winning k a second time (a refit with the same
data, k and seed is the same clustering; the refitting version is kept
as a parity oracle in ``tests/reference``).

The contest scores every k on one distance matrix, built 32 rows at a
time over one seeded subsample (the sample depends only on the number
of points and the seed). The silhouette is an array program that
computes the floats of the per-point loop it replaced (the oracle
``loop_silhouette`` in ``tests/reference``), bit for bit: numpy sums a
contiguous 1-D array pairwise, so each per-cluster row sum must be
taken along the fast axis of a C-ordered array, where ``sum(axis=1)``
runs that same pairwise sum on every row. A row sum across the slow
axis (``distances[:, mask].sum(axis=1)``, whose gather is F-ordered)
adds the columns one by one and differs in the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LearnError

#: Points the silhouette is computed on; larger inputs are subsampled.
_SILHOUETTE_POINTS = 512
#: Rows of the distance matrix built per step: a 32 × n × d temporary
#: (1 MB at 512 points and 8 columns) instead of an n × n × d one.
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class KMeansResult:
    """Fitted clustering: centers, hard assignments, and inertia."""

    centers: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centers)

    def cluster_sizes(self) -> np.ndarray:
        """Points per cluster."""
        return np.bincount(self.labels, minlength=self.k)


def standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Z-score each column; zero-variance columns pass through centered.

    Returns ``(Z, mean, std)`` where ``std`` has zeros replaced by one.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise LearnError("standardize expects a 2-D array")
    mean = np.nanmean(X, axis=0) if len(X) else np.zeros(X.shape[1])
    std = np.nanstd(X, axis=0) if len(X) else np.ones(X.shape[1])
    std = np.where(std > 0, std, 1.0)
    return (X - mean) / std, mean, std


def kmeans(
    X: np.ndarray,
    k: int,
    seed: int = 0,
    max_iter: int = 100,
    tol: float = 1e-7,
    n_init: int = 4,
) -> KMeansResult:
    """Cluster rows of ``X`` into ``k`` groups; best of ``n_init`` restarts."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise LearnError("kmeans expects a 2-D array")
    n = len(X)
    if k < 1:
        raise LearnError("k must be >= 1")
    if n < k:
        raise LearnError(f"cannot form {k} clusters from {n} points")
    if max_iter < 1:
        raise LearnError("max_iter must be >= 1")
    rng = np.random.default_rng(seed)
    best: KMeansResult | None = None
    for _ in range(max(n_init, 1)):
        result = _kmeans_once(X, k, rng, max_iter, tol)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


def _kmeans_once(
    X: np.ndarray, k: int, rng: np.random.Generator, max_iter: int, tol: float
) -> KMeansResult:
    centers = _kmeanspp_init(X, k, rng)
    labels = np.zeros(len(X), dtype=np.int64)
    inertia = np.inf
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        distances = _pairwise_sq(X, centers)
        labels = np.argmin(distances, axis=1)
        new_inertia = float(distances[np.arange(len(X)), labels].sum())
        new_centers = centers.copy()
        for cluster in range(k):
            members = X[labels == cluster]
            if len(members):
                new_centers[cluster] = members.mean(axis=0)
            else:
                # Re-seed an empty cluster at the point farthest from its center.
                farthest = int(np.argmax(distances[np.arange(len(X)), labels]))
                new_centers[cluster] = X[farthest]
        shift = float(np.abs(new_centers - centers).max())
        centers = new_centers
        if abs(inertia - new_inertia) <= tol and shift <= tol:
            inertia = new_inertia
            break
        inertia = new_inertia
    return KMeansResult(centers=centers, labels=labels, inertia=inertia, n_iter=n_iter)


def _kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = len(X)
    centers = np.empty((k, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest_sq = _pairwise_sq(X, centers[:1]).ravel()
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 0:
            # All points coincide with chosen centers; pick randomly.
            pick = int(rng.integers(n))
        else:
            probabilities = closest_sq / total
            pick = int(rng.choice(n, p=probabilities))
        centers[i] = X[pick]
        new_sq = _pairwise_sq(X, centers[i: i + 1]).ravel()
        closest_sq = np.minimum(closest_sq, new_sq)
    return centers


def _pairwise_sq(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_centers)."""
    diffs = X[:, None, :] - centers[None, :, :]
    return np.einsum("ijk,ijk->ij", diffs, diffs)


def silhouette(X: np.ndarray, labels: np.ndarray,
               max_points: int = _SILHOUETTE_POINTS, seed: int = 0) -> float:
    """Mean silhouette coefficient (subsampled beyond ``max_points``).

    Returns 0.0 when there are fewer than 2 clusters or 3 points, where
    the coefficient is undefined.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(labels) != len(X):
        raise LearnError(f"silhouette got {len(labels)} labels for {len(X)} points")
    if len(np.unique(labels)) < 2 or len(X) < 3:
        return 0.0
    (score,) = _silhouettes(X, [labels], seed, max_points)
    return score


def _silhouettes(
    X: np.ndarray, labelings: list[np.ndarray], seed: int,
    max_points: int = _SILHOUETTE_POINTS,
) -> list[float]:
    """The mean silhouette of each labeling of ``X``.

    All are scored on one seeded subsample (it depends only on
    ``len(X)`` and the seed) and one distance matrix.
    """
    picks: slice | np.ndarray = slice(None)
    if len(X) > max_points:
        rng = np.random.default_rng(seed)
        picks = rng.choice(len(X), size=max_points, replace=False)
    distances = _distances(X[picks])
    return [_mean_silhouette(distances, labels[picks]) for labels in labelings]


def _distances(X: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of ``X``, in row blocks.

    Each element is the ``einsum`` of the same differences a single
    (n, n, d) temporary would give it.
    """
    n = len(X)
    squared = np.empty((n, n))
    for start in range(0, n, _BLOCK_ROWS):
        diffs = X[start:start + _BLOCK_ROWS, None, :] - X[None, :, :]
        squared[start:start + _BLOCK_ROWS] = np.einsum("ijk,ijk->ij", diffs, diffs)
    return np.sqrt(squared, out=squared)


def _cluster_row_sums(
    distances: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(clusters, sizes, sums)``: ``sums[i, c]`` is row i's distance sum
    over the members of ``clusters[c]`` (its columns of ``distances``).

    Each sum equals ``distances[i][labels == clusters[c]].sum()`` bit for
    bit: ``np.take`` gathers the columns cluster by cluster into a new
    C-ordered array, so each cluster's slice of a row lies on the fast
    axis, where ``sum(axis=1)`` is numpy's 1-D pairwise sum.
    """
    order = np.argsort(labels, kind="stable")
    clusters, starts, sizes = np.unique(
        labels[order], return_index=True, return_counts=True
    )
    grouped = np.take(distances, order, axis=1)
    sums = np.empty((len(distances), len(clusters)))
    for c, (start, size) in enumerate(zip(starts, sizes)):
        sums[:, c] = grouped[:, start:start + size].sum(axis=1)
    return clusters, sizes, sums


def _mean_silhouette(distances: np.ndarray, labels: np.ndarray) -> float:
    """Mean silhouette of ``labels`` over their points' distance matrix."""
    clusters, sizes, sums = _cluster_row_sums(distances, labels)
    if len(clusters) < 2:
        return 0.0
    rows = np.arange(len(labels))
    own = np.searchsorted(clusters, labels)
    n_own = sizes[own]
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, own] / (n_own - 1)
        means = sums / sizes
        # b is the nearest other cluster's mean; NaN means never win it.
        means[rows, own] = np.inf
        b = np.fmin.reduce(means, axis=1)
        denom = np.where(b > a, b, a)
        scores = np.where((n_own <= 1) | (denom == 0), 0.0, (b - a) / denom)
    return float(scores.mean())


def choose_k(
    X: np.ndarray, k_values: tuple[int, ...] = (2, 3, 4), seed: int = 0,
    min_silhouette: float = 0.5,
) -> int:
    """Pick k by silhouette; returns 1 when no clustering is convincing.

    A best silhouette below ``min_silhouette`` is read as "the data is one
    blob", which for D' cleaning means keep everything.
    """
    X = np.asarray(X, dtype=np.float64)
    best = _chosen_fit(X, k_values, seed, min_silhouette)
    return best.k if best is not None else 1


def _chosen_fit(
    X: np.ndarray, k_values: tuple[int, ...] = (2, 3, 4), seed: int = 0,
    min_silhouette: float = 0.5,
) -> KMeansResult | None:
    """The fit of the k :func:`choose_k` picks, or ``None`` for k = 1."""
    fits = [kmeans(X, k, seed=seed) for k in k_values if len(X) >= max(k * 2, 3)]
    if not fits:
        return None
    scores = _silhouettes(X, [fit.labels for fit in fits], seed)
    best: KMeansResult | None = None
    best_score = min_silhouette
    for fit, score in zip(fits, scores):
        if score > best_score:
            best_score = score
            best = fit
    return best


def dominant_cluster_mask(X: np.ndarray, seed: int = 0) -> np.ndarray:
    """The self-consistent-subset mask used to clean D'.

    Standardizes, picks k by silhouette, and keeps the largest cluster of
    the winning fit (the one :func:`choose_k` made; ``kmeans`` is
    deterministic in its data, k and seed, so fitting that k again would
    return the same clustering). If no multi-cluster structure is found
    (k = 1) every point is kept.
    """
    X = np.asarray(X, dtype=np.float64)
    if len(X) == 0:
        return np.zeros(0, dtype=bool)
    Z, __, __ = standardize(X)
    Z = np.nan_to_num(Z, nan=0.0)
    result = _chosen_fit(Z, seed=seed)
    if result is None:
        return np.ones(len(X), dtype=bool)
    sizes = result.cluster_sizes()
    dominant = int(np.argmax(sizes))
    return result.labels == dominant

"""Weighted k-means with k-means++ seeding.

Weights are the regions' aggregate instruction counts (section III-B):
they pull centroids toward long regions and, through the distortion
objective, bias cluster boundaries the same way SimPoint's variable-length
support does.

All restarts of one fit advance in lockstep on stacked ``(restarts, ...)``
arrays.  Every number is computed by the same floating-point operations,
in the same order, as fitting the restarts one after another: each stacked
gemm slice has the shape of a single restart's, and the generator stream
is consumed in restart order.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.errors import ClusteringError


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one weighted k-means fit."""

    labels: np.ndarray
    centers: np.ndarray
    distortion: float
    iterations: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.centers.shape[0]


def _sq_dists(
    points: np.ndarray, centers: np.ndarray, p_sq: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances, shape (restarts, n_points, n_centers).

    ``centers`` is (restarts, n_centers, dims) and ``p_sq`` the squared
    point norms, computed once per fit.  Each element is
    ``max((p_sq + c_sq) - 2 * cross, 0)``; the norms are added in a
    (restarts, n_centers, n_points) layout, where the inner loop runs over
    points, and the rest is done in place on the product.
    """
    c_sq = np.einsum("rij,rij->ri", centers, centers)
    norms = (p_sq + c_sq[:, :, None]).transpose(0, 2, 1)
    dists = np.matmul(points, centers.transpose(0, 2, 1))
    dists *= 2.0
    np.subtract(norms, dists, out=dists)
    return np.maximum(dists, 0.0, out=dists)


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative table of each row of ``p``, normalised to end at 1."""
    cdf = p.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _draw(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One index per row of ``cdf``, drawn with the uniform ``u[row]``.

    Counting the entries ``<= u`` of a non-decreasing table is
    ``searchsorted(u, side="right")``, so with ``cdf = _cdf(p)`` this is
    bit-identical to ``rng.choice(len(p), p=p)`` drawing ``u``.
    """
    return (cdf <= u[..., None]).sum(axis=-1)


def _stacked_keys(labels: np.ndarray, k: int) -> np.ndarray:
    """Labels of stacked restarts made distinct: restart ``r``'s cluster
    ``j`` becomes ``r * k + j``."""
    return labels + (np.arange(labels.shape[0]) * k)[:, None]


def _kmeans_pp_picks(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    restarts: int,
    rng: np.random.Generator,
    p_sq: np.ndarray,
) -> np.ndarray:
    """Weighted k-means++ seeding of every restart: point indices (R, k).

    Restart ``r``'s pick ``j`` uses uniform ``r * k + j`` of the stream,
    which is where one-restart-at-a-time seeding would draw it.
    """
    u = rng.random(restarts * k).reshape(restarts, k)
    prior = _cdf(weights / weights.sum())
    picks = np.empty((restarts, k), dtype=np.int64)
    picks[:, 0] = _draw(prior, u[:, 0])
    closest = _sq_dists(points, points[picks[:, :1]], p_sq)[:, :, 0]
    for j in range(1, k):
        scores = closest * weights
        total = scores.sum(axis=1)
        # Rows whose points all coincide with chosen centers score 0
        # everywhere; they draw from the weights instead.
        live = total > 0.0
        if live.all():
            cdf = _cdf(scores / total[:, None])
        else:
            cdf = np.tile(prior, (restarts, 1))
            if live.any():
                cdf[live] = _cdf(scores[live] / total[live, None])
        picks[:, j] = _draw(cdf, u[:, j])
        if j + 1 < k:
            to_pick = _sq_dists(points, points[picks[:, j : j + 1]], p_sq)
            closest = np.minimum(closest, to_pick[:, :, 0])
    return picks


def _reseed_empty(
    points: np.ndarray,
    weights: np.ndarray,
    dists: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
    empty: np.ndarray,
) -> None:
    """Re-seed one restart's empty clusters with its worst-fit points.

    Each empty cluster, in ascending order, takes the point of largest
    weighted residual (lowest index on ties) that is not its cluster's
    only member (stealing that would just move the hole); a stolen point
    is never taken twice.  Residuals do not change and a cluster only
    loses members, so a point passed over stays unstealable: one walk
    down the residuals in descending order makes every pick that one
    ``argmax`` per empty cluster would (residuals of finite distances are
    never NaN).  ``labels`` and ``centers`` are updated in place.
    """
    residuals = dists[np.arange(points.shape[0]), labels] * weights
    counts = np.bincount(labels, minlength=centers.shape[0]).tolist()
    current = labels.tolist()
    candidates = iter(np.argsort(-residuals, kind="stable").tolist())
    for j in empty.tolist():
        for worst in candidates:
            if counts[current[worst]] > 1:
                break
        else:
            return  # fewer distinct points than clusters
        counts[current[worst]] -= 1
        labels[worst] = j
        centers[j] = points[worst]


def _centroid_step(
    points: np.ndarray, weights: np.ndarray, restarts: int
) -> Callable[[np.ndarray, np.ndarray], None]:
    """The weighted-centroid update of one fit, ``step(labels, centers)``.

    ``labels`` is (a, n) and ``centers`` (a, k, d) for the ``a`` restarts
    still moving; ``centers`` is updated in place and an empty cluster
    keeps its center.  The sums must be those of each cluster's block
    ``points[members] * w[:, None]`` reduced over axis 0, restart by
    restart.  That reduce adds rows in order when ``d >= 2``, which is
    what one ``bincount`` over (restart, cluster, column) keys does; the
    weight totals are summed pairwise, which any order reproduces only
    while every partial sum is exact: integer weights totalling below
    2**53.  Every pipeline fit qualifies; other inputs (``d == 1`` is
    summed pairwise too) take the per-cluster reduce.
    """
    weighted = points * weights[:, None]
    if points.shape[1] >= 2 and (
        np.all(weights == np.floor(weights)) and weights.sum() < 2.0**53
    ):
        return partial(
            _centroids_bincount,
            np.tile(weighted.ravel(), restarts),
            np.tile(weights, restarts),
        )
    return partial(_centroids_reduce, weighted, weights)


def _centroids_bincount(
    sum_weights: np.ndarray,
    total_weights: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
) -> None:
    """Weighted centroids of every restart from two ``bincount`` calls.

    ``sum_weights`` and ``total_weights`` are the weighted points and the
    weights, raveled and repeated once per restart, so their prefix lines
    up with the keys of the first ``a`` restarts.
    """
    a, k, d = centers.shape
    n = labels.shape[1]
    keys = _stacked_keys(labels, k)
    sums = np.bincount(
        ((keys * d)[:, :, None] + np.arange(d)).ravel(),
        weights=sum_weights[: a * n * d],
        minlength=a * k * d,
    ).reshape(a, k, d)
    totals = np.bincount(
        keys.ravel(), weights=total_weights[: a * n], minlength=a * k
    ).reshape(a, k, 1)
    if totals.all():
        np.divide(sums, totals, out=centers)
    else:
        filled = totals[:, :, 0] > 0.0
        centers[filled] = sums[filled] / totals[filled]


def _centroids_reduce(
    weighted: np.ndarray,
    weights: np.ndarray,
    labels: np.ndarray,
    centers: np.ndarray,
) -> None:
    """Weighted centroids summed per cluster, restart by restart.

    A stable sort by label lays each cluster's members out contiguously in
    ascending order, so every per-cluster sum sees the same rows in the
    same order as summing ``pts[members] * w[:, None]`` directly.
    """
    k = centers.shape[1]
    for r_labels, r_centers in zip(labels, centers):
        order = r_labels.argsort(kind="stable")
        grouped_pts = weighted[order]
        grouped_wts = weights[order]
        ends = np.bincount(r_labels, minlength=k).cumsum().tolist()
        for j, (lo, hi) in enumerate(zip([0] + ends, ends)):
            if lo < hi:
                r_centers[j] = np.add.reduce(
                    grouped_pts[lo:hi], axis=0
                ) / np.add.reduce(grouped_wts[lo:hi])


def weighted_kmeans(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    seed: int,
    max_iterations: int = 100,
    restarts: int = 5,
) -> KMeansResult:
    """Fit ``k`` clusters minimizing weighted distortion; best of restarts.

    Distortion is ``sum_i w_i * ||x_i - c_{label(i)}||^2``.  Empty clusters
    are re-seeded with the point of largest weighted residual.  Each
    restart stops at its own convergence iteration; the first restart with
    the lowest distortion wins.
    """
    pts = np.asarray(points, dtype=np.float64)
    wts = np.asarray(weights, dtype=np.float64)
    if pts.ndim != 2:
        raise ClusteringError(f"points must be 2-D, got shape {pts.shape}")
    n = pts.shape[0]
    if wts.shape != (n,):
        raise ClusteringError(f"weights shape {wts.shape} != ({n},)")
    if np.any(wts <= 0):
        raise ClusteringError("weights must be strictly positive")
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")

    rng = np.random.Generator(np.random.PCG64(seed))
    p_sq = np.einsum("ij,ij->i", pts, pts)
    num_restarts = max(1, restarts)
    centers = pts[_kmeans_pp_picks(pts, wts, k, num_restarts, rng, p_sq)]
    labels = np.zeros((num_restarts, n), dtype=np.int64)
    iterations = np.full(num_restarts, max_iterations, dtype=np.int64)
    centroid_step = _centroid_step(pts, wts, num_restarts)
    # The stack of restarts still moving: their indices, centers, labels.
    moving, active, current = np.arange(num_restarts), centers, labels
    for iteration in range(1, max_iterations + 1):
        dists = _sq_dists(pts, active, p_sq)
        new_labels = dists.argmin(axis=2)
        counts = np.bincount(
            _stacked_keys(new_labels, k).ravel(), minlength=moving.size * k
        ).reshape(-1, k)
        if not counts.all():
            for i in np.flatnonzero((counts == 0).any(axis=1)):
                _reseed_empty(
                    pts, wts, dists[i], new_labels[i], active[i],
                    np.flatnonzero(counts[i] == 0),
                )
        if iteration > 1:
            moved = (new_labels != current).any(axis=1)
            if not moved.all():
                # Converged restarts keep their labels and any reseeded
                # centers, and leave the stack.
                done = moving[~moved]
                centers[done] = active[~moved]
                labels[done] = current[~moved]
                iterations[done] = iteration
                moving, active, new_labels = (
                    moving[moved], active[moved], new_labels[moved]
                )
        current = new_labels
        if moving.size == 0:
            break
        centroid_step(current, active)
    centers[moving] = active
    labels[moving] = current

    dists = _sq_dists(pts, centers, p_sq)
    fit = np.take_along_axis(dists, labels[:, :, None], axis=2)[:, :, 0]
    distortions = (fit * wts).sum(axis=1)
    best = 0
    for r in range(1, num_restarts):
        if distortions[r] < distortions[best]:
            best = r
    return KMeansResult(
        labels=labels[best].copy(), centers=centers[best].copy(),
        distortion=float(distortions[best]), iterations=int(iterations[best]),
    )

"""Weighted k-means with k-means++ seeding.

Weights are the regions' aggregate instruction counts (section III-B):
they pull centroids toward long regions and, through the distortion
objective, bias cluster boundaries the same way SimPoint's variable-length
support does.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _sq_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms as a column, the ``p_sq`` of the distances."""
    return np.einsum("ij,ij->i", points, points)[:, None]


def _pairwise_sq_dists(
    points: np.ndarray, centers: np.ndarray, p_sq: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_centers).

    ``p_sq`` is ``_sq_norms(points)``, computed once per fit.
    """
    c_sq = np.einsum("ij,ij->i", centers, centers)[None, :]
    cross = points @ centers.T
    return np.maximum(p_sq + c_sq - 2.0 * cross, 0.0)


def _draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """One index drawn with probabilities ``p``.

    Bit-identical to ``rng.choice(len(p), p=p)``: the same cumulative
    table searched with the same single ``Generator.random`` draw, minus
    ``choice``'s per-call validation.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeans_pp_init(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
    p_sq: np.ndarray,
) -> np.ndarray:
    """Weighted k-means++ seeding."""
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    probs = weights / weights.sum()
    first = _draw(rng, probs)
    centers[0] = points[first]
    closest = _pairwise_sq_dists(points, centers[:1], p_sq).ravel()
    for j in range(1, k):
        scores = closest * weights
        total = scores.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; reuse random picks.
            idx = _draw(rng, probs)
        else:
            idx = _draw(rng, scores / total)
        centers[j] = points[idx]
        closest = np.minimum(
            closest,
            _pairwise_sq_dists(points, centers[j : j + 1], p_sq).ravel(),
        )
    return centers


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
    are re-seeded with the point of largest weighted residual.
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
    p_sq = _sq_norms(pts)
    rows = np.arange(n)
    weighted_pts = pts * wts[:, None]
    best: KMeansResult | None = None
    for _ in range(max(1, restarts)):
        centers = _kmeans_pp_init(pts, wts, k, rng, p_sq)
        labels = np.zeros(n, dtype=np.int64)
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            dists = _pairwise_sq_dists(pts, centers, p_sq)
            new_labels = dists.argmin(axis=1)
            # Re-seed any empty cluster with the worst-fit point.  Zero the
            # stolen point's residual so two empty clusters never take the
            # same point, and never steal a cluster's only member (that
            # would just move the hole) -- so one bincount up front finds
            # every cluster that needs a reseed.
            empty = np.flatnonzero(np.bincount(new_labels, minlength=k) == 0)
            for j in empty:
                residuals = dists[rows, new_labels] * wts
                counts = np.bincount(new_labels, minlength=k)
                stealable = counts[new_labels] > 1
                if not np.any(stealable):
                    break  # fewer distinct points than clusters
                residuals[~stealable] = -1.0
                worst = int(residuals.argmax())
                new_labels[worst] = j
                centers[j] = pts[worst]
                dists[worst, :] = np.inf
                dists[worst, j] = 0.0
            if np.array_equal(new_labels, labels) and iterations > 1:
                break
            labels = new_labels
            # Weighted centroids.  A stable sort by label lays each
            # cluster's members out contiguously in ascending order, so
            # every per-cluster sum sees the same rows in the same order
            # as summing ``pts[members] * w[:, None]`` directly.
            # Duplicate-heavy data can leave a cluster empty: it keeps its
            # old center.
            order = labels.argsort(kind="stable")
            grouped_pts = weighted_pts[order]
            grouped_wts = wts[order]
            ends = np.bincount(labels, minlength=k).cumsum().tolist()
            for j, (lo, hi) in enumerate(zip([0] + ends, ends)):
                if lo < hi:
                    centers[j] = np.add.reduce(
                        grouped_pts[lo:hi], axis=0
                    ) / np.add.reduce(grouped_wts[lo:hi])
        dists = _pairwise_sq_dists(pts, centers, p_sq)
        distortion = float((dists[rows, labels] * wts).sum())
        candidate = KMeansResult(
            labels=labels, centers=centers.copy(),
            distortion=distortion, iterations=iterations,
        )
        if best is None or candidate.distortion < best.distortion:
            best = candidate
    assert best is not None
    return best

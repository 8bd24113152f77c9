"""The SimPoint-equivalent driver: project, sweep k, pick by BIC.

This is the piece the paper invokes as "SimPoint clustering software
version 3.2" with the Table II parameters; BarrierPoint feeds it one
signature vector per inter-barrier region plus instruction-count weights
and receives cluster labels and one representative region per cluster.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.clustering.bic import weighted_bic
from repro.clustering.kmeans import weighted_kmeans
from repro.clustering.projection import random_projection
from repro.config import SimPointConfig
from repro.errors import ClusteringError


@dataclass(frozen=True)
class ClusteringResult:
    """Labels, representatives and model-selection diagnostics.

    ``chosen_k`` is the k the BIC sweep *selected* and is always a key of
    ``bic_by_k``; ``num_clusters`` is the number of clusters actually
    present after empty clusters (possible with duplicate-heavy data) are
    dropped and labels renumbered, so ``num_clusters <= chosen_k``.
    """

    labels: np.ndarray
    representatives: tuple[int, ...]
    chosen_k: int
    bic_by_k: dict[int, float]
    projected: np.ndarray
    weights: np.ndarray

    @property
    def num_clusters(self) -> int:
        """Number of (non-empty, compacted) clusters in ``labels``."""
        return len(self.representatives)

    def members_of(self, cluster: int) -> np.ndarray:
        """Region indices belonging to ``cluster``."""
        return np.flatnonzero(self.labels == cluster)


class SimPointClusterer:
    """Clusters region signatures per the Table II configuration."""

    def __init__(self, config: SimPointConfig) -> None:
        self.config = config

    def fit(
        self,
        signatures: np.ndarray,
        weights: np.ndarray,
        max_ks: Sequence[int] | None = None,
    ) -> ClusteringResult | dict[int, ClusteringResult]:
        """Cluster one signature per region, weighted by instructions.

        Sweeps ``k = 1 .. min(maxK, n)``, scores each with weighted BIC and
        selects the smallest ``k`` whose normalized score reaches the
        configured threshold (SimPoint's rule).  The representative of each
        cluster is the member closest to the cluster centroid, ties broken
        toward the longer region.

        Without ``max_ks`` the sweep runs to the configured ``max_k`` and
        one result is returned.  With ``max_ks`` it runs once, to the
        largest of them, and returns ``{max_k: result}``: fit(k) depends
        only on the data, ``k`` and ``seed + k``, so a smaller maxK is the
        same selection rule over a prefix of ``bic_by_k`` -- exactly what
        a separate sweep would give.
        """
        sig = np.asarray(signatures, dtype=np.float64)
        wts = np.asarray(weights, dtype=np.float64)
        if sig.ndim != 2 or sig.shape[0] == 0:
            raise ClusteringError(f"bad signature matrix shape {sig.shape}")
        n = sig.shape[0]
        if wts.shape != (n,):
            raise ClusteringError(f"weights shape {wts.shape} != ({n},)")
        cfg = self.config
        wanted = (cfg.max_k,) if max_ks is None else tuple(max_ks)
        if not wanted or min(wanted) < 1:
            raise ClusteringError(f"max_ks must be positive, got {wanted}")

        projected = random_projection(sig, cfg.projected_dims, cfg.seed)
        fits = {}
        bic_by_k: dict[int, float] = {}
        for k in range(1, min(max(wanted), n) + 1):
            fit = weighted_kmeans(
                projected, wts, k,
                seed=cfg.seed + k,
                max_iterations=cfg.kmeans_iterations,
                restarts=cfg.kmeans_restarts,
            )
            fits[k] = fit
            bic_by_k[k] = weighted_bic(projected, wts, fit.labels, fit.centers)

        results = {}
        for max_k in wanted:
            prefix = {k: b for k, b in bic_by_k.items() if k <= max_k}
            chosen_k = self._select_k(prefix)
            best = fits[chosen_k]
            labels, centers = self._compact(best.labels, best.centers)
            # ``chosen_k`` stays the *selected* (pre-compaction) k so it
            # keys ``bic_by_k``; the compacted count is ``num_clusters``.
            results[max_k] = ClusteringResult(
                labels=labels,
                representatives=self._representatives(
                    projected, wts, labels, centers
                ),
                chosen_k=chosen_k,
                bic_by_k=prefix,
                projected=projected,
                weights=wts,
            )
        return results[cfg.max_k] if max_ks is None else results

    @staticmethod
    def _compact(
        labels: np.ndarray, centers: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop empty clusters (possible with duplicate-heavy data) and
        renumber labels densely."""
        used = np.unique(labels)
        if used.size == centers.shape[0]:
            return labels, centers
        remap = {int(old): new for new, old in enumerate(used)}
        new_labels = np.array([remap[int(l)] for l in labels], dtype=np.int64)
        return new_labels, centers[used]

    def _select_k(self, bic_by_k: dict[int, float]) -> int:
        """Smallest k whose normalized BIC clears the threshold."""
        scores = np.array([bic_by_k[k] for k in sorted(bic_by_k)])
        ks = sorted(bic_by_k)
        lo, hi = scores.min(), scores.max()
        if hi == lo:
            return ks[0]
        normalized = (scores - lo) / (hi - lo)
        for k, score in zip(ks, normalized):
            if score >= self.config.bic_threshold:
                return k
        return ks[-1]  # pragma: no cover - max always reaches 1.0

    @staticmethod
    def _representatives(
        points: np.ndarray,
        weights: np.ndarray,
        labels: np.ndarray,
        centers: np.ndarray,
    ) -> tuple[int, ...]:
        """Per-cluster representative: nearest to centroid, longest on ties."""
        reps = []
        for j in range(centers.shape[0]):
            members = np.flatnonzero(labels == j)
            if members.size == 0:
                raise ClusteringError(
                    f"cluster {j} is empty"
                )  # pragma: no cover - kmeans reseeds empties
            diffs = points[members] - centers[j]
            dists = np.einsum("ij,ij->i", diffs, diffs)
            best = dists.min()
            near = members[dists <= best * (1.0 + 1e-9) + 1e-30]
            if near.size > 1:
                near = near[np.argsort(-weights[near], kind="stable")]
            reps.append(int(near[0]))
        return tuple(reps)

"""Tests for the SimPoint-equivalent clustering stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import kmeans, simpoint
from repro.clustering.bic import weighted_bic
from repro.clustering.kmeans import (
    KMeansResult,
    _cdf,
    _draw,
    _kmeans_pp_picks,
    weighted_kmeans,
)
from repro.clustering.normalize import normalize_l1, normalize_rows
from repro.clustering.projection import random_projection
from repro.clustering.simpoint import SimPointClusterer
from repro.config import SimPointConfig
from repro.errors import ClusteringError


class TestNormalize:
    def test_l1(self):
        out = normalize_l1(np.array([1.0, 3.0]))
        assert out.tolist() == [0.25, 0.75]

    def test_zero_vector_unchanged(self):
        assert normalize_l1(np.zeros(3)).tolist() == [0, 0, 0]

    def test_negative_rejected(self):
        with pytest.raises(ClusteringError):
            normalize_l1(np.array([-1.0, 2.0]))

    def test_wrong_ndim(self):
        with pytest.raises(ClusteringError):
            normalize_l1(np.ones((2, 2)))

    def test_rows(self):
        out = normalize_rows(np.array([[2.0, 2.0], [0.0, 0.0]]))
        assert out[0].tolist() == [0.5, 0.5]
        assert out[1].tolist() == [0.0, 0.0]

    @settings(max_examples=25)
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=1,
                    max_size=20))
    def test_l1_sums_to_one_or_zero(self, values):
        out = normalize_l1(np.asarray(values))
        total = out.sum()
        assert total == pytest.approx(1.0) or total == 0.0


class TestProjection:
    def test_reduces_dimensionality(self):
        mat = np.random.default_rng(0).random((10, 100))
        out = random_projection(mat, 15, seed=1)
        assert out.shape == (10, 15)

    def test_low_dim_passthrough(self):
        mat = np.random.default_rng(0).random((5, 10))
        out = random_projection(mat, 15, seed=1)
        assert np.array_equal(out, mat)

    def test_deterministic_in_seed(self):
        mat = np.random.default_rng(0).random((6, 50))
        assert np.array_equal(random_projection(mat, 4, 7),
                              random_projection(mat, 4, 7))
        assert not np.array_equal(random_projection(mat, 4, 7),
                                  random_projection(mat, 4, 8))

    def test_preserves_relative_distances(self):
        rng = np.random.default_rng(3)
        # Two tight clusters far apart survive projection.
        a = rng.normal(0, 0.01, (20, 200))
        b = rng.normal(5, 0.01, (20, 200))
        out = random_projection(np.vstack([a, b]), 15, seed=2)
        within = np.linalg.norm(out[0] - out[10])
        across = np.linalg.norm(out[0] - out[30])
        assert across > 5 * within

    def test_nonfinite_rejected(self):
        mat = np.full((3, 30), np.nan)
        with pytest.raises(ClusteringError):
            random_projection(mat, 4, 0)

    def test_bad_dims(self):
        with pytest.raises(ClusteringError):
            random_projection(np.ones((2, 30)), 0, 0)


class TestWeightedKMeans:
    def _two_blobs(self, n=20):
        rng = np.random.default_rng(0)
        a = rng.normal(0.0, 0.05, (n, 3))
        b = rng.normal(4.0, 0.05, (n, 3))
        return np.vstack([a, b])

    def test_separates_blobs(self):
        points = self._two_blobs()
        weights = np.ones(points.shape[0])
        result = weighted_kmeans(points, weights, 2, seed=1)
        labels = result.labels
        assert len(set(labels[:20].tolist())) == 1
        assert len(set(labels[20:].tolist())) == 1
        assert labels[0] != labels[-1]

    def test_k1_center_is_weighted_mean(self):
        points = np.array([[0.0], [10.0]])
        weights = np.array([3.0, 1.0])
        result = weighted_kmeans(points, weights, 1, seed=0)
        assert result.centers[0, 0] == pytest.approx(2.5)

    def test_weights_shift_boundaries(self):
        points = np.array([[0.0], [1.0], [10.0]])
        heavy_left = weighted_kmeans(points, np.array([100.0, 1.0, 1.0]),
                                     1, seed=0)
        heavy_right = weighted_kmeans(points, np.array([1.0, 1.0, 100.0]),
                                      1, seed=0)
        assert heavy_left.centers[0, 0] < heavy_right.centers[0, 0]

    def test_distortion_non_increasing_in_k(self):
        points = self._two_blobs()
        weights = np.ones(points.shape[0])
        distortions = [
            weighted_kmeans(points, weights, k, seed=3).distortion
            for k in (1, 2, 4)
        ]
        assert distortions[0] >= distortions[1] >= distortions[2]

    def test_duplicate_points_handled(self):
        points = np.zeros((10, 2))
        weights = np.ones(10)
        result = weighted_kmeans(points, weights, 4, seed=0)
        assert result.distortion == pytest.approx(0.0)
        assert np.isfinite(result.centers).all()

    def test_invalid_k(self):
        points = np.ones((3, 2))
        with pytest.raises(ClusteringError):
            weighted_kmeans(points, np.ones(3), 4, seed=0)
        with pytest.raises(ClusteringError):
            weighted_kmeans(points, np.ones(3), 0, seed=0)

    def test_non_positive_weights_rejected(self):
        with pytest.raises(ClusteringError):
            weighted_kmeans(np.ones((3, 2)), np.array([1.0, 0.0, 1.0]),
                            1, seed=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 1000))
    def test_labels_always_valid(self, k, seed):
        rng = np.random.default_rng(seed)
        points = rng.random((12, 4))
        weights = rng.random(12) + 0.1
        result = weighted_kmeans(points, weights, k, seed=seed)
        assert result.labels.shape == (12,)
        assert set(result.labels.tolist()) <= set(range(k))
        assert np.isfinite(result.centers).all()


# -- The restart-at-a-time k-means, kept verbatim as the oracle -------------
#
# ``weighted_kmeans`` fits all restarts in lockstep and must give exactly
# what fitting them one after another gave: same labels, centers,
# distortion, iteration count and generator stream.  These functions are
# that sequential implementation, unchanged but for the ``_oracle_``
# prefix on their names.


def _oracle_sq_norms(points: np.ndarray) -> np.ndarray:
    """Squared row norms as a column, the ``p_sq`` of the distances."""
    return np.einsum("ij,ij->i", points, points)[:, None]


def _oracle_pairwise_sq_dists(
    points: np.ndarray, centers: np.ndarray, p_sq: np.ndarray
) -> np.ndarray:
    """Squared Euclidean distances, shape (n_points, n_centers).

    ``p_sq`` is ``_sq_norms(points)``, computed once per fit.
    """
    c_sq = np.einsum("ij,ij->i", centers, centers)[None, :]
    cross = points @ centers.T
    return np.maximum(p_sq + c_sq - 2.0 * cross, 0.0)


def _oracle_draw(rng: np.random.Generator, p: np.ndarray) -> int:
    """One index drawn with probabilities ``p``.

    Bit-identical to ``rng.choice(len(p), p=p)``: the same cumulative
    table searched with the same single ``Generator.random`` draw, minus
    ``choice``'s per-call validation.
    """
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _oracle_kmeans_pp_init(
    points: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng: np.random.Generator,
    p_sq: np.ndarray,
) -> np.ndarray:
    """Weighted k-means++ seeding."""
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    probs = weights / weights.sum()
    first = _oracle_draw(rng, probs)
    centers[0] = points[first]
    closest = _oracle_pairwise_sq_dists(points, centers[:1], p_sq).ravel()
    for j in range(1, k):
        scores = closest * weights
        total = scores.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; reuse random picks.
            idx = _oracle_draw(rng, probs)
        else:
            idx = _oracle_draw(rng, scores / total)
        centers[j] = points[idx]
        closest = np.minimum(
            closest,
            _oracle_pairwise_sq_dists(points, centers[j : j + 1], p_sq).ravel(),
        )
    return centers


def _oracle_weighted_kmeans(
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
    p_sq = _oracle_sq_norms(pts)
    rows = np.arange(n)
    weighted_pts = pts * wts[:, None]
    best: KMeansResult | None = None
    for _ in range(max(1, restarts)):
        centers = _oracle_kmeans_pp_init(pts, wts, k, rng, p_sq)
        labels = np.zeros(n, dtype=np.int64)
        iterations = 0
        for iterations in range(1, max_iterations + 1):
            dists = _oracle_pairwise_sq_dists(pts, centers, p_sq)
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
        dists = _oracle_pairwise_sq_dists(pts, centers, p_sq)
        distortion = float((dists[rows, labels] * wts).sum())
        candidate = KMeansResult(
            labels=labels, centers=centers.copy(),
            distortion=distortion, iterations=iterations,
        )
        if best is None or candidate.distortion < best.distortion:
            best = candidate
    assert best is not None
    return best


def _oracle_case(seed: int):
    """One random ``weighted_kmeans`` call: (points, weights, k, seed,
    max_iterations, restarts).

    Points are spread, duplicate-heavy (a few distinct rows repeated) or
    all equal, at scales from 1e-3 to 1e3, in 1..16 dimensions; weights
    are integers (up to 1e9) or fractional; k runs over 1..n.
    """
    gen = np.random.default_rng(seed)
    n = int(gen.integers(1, 41))
    d = int(gen.integers(1, 17))
    shape = int(gen.integers(0, 4))
    if shape == 0:
        points = gen.normal(size=(n, d))
    elif shape == 1:
        distinct = gen.normal(size=(int(gen.integers(1, 4)), d))
        points = distinct[gen.integers(0, len(distinct), n)]
    elif shape == 2:
        points = np.full((n, d), float(gen.normal()))
    else:
        points = gen.random((n, d)) * 10.0 ** gen.integers(-3, 4)
    if gen.random() < 0.5:
        top = 10 ** int(gen.integers(1, 10))
        weights = gen.integers(1, top, n).astype(np.float64)
    else:
        weights = gen.random(n) * 100.0 + 1e-3
    return (
        points, weights, int(gen.integers(1, n + 1)),
        int(gen.integers(0, 2**31)), int(gen.choice([0, 1, 2, 100])),
        int(gen.choice([1, 5])),
    )


class TestLockstepMatchesSequential:
    """Every restart in lockstep gives the sequential fit, bit for bit."""

    CHUNKS = 10
    PER_CHUNK = 120

    @staticmethod
    def _assert_identical(ours: KMeansResult, oracle: KMeansResult) -> None:
        assert ours.labels.dtype == oracle.labels.dtype
        assert ours.labels.tobytes() == oracle.labels.tobytes()
        assert ours.centers.shape == oracle.centers.shape
        assert ours.centers.tobytes() == oracle.centers.tobytes()
        assert repr(ours.distortion) == repr(oracle.distortion)
        assert ours.iterations == oracle.iterations

    @pytest.mark.parametrize("chunk", range(CHUNKS))
    def test_random_cases(self, chunk, monkeypatch):
        branches = {"bincount": 0, "reduce": 0}
        for name, key in (("_centroids_bincount", "bincount"),
                          ("_centroids_reduce", "reduce")):
            def spy(*args, _fn=getattr(kmeans, name), _key=key):
                branches[_key] += 1
                return _fn(*args)

            monkeypatch.setattr(kmeans, name, spy)
        first = chunk * self.PER_CHUNK
        for seed in range(first, first + self.PER_CHUNK):
            args = _oracle_case(seed)
            self._assert_identical(
                weighted_kmeans(*args), _oracle_weighted_kmeans(*args)
            )
        # Both centroid sums are exercised in every chunk.
        assert branches["bincount"] > 0 and branches["reduce"] > 0

    def test_case_coverage(self):
        """The random cases span the promised input space."""
        cases = [
            _oracle_case(seed)
            for seed in range(self.CHUNKS * self.PER_CHUNK)
        ]
        assert len(cases) >= 1000
        assert {pts.shape[1] for pts, *_ in cases} == set(range(1, 17))
        assert {c[4] for c in cases} == {0, 1, 2, 100}
        assert {c[5] for c in cases} == {1, 5}
        assert any(c[2] == 1 for c in cases)
        assert any(c[2] == c[0].shape[0] > 1 for c in cases)
        integral = [bool(np.all(w == np.floor(w))) for _, w, *_ in cases]
        assert any(integral) and not all(integral)
        assert any(
            pts.shape[0] > 1 and np.all(pts == pts[0]) for pts, *_ in cases
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_pipeline_shaped_fits(self, seed):
        """Projected-signature-like inputs: 15 dims, instruction-count
        weights, the Table II restarts and iteration cap, every k."""
        gen = np.random.default_rng(seed)
        phases = gen.random((6, 15))
        points = phases[gen.integers(0, 6, 60)] + gen.normal(0, 1e-3, (60, 15))
        weights = gen.integers(10**4, 10**7, 60).astype(np.float64)
        for k in range(1, 21):
            args = (points, weights, k, 42 + k, 100, 5)
            self._assert_identical(
                weighted_kmeans(*args), _oracle_weighted_kmeans(*args)
            )


def _choice_pp_init(points, weights, k, rng):
    """k-means++ seeding drawn with ``Generator.choice`` (the oracle).

    Returns the centers and the index of every pick.
    """
    n = points.shape[0]
    p_sq = _oracle_sq_norms(points)
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    probs = weights / weights.sum()
    picks = [rng.choice(n, p=probs)]
    centers[0] = points[picks[0]]
    closest = _oracle_pairwise_sq_dists(points, centers[:1], p_sq).ravel()
    for j in range(1, k):
        scores = closest * weights
        total = scores.sum()
        if total <= 0.0:
            picks.append(rng.choice(n, p=probs))
        else:
            picks.append(rng.choice(n, p=scores / total))
        centers[j] = points[picks[-1]]
        closest = np.minimum(
            closest,
            _oracle_pairwise_sq_dists(points, centers[j : j + 1], p_sq).ravel(),
        )
    return centers, picks


class TestKMeansPlusPlusDraws:
    """The lockstep draws are ``Generator.choice``, bit for bit: restart
    ``r`` of one seeding picks what the ``r``-th of a run of one-restart
    seedings on the same generator picks."""

    @staticmethod
    def _rng(seed):
        return np.random.Generator(np.random.PCG64(seed))

    def _assert_same_seeding(self, points, weights, ks, restarts, seed):
        ours, theirs = self._rng(seed), self._rng(seed)
        p_sq = np.einsum("ij,ij->i", points, points)
        for k in ks:
            picks = _kmeans_pp_picks(points, weights, k, restarts, ours, p_sq)
            assert picks.shape == (restarts, k)
            for r in range(restarts):
                expected_centers, expected_picks = _choice_pp_init(
                    points, weights, k, theirs
                )
                assert picks[r].tolist() == expected_picks
                # ``weighted_kmeans`` starts from ``points[picks]``.
                assert (
                    points[picks][r].tobytes() == expected_centers.tobytes()
                )
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("seed", range(20))
    def test_draw_matches_choice(self, seed):
        data = np.random.default_rng(seed)
        p = data.random(int(data.integers(1, 50)))
        p[data.random(p.size) < 0.3] = 0.0
        p[-1] += 1e-3  # at least one positive probability
        p /= p.sum()
        ours, theirs = self._rng(seed), self._rng(seed)
        drawn = _draw(_cdf(p), ours.random(25))
        assert drawn.tolist() == [theirs.choice(p.size, p=p) for _ in range(25)]
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("seed", range(10))
    def test_draw_rows_match_choice(self, seed):
        """One table per row, one uniform per row, drawn in row order."""
        data = np.random.default_rng(seed)
        p = data.random((5, int(data.integers(1, 50))))
        p[data.random(p.shape) < 0.3] = 0.0
        p[:, -1] += 1e-3
        p /= p.sum(axis=1, keepdims=True)
        ours, theirs = self._rng(seed), self._rng(seed)
        drawn = _draw(_cdf(p), ours.random(5))
        assert drawn.tolist() == [
            theirs.choice(p.shape[1], p=row) for row in p
        ]
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("seed", range(10))
    def test_positive_scores_branch(self, seed):
        data = np.random.default_rng(seed)
        points = data.random((30, 4))
        weights = data.integers(1, 1000, 30).astype(float)
        for restarts in (1, 5):
            self._assert_same_seeding(
                points, weights, (1, 3, 8, 30), restarts, seed
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_coincident_points_branch(self, seed):
        """All points equal: every score is 0 and later picks reuse the
        weight distribution (the ``total <= 0`` branch)."""
        points = np.full((12, 3), 2.5)
        weights = np.random.default_rng(seed).random(12) + 0.5
        for restarts in (1, 5):
            self._assert_same_seeding(
                points, weights, (6, 12), restarts, seed
            )

    def test_mixed_branches_in_one_step(self):
        """Near-duplicates whose rounded distances are all 0 from point 1
        but not from points 0 and 2: a restart that starts at point 1
        takes the ``total <= 0`` branch while the others score."""
        points = np.array([
            [-75.46057912599598, 168.91074524438307],
            [-75.46057912599744, 168.91074524435996],
            [-75.4605791259906, 168.91074524437764],
        ])
        weights = np.array([3.0, 5.0, 2.0])
        mixed = 0
        for seed in range(20):
            ours = self._rng(seed)
            first = _kmeans_pp_picks(
                points, weights, 2, 5, ours,
                np.einsum("ij,ij->i", points, points),
            )[:, 0]
            mixed += 1 in first and bool((first != 1).any())
            self._assert_same_seeding(points, weights, (2, 3), 5, seed)
        assert mixed > 0


class TestWeightedBic:
    def test_better_fit_higher_bic(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.05, (15, 3))
        b = rng.normal(3, 0.05, (15, 3))
        points = np.vstack([a, b])
        weights = np.ones(30)
        good = weighted_kmeans(points, weights, 2, seed=0)
        bad = weighted_kmeans(points, weights, 1, seed=0)
        bic_good = weighted_bic(points, weights, good.labels, good.centers)
        bic_bad = weighted_bic(points, weights, bad.labels, bad.centers)
        assert bic_good > bic_bad

    def test_overfitting_penalized_on_duplicates(self):
        # Two distinct values only: k=2 is perfect, k>2 pays the parameter
        # penalty with no likelihood gain (thanks to the variance floor).
        points = np.array([[0.0, 0.0]] * 10 + [[5.0, 5.0]] * 10)
        weights = np.ones(20)
        fits = {
            k: weighted_kmeans(points, weights, k, seed=0) for k in (2, 6)
        }
        bics = {
            k: weighted_bic(points, weights, fit.labels, fit.centers)
            for k, fit in fits.items()
        }
        assert bics[2] >= bics[6]

    def test_shape_mismatch(self):
        with pytest.raises(ClusteringError):
            weighted_bic(np.ones((4, 2)), np.ones(3),
                         np.zeros(4, dtype=int), np.ones((1, 2)))


class TestSimPointClusterer:
    def _clusterer(self, max_k=8):
        return SimPointClusterer(SimPointConfig(max_k=max_k,
                                                kmeans_restarts=2))

    def test_finds_phase_structure(self):
        rng = np.random.default_rng(5)
        phases = [rng.random(40) for _ in range(3)]
        signatures = np.vstack([
            phases[i % 3] + rng.normal(0, 1e-3, 40) for i in range(24)
        ])
        weights = np.ones(24) * 100
        result = self._clusterer().fit(signatures, weights)
        assert result.chosen_k == 3
        # regions of the same phase share labels
        for i in range(0, 24, 3):
            assert result.labels[i] == result.labels[0]

    def test_representative_is_member(self):
        rng = np.random.default_rng(6)
        signatures = rng.random((12, 20))
        weights = rng.random(12) + 1.0
        result = self._clusterer(max_k=4).fit(signatures, weights)
        for cluster, rep in enumerate(result.representatives):
            assert result.labels[rep] == cluster

    def test_single_region(self):
        result = self._clusterer().fit(np.ones((1, 5)), np.array([10.0]))
        assert result.chosen_k == 1
        assert result.representatives == (0,)

    def test_max_k_respected(self):
        rng = np.random.default_rng(7)
        signatures = rng.random((30, 10))
        result = self._clusterer(max_k=5).fit(signatures, np.ones(30))
        assert result.chosen_k <= 5

    def test_ties_prefer_heavier_representative(self):
        signatures = np.vstack([np.ones(5), np.ones(5), np.zeros(5)])
        weights = np.array([1.0, 50.0, 10.0])
        result = self._clusterer(max_k=2).fit(signatures, weights)
        cluster_of_dup = result.labels[0]
        rep = result.representatives[cluster_of_dup]
        assert rep == 1  # the heavier of the two identical regions

    def test_bad_inputs(self):
        with pytest.raises(ClusteringError):
            self._clusterer().fit(np.ones((0, 3)), np.ones(0))
        with pytest.raises(ClusteringError):
            self._clusterer().fit(np.ones((3, 3)), np.ones(4))

    def test_duplicate_heavy_signatures_keep_diagnostics_consistent(self):
        """Regression: with duplicate-heavy data the reported diagnostics
        must stay self-consistent — ``chosen_k`` keys ``bic_by_k`` while
        ``num_clusters`` counts the compacted clusters."""
        signatures = np.vstack([
            np.zeros(6) if i % 2 else np.ones(6) for i in range(12)
        ])
        result = self._clusterer(max_k=6).fit(signatures, np.ones(12))
        assert result.chosen_k in result.bic_by_k
        assert result.num_clusters == len(result.representatives)
        assert result.num_clusters <= result.chosen_k
        assert int(result.labels.max()) + 1 == result.num_clusters
        covered = sorted(
            i
            for cluster in range(result.num_clusters)
            for i in result.members_of(cluster).tolist()
        )
        assert covered == list(range(12))

    def test_empty_cluster_drop_records_selected_k(self, monkeypatch):
        """Regression: when compaction drops an empty cluster, the result
        must still report the *selected* pre-compaction k (a ``bic_by_k``
        key), with the compacted count in ``num_clusters``."""
        from types import SimpleNamespace

        from repro.clustering import simpoint as sp

        def fake_kmeans(points, weights, k, seed, max_iterations, restarts):
            if k == 3:  # cluster 1 comes back empty
                labels = np.array([0, 0, 2, 2, 0, 2])
            else:
                labels = np.arange(points.shape[0]) % k
            centers = np.vstack([
                points[labels == j].mean(axis=0)
                if np.any(labels == j) else np.zeros(points.shape[1])
                for j in range(k)
            ])
            return SimpleNamespace(labels=labels, centers=centers)

        monkeypatch.setattr(sp, "weighted_kmeans", fake_kmeans)
        # Monotone scores make the BIC rule select the largest k (3).
        monkeypatch.setattr(
            sp, "weighted_bic", lambda p, w, labels, c: float(c.shape[0])
        )
        signatures = np.arange(24, dtype=float).reshape(6, 4)
        result = SimPointClusterer(
            SimPointConfig(max_k=3, kmeans_restarts=1)
        ).fit(signatures, np.ones(6))
        assert result.chosen_k == 3
        assert result.chosen_k in result.bic_by_k
        assert result.num_clusters == 2
        assert len(result.representatives) == 2
        assert set(result.labels.tolist()) == {0, 1}  # renumbered densely

    def test_members_of(self):
        rng = np.random.default_rng(8)
        signatures = rng.random((10, 8))
        result = self._clusterer(max_k=3).fit(signatures, np.ones(10))
        seen = []
        for cluster in range(result.num_clusters):
            seen.extend(result.members_of(cluster).tolist())
        assert sorted(seen) == list(range(10))


def _per_max_k_oracle(clusterer, signatures, weights, max_k):
    """One independent k = 1..min(maxK, n) sweep, as before derivation."""
    cfg = clusterer.config
    projected = random_projection(signatures, cfg.projected_dims, cfg.seed)
    fits, bic_by_k = {}, {}
    for k in range(1, min(max_k, signatures.shape[0]) + 1):
        fits[k] = weighted_kmeans(
            projected, weights, k,
            seed=cfg.seed + k,
            max_iterations=cfg.kmeans_iterations,
            restarts=cfg.kmeans_restarts,
        )
        bic_by_k[k] = weighted_bic(
            projected, weights, fits[k].labels, fits[k].centers
        )
    chosen_k = clusterer._select_k(bic_by_k)
    labels, centers = clusterer._compact(
        fits[chosen_k].labels, fits[chosen_k].centers
    )
    reps = clusterer._representatives(projected, weights, labels, centers)
    return labels, reps, chosen_k, bic_by_k


def _sweep_case(name):
    rng = np.random.default_rng(11)
    if name == "random":
        return rng.random((40, 24)), rng.integers(1, 500, 40).astype(float)
    if name == "duplicates":
        rows = rng.random((4, 24))[rng.integers(0, 4, 30)]
        return rows, rng.integers(1, 500, 30).astype(float)
    return rng.random((7, 24)), np.ones(7)  # n < maxK


class TestSweepDerivation:
    """``fit(..., max_ks)`` equals one independent sweep per maxK."""

    MAX_KS = (1, 5, 10, 20)

    @staticmethod
    def _clusterer():
        return SimPointClusterer(SimPointConfig(kmeans_restarts=2))

    @pytest.mark.parametrize("case", ["random", "duplicates", "small"])
    def test_matches_per_max_k_oracle(self, case):
        signatures, weights = _sweep_case(case)
        clusterer = self._clusterer()
        derived = clusterer.fit(signatures, weights, self.MAX_KS)
        assert sorted(derived) == list(self.MAX_KS)
        for max_k in self.MAX_KS:
            labels, reps, chosen_k, bic_by_k = _per_max_k_oracle(
                clusterer, signatures, weights, max_k
            )
            result = derived[max_k]
            assert result.labels.tolist() == labels.tolist()
            assert result.representatives == reps
            assert result.chosen_k == chosen_k
            assert result.bic_by_k == bic_by_k

    def test_default_fit_is_the_configured_max_k(self):
        signatures, weights = _sweep_case("random")
        clusterer = self._clusterer()
        max_k = clusterer.config.max_k
        single = clusterer.fit(signatures, weights)
        many = clusterer.fit(signatures, weights, (max_k,))
        assert single.labels.tolist() == many[max_k].labels.tolist()
        assert single.representatives == many[max_k].representatives
        assert single.bic_by_k == many[max_k].bic_by_k

    @pytest.mark.parametrize("case", ["random", "small"])
    def test_one_sweep_of_kmeans_fits(self, case, monkeypatch):
        signatures, weights = _sweep_case(case)
        calls = []
        real = simpoint.weighted_kmeans

        def counting(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(simpoint, "weighted_kmeans", counting)
        self._clusterer().fit(signatures, weights, self.MAX_KS)
        n = signatures.shape[0]
        assert calls == list(range(1, min(max(self.MAX_KS), n) + 1))

    def test_bad_max_ks(self):
        signatures, weights = _sweep_case("small")
        for bad in ((), (0, 5)):
            with pytest.raises(ClusteringError):
                self._clusterer().fit(signatures, weights, bad)

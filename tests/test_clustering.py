"""Tests for k-means."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import KMeans, pairwise_sq_distances


def two_blobs(n=30, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, size=(n, 3))
    b = rng.normal(separation, 0.5, size=(n, 3))
    return np.vstack([a, b])


class TestPairwiseDistances:
    def test_matches_manual(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        b = np.array([[3.0, 4.0]])
        d = pairwise_sq_distances(a, b)
        assert d[0, 0] == pytest.approx(25.0)
        assert d[1, 0] == pytest.approx(13.0)

    def test_non_negative(self):
        x = np.random.default_rng(1).normal(size=(10, 4))
        assert (pairwise_sq_distances(x, x) >= 0).all()

    def test_self_distance_zero(self):
        x = np.random.default_rng(1).normal(size=(5, 4))
        d = pairwise_sq_distances(x, x)
        assert np.diag(d) == pytest.approx(np.zeros(5), abs=1e-8)


class TestKMeans:
    def test_separates_two_blobs(self):
        x = two_blobs()
        model = KMeans(k=2, seed=0).fit(x)
        labels = model.labels
        assert len(set(labels[:30])) == 1
        assert len(set(labels[30:])) == 1
        assert labels[0] != labels[-1]

    def test_validation(self):
        with pytest.raises(ValueError):
            KMeans(k=0)
        with pytest.raises(ValueError):
            KMeans(k=5).fit(np.zeros((3, 2)))

    def test_use_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KMeans(k=2).nearest(np.zeros((1, 2)))

    def test_deterministic_with_seed(self):
        x = two_blobs(seed=3)
        a = KMeans(k=2, seed=7).fit(x)
        b = KMeans(k=2, seed=7).fit(x)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.centroids, b.centroids)

    def test_inertia_decreases_with_more_clusters(self):
        x = two_blobs()
        i2 = KMeans(k=2, seed=0).fit(x).inertia
        i4 = KMeans(k=4, seed=0).fit(x).inertia
        assert i4 <= i2

    def test_predict_assigns_nearest_centroid(self):
        x = two_blobs()
        model = KMeans(k=2, seed=0).fit(x)
        new = np.array([[0.1, 0.0, 0.0], [10.0, 10.0, 10.0]])
        labels, _ = model.nearest(new)
        d = pairwise_sq_distances(new, model.centroids)
        np.testing.assert_array_equal(labels, d.argmin(axis=1))

    def test_distances_are_euclidean(self):
        x = two_blobs()
        model = KMeans(k=2, seed=0).fit(x)
        point = x[:1]
        dist = model.nearest(point)[1][0]
        manual = np.sqrt(
            ((point[0] - model.centroids) ** 2).sum(axis=1).min()
        )
        assert dist == pytest.approx(manual)

    def test_duplicate_points_do_not_crash(self):
        x = np.ones((10, 3))
        model = KMeans(k=2, seed=0).fit(x)
        assert model.inertia == pytest.approx(0.0)

    def test_k1_centroid_is_mean(self):
        x = two_blobs()
        model = KMeans(k=1, seed=0).fit(x)
        np.testing.assert_allclose(model.centroids[0], x.mean(axis=0), atol=1e-8)

    def test_inertia_is_sum_of_squared_distances_to_own_centroid(self):
        x = two_blobs()
        model = KMeans(k=2, seed=0).fit(x)
        residuals = x - model.centroids[model.labels]
        assert model.inertia == pytest.approx(float((residuals**2).sum()))

    def test_converged_centroids_are_member_means(self):
        x = two_blobs()
        model = KMeans(k=2, seed=0).fit(x)
        for label in range(model.k):
            members = x[model.labels == label]
            np.testing.assert_allclose(
                model.centroids[label], members.mean(axis=0), atol=1e-8
            )

    def test_tight_and_wide_blobs_keep_their_spread(self):
        rng = np.random.default_rng(3)
        tight = rng.normal(0.0, 0.1, size=(40, 3))
        wide = rng.normal(20.0, 2.0, size=(40, 3))
        x = np.vstack([tight, wide])
        model = KMeans(k=2, seed=0).fit(x)
        tight_label, wide_label = model.labels[0], model.labels[-1]
        assert tight_label != wide_label
        assert (model.labels[:40] == tight_label).all()
        assert (model.labels[40:] == wide_label).all()

        def rms(label):
            members = x[model.labels == label]
            d2 = ((members - model.centroids[label]) ** 2).sum(axis=1)
            return float(np.sqrt(d2.mean()))

        assert rms(wide_label) > 5 * rms(tight_label)

    @given(
        seed=st.integers(min_value=0, max_value=1000),
        separation=st.floats(min_value=5.0, max_value=50.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_assignment_invariant(self, seed, separation):
        """Every training point is assigned to its nearest centroid."""
        x = two_blobs(n=15, separation=separation, seed=seed)
        model = KMeans(k=2, seed=seed).fit(x)
        d = pairwise_sq_distances(x, model.centroids)
        np.testing.assert_array_equal(model.labels, d.argmin(axis=1))


# ---------------------------------------------------------------------------
# Early-abandon equivalence (restart-level optimisation must be exact)
# ---------------------------------------------------------------------------


class _ReferenceKMeans(KMeans):
    """The classic Lloyd loop (pre-early-abandon), kept verbatim as the
    oracle: every restart runs to shift-convergence and recomputes the
    final assignment, with no fixpoint shortcut and no abandonment."""

    def _lloyd(self, x, centroids, rng, abandon_above=None):
        for _ in range(self.max_iter):
            d2 = pairwise_sq_distances(x, centroids)
            labels = d2.argmin(axis=1)
            new_centroids = centroids.copy()
            for j in range(self.k):
                members = x[labels == j]
                if len(members):
                    new_centroids[j] = members.mean(axis=0)
                else:
                    new_centroids[j] = x[int(d2.min(axis=1).argmax())]
            shift = float(np.linalg.norm(new_centroids - centroids))
            centroids = new_centroids
            if shift < self.tol:
                break
        d2 = pairwise_sq_distances(x, centroids)
        labels = d2.argmin(axis=1)
        return centroids, labels, float(d2[np.arange(len(x)), labels].sum())


def _assert_fits_identical(x, k, n_init, seed, max_iter=100, tol=1e-6):
    fast = KMeans(k=k, n_init=n_init, seed=seed, max_iter=max_iter, tol=tol).fit(x)
    slow = _ReferenceKMeans(
        k=k, n_init=n_init, seed=seed, max_iter=max_iter, tol=tol
    ).fit(x)
    assert np.array_equal(fast.centroids, slow.centroids)
    assert np.array_equal(fast.labels, slow.labels)
    assert fast.inertia == slow.inertia  # bit-exact, not approx


class TestEarlyAbandonEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n=st.integers(min_value=4, max_value=40),
        d=st.integers(min_value=1, max_value=5),
        k=st.integers(min_value=1, max_value=4),
        n_init=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_fit_bit_identical_to_reference(self, seed, n, d, k, n_init):
        """Abandoned restarts provably cannot win, and the retained
        best restart's results are bit-identical to the classic loop."""
        if n < k:
            n = k
        rng = np.random.default_rng(seed)
        # clustered + degenerate structure: duplicated rows force ties
        # and (for k close to the distinct-point count) empty clusters.
        base = rng.normal(scale=rng.uniform(0.1, 5.0), size=(n, d))
        x = np.vstack([base, base[: max(1, n // 3)]])
        _assert_fits_identical(x, k=k, n_init=n_init, seed=seed % 1000)

    def test_fit_bit_identical_on_blobs(self):
        x = two_blobs(n=40)
        for n_init in (1, 2, 4, 8):
            _assert_fits_identical(x, k=2, n_init=n_init, seed=0)

    def test_fit_bit_identical_with_duplicate_points(self):
        """All-identical samples: every centroid collapses, empty
        clusters reseed — the fixpoint shortcut must stay out of the
        way and defer to the classic path."""
        x = np.zeros((6, 2))
        _assert_fits_identical(x, k=3, n_init=4, seed=1)

    def test_fit_bit_identical_under_tight_iteration_budget(self):
        x = two_blobs(n=25, separation=1.0, seed=3)
        _assert_fits_identical(x, k=3, n_init=5, seed=2, max_iter=2)

    def test_abandoned_restart_never_wins(self):
        """The winning inertia equals the minimum over every restart's
        fully-converged inertia (oracle: reference with the same
        stream), so abandonment can only ever drop losers."""
        x = two_blobs(n=35, separation=2.0, seed=4)
        fast = KMeans(k=2, n_init=8, seed=5).fit(x)
        slow = _ReferenceKMeans(k=2, n_init=8, seed=5).fit(x)
        assert fast.inertia == slow.inertia

"""k-means, the ground-truth similarity function.

The paper's similarity function is k-means (§5.4, "battle-tested
k-means implementation openly available in scikit-learn") and it
evaluates k = 2 only; this is the one model the ground truth fits.

Implemented from scratch on numpy (scikit-learn is not available in
this environment): k-means uses k-means++ seeding and Lloyd iterations
with an empty-cluster repair step.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..workloads.spec import rng_for


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2:
        raise ValueError("expected a 2-D sample matrix")
    return x


def pairwise_sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between row sets ``a`` and ``b``."""
    # np.add.reduce is what np.sum calls, without its Python dispatch.
    a2 = np.add.reduce(a * a, axis=1)[:, None]
    b2 = np.add.reduce(b * b, axis=1)[None, :]
    return np.maximum(0.0, a2 + b2 - 2.0 * a @ b.T)


class KMeans:
    """Lloyd's k-means with k-means++ initialisation.

    Attributes after :meth:`fit`:

    * ``centroids`` — (k, d) array,
    * ``labels`` — training assignment,
    * ``inertia`` — sum of squared distances to assigned centroids
      (the quantity PipeTune compares its similarity threshold
      against, §5.6).
    """

    def __init__(
        self,
        k: int = 2,
        max_iter: int = 100,
        tol: float = 1e-6,
        n_init: int = 4,
        seed: int = 0,
    ):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self.max_iter = max_iter
        self.tol = tol
        self.n_init = max(1, n_init)
        self.seed = seed
        self.centroids: Optional[np.ndarray] = None
        self.labels: Optional[np.ndarray] = None
        self.inertia: float = float("inf")

    # -- fitting ------------------------------------------------------------
    def _init_centroids(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++ seeding."""
        n = len(x)
        centroids = [x[int(rng.integers(0, n))]]
        while len(centroids) < self.k:
            d2 = pairwise_sq_distances(x, np.array(centroids)).min(axis=1)
            total = float(d2.sum())
            if total <= 0:
                centroids.append(x[int(rng.integers(0, n))])
                continue
            probs = d2 / total
            centroids.append(x[int(rng.choice(n, p=probs))])
        return np.array(centroids)

    def _lloyd(
        self,
        x: np.ndarray,
        centroids: np.ndarray,
        rng: np.random.Generator,
        abandon_above: Optional[float] = None,
    ):
        """One Lloyd descent; ``None`` when abandoned as a sure loser.

        Restart-level early abandonment: ``abandon_above`` carries the
        best completed restart's inertia. The running inertia of a
        descent decreases monotonically, so exceeding the bound
        mid-descent proves nothing — the sound abandonment point is
        the *assignment fixpoint* (labels unchanged between
        iterations with every cluster non-empty), where the running
        inertia IS the final inertia: the centroid update would
        recompute bit-identical means, the shift would be exactly
        zero, and the classic loop would only burn two more full
        distance matrices re-deriving the same result. At that point
        a restart at or above the bound can never win (ties keep the
        earlier restart), so it is dropped before the final
        recomputation; a winner returns the identical
        (centroids, labels, inertia) the classic loop
        produces — bit-for-bit (tests/test_clustering.py proves it).
        """
        previous_labels = None
        for _ in range(self.max_iter):
            d2 = pairwise_sq_distances(x, centroids)
            labels = d2.argmin(axis=1)
            if (
                previous_labels is not None
                and np.array_equal(labels, previous_labels)
                and np.bincount(labels, minlength=self.k).all()
            ):
                inertia = float(d2[np.arange(len(x)), labels].sum())
                if abandon_above is not None and inertia >= abandon_above:
                    return None
                return centroids, labels, inertia
            previous_labels = labels
            new_centroids = centroids.copy()
            for j in range(self.k):
                members = x[labels == j]
                if len(members):
                    new_centroids[j] = members.mean(axis=0)
                else:
                    # Empty cluster: reseed at the farthest point.
                    new_centroids[j] = x[int(d2.min(axis=1).argmax())]
            shift = float(np.linalg.norm(new_centroids - centroids))
            centroids = new_centroids
            if shift < self.tol:
                break
        d2 = pairwise_sq_distances(x, centroids)
        labels = d2.argmin(axis=1)
        return centroids, labels, float(d2[np.arange(len(x)), labels].sum())

    def fit(self, x) -> "KMeans":
        x = _as_matrix(x)
        if len(x) < self.k:
            raise ValueError(f"need at least k={self.k} samples, got {len(x)}")
        rng = rng_for("kmeans", self.seed)
        best = None
        for _ in range(self.n_init):
            # Every restart consumes its k-means++ draws whether or not
            # its descent is abandoned, so the stream is untouched.
            centroids = self._init_centroids(x, rng)
            result = self._lloyd(
                x, centroids, rng, abandon_above=None if best is None else best[2]
            )
            if result is None:
                continue
            if best is None or result[2] < best[2]:
                best = result
        self.centroids, self.labels, self.inertia = best
        return self

    # -- inference -----------------------------------------------------------
    def _require_fit(self):
        if self.centroids is None:
            raise RuntimeError("KMeans used before fit()")

    def nearest(self, x) -> Tuple[np.ndarray, np.ndarray]:
        """Nearest-centroid label and Euclidean distance of each sample.

        One squared-distance matrix feeds both: the label is each row's
        argmin and the distance the square root of the row's minimum.
        """
        self._require_fit()
        d2 = pairwise_sq_distances(_as_matrix(x), self.centroids)
        return d2.argmin(axis=1), np.sqrt(d2.min(axis=1))

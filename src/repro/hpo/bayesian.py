"""Gaussian-process Bayesian optimisation (Snoek et al., 2012 style).

A small, dependency-light implementation: RBF-kernel GP regression on
the unit-cube-normalised search space, expected-improvement
acquisition maximised by candidate sampling. Listed among the paper's
supported hyperparameter optimisation algorithms (Fig 7).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .algorithms import SearchAlgorithm, Suggestion
from .space import SearchSpace


def rbf_kernel(
    a: np.ndarray, b: np.ndarray, length_scale: float, variance: float
) -> np.ndarray:
    """Squared-exponential kernel matrix between row-stacked points."""
    a2 = np.sum(a * a, axis=1)[:, None]
    b2 = np.sum(b * b, axis=1)[None, :]
    sq = np.maximum(0.0, a2 + b2 - 2.0 * a @ b.T)
    return variance * np.exp(-0.5 * sq / (length_scale * length_scale))


class GaussianProcess:
    """Exact GP regression with an RBF kernel and fixed hyperparameters."""

    def __init__(
        self, length_scale: float = 0.25, variance: float = 1.0, noise: float = 1e-4
    ):
        if length_scale <= 0 or variance <= 0 or noise <= 0:
            raise ValueError("GP hyperparameters must be positive")
        self.length_scale = length_scale
        self.variance = variance
        self.noise = noise
        self._x: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._chol: Optional[np.ndarray] = None
        self._y_mean = 0.0
        self._y_std = 1.0

    def fit(self, x: np.ndarray, y: np.ndarray) -> None:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float)
        if len(x) != len(y):
            raise ValueError("x and y length mismatch")
        self._y_mean = float(np.mean(y))
        self._y_std = float(np.std(y)) or 1.0
        centred = (y - self._y_mean) / self._y_std
        k = rbf_kernel(x, x, self.length_scale, self.variance)
        k[np.diag_indices_from(k)] += self.noise
        self._chol = np.linalg.cholesky(k)
        self._alpha = np.linalg.solve(
            self._chol.T, np.linalg.solve(self._chol, centred)
        )
        self._x = x

    def predict(self, x: np.ndarray):
        """Posterior mean and std at the query points."""
        if self._x is None:
            raise RuntimeError("predict() before fit()")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        k_star = rbf_kernel(self._x, x, self.length_scale, self.variance)
        mean = k_star.T @ self._alpha
        v = np.linalg.solve(self._chol, k_star)
        var = self.variance - np.sum(v * v, axis=0)
        var = np.maximum(var, 1e-12)
        return (
            mean * self._y_std + self._y_mean,
            np.sqrt(var) * self._y_std,
        )


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    return 0.5 * (
        1.0 + np.array([math.erf(v / math.sqrt(2.0)) for v in np.atleast_1d(z)])
    )


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def expected_improvement(
    mean: np.ndarray, std: np.ndarray, best: float, xi: float = 0.01
) -> np.ndarray:
    """EI acquisition for maximisation."""
    improvement = mean - best - xi
    z = improvement / std
    return improvement * _norm_cdf(z) + std * _norm_pdf(z)


class BayesianOptimisation(SearchAlgorithm):
    """Sequential GP-EI search with an initial random design."""

    def __init__(
        self,
        space: SearchSpace,
        num_samples: int = 20,
        initial_random: int = 5,
        epochs: int = 10,
        candidates: int = 256,
        seed: int = 0,
    ):
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        super().__init__(space, seed=seed)
        self.num_samples = num_samples
        self.initial_random = min(initial_random, num_samples)
        self.candidates = candidates
        self._default_epochs = epochs
        self._emitted = 0

    def _propose(self) -> Dict:
        if self._emitted < self.initial_random or len(self._observations) < 2:
            return self.space.sample(self._rng)
        x = np.array([self.space.normalise(o.params) for o in self._observations])
        y = np.array([o.score for o in self._observations])
        gp = GaussianProcess()
        try:
            gp.fit(x, y)
        except np.linalg.LinAlgError:
            return self.space.sample(self._rng)
        candidate_configs = [
            self.space.sample(self._rng) for _ in range(self.candidates)
        ]
        candidate_x = np.array(
            [self.space.normalise(c) for c in candidate_configs]
        )
        mean, std = gp.predict(candidate_x)
        scores = expected_improvement(mean, std, float(np.max(y)))
        return candidate_configs[int(np.argmax(scores))]

    def next_batch(self) -> List[Suggestion]:
        # Strictly sequential: GP-EI conditions on all finished trials.
        if self._pending or self._emitted >= self.num_samples:
            return []
        config = self._propose()
        self._emitted += 1
        epochs = int(config.get("epochs", self._default_epochs))
        return [
            self._issue(
                Suggestion(
                    trial_id=self._new_id("bo"),
                    params=config,
                    target_epochs=epochs,
                    tag="bayesopt",
                )
            )
        ]

    @property
    def done(self) -> bool:
        return self._emitted >= self.num_samples and not self._pending
